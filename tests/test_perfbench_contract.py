"""The benchmark tracer's patch list still names real bindings.

`perfbench/tracer.py` wraps simulator functions by module attribute. A
rename under `src/` would otherwise surface only when a traced benchmark
run fails; here it fails the suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_patch_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    bindings = tracer.pristine_bindings()  # raises AttributeError on a stale name
    assert len(bindings) == len({(owner, attr) for owner, attr, _, _ in tracer.PATCHES})
    assert all(callable(fn) for fn in bindings.values())
