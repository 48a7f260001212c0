"""The benchmark tracer's patch list still names real bindings, and still sees work.

`perfbench/tracer.py` wraps simulator functions by module attribute and
reads simulated work off their return values. A rename under `src/`, or a
call that stops going through a patched binding, would otherwise surface
only when a traced benchmark run fails or reads zero; here it fails the
suite.
"""

import sys
from pathlib import Path

from delottery_sim import parse_scenario, run_many

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GRIND = parse_scenario(
    """
    name = grind
    rounds = 2
    rng_mode = naive
    [player]
    seed_material = entropy-source
    shares = 0
    [attacker]
    kind = node
    seed_material = colluder
    mining_share = 9/10
    guesses = 9
    """
)

FLOOD = parse_scenario(
    """
    name = flood
    rounds = 2
    pow_difficulty_bits = 250
    [player]
    seed_material = host
    [attacker]
    kind = sybil
    fake_count = 3
    budget = 1000
    """
)


def import_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_tracer_patch_resolves():
    tracer = import_tracer()
    bindings = tracer.pristine_bindings()  # raises AttributeError on a stale name
    assert len(bindings) == len({(owner, attr) for owner, attr, _, _ in tracer.PATCHES})
    assert all(callable(fn) for fn in bindings.values())


def test_traced_runs_count_rounds_withholds_and_pow_attempts():
    tracer = import_tracer()
    before = tracer.pristine_bindings()
    t = tracer.Tracer()
    with t.active():
        run_many(GRIND, 1)
        run_many(FLOOD, 1)
    assert tracer.pristine_bindings() == before  # every patch put back
    assert t.work["rounds"] == GRIND.rounds + FLOOD.rounds
    assert t.work["withheld"] > 0
    assert t.work["bounded_pow.attempts"] > 0
