"""The benchmark tracer's patch list still names real bindings, and still sees work.

`perfbench/tracer.py` wraps simulator functions by module attribute and
reads simulated work off their return values. A rename under `src/`, or a
call that stops going through a patched binding, would otherwise surface
only when a traced benchmark run fails or reads zero; here it fails the
suite.

The seeds of one `run_many` call share a PoW memo. The tracer's attempt
counters must still read simulated work on a remembered proof, and no
remembered proof may outlive its call, or later benchmark passes would time
cache hits.
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


def test_attempt_counter_is_simulated_work_on_memo_hits():
    tracer = import_tracer()
    t = tracer.Tracer()
    with t.active():
        report = run_many(FLOOD, 2)
    spend = sum(row["sybil_spend"] for row in report.data["per_seed"])
    assert spend > 0
    assert t.work["bounded_pow.attempts"] == spend == report.data["sybil"]["sybil_spend"]


def test_memo_saves_hashes_within_a_call_and_none_survives_it():
    tracer = import_tracer()
    t = tracer.Tracer()
    hashes = []
    with t.active():
        for n_seeds in (1, 2, 2):
            before = t.calls("hashing.H")
            run_many(FLOOD, n_seeds)
            hashes.append(t.calls("hashing.H") - before)
    one, first, second = hashes
    assert first < 2 * one  # seed 2 reuses seed 1's proofs
    assert first == second  # and the next call starts from an empty memo
