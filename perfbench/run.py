"""Benchmark of delottery-sim: simulated rounds per host second, end to end.

    python3 perfbench/run.py --workload fairness --seed 0 --seconds 36 --trace 0

Run it from anywhere; it imports the simulator from `src/` next to this
directory and exits non-zero, printing no result, when that is missing.

Two clocks appear in the output. Host time is wall seconds on the machine
running it (time.perf_counter). Simulated work (rounds, events, blocks,
hashes, proof-of-work attempts) is exact and repeats bit for bit.

`--trace 0` times whole passes with nothing instrumented. A pass is one
`run_many` call over SEEDS_PER_PASS seeds plus `report_json_bytes` and
`verify_report` on its report. Passes repeat for about `--seconds`
seconds (at least MIN_PASSES of them). It prints the end-to-end metrics:
rounds_per_s (median over passes), setup_s (median over SETUP_RUNS fresh
interpreters), peak_rss_mb (this process and any workers it forks; see
TreeRss), and fail_frac, which also goes out as `failed`/`attempted` in
the JSON line.

`--trace 1` runs TRACED_PASSES passes twice each, untraced and then
traced (see tracer.py), and prints the per-layer metrics: exact work
counts per simulated round, self seconds per pass, and the tracing
overhead. The pass count is fixed rather than timed so the counters repeat
exactly. The spans go to perfbench/traces/<workload>.csv.gz.

Every pass is gated: `verify_report` must find no problem, every seed's
conservation residual must be 0, and the SHA-256 of the report bytes must
equal the digest pinned in digests.json for that workload and base seed.
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (
    PASSES_PER_SLOT,
    SEEDS_PER_PASS,
    WORKLOADS,
    pass_base_seed,
    slot_of,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
TRACES = HERE / "traces"

MIN_PASSES = 3
SETUP_RUNS = 31
TRACED_PASSES = 2
# Traced passes: the layers' self times must add up to the pass wall time
# within this share of it. Only the benchmark's own glue between its three
# calls is outside every layer; it measures under 0.001%.
ACCOUNTING_TOLERANCE = 0.001
RSS_SAMPLE_S = 0.05
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024

# Runs in a fresh interpreter: import the package, then parse and validate
# the workload's scenario. That is everything on the first-call path.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import delottery_sim
delottery_sim.parse_scenario(sys.argv[2])
t1 = time.perf_counter()
if not delottery_sim.__file__.startswith(sys.argv[1]):
    sys.exit("imported delottery_sim from " + delottery_sim.__file__)
print(repr(t1 - t0))
"""


def import_program():
    """Import the simulator from src/ beside the benchmark, and nowhere else."""
    package = SRC / "delottery_sim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator source not found at {package}")
    sys.path.insert(0, str(SRC))
    import delottery_sim

    if Path(delottery_sim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported delottery_sim from {delottery_sim.__file__}")
    return delottery_sim


def measure_setup(text: str) -> list:
    """Import-plus-parse seconds in SETUP_RUNS fresh interpreters.

    One more interpreter runs first and is not counted: it writes the
    bytecode cache, which a user pays for once.
    """
    samples = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), text],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout))
    return samples[1:]


def tree_rss_kib(pid: int) -> int:
    """Resident KiB of process `pid` and all of its live descendants now."""
    try:
        pages = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        children = [
            int(child)
            for task in Path(f"/proc/{pid}/task").iterdir()
            for child in (task / "children").read_text().split()
        ]
    except (FileNotFoundError, ProcessLookupError):
        return 0  # it ended while being read
    return pages * PAGE_KIB + sum(tree_rss_kib(child) for child in children)


class TreeRss:
    """High-water resident memory of this process and its worker processes.

    This process's own peak comes exact from getrusage. Workers are summed
    with this process by sampling /proc every RSS_SAMPLE_S seconds from a
    thread, so a worker that lives shorter than that may be missed. Pages
    a worker shares with this process count once for each of them.
    RUSAGE_CHILDREN is no help: it keeps only the largest single child, and
    only once it has been reaped.
    """

    def __init__(self):
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak_kib = max(self.peak_kib, tree_rss_kib(pid))

    def __enter__(self):
        if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            sys.exit("perfbench: /proc/<pid>/task/<tid>/children is missing; "
                     "worker memory cannot be measured")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_kib) / 1024


class Passes:
    """Runs and gates the passes of one workload for one benchmark seed."""

    def __init__(self, sim, workload, seed: int):
        self.sim = sim
        self.workload = workload
        self.slot = slot_of(seed)
        self.pinned = json.loads(DIGESTS.read_text())[workload.name][str(self.slot)]
        self.attempted = 0
        self.failures: list[str] = []

    def scenario(self, index: int, parse=None):
        parse = parse or self.sim.parse_scenario
        return parse(self.workload.text(pass_base_seed(self.slot, index)))

    def run(self, index: int, sc, run_many=None, emit=None, verify=None) -> float:
        """Time one pass over `sc`, gate its report, return its wall seconds."""
        run_many = run_many or self.sim.run_many
        emit = emit or self.sim.report_json_bytes
        verify = verify or self.sim.verify_report
        t0 = time.perf_counter()
        report = run_many(sc, SEEDS_PER_PASS)
        blob = emit(report)
        problems = verify(report.data)
        wall = time.perf_counter() - t0
        self.gate(index, report.data, blob, problems)
        return wall

    def gate(self, index: int, data: dict, blob: bytes, problems: list) -> None:
        problems = list(problems)
        for entry in data["per_seed"]:
            if entry["conservation_residual"] != 0:
                problems.append(f"seed {entry['seed']}: residual {entry['conservation_residual']}")
        digest = hashlib.sha256(blob).hexdigest()
        expected = self.pinned[index % PASSES_PER_SLOT]
        if digest != expected:
            problems.append(f"report sha256 {digest} != pinned {expected}")
        self.attempted += 1
        if problems:
            base = pass_base_seed(self.slot, index)
            self.failures.append(f"pass {index} (base seed {base}): " + "; ".join(problems))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced(sim, workload, passes: Passes, seconds: float) -> dict:
    rates = []
    start = time.perf_counter()
    index = 0
    with TreeRss() as memory:  # stopped before the set-up interpreters start
        while True:
            wall = passes.run(index, passes.scenario(index))
            rates.append(workload.rounds_per_pass / wall)
            index += 1
            elapsed = time.perf_counter() - start
            if index >= MIN_PASSES and elapsed + wall > seconds:
                break
    rss = memory.peak_mb()
    setup = measure_setup(workload.text(pass_base_seed(passes.slot, 0)))
    q1, q3 = quartiles(rates)
    print(f"rounds_per_s {statistics.median(rates):.1f} rounds/s  median of {len(rates)} "
          f"passes of {workload.rounds_per_pass} rounds, quartiles {q1:.1f} .. {q3:.1f}")
    print(f"setup_s {statistics.median(setup):.5f} s  median of {len(setup)} interpreters, "
          f"range {min(setup):.5f} .. {max(setup):.5f}")
    print(f"peak_rss_mb {rss:.2f} MiB")
    return {
        "rounds_per_s": (statistics.median(rates), "rounds/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def tracer_self_check(sim, pristine: dict) -> list:
    """Hand-countable cases; returns what went wrong."""
    import tracer as tr

    problems = []
    t = tr.Tracer()
    with t.active():
        before = t.calls("hashing.H")
        tr.harness.solve_pow(b"self-check", sim.MAX_TARGET)
        if t.calls("hashing.H") - before != 1 or t.work["solve_pow.attempts"] != 1:
            problems.append("solve_pow(c, MAX_TARGET) did not cost exactly 1 H")
        ledger = sim.Ledger()
        if t.calls("chain.block_hash") != 1:
            problems.append("Ledger() did not cost exactly 1 block_hash")
        sender = sim.create_account(ledger, b"self-check", 0).address
        h, enc = t.calls("hashing.H"), t.calls("chain.canonical_event_bytes")
        ledger.make_event("transfer", sender, {"amount": 0})
        if (t.calls("hashing.H") - h, t.calls("chain.canonical_event_bytes") - enc) != (1, 1):
            problems.append("make_event did not cost exactly 1 encode and 1 H")
    problems += restore_problems(pristine)
    return problems


def restore_problems(pristine: dict) -> list:
    return [
        f"{getattr(owner, '__name__', owner)}.{attr} is still patched"
        for (owner, attr), original in pristine.items()
        if getattr(owner, attr) is not original
    ]


def traced(sim, workload, passes: Passes, pristine: dict) -> tuple:
    import tracer as tr

    t = tr.Tracer()
    parse = t.wrap("scenario.load", sim.parse_scenario)
    run_many = t.wrap("harness.run_many", sim.run_many)
    emit = t.wrap("harness.emit", sim.report_json_bytes)
    verify = t.wrap("harness.verify", sim.verify_report)
    plain, walls = [], []
    for index in range(TRACED_PASSES):
        plain.append(passes.run(index, passes.scenario(index)))
        t.run = index
        with t.active():
            sc = passes.scenario(index, parse)
            walls.append(passes.run(index, sc, run_many, emit, verify))
    problems = restore_problems(pristine)

    n = TRACED_PASSES
    rounds = t.work["rounds"]
    calls = t.calls
    w = t.work

    timed = []  # every traced-name prefix a self-time metric sums

    def per_pass(*prefixes):
        timed.extend(prefixes)
        return sum(t.self_seconds(p) for p in prefixes) / n

    def ratio(num, den):
        return num / den if den else 0.0

    rows = [
        ("hashing.H.calls_per_round", calls("hashing.H") / rounds, "calls/round"),
        ("hashing.H.s", per_pass("hashing.H"), "s"),
        ("prng.stream_seed.calls_per_round", calls("prng.stream_seed") / rounds, "calls/round"),
        ("prng.s", per_pass("prng"), "s"),
        ("chain.events_per_round", calls("chain.make_event") / rounds, "events/round"),
        ("chain.encodes_per_event", ratio(calls("chain.canonical_event_bytes"), calls("chain.make_event")), "calls/event"),
        ("chain.blocks_per_round", calls("chain.mine_block") / rounds, "blocks/round"),
        ("chain.block_hashes_per_block", ratio(calls("chain.block_hash"), calls("chain.mine_block")), "calls/block"),
        ("chain.make_event.s", per_pass("chain.make_event"), "s"),
        ("chain.canonical_event_bytes.s", per_pass("chain.canonical_event_bytes"), "s"),
        ("chain.block_hash.s", per_pass("chain.block_hash"), "s"),
        ("chain.mine_block.s", per_pass("chain.mine_block"), "s"),
        ("chain.solve_pow.attempts_per_round", w["solve_pow.attempts"] / rounds, "attempts/round"),
        ("chain.solve_pow.s", per_pass("chain.solve_pow"), "s"),
        *((f"randao.{f}.s", per_pass(f"randao.{f}"), "s")
          for f in ("commit", "reveal", "finalize", "peek_output")),
        ("lottery.compute_deposit.calls_per_round", calls("lottery.compute_deposit") / rounds, "calls/round"),
        ("lottery.compute_deposit.s", per_pass("lottery.compute_deposit"), "s"),
        *((f"lottery.{f}.s", per_pass(f"lottery.{f}"), "s")
          for f in ("deploy", "add_player", "upload_key", "buy_shares", "reveal_key")),
        ("lottery.derive_winners.calls_per_round", calls("lottery.derive_winners") / rounds, "calls/round"),
        ("lottery.derive_winners.s", per_pass("lottery.derive_winners"), "s"),
        ("lottery.settle.s", per_pass("lottery.settle"), "s"),
        ("adversary.withheld_per_round", w["withheld"] / rounds, "blocks/round"),
        ("adversary.preview_block.calls_per_round", calls("adversary.preview_block") / rounds, "calls/round"),
        ("adversary.draw_round.s", per_pass("adversary.draw_round"), "s"),
        ("adversary.bounded_pow.attempts_per_round", w["bounded_pow.attempts"] / rounds, "attempts/round"),
        ("adversary.bounded_pow.s", per_pass("adversary.bounded_pow"), "s"),
        ("adversary.pow.useful_ratio",
         ratio(w["solve_pow.proofs"] + w["bounded_pow.proofs"],
               w["solve_pow.attempts"] + w["bounded_pow.attempts"]), "proofs/attempt"),
        ("scenario.load.s", per_pass("scenario.load"), "s"),
        ("harness.self.s", per_pass("harness.run_many", "harness.run_once"), "s"),
        ("harness.emit.s", per_pass("harness.emit"), "s"),
        ("harness.verify.s", per_pass("harness.verify"), "s"),
        ("harness.rejections_per_round", w["rejections"] / rounds, "rejections/round"),
        ("tracing.overhead", sum(walls) / sum(plain), "x"),
    ]
    metrics = {name: (value, unit) for name, value, unit in rows}

    wall = sum(walls) / n
    layers = sum(v for name, (v, unit) in metrics.items() if unit == "s" and name != "scenario.load.s")
    gap = abs(layers - wall) / wall
    print(f"accounting: layer self times {layers:.6f} s vs traced pass wall {wall:.6f} s, "
          f"gap {gap:.4%} (tolerance {ACCOUNTING_TOLERANCE:.1%})")
    if gap > ACCOUNTING_TOLERANCE:
        problems.append(f"self times miss the pass wall time by {gap:.4%}")
    for name, (_, seconds) in t.stats.items():
        owners = [p for p in timed if name == p or name.startswith(p + ".")]
        if seconds and len(owners) != 1:
            problems.append(f"{name} has self time but {len(owners)} metrics sum it")

    counters = {name: value for name, value, unit in rows if unit not in ("s", "x")}
    counters.update(w)
    counters.update({name: calls(name) for name in t.stats})
    digest = hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()
    print(f"work counters ({TRACED_PASSES} traced passes, {rounds} rounds) sha256 {digest}")
    for name, value, unit in rows:
        print(f"  {name} {value:.9g} {unit}")

    TRACES.mkdir(exist_ok=True)
    out = TRACES / f"{workload.name}.csv.gz"
    print(f"spans: {t.write_spans(out)} written to {out.relative_to(HERE.parent)}")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sim = import_program()
    import tracer as tr

    pristine = tr.pristine_bindings()
    workload = WORKLOADS[args.workload]
    passes = Passes(sim, workload, args.seed)
    print(f"workload {workload.name}  seed {args.seed} -> slot {passes.slot}  "
          f"{SEEDS_PER_PASS} seeds x {workload.rounds} rounds per pass")

    problems = tracer_self_check(sim, pristine)
    if args.trace:
        metrics, more = traced(sim, workload, passes, pristine)
    else:
        metrics, more = untraced(sim, workload, passes, args.seconds), []
    problems += more + passes.failures
    failed = len(passes.failures)
    print(f"fail_frac {failed / passes.attempted:.4f} failed/passes  ({failed} of {passes.attempted})")
    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
