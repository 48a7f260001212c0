"""Out-of-program tracer: wraps the simulator's public functions from outside.

Nothing under `src/` knows about it. A `Tracer` replaces every binding a
call actually goes through (names bound with `from ... import` are
separate bindings, so `hashing.H` alone would count nothing), records
counts and self time per function, and puts every patched name back when
it leaves its `active()` block.

Self time is kept on a stack of frames: a frame's self time is its
duration minus the time its traced children took, and time spent in code
that is not wrapped falls to the nearest wrapped caller.

Functions called many times per round (H, event encoding, event creation
and the PRNG) keep only a count and a total time. Every other traced call
also leaves a span: name, start, end, parent span, pass (run) and seed.
Spans stay in memory and `write_spans` writes them out at the end.
"""

import gzip
import time
from array import array
from contextlib import contextmanager

from delottery_sim import adversary, chain, harness, lottery, prng, randao
from delottery_sim.chain import Ledger
from delottery_sim.prng import Stream

H_BINDINGS = (chain, lottery, randao, adversary, prng)

# (owner, attribute, traced name, kind). Kinds: "leaf" calls nothing else
# traced and keeps no span; "agg" may call traced code and keeps no span;
# "span" keeps a span per call; "count" only counts, its time stays with
# the caller.
PATCHES = (
    *((m, "H", "hashing.H", "leaf") for m in H_BINDINGS),
    (chain, "canonical_event_bytes", "chain.canonical_event_bytes", "leaf"),
    (Ledger, "make_event", "chain.make_event", "agg"),
    (chain, "block_hash", "chain.block_hash", "span"),
    (harness, "mine_block", "chain.mine_block", "span"),
    (adversary, "mine_block", "chain.mine_block", "span"),
    (harness, "solve_pow", "chain.solve_pow", "span"),
    (prng, "stream_seed", "prng.stream_seed", "agg"),
    *((Stream, m, "prng.Stream." + m, "agg") for m in ("__init__", "next_u64", "next_i64", "below", "chance")),
    *((randao, f, "randao." + f, "span") for f in ("commit", "reveal", "finalize", "peek_output")),
    (lottery, "compute_deposit", "lottery.compute_deposit", "span"),
    (lottery, "derive_winners", "lottery.derive_winners", "span"),
    (lottery, "add_player", "lottery.add_player", "span"),
    *((harness, f, "lottery." + f, "span") for f in ("deploy", "add_player", "upload_key", "buy_shares", "reveal_key", "settle")),
    (harness, "run_naive_mode_round", "adversary.draw_round", "span"),
    (harness, "run_commit_reveal_mode_round", "adversary.draw_round", "span"),
    (adversary, "preview_block", "adversary.preview_block", "count"),
    (adversary, "bounded_pow", "adversary.bounded_pow", "span"),
    (harness, "run_once", "harness.run_once", "span"),
)


def pristine_bindings() -> dict:
    """Every patchable binding as it is now; taken before any tracing."""
    return {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in PATCHES}


def _work_of(name: str, result, work: dict) -> None:
    """Exact simulated work read off a traced call's return value."""
    if name == "chain.solve_pow":
        work["solve_pow.attempts"] += result.nonce + 1
        work["solve_pow.proofs"] += 1
    elif name == "adversary.bounded_pow":
        proof, attempts = result
        work["bounded_pow.attempts"] += attempts
        work["bounded_pow.proofs"] += proof is not None
    elif name == "adversary.draw_round":
        work["withheld"] += result.withheld
    elif name == "harness.run_once":
        work["seeds"] += 1
        work["rounds"] += result.data["rounds"]
        work["rejections"] += len(result.data["rejections"])


_OBSERVED = ("chain.solve_pow", "adversary.bounded_pow", "adversary.draw_round", "harness.run_once")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.t_zero = self.clock()
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.work = dict.fromkeys(
            ("solve_pow.attempts", "solve_pow.proofs", "bounded_pow.attempts",
             "bounded_pow.proofs", "withheld", "seeds", "rounds", "rejections"), 0)
        self.run = 0  # pass index stamped on spans
        self.seed = -1  # seed of the run_once in progress
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_run = array("H")
        self.span_seed = array("q")
        # frame: [seconds spent in traced children, index of enclosing span]
        self._stack = [[0.0, -1]]
        self._saved: list = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def wrap(self, name: str, fn, kind: str = "span"):
        """A traced stand-in for fn; the benchmark wraps its own calls with it too."""
        st = self._stat(name)
        stack = self._stack
        clock = self.clock
        if kind == "count":
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "leaf":
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st[0] += 1
                    st[1] += dt
                    stack[-1][0] += dt
            return leaf
        record = kind == "span"
        observe = name in _OBSERVED
        starts_seed = name == "harness.run_once"
        if record:
            if name not in self.names:
                self.names.append(name)
            name_id = self.names.index(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(tracer.span_name)
                if starts_seed:
                    tracer.seed = args[1]
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent[1])
                tracer.span_run.append(tracer.run)
                tracer.span_seed.append(tracer.seed)
                tracer.span_end.append(0.0)
            stack.append(frame)
            t0 = clock()
            if record:
                tracer.span_start.append(t0 - tracer.t_zero)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt - frame[0]
                parent[0] += dt
                if record:
                    tracer.span_end[frame[1]] = t1 - tracer.t_zero
                    if starts_seed:
                        tracer.seed = -1
            if observe:
                _work_of(name, result, tracer.work)
            return result

        return traced

    @contextmanager
    def active(self):
        """Patch every binding in PATCHES; restore them all on the way out."""
        try:
            for owner, attr, name, kind in PATCHES:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, kind))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_seconds(self, prefix: str) -> float:
        """Self time of every traced name equal to prefix or under `prefix.`."""
        return sum(
            s for n, (_, s) in self.stats.items()
            if n == prefix or n.startswith(prefix + ".")
        )

    def write_spans(self, path) -> int:
        """Write every span as gzip CSV (seconds since the tracer started)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,seed,span,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_run[i]},{self.span_seed[i]},{i},{self.span_parent[i]},"
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
        return len(self.span_name)
