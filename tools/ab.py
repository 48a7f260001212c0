"""Interleaved parent/change runs of perfbench, summarised as BENCH_<n>.json.

    python3 tools/ab.py --parent HEAD~1 --scratch /tmp/ab --n 1

Both sides run from copies under `--scratch`: the parent is exported with
`git archive <parent>`, the change is this checkout's working tree (its
`src/` and `perfbench/`, committed or not). Nothing is written into the
checkout itself except the summary, and the copies are removed at the end.

For each workload in BENCHMARK.json, pair i runs `perfbench/run.py
--workload W --seed i --seconds S --trace 0` once on each side, with S
the file's `run_seconds`. The parent runs first on even i and the change
on odd i, so drift on a shared host falls on both sides alike. Then
each side runs `--trace 1 --seed 0` once for its work-counter digest,
which must match when the change does the same simulated work.

The summary holds, per workload and end-to-end metric (named with its
direction and bound in BENCHMARK.json): both medians, the parent's
quartiles, how many pairs the change won and whether the change's median
is worse than the parent's by more than the bound. Per side it also holds
whether every run read `"correct": true`, the failed and attempted passes,
and the work-counter digest.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export_parent(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait():
        sys.exit(f"ab: git archive {rev} failed")


def export_change(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "traces")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result JSON, work-counter digest or None) of one perfbench run."""
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout
    digest = re.search(r"^work counters .* sha256 ([0-9a-f]{64})$", out, re.M)
    return json.loads(out.strip().splitlines()[-1]), digest and digest.group(1)


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarise(runs: dict, traced: dict, metrics: list) -> dict:
    """The summary of one workload; `runs` maps side -> list of result JSON, pair order."""
    out = {"metrics": {}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        change_vs_parent = (medians["change"] - medians["parent"]) / medians["parent"]
        worse_by = -change_vs_parent if higher else change_vs_parent
        out["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": m["better"],
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_quartiles": quartiles(values["parent"]),
            "change_won": sum(
                (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"])
            ),
            "pairs": len(values["parent"]),
            "worse_by": worse_by,
            "bound": m["bound"],
            "within_bound": worse_by <= m["bound"],
        }
    for side in SIDES:
        out[side] = {
            "correct": all(r["correct"] for r in runs[side]) and traced[side][0]["correct"],
            "failed": sum(r["failed"] for r in runs[side]),
            "attempted": sum(r["attempted"] for r in runs[side]),
            "work_counter_digest": traced[side][1],
        }
    out["work_counters_equal"] = traced["parent"][1] == traced["change"][1]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--scratch", required=True, type=Path, help="empty directory for both copies")
    ap.add_argument("--n", required=True, type=int, help="writes BENCH_<n>.json at the repo root")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    trees = {side: args.scratch / side for side in SIDES}
    if any(tree.exists() for tree in trees.values()):
        sys.exit(f"ab: {args.scratch} already holds a parent or change copy")
    export_parent(args.parent, trees["parent"])
    export_change(trees["change"])
    summary = {
        "parent": subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", args.parent],
            capture_output=True, text=True, check=True,
        ).stdout.strip(),
        "pairs": args.pairs,
        "seconds": seconds,
        "workloads": {},
    }
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result, _ = bench(trees[side], workload, i, seconds, 0)
                    runs[side].append(result)
                    rate = result["metrics"]["rounds_per_s"]["value"]
                    print(f"{workload} pair {i} {side}: {rate:.1f} rounds/s "
                          f"correct={result['correct']}", file=sys.stderr)
            traced = {side: bench(trees[side], workload, 0, seconds, 1) for side in SIDES}
            summary["workloads"][workload] = summarise(runs, traced, spec["end_to_end"])
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
