"""Command-line entry points.

    delottery-sim run --scenario <path> [--seeds N] [--base-seed S]
                      [--mode naive|commit-reveal]
                      [--pool-mode literal|consistent]
                      [--out <path>] [--format json|csv]
    delottery-sim verify --report <path>

`run` executes a scenario and emits its report (stdout when --out is
omitted); the mode, pool-mode and base-seed flags override the scenario
file, and the overridden scenario is validated as a loaded one is.
`verify` re-checks an emitted JSON report's schema, conservation and
the fields the report implies.
Both exit 0 only if every invariant check passes; exit 1 means a failed
check and exit 2 a usage or input error. Progress notes go to stderr so
piped report bytes stay clean.
"""

import argparse
import sys

from .adversary import MODE_COMMIT_REVEAL, MODE_NAIVE
from .errors import ProtocolError
from .harness import (
    emit_report,
    load_report,
    report_csv_bytes,
    report_json_bytes,
    run_many,
    verify_report,
)
from .lottery import POOL_CONSISTENT, POOL_LITERAL
from .scenario import load_scenario, validate_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delottery-sim",
        description="Deterministic simulator of a commit-reveal lottery protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario and emit a report")
    run_p.add_argument("--scenario", required=True, help="scenario file path")
    run_p.add_argument("--seeds", type=int, default=1, help="number of seeds (default 1)")
    run_p.add_argument("--base-seed", type=int, default=None, help="override base_seed")
    run_p.add_argument(
        "--mode", choices=[MODE_NAIVE, MODE_COMMIT_REVEAL], default=None,
        help="override rng_mode",
    )
    run_p.add_argument(
        "--pool-mode", choices=[POOL_LITERAL, POOL_CONSISTENT], default=None,
        help="override pool_mode",
    )
    run_p.add_argument("--out", default=None, help="output path (default stdout)")
    run_p.add_argument("--format", choices=["json", "csv"], default="json")
    verify_p = sub.add_parser("verify", help="re-check a JSON report")
    verify_p.add_argument("--report", required=True, help="report file path")
    return parser


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    if args.base_seed is not None:
        sc.base_seed = args.base_seed
    if args.mode is not None:
        sc.rng_mode = args.mode
    if args.pool_mode is not None:
        sc.config.pool_mode = args.pool_mode
    validate_scenario(sc)  # the overrides can make a valid file invalid
    if args.seeds < 1:
        raise ProtocolError("--seeds must be >= 1")
    report = run_many(sc, args.seeds)
    if args.out is not None:
        emit_report(report, args.out, args.format)
    else:
        payload = (
            report_json_bytes(report) if args.format == "json" else report_csv_bytes(report)
        )
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    problems = verify_report(report.data)
    where = args.out if args.out is not None else "stdout"
    print(
        f"{sc.name}: {args.seeds} seed(s) x {sc.rounds} round(s) "
        f"in {report.elapsed:.2f}s -> {where}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_verify(args) -> int:
    data = load_report(args.report)
    problems = verify_report(data)
    if problems:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1
    print(f"{args.report}: ok", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
