import json
import subprocess
import sys
from pathlib import Path

import pytest

from delottery_sim.cli import main
from delottery_sim.harness import load_report

GOLDEN = Path(__file__).resolve().parent / "golden"

SCENARIO = """
name = cli-check
rounds = 2
guess_space_size = 4
[player]
seed_material = alice
[player]
seed_material = bob
"""


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "cli-check.txt"
    path.write_text(SCENARIO)
    return str(path)


def test_run_writes_json_to_stdout(scenario_path, capsys):
    assert main(["run", "--scenario", scenario_path]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["kind"] == "single"
    assert data["scenario"] == "cli-check"
    assert "cli-check" in captured.err  # status goes to stderr, not stdout


def test_run_then_verify_round_trip(scenario_path, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["run", "--scenario", scenario_path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", out]) == 0
    assert "ok" in capsys.readouterr().err


def test_verify_rejects_tampered_report(scenario_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["run", "--scenario", scenario_path, "--out", str(out)])
    data = load_report(out)
    data["conservation_residual"] = 5
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert "check failed" in capsys.readouterr().err


def test_verify_mistyped_report_fails_checks(tmp_path, capsys):
    # a wrong-typed field is a failed check, not a traceback
    data = load_report(GOLDEN / "sybil-3seeds.json")
    out = tmp_path / "mistyped.json"
    out.write_text(json.dumps({**data, "players": None, "per_seed": [1, 2, 3]}))
    assert main(["verify", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert "check failed: players" in err and "check failed: per_seed" in err


def test_verify_missing_report_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--report", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_scenario_is_usage_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "absent.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("rounds = zero\n[player]\n")
    assert main(["run", "--scenario", str(bad)]) == 2


def test_negative_colluder_balance_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "broke.txt"
    path.write_text(SCENARIO + "[attacker]\nkind = node\nseed_material = mallory\nbalance = -5\n")
    assert main(["run", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused at load: no run, no report
    assert "error: mallory: balance must be >= 0" in captured.err


def test_run_rejects_zero_seeds(scenario_path, capsys):
    assert main(["run", "--scenario", scenario_path, "--seeds", "0"]) == 2


def test_csv_format(scenario_path, capsys):
    assert main(["run", "--scenario", scenario_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "name,address_hex,final_balance,wins"
    assert len(lines) == 3


def test_seeds_flag_builds_aggregate(scenario_path, capsys):
    assert main(["run", "--scenario", scenario_path, "--seeds", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "aggregate"
    assert data["n_seeds"] == 3


def test_override_flags_land_in_report(scenario_path, capsys):
    code = main(
        [
            "run", "--scenario", scenario_path,
            "--mode", "naive", "--pool-mode", "literal", "--base-seed", "9",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rng_mode"] == "naive"
    assert data["pool_mode"] == "literal"
    assert data["seed"] == 9


def test_mode_override_is_validated(tmp_path, capsys):
    # valid in commit-reveal mode; under --mode naive the withholding
    # attacker can never see a favorable draw
    path = tmp_path / "stuck.txt"
    path.write_text(
        SCENARIO
        + "[attacker]\nseed_material = mallory\nmining_share = 1\n"
        + "shares = 2\nguesses = 0, 1\nsubset_rule = yes\n"
    )
    assert main(["run", "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--mode", "naive"]) == 2
    assert "subset_rule" in capsys.readouterr().err


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --scenario is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["conjure"])
    assert exc.value.code == 2


def test_installed_entry_point(scenario_path):
    proc = subprocess.run(
        [sys.executable, "-m", "delottery_sim.cli", "run", "--scenario", scenario_path],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scenario"] == "cli-check"
