import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from delottery_sim import ScenarioError, load_scenario
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


def _roster_file(tmp_path, n_players, attacker=""):
    path = tmp_path / f"roster-{n_players}.txt"
    players = "".join(f"[player]\nseed_material = p{i}\n" for i in range(n_players))
    path.write_text("rounds = 1\nguess_space_size = 4\n" + players + attacker)
    return str(path)


@pytest.mark.parametrize(
    "n_players, attacker, message",
    [
        (66, "", "a roster of 66 (66 [player] sections)"),
        (65, "[attacker]\nkind = node\n",
         "a roster of 66 (65 [player] sections plus the node attacker's colluder)"),
    ],
    ids=["66-players", "65-players-and-a-colluder"],
)
def test_oversized_roster_is_a_load_error(tmp_path, capsys, n_players, attacker, message):
    # the winner histogram's chi-square test is tabulated up to df = 64
    out = tmp_path / "report.json"
    path = _roster_file(tmp_path, n_players, attacker)
    assert main(["run", "--scenario", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: [player]: {message} exceeds 65" in captured.err
    assert not out.exists()  # refused at load: no run, no report


@pytest.mark.parametrize(
    "section, name",
    [
        ("[player]\n", "smith, jane"),
        ("[attacker]\nkind = node\n", "mal,lory"),
        ("[player]\n", 'jane "j" smith'),
    ],
    ids=["player-comma", "attacker-comma", "player-quote"],
)
def test_name_that_would_break_the_csv_is_a_load_error(tmp_path, capsys, section, name):
    # a name is a field of the unquoted CSV report: a comma would add a column
    path = tmp_path / "names.txt"
    path.write_text(SCENARIO + f"{section}seed_material = {name}\n")
    out = tmp_path / "report.csv"
    assert main(["run", "--scenario", str(path), "--format", "csv", "--out", str(out)]) == 2
    assert f"error: seed_material {name!r} must not contain" in capsys.readouterr().err
    assert not out.exists()  # refused at load: no run, no report


@pytest.mark.parametrize(
    "text, message",
    [
        (SCENARIO.replace("guess_space_size = 4", "guess_space_size = 18446744073709551617"),
         "guess_space_size must be at most 2^64, got 18446744073709551617"),
        (SCENARIO + "[attacker]\nkind = node\nmining_share = 1/36893488147419103233\n",
         "mining_share denominator must be at most 2^64, got 1/36893488147419103233"),
    ],
    ids=["guess-space-2^64+1", "mining-share-denominator-2^65+1"],
)
def test_value_past_one_random_draw_is_a_load_error(tmp_path, capsys, text, message):
    # Stream.below draws 64 bits at a time: past 2^64 it would never return
    path = tmp_path / "wide.txt"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(path)  # checked before any run, which would not finish
    out = tmp_path / "report.json"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()  # refused at load: no run, no report


def test_largest_roster_runs(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--scenario", _roster_file(tmp_path, 65), "--out", str(out)]) == 0
    assert load_report(out)["chi_square"]["df"] == 64


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
