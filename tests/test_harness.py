from pathlib import Path

import pytest

from delottery_sim import (
    ProtocolError,
    ReportError,
    emit_report,
    load_report,
    load_scenario,
    parse_scenario,
    report_csv_bytes,
    report_json_bytes,
    run_many,
    run_once,
    verify_report,
)
from delottery_sim.cli import main
from delottery_sim.harness import _AGGREGATE_KEYS, _SINGLE_KEYS, SCHEMA

ROOT = Path(__file__).resolve().parent.parent

TWO_PLAYERS = parse_scenario(
    """
    name = pair
    rounds = 4
    guess_space_size = 4
    [player]
    seed_material = alice
    [player]
    seed_material = bob
    shares = 2
    """
)

SOLO = parse_scenario(
    """
    name = solo
    rounds = 3
    guess_space_size = 1
    [player]
    seed_material = alice
    """
)


def test_run_once_is_deterministic():
    a = run_once(TWO_PLAYERS, seed=1)
    b = run_once(TWO_PLAYERS, seed=1)
    assert report_json_bytes(a) == report_json_bytes(b)
    c = run_once(TWO_PLAYERS, seed=2)
    assert report_json_bytes(a) != report_json_bytes(c)


def test_elapsed_time_never_serialized():
    rep = run_once(TWO_PLAYERS, seed=1)
    assert rep.elapsed > 0
    assert b"elapsed" not in report_json_bytes(rep)


def test_single_report_key_order_is_fixed():
    rep = run_once(TWO_PLAYERS, seed=1)
    assert tuple(rep.data.keys()) == _SINGLE_KEYS
    assert rep.data["schema"] == SCHEMA
    assert rep.data["kind"] == "single"
    assert verify_report(rep.data) == []


def test_solo_player_wins_every_round_and_keeps_balance():
    rep = run_once(SOLO, seed=5)
    d = rep.data
    assert d["winner_histogram"] == {"alice": 3}
    assert d["winners_per_round"] == [[0], [0], [0]]
    # fee is price // 10^12 == 0 at the default price, and the whole pool
    # (the player's own stake) comes straight back
    assert d["final_balances"]["alice"] == 100_000_000
    assert d["conservation_residual"] == 0
    assert d["chi_square"] is None  # one player: uniformity is meaningless


def test_run_many_single_seed_equals_run_once():
    many = run_many(TWO_PLAYERS, 1)
    one = run_once(TWO_PLAYERS, TWO_PLAYERS.base_seed)
    assert report_json_bytes(many) == report_json_bytes(one)
    with pytest.raises(ProtocolError):
        run_many(TWO_PLAYERS, 0)


def test_run_many_pools_histograms():
    agg = run_many(TWO_PLAYERS, 3)
    d = agg.data
    assert tuple(d.keys()) == _AGGREGATE_KEYS
    assert d["kind"] == "aggregate"
    singles = [run_once(TWO_PLAYERS, TWO_PLAYERS.base_seed + i) for i in range(3)]
    for name in ("alice", "bob"):
        assert d["winner_histogram"][name] == sum(
            s.data["winner_histogram"][name] for s in singles
        )
    assert [e["seed"] for e in d["per_seed"]] == [0, 1, 2]
    assert d["residuals_zero"] is True
    assert d["failing"] is False
    assert verify_report(d) == []


@pytest.mark.parametrize("scenario", ["node-attack-naive", "sybil"])
def test_aggregate_report_matches_golden(scenario):
    # pins the summed attack/sybil blocks and the per-seed counter rows
    sc = load_scenario(ROOT / "scenarios" / f"{scenario}.txt")
    golden = ROOT / "tests" / "golden" / f"{scenario}-3seeds.json"
    assert report_json_bytes(run_many(sc, 3)) == golden.read_bytes()


# admission puzzles at 2^250 cost about 64 attempts, so a 150-unit budget
# runs dry before the fourth fake in some rounds
DRY_BUDGET = """
name = dry-budget
rounds = 3
pow_difficulty_bits = 250
[player]
seed_material = host
[player]
seed_material = joiner
[attacker]
kind = sybil
seed_material = flood
fake_count = 4
budget = 150
certifier_policy = {policy}
"""


@pytest.mark.parametrize("policy", ["honest-refuse", "rubberstamp"])
def test_shared_pow_memo_changes_no_seed_report(policy):
    # the seeds of a run solve identical admission puzzles, so from seed 2
    # on the shared memo answers each puzzle seed 1 solved
    sc = parse_scenario(DRY_BUDGET.format(policy=policy))
    seeds = [sc.base_seed + i for i in range(3)]
    singles = [run_once(sc, seed).data for seed in seeds]
    memo = {}
    assert [run_once(sc, seed, None, memo).data for seed in seeds] == singles
    assert memo
    admitted = singles[0]["sybil"]["sybil_admitted"]
    if policy == "rubberstamp":
        assert 0 < admitted < sc.rounds * sc.attacker.fake_count  # proofs ran out
    else:
        assert admitted == 0

    agg = run_many(sc, 3).data
    spends = [d["sybil"]["sybil_spend"] for d in singles]
    assert [row["sybil_spend"] for row in agg["per_seed"]] == spends
    assert agg["sybil"] == {
        **singles[0]["sybil"],
        "sybil_admitted": sum(d["sybil"]["sybil_admitted"] for d in singles),
        "sybil_spend": sum(spends),
        "admitted_identities": {
            fake: ctl for d in singles for fake, ctl in d["sybil"]["admitted_identities"].items()
        },
    }


def mint(ledger, round_index):
    ledger.fee_sink += 1  # money from nowhere


def burn(ledger, round_index):
    max(ledger.accounts.values(), key=lambda a: a.balance).balance -= 1  # money gone


def test_fault_hook_breaks_conservation_and_flags_report(tmp_path, capsys):
    for hook in (mint, burn):
        rep = run_once(TWO_PLAYERS, seed=1, fault_hook=hook)
        assert rep.data["conservation_residual"] != 0
        assert any("residual" in p for p in verify_report(rep.data))

        agg = run_many(TWO_PLAYERS, 2, fault_hook=hook)
        assert agg.data["failing"] is True
        assert agg.data["residuals_zero"] is False
        assert any("failing" in p for p in verify_report(agg.data))

        for report in (rep, agg):
            path = tmp_path / f"{hook.__name__}-{report.data['kind']}.json"
            emit_report(report, path)
            assert main(["verify", "--report", str(path)]) == 1, path.name
            assert "check failed: " in capsys.readouterr().err


def test_emit_and_load_round_trip(tmp_path):
    rep = run_once(TWO_PLAYERS, seed=1)
    out = tmp_path / "report.json"
    emit_report(rep, out)
    assert load_report(out) == rep.data
    assert out.read_bytes() == report_json_bytes(rep)
    with pytest.raises(ReportError):
        emit_report(rep, tmp_path / "nope" / "report.json")
    with pytest.raises(ReportError):
        load_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    with pytest.raises(ReportError):
        load_report(bad)
    with pytest.raises(ReportError):
        emit_report(rep, out, fmt="yaml")


def test_csv_has_one_row_per_player():
    rep = run_once(TWO_PLAYERS, seed=1)
    lines = report_csv_bytes(rep).decode().strip().split("\n")
    assert lines[0] == "name,address_hex,final_balance,wins"
    assert len(lines) == 3
    assert lines[1].startswith("alice,")
    wins = int(lines[2].rsplit(",", 1)[1])
    assert wins == rep.data["winner_histogram"]["bob"]

    agg = run_many(TWO_PLAYERS, 2)
    lines = report_csv_bytes(agg).decode().strip().split("\n")
    assert lines[0] == "name,address_hex,total_wins"
    assert len(lines) == 3


def test_json_emitter_rejects_unknown_types():
    with pytest.raises(ReportError):
        report_json_bytes({"oops": object()})


def test_verify_report_catches_mangling():
    rep = run_once(TWO_PLAYERS, seed=1)
    good = rep.data

    assert verify_report("not a dict") == ["report root must be an object"]
    assert any("schema" in p for p in verify_report({**good, "schema": "v0"}))
    assert any("kind" in p for p in verify_report({**good, "kind": "other"}))
    truncated = dict(good)
    del truncated["fee_sink"]
    assert any("fee_sink" in p for p in verify_report(truncated))
    assert any(
        "residual" in p
        for p in verify_report({**good, "conservation_residual": 7})
    )
    orphaned = {**good, "identities": {"alice": good["identities"]["alice"]}}
    assert any("identities" in p for p in verify_report(orphaned))


def test_verify_report_recomputes_implied_fields():
    golden = ROOT / "tests" / "golden"
    for path in sorted(golden.glob("*.json")):
        assert verify_report(load_report(path)) == [], path.name
    single = load_report(golden / "honest-small.json")
    name = single["players"][0]
    bumped = {name: single["winner_histogram"][name] + 999}
    for edit, fragment in (
        ({"chi_square": {**single["chi_square"], "statistic": 0.0}}, "chi_square"),
        ({"winner_histogram": {**single["winner_histogram"], **bumped}}, "winner_histogram"),
        ({"winners_per_round": []}, "winners_per_round"),
    ):
        assert any(fragment in p for p in verify_report({**single, **edit})), edit

    agg = load_report(golden / "node-attack-naive-3seeds.json")
    name = agg["players"][0]
    bumped = {name: agg["winner_histogram"][name] + 999 * agg["rounds_per_seed"]}
    for edit, fragment in (
        ({"per_seed": agg["per_seed"][1:]}, "per_seed"),
        ({"winner_histogram": {**agg["winner_histogram"], **bumped}}, "winner_histogram"),
        ({"chi_square_pass_count": agg["chi_square_pass_count"] + 1}, "chi_square_pass_count"),
    ):
        assert any(fragment in p for p in verify_report({**agg, **edit})), edit

    # a recompute that cannot run is a problem, not a raise
    crowd = [f"p{i}" for i in range(70)]  # 69 degrees of freedom: past the table
    wide = {
        **single,
        "players": crowd,
        "identities": dict.fromkeys(crowd, "00"),
        "winner_histogram": dict.fromkeys(crowd, 1),
    }
    assert any("cannot recompute" in p for p in verify_report(wide))
    for edit in ({"rounds": "20"}, {"winners_per_round": None}):
        assert any("cannot recompute" in p for p in verify_report({**single, **edit})), edit


# the fields verify_report reads, by report kind
_READ = {
    "honest-small.json": (
        "schema", "kind", "conservation_residual", "players", "identities",
        "winner_histogram", "winners_per_round", "rounds", "chi_square",
    ),
    "sybil-3seeds.json": (
        "schema", "kind", "residuals_zero", "per_seed", "failing", "players",
        "identities", "winner_histogram", "n_seeds", "rounds_per_seed",
        "chi_square_pass_count",
    ),
}


@pytest.mark.parametrize("golden", sorted(_READ))
def test_verify_report_flags_mistyped_fields_without_raising(golden):
    good = load_report(ROOT / "tests" / "golden" / golden)
    for key in _READ[golden]:
        for bad in (None, 0, "x", [], {}):
            problems = verify_report({**good, key: bad})
            assert all(isinstance(p, str) for p in problems), (key, bad)
            if type(bad) is not type(good[key]):
                assert problems, (key, bad)
    if "per_seed" in good:
        for row in (1, "x", None, []):
            rows = [row] * len(good["per_seed"])
            assert any("per_seed" in p for p in verify_report({**good, "per_seed": rows}))


def test_colluder_whose_bet_is_rejected_never_withholds():
    # the colluder cannot afford a share, so the node has nothing to grind for
    sc = parse_scenario(
        """
        name = broke-colluder
        rounds = 4
        [player]
        seed_material = alice
        [player]
        seed_material = bob
        [attacker]
        kind = node
        seed_material = mallory
        mining_share = 1
        guesses = 3
        balance = 5
        """
    )
    for mode in ("naive", "commit-reveal"):
        sc.rng_mode = mode
        d = run_once(sc, seed=2).data
        assert d["attack"]["withhold_count"] == 0, mode
        assert d["attack"]["attacker_wins"] == 0, mode
        for r in range(sc.rounds):
            assert any(j.startswith(f"round {r}: bet mallory: ") for j in d["rejections"]), mode
        assert d["conservation_residual"] == 0


def test_broke_player_is_rejected_but_run_completes():
    sc = parse_scenario(
        """
        name = broke
        rounds = 2
        [player]
        seed_material = alice
        [player]
        seed_material = pauper
        balance = 10
        """
    )
    rep = run_once(sc, seed=3)
    d = rep.data
    assert d["conservation_residual"] == 0
    # the pauper can neither post the deposit nor buy a share
    assert sum("pauper" in r for r in d["rejections"]) == 4
    assert d["winner_histogram"]["pauper"] == 0
    assert d["final_balances"]["pauper"] == 10


def test_no_reveals_aborts_every_round():
    sc = parse_scenario(
        """
        name = silent
        rounds = 2
        [player]
        seed_material = alice
        reveals = no
        [player]
        seed_material = bob
        reveals = no
        """
    )
    rep = run_once(sc, seed=1)
    d = rep.data
    assert d["winners_per_round"] == [None, None]
    assert d["winner_histogram"] == {"alice": 0, "bob": 0}
    assert d["conservation_residual"] == 0
    assert d["chi_square"] is None  # zero total wins: nothing to test
