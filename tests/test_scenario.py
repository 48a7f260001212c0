from fractions import Fraction
from pathlib import Path

import pytest

from delottery_sim import (
    NodeAttackerSpec,
    ScenarioError,
    SybilAttackerSpec,
    load_scenario,
    parse_scenario,
)
from delottery_sim.scenario import _NODE_KEYS, _SECTION_KEYS, _SYBIL_KEYS

FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "scenario-format.md"

MINIMAL = "[player]\nseed_material = alice\n"


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL, default_name="tiny")
    assert sc.name == "tiny"
    assert (sc.rounds, sc.base_seed, sc.rng_mode) == (1, 0, "commit-reveal")
    assert sc.attacker is None
    (p,) = sc.players
    assert p.seed_material == "alice"
    assert p.balance == 100_000_000
    assert (p.shares, p.guess_strategy, p.reveals) == (1, "uniform", True)
    cfg = sc.config
    assert cfg.share_price == 1_000_000
    assert cfg.security_factor == Fraction(3, 2)
    assert cfg.pow_difficulty == 1 << 256  # trivial by default


def test_global_keys_and_value_syntax():
    sc = parse_scenario(
        """
        name = demo
        rounds = 12
        base_seed = 0x2a
        rng_mode = naive
        share_price = 2_000_000
        security_factor = 5/4
        cert_cap = 2
        bet_duration = 3
        buffer_duration = 4
        guess_space_size = 16
        winning_draws = 2
        pool_mode = literal
        pow_difficulty_bits = 250
        [player]
        seed_material = alice
        """
    )
    assert sc.name == "demo"
    assert sc.rounds == 12
    assert sc.base_seed == 42  # int(raw, 0): hex accepted
    assert sc.rng_mode == "naive"
    cfg = sc.config
    assert cfg.share_price == 2_000_000  # underscores accepted
    assert cfg.security_factor == Fraction(5, 4)
    assert (cfg.cert_cap, cfg.bet_duration, cfg.buffer_duration) == (2, 3, 4)
    assert (cfg.guess_space_size, cfg.winning_draws) == (16, 2)
    assert cfg.pool_mode == "literal"
    assert cfg.pow_difficulty == 1 << 250


def test_comments_and_blank_lines():
    sc = parse_scenario(
        "# header\n\nname = x   # trailing comment\n[player]  # section comment\n"
        "seed_material = alice\n"
    )
    assert sc.name == "x"
    assert sc.players[0].seed_material == "alice"


def test_player_section_fields():
    sc = parse_scenario(
        """
        guess_space_size = 8
        [player]
        seed_material = fixed-bettor
        balance = 500
        shares = 3
        guess_strategy = fixed
        guesses = 1, 2, 7
        reveals = no
        [player]
        """
    )
    a, b = sc.players
    assert a.balance == 500
    assert a.guesses == [1, 2, 7]
    assert a.reveals is False
    assert b.seed_material == "player-1"  # default name carries the index


def test_node_attacker_section():
    sc = parse_scenario(
        """
        rng_mode = naive
        [player]
        seed_material = alice
        [attacker]
        kind = node
        seed_material = mallory
        mining_share = 3/10
        shares = 2
        guesses = 0, 1
        subset_rule = yes
        futility_cap = 4
        """
    )
    atk = sc.attacker
    assert isinstance(atk, NodeAttackerSpec)
    assert atk.mining_share == Fraction(3, 10)
    assert atk.guesses == [0, 1]
    assert atk.subset_rule is True
    assert atk.futility_cap == 4


def test_sybil_attacker_section():
    sc = parse_scenario(
        """
        [player]
        seed_material = alice
        [attacker]
        kind = sybil
        fake_count = 5
        budget = 1000
        certifier_policy = rubberstamp
        """
    )
    atk = sc.attacker
    assert isinstance(atk, SybilAttackerSpec)
    assert (atk.fake_count, atk.budget) == (5, 1000)
    assert atk.certifier_policy == "rubberstamp"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("rounds = 0\n" + MINIMAL, "rounds"),
        ("rng_mode = quantum\n" + MINIMAL, "rng_mode"),
        ("", "at least one [player]"),
        ("bogus = 1\n" + MINIMAL, "line 1"),
        ("rounds = soon\n" + MINIMAL, "line 1"),
        ("rounds = 1\nrounds = 2\n" + MINIMAL, "duplicate"),
        ("just words\n" + MINIMAL, "key = value"),
        ("[conspiracy]\n", "unknown section"),
        (MINIMAL + "[attacker]\n[attacker]\n", "one [attacker]"),
        (MINIMAL + "[attacker]\nkind = ghost\n", "node or sybil"),
        (MINIMAL + "[attacker]\nkind = node\nfake_count = 3\n", "not valid for this section"),
        (MINIMAL + "[player]\nseed_material = alice\n", "distinct"),
        ("security_factor = 2\n" + MINIMAL, "security_factor"),
        ("pow_difficulty_bits = 0\n" + MINIMAL, "pow_difficulty_bits"),
        ("name = x\ncert_eviction = recent\n" + MINIMAL, "line 2"),  # the key is gone
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def documented_keys() -> dict:
    """Keys of each table in the format doc, by the heading or `kind = ...` line above it."""
    tables: dict = {}
    label = None
    for line in FORMAT_DOC.read_text().splitlines():
        if line.startswith("## "):
            label = line[3:]
        elif line.startswith("`kind = "):
            label = line.split("`")[1]
        elif line.startswith("| `"):
            tables.setdefault(label, set()).add(line.split("`")[1])
    return tables


def test_format_doc_tables_every_key_the_parser_accepts():
    # the doc is the one hand-written key list; the parser reads its keys
    # off the fields of the objects each section builds
    assert documented_keys() == {
        "Global keys": set(_SECTION_KEYS["global"]),
        "Player keys": set(_SECTION_KEYS["player"]),
        "kind = node": set(_NODE_KEYS),
        "kind = sybil": set(_SYBIL_KEYS),
    }


def test_error_line_numbers_are_exact():
    text = "name = ok\n# filler\n\nshares = 1\n"  # player key in global scope
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize(
    "player,fragment",
    [
        ("guess_strategy = fixed\n", "needs a guesses list"),
        ("guess_strategy = fixed\nguesses = 1, 2\nshares = 3\n", "2 guesses for 3 shares"),
        ("guesses = 1\n", "requires guess_strategy = fixed"),
        ("guess_strategy = fixed\nguesses = 99\nshares = 1\n", "outside"),
        ("shares = -1\n", "shares"),
        ("balance = -5\n", "balance"),
        ("guess_strategy = psychic\n", "uniform or fixed"),
    ],
)
def test_player_validation(player, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[player]\nseed_material = alice\n" + player)
    assert fragment in str(err.value)


def test_attacker_validation():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "[attacker]\nkind = node\nmining_share = 2\n")
    assert "mining_share" in str(err.value)
    # the colluder is a player too: its balance is checked at load
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "[attacker]\nkind = node\nseed_material = eve\nbalance = -5\n")
    assert str(err.value) == "eve: balance must be >= 0"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(
            "rng_mode = naive\n" + MINIMAL
            + "[attacker]\nkind = node\nmining_share = 1\nshares = 0\n"
        )
    assert "never terminates" in str(err.value)
    # subset rule: no draw can hold more distinct guesses than winning_draws
    naive_subset = "rng_mode = naive\n" + MINIMAL + (
        "[attacker]\nkind = node\nmining_share = 1\nshares = 2\nsubset_rule = yes\n"
    )
    for guesses in ("guesses = 0, 1\n", ""):  # fixed, then uniform
        with pytest.raises(ScenarioError) as err:
            parse_scenario(naive_subset + guesses)
        assert "subset_rule never terminates" in str(err.value)
        assert "winning_draws (1)" in str(err.value)
    parse_scenario(naive_subset + "guesses = 3, 3\n")
    parse_scenario("winning_draws = 2\n" + naive_subset + "guesses = 0, 1\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "[attacker]\nkind = sybil\ncertifier_policy = bribe\n")
    assert "certifier_policy" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "[attacker]\nkind = sybil\nfake_count = -1\n")
    assert "fake_count" in str(err.value)


def test_load_scenario_uses_file_stem(tmp_path):
    path = tmp_path / "my-run.txt"
    path.write_text(MINIMAL)
    assert load_scenario(path).name == "my-run"
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path / "absent.txt")
    assert "cannot read" in str(err.value)


def test_shipped_scenarios_parse(pytestconfig):
    root = pytestconfig.rootpath / "scenarios"
    paths = sorted(root.glob("*.txt"))
    assert len(paths) >= 5
    for path in paths:
        sc = load_scenario(path)
        assert sc.players
