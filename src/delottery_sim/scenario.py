"""Declarative scenario files: a flat, line-oriented key = value format.

The grammar is deliberately tiny so golden files diff cleanly and the
parser has no ambiguity to resolve:

    # comments run from '#' to end of line; blank lines are skipped
    name = honest-small          # global keys first
    rounds = 20
    [player]                     # each [player] section adds one player
    seed_material = alice
    shares = 1
    [attacker]                   # at most one attacker section
    kind = node
    mining_share = 3/10

Each section's keys are the fields of the object it builds: the global
section fills Scenario's name, rounds, base_seed and rng_mode and the
LotteryConfig knobs, a [player] section a PlayerSpec, and an [attacker]
section the NodeAttackerSpec or SybilAttackerSpec its kind (node, the
default, or sybil) picks. docs/scenario-format.md tables every key with
its default and meaning.

Every parse or validation failure names the offending line or field.
"""

import os
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .adversary import CERT_HONEST_REFUSE, CERT_RUBBERSTAMP, MODE_NAIVE, RNG_MODES, NodeAttacker
from .errors import ConfigError, ScenarioError
from .lottery import LotteryConfig
from .stats import CHI2_CRIT_01

STRATEGY_UNIFORM = "uniform"
STRATEGY_FIXED = "fixed"

DEFAULT_BALANCE = 100_000_000


@dataclass
class PlayerSpec:
    seed_material: str
    balance: int = DEFAULT_BALANCE
    shares: int = 1
    guess_strategy: str = STRATEGY_UNIFORM
    guesses: list = field(default_factory=list)
    reveals: bool = True


@dataclass
class NodeAttackerSpec:
    seed_material: str = "attacker"
    balance: int = DEFAULT_BALANCE
    mining_share: Fraction = Fraction(3, 10)
    shares: int = 1
    guesses: list = field(default_factory=list)  # empty: uniform per round
    subset_rule: bool = False
    futility_cap: int = NodeAttacker.futility_cap
    reveals: bool = True

    def colluder(self) -> PlayerSpec:
        """The player the node colludes with: fixed guesses when any are listed, else uniform."""
        strategy = STRATEGY_FIXED if self.guesses else STRATEGY_UNIFORM
        return PlayerSpec(
            self.seed_material, self.balance, self.shares, strategy, list(self.guesses),
            self.reveals,
        )


@dataclass
class SybilAttackerSpec:
    seed_material: str = "sybil-controller"
    fake_count: int = 10
    budget: int = 1_000_000
    certifier_policy: str = CERT_HONEST_REFUSE


@dataclass
class Scenario:
    name: str
    config: LotteryConfig
    players: list
    attacker: object = None
    rng_mode: str = "commit-reveal"
    rounds: int = 1
    base_seed: int = 0


def _parse_int(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ScenarioError(f"line {line_no}: {key} expects an integer, got {raw!r}") from None


def _parse_fraction(raw: str, line_no: int, key: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"line {line_no}: {key} expects a rational, got {raw!r}") from None


def _parse_bool(raw: str, line_no: int, key: str) -> bool:
    low = raw.lower()
    if low in ("yes", "true", "1"):
        return True
    if low in ("no", "false", "0"):
        return False
    raise ScenarioError(f"line {line_no}: {key} expects yes or no, got {raw!r}")


def _parse_int_list(raw: str, line_no: int, key: str) -> list:
    if not raw.strip():
        return []
    return [_parse_int(part.strip(), line_no, key) for part in raw.split(",")]


def _str_value(raw: str, line_no: int, key: str) -> str:
    if not raw:
        raise ScenarioError(f"line {line_no}: {key} must not be empty")
    return raw


def _parse_difficulty_bits(raw: str, line_no: int, key: str) -> int:
    bits = _parse_int(raw, line_no, key)
    if not 1 <= bits <= 256:
        raise ScenarioError(f"line {line_no}: {key} must be in [1, 256]")
    return 1 << bits


_PARSERS = {
    str: _str_value,
    int: _parse_int,
    Fraction: _parse_fraction,
    bool: _parse_bool,
    list: _parse_int_list,
}


def _keys(cls, skip=()) -> dict:
    """key -> parser for each field of cls not in skip, chosen by the field's type."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in skip}


# One key table per section, read off the fields of the object the section
# builds, so each key, type and default is stated once, on that object.
# pow_difficulty_bits is the one key that renames its field; kind, which
# picks the attacker's spec, is the one key with no field.
_SCENARIO_KEYS = _keys(Scenario, skip=("config", "players", "attacker"))
_NODE_KEYS = {"kind": _str_value, **_keys(NodeAttackerSpec)}
_SYBIL_KEYS = {"kind": _str_value, **_keys(SybilAttackerSpec)}
_SECTION_KEYS = {
    "global": {
        **_SCENARIO_KEYS,
        **_keys(LotteryConfig, skip=("pow_difficulty",)),
        "pow_difficulty_bits": _parse_difficulty_bits,
    },
    "player": _keys(PlayerSpec),
    "attacker": {**_NODE_KEYS, **_SYBIL_KEYS},
}


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    """Parse scenario text; raises ScenarioError with a line number."""
    top: dict = {}
    players: list[dict] = []
    attacker: dict | None = None
    section: dict | None = None
    section_kind = "global"
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()  # comments run to end of line
        if not line:
            continue
        if line == "[player]":
            section = {}
            section_kind = "player"
            players.append(section)
            continue
        if line == "[attacker]":
            if attacker is not None:
                raise ScenarioError(f"line {line_no}: only one [attacker] section allowed")
            section = {}
            section_kind = "attacker"
            attacker = section
            continue
        if line.startswith("["):
            raise ScenarioError(f"line {line_no}: unknown section {line}")
        if "=" not in line:
            raise ScenarioError(f"line {line_no}: expected key = value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parsers = _SECTION_KEYS[section_kind]
        if key not in parsers:
            raise ScenarioError(f"line {line_no}: unknown {section_kind} key {key!r}")
        target = top if section_kind == "global" else section
        if key in target:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        target[key] = (parsers[key](value, line_no, key), line_no)
    return _build_scenario(top, players, attacker, default_name)


def _values(section: dict) -> dict:
    """Parsed values of a section by key, without their line numbers."""
    return {key: value for key, (value, _) in section.items()}


def _build_scenario(top, players, attacker, default_name) -> Scenario:
    values = _values(top)
    if "pow_difficulty_bits" in values:
        values["pow_difficulty"] = values.pop("pow_difficulty_bits")
    scenario_fields = {k: values.pop(k) for k in _SCENARIO_KEYS if k in values}
    scenario_fields.setdefault("name", default_name)
    config = LotteryConfig(**values)
    if not players:
        raise ScenarioError("scenario needs at least one [player] section")
    player_specs = [_build_player(section, i) for i, section in enumerate(players)]
    attacker_spec = None if attacker is None else _build_attacker(attacker)
    scenario = Scenario(
        config=config, players=player_specs, attacker=attacker_spec, **scenario_fields
    )
    validate_scenario(scenario)
    return scenario


def _build_player(section: dict, index: int) -> PlayerSpec:
    values = _values(section)
    values.setdefault("seed_material", f"player-{index}")
    return PlayerSpec(**values)


def _build_attacker(section: dict):
    # node and sybil keys share one section table; each kind takes only its own
    kind = section.pop("kind", ("node", None))[0]
    specs = {"node": (NodeAttackerSpec, _NODE_KEYS), "sybil": (SybilAttackerSpec, _SYBIL_KEYS)}
    if kind not in specs:
        raise ScenarioError(f"attacker kind must be node or sybil, got {kind!r}")
    spec, keys = specs[kind]
    for key, (_, line_no) in section.items():
        if key not in keys:
            raise ScenarioError(f"line {line_no}: key {key!r} not valid for this section kind")
    return spec(**_values(section))


def validate_scenario(sc: Scenario) -> None:
    """Reject a scenario the simulator cannot run; call again after edits."""
    if sc.rng_mode not in RNG_MODES:
        raise ScenarioError(f"rng_mode must be one of {', '.join(RNG_MODES)}, got {sc.rng_mode!r}")
    if sc.rounds < 1:
        raise ScenarioError("rounds must be >= 1")
    cfg = sc.config
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from None
    names = [p.seed_material for p in sc.players]
    if sc.attacker is not None:
        names.append(sc.attacker.seed_material)
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ScenarioError(f"seed_material values must be distinct: {sorted(dupes)}")
    # the fairness test has one degree of freedom per roster entry past the first
    colluder = isinstance(sc.attacker, NodeAttackerSpec)
    roster, limit = len(sc.players) + colluder, max(CHI2_CRIT_01) + 1
    if roster > limit:
        counted = " plus the node attacker's colluder" if colluder else ""
        raise ScenarioError(
            f"[player]: a roster of {roster} ({len(sc.players)} [player] sections{counted}) "
            f"exceeds {limit}, the most the chi-square table covers"
        )

    def check_player(p: PlayerSpec) -> None:
        label, guesses = p.seed_material, p.guesses
        if p.guess_strategy not in (STRATEGY_UNIFORM, STRATEGY_FIXED):
            raise ScenarioError(f"{label}: guess_strategy must be uniform or fixed")
        if p.guess_strategy == STRATEGY_FIXED:
            if not guesses:
                raise ScenarioError(f"{label}: fixed strategy needs a guesses list")
            if len(guesses) != p.shares:
                raise ScenarioError(
                    f"{label}: fixed strategy lists {len(guesses)} guesses for {p.shares} shares"
                )
        elif guesses:
            raise ScenarioError(f"{label}: guesses list requires guess_strategy = fixed")
        for g in guesses:
            if not 0 <= g < cfg.guess_space_size:
                raise ScenarioError(
                    f"{label}: guess {g} outside [0, {cfg.guess_space_size})"
                )
        if p.shares < 0:
            raise ScenarioError(f"{label}: shares must be >= 0")
        if p.balance < 0:
            raise ScenarioError(f"{label}: balance must be >= 0")

    for p in sc.players:
        check_player(p)
    atk = sc.attacker
    if isinstance(atk, NodeAttackerSpec):
        check_player(atk.colluder())
        if not 0 <= atk.mining_share <= 1:
            raise ScenarioError("mining_share must lie in [0, 1]")
        if atk.futility_cap < 0:
            raise ScenarioError("futility_cap must be >= 0")
        if sc.rng_mode == MODE_NAIVE and atk.mining_share == 1:
            # the attacker proposes every block, so the draw lands only once
            # it is favorable; each round must be able to draw such a W
            if atk.shares == 0:
                raise ScenarioError(
                    "naive mode with mining_share 1 and no attacker shares never terminates"
                )
            distinct = (
                len(set(atk.guesses)) if atk.guesses
                else min(atk.shares, cfg.guess_space_size)
            )
            if atk.subset_rule and distinct > cfg.winning_draws:
                raise ScenarioError(
                    f"naive mode with mining_share 1 and subset_rule never terminates "
                    f"unless the attacker's distinct guesses ({distinct} possible) are at "
                    f"most winning_draws ({cfg.winning_draws})"
                )
    elif isinstance(atk, SybilAttackerSpec):
        if atk.fake_count < 0 or atk.budget < 0:
            raise ScenarioError("fake_count and budget must be >= 0")
        if atk.certifier_policy not in (CERT_HONEST_REFUSE, CERT_RUBBERSTAMP):
            raise ScenarioError(
                f"certifier_policy must be {CERT_HONEST_REFUSE} or {CERT_RUBBERSTAMP}"
            )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; the default name is the file stem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario(text, default_name=stem)
