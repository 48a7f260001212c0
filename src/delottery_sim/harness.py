"""Scenario runner: seeded end-to-end simulations and report emission.

run_once drives `rounds` consecutive lottery events on a single ledger,
walking every phase on a fixed tick schedule. All strategy randomness
(uniform guesses, secret keys, proposer sampling) comes from counter-mode
streams keyed by (seed, round index, purpose tag), so a (scenario, seed)
pair fully determines every byte of the resulting report. Per-player
protocol rejections (say, a balance too small for the deposit) are
recorded in the report and never abort the run.

run_many executes seeds base_seed .. base_seed+n-1 and folds them into
an aggregate in seed order. Admission puzzles depend on addresses and
instance ids, not on the seed, so the seeds of one call share a PoW memo
(challenge, difficulty -> smallest nonce) and seed 2 onward reuse seed 1's
solutions. The memo holds pure results and changes no report byte; it is
all the seeds share, so they could still fan out to workers with one memo
each. The fold itself stays sequential and deterministic.

Reports serialize through a purpose-built emitter: floats are printed
with 17 significant digits and dict order is fixed at construction, so
re-emitting a report is byte-identical and golden files diff cleanly.
Wall-clock time is tracked on the RunReport object but deliberately kept
out of the serialized form, which would otherwise never be reproducible.
"""

import json
import time
from dataclasses import dataclass

from . import stats
from .adversary import (
    MODE_COMMIT_REVEAL,
    MODE_NAIVE,
    NodeAttacker,
    run_commit_reveal_mode_round,
    run_naive_mode_round,
    sybil_admission_trial,
    sybil_spawn,
)
from .chain import Ledger, create_account, mine_block, solve_pow, verify_chain
from .errors import ProtocolError, ReportError
from .lottery import (
    LotteryState,
    add_player,
    admission_challenge,
    begin_betting,
    begin_key_upload,
    buy_shares,
    deploy,
    enter_buffer,
    reveal_key,
    settle,
    upload_key,
    winning_share_count,
)
from .prng import Stream
from .scenario import NodeAttackerSpec, PlayerSpec, STRATEGY_FIXED, Scenario, SybilAttackerSpec

SCHEMA = "delottery-sim/report/v1"

# transaction-node accounts use an unprintable prefix that scenario
# seed_material strings cannot collide with
_MINER_MATERIAL = b"\x00/txnode/honest"
_ATTACKER_NODE_PREFIX = b"\x00/txnode/"


@dataclass
class RunReport:
    data: dict
    elapsed: float  # wall seconds; intentionally absent from the serialized form


@dataclass(slots=True)
class _Entry:
    name: str
    address: bytes
    spec: PlayerSpec


def _enroll(ledger: Ledger, spec: PlayerSpec) -> _Entry:
    acct = create_account(ledger, spec.seed_material.encode(), spec.balance)
    return _Entry(spec.seed_material, acct.address, spec)


def tick_through(ledger: Ledger, miner: bytes, deadline: int) -> None:
    """Advance the clock past `deadline`, mining whatever is pending at each tick."""
    while ledger.clock <= deadline:
        if ledger.pending:
            mine_block(ledger, miner, ledger.pending)
            ledger.pending.clear()  # after the block lands: a refused one leaves them pending
        ledger.advance_clock()


def _each_player(entries, verb: str, op, r: int, rejections: list) -> dict:
    """Run op(entry) in roster order; returns address -> result of each call that succeeded.

    A ProtocolError is that player's failure, not the run's: it is recorded
    as `round r: <verb> <name>: <error>` and the next player moves.
    """
    results = {}
    for entry in entries:
        try:
            results[entry.address] = op(entry)
        except ProtocolError as exc:
            rejections.append(f"round {r}: {verb} {entry.name}: {exc}")
    return results


def _upload(state: LotteryState, entry: _Entry, seed: int, r: int) -> int:
    key = Stream(seed, r, b"key/" + entry.name.encode()).next_i64()
    upload_key(state, entry.address, key)
    return key


def _bet(state: LotteryState, entry: _Entry, seed: int, r: int) -> None:
    spec = entry.spec
    if spec.guess_strategy == STRATEGY_FIXED:
        guesses = spec.guesses
    else:
        stream = Stream(seed, r, b"guess/" + entry.name.encode())
        guesses = [stream.below(state.config.guess_space_size) for _ in range(spec.shares)]
    buy_shares(state, entry.address, guesses)


def run_once(sc: Scenario, seed: int, fault_hook=None, pow_memo=None) -> RunReport:
    """Execute one seeded run of the scenario; deterministic per (sc, seed).

    `pow_memo` is the PoW memo of `chain.bounded_pow`; it saves hashes and
    never changes the report. `fault_hook(ledger, r)` runs after each
    round's settlement; a run given one re-verifies its chain at the end
    and raises ProtocolError if a block no longer matches its events.
    """
    t0 = time.perf_counter()
    cfg = sc.config
    ledger = Ledger()
    miner = create_account(ledger, _MINER_MATERIAL, 0, is_transaction_node=True).address

    roster = [_enroll(ledger, spec) for spec in sc.players]
    node_attacker = None
    sybil = None
    a = sc.attacker
    if isinstance(a, NodeAttackerSpec):
        # the colluder plays as the last roster entry
        roster.append(_enroll(ledger, a.colluder()))
        node_acct = create_account(
            ledger, _ATTACKER_NODE_PREFIX + a.seed_material.encode(), 0,
            is_transaction_node=True,
        )
        node_attacker = NodeAttacker(
            node_acct.address, roster[-1].address, a.mining_share,
            subset_rule=a.subset_rule, futility_cap=a.futility_cap,
        )
    elif isinstance(a, SybilAttackerSpec):
        controller = create_account(ledger, a.seed_material.encode(), 0).address
        sybil = {
            "sybil_admitted": 0,
            "sybil_spend": 0,
            "certifier_policy": a.certifier_policy,
            "controller": controller.hex(),
            "admitted_identities": {},
        }

    histogram = {e.name: 0 for e in roster}
    winners_per_round: list = []
    rejections: list[str] = []
    withhold_count = 0

    for r in range(sc.rounds):
        state = deploy(ledger, roster[0].address, cfg)
        for entry in roster[1:]:
            challenge = admission_challenge(state, entry.address)
            proof = solve_pow(challenge, cfg.pow_difficulty, pow_memo)
            add_player(state, entry.address, proof, set(state.active_certifiers))
        if sybil is not None:
            n = a.fake_count
            fakes = sybil_spawn(ledger, controller, n, start_salt=r * n)
            admitted, spent = sybil_admission_trial(
                state, fakes, a.certifier_policy, a.budget, pow_memo
            )
            sybil["sybil_admitted"] += admitted
            sybil["sybil_spend"] += spent
            for fake in fakes:
                if fake in state.players:
                    sybil["admitted_identities"][fake.hex()] = sybil["controller"]
        tick_through(ledger, miner, ledger.clock)

        begin_key_upload(state)
        keys = {}
        if sc.rng_mode == MODE_COMMIT_REVEAL:
            upload = lambda e: _upload(state, e, seed, r)
            keys = _each_player(roster, "upload", upload, r, rejections)
        tick_through(ledger, miner, state.round.commit_deadline)

        begin_betting(state)
        _each_player(roster, "bet", lambda e: _bet(state, e, seed, r), r, rejections)
        tick_through(ledger, miner, state.betting_close)

        enter_buffer(state)
        revealers = [e for e in roster if e.spec.reveals and e.address in keys]
        reveal = lambda e: reveal_key(state, e.address, keys[e.address])
        _each_player(revealers, "reveal", reveal, r, rejections)
        tick_through(ledger, miner, state.round.reveal_deadline)

        draw = run_naive_mode_round if sc.rng_mode == MODE_NAIVE else run_commit_reveal_mode_round
        outcome = draw(state, node_attacker, miner, Stream(seed, r, b"proposer"), roster[0].address)
        settle(state)
        winners_per_round.append(None if state.winners is None else sorted(state.winners))
        for entry in roster:
            if winning_share_count(state, entry.address) > 0:
                histogram[entry.name] += 1
        withhold_count += outcome.withheld
        if fault_hook is not None:
            fault_hook(ledger, r)
        tick_through(ledger, miner, ledger.clock)
    if fault_hook is not None and not verify_chain(ledger.chain):
        raise ProtocolError("the chain fails verification after the fault hook ran")

    residual = ledger.conservation_residual()
    chi = _chi_square(list(histogram.values()))

    attack = None
    if node_attacker is not None:
        attack = {
            "mode": sc.rng_mode,
            "mining_share": float(node_attacker.mining_share),
            "attacker_wins": histogram[roster[-1].name],  # the colluder's wins
            "total_rounds": sc.rounds,
            "withhold_count": withhold_count,
        }

    data = {
        "schema": SCHEMA,
        "kind": "single",
        "scenario": sc.name,
        "seed": seed,
        "rounds": sc.rounds,
        "rng_mode": sc.rng_mode,
        "pool_mode": cfg.pool_mode,
        "players": [e.name for e in roster],
        "identities": {e.name: e.address.hex() for e in roster},
        "winner_histogram": dict(histogram),
        "final_balances": {e.name: ledger.balance_of(e.address) for e in roster},
        "winners_per_round": winners_per_round,
        "conservation_residual": residual,
        "fee_sink": ledger.fee_sink,
        "stranded_escrow": sum(ledger.escrow.values()),
        "chain_height": len(ledger.chain) - 1,
        "chi_square": chi,
        "attack": attack,
        "sybil": sybil,
        "rejections": rejections,
    }
    return RunReport(data, time.perf_counter() - t0)


def _chi_square(counts: list) -> dict | None:
    """A report's chi_square block: null below 2 players or with no wins."""
    if len(counts) < 2 or sum(counts) == 0:
        return None
    statistic, passed, df = stats.chi_square_uniform(counts)
    return {"statistic": statistic, "df": df, "pass": passed}


def _pass_count(per_seed: list) -> int | None:
    """Seeds whose chi-square verdict is a pass; null when no seed has one."""
    verdicts = [row.get("chi_square_pass") for row in per_seed]
    verdicts = [v for v in verdicts if v is not None]
    return sum(v is True for v in verdicts) if verdicts else None


# the counters an aggregate attack/sybil block sums over seeds; per-seed rows
# carry each one but total_rounds, which is rounds_per_seed on every seed
_SUMMED = {
    "attack": ("attacker_wins", "total_rounds", "withhold_count"),
    "sybil": ("sybil_admitted", "sybil_spend"),
}


def run_many(sc: Scenario, n_seeds: int, fault_hook=None) -> RunReport:
    """Run seeds base_seed..base_seed+n-1 and fold; n=1 returns the single report."""
    if n_seeds < 1:
        raise ProtocolError("n_seeds must be >= 1")
    t0 = time.perf_counter()
    pow_memo: dict = {}  # one per call: no remembered proof outlives it
    reports = [run_once(sc, sc.base_seed + i, fault_hook, pow_memo) for i in range(n_seeds)]
    if n_seeds == 1:
        return reports[0]
    singles = [rep.data for rep in reports]
    first = singles[0]

    per_seed = []
    for d in singles:
        chi = d["chi_square"]
        row = {
            "seed": d["seed"],
            "conservation_residual": d["conservation_residual"],
            "chi_square_statistic": None if chi is None else chi["statistic"],
            "chi_square_pass": None if chi is None else chi["pass"],
            "fee_sink": d["fee_sink"],
        }
        for block, counters in _SUMMED.items():
            if d[block] is not None:
                row.update((k, d[block][k]) for k in counters if k != "total_rounds")
        per_seed.append(row)

    # each aggregate block is the first seed's block with its counters summed
    folded = dict.fromkeys(_SUMMED)
    for block, counters in _SUMMED.items():
        if first[block] is not None:
            folded[block] = dict(first[block])
            for k in counters:
                folded[block][k] = sum(d[block][k] for d in singles)
    attack, sybil = folded["attack"], folded["sybil"]
    if attack is not None:
        attack["rate"] = attack["attacker_wins"] / attack["total_rounds"]
        attack["standard_error"] = stats.binomial_sigma(attack["rate"], attack["total_rounds"])
    if sybil is not None:
        sybil["admitted_identities"] = {
            fake: ctl for d in singles for fake, ctl in d["sybil"]["admitted_identities"].items()
        }

    residuals_zero = all(d["conservation_residual"] == 0 for d in singles)
    data = {
        "schema": SCHEMA,
        "kind": "aggregate",
        "scenario": sc.name,
        "n_seeds": n_seeds,
        "base_seed": sc.base_seed,
        "rounds_per_seed": sc.rounds,
        "rng_mode": sc.rng_mode,
        "pool_mode": sc.config.pool_mode,
        "players": list(first["players"]),
        "identities": dict(first["identities"]),
        "winner_histogram": {
            name: sum(d["winner_histogram"][name] for d in singles) for name in first["players"]
        },
        "per_seed": per_seed,
        "residuals_zero": residuals_zero,
        "chi_square_pass_count": _pass_count(per_seed),
        "attack": attack,
        "sybil": sybil,
        "failing": not residuals_zero,
    }
    return RunReport(data, time.perf_counter() - t0)


# --- emission ---------------------------------------------------------------

def _format_value(value, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, float):
        pieces.append(format(value, ".17g"))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            pieces.append(f"{pad}  {json.dumps(str(key))}: ")
            _format_value(val, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        pieces.append("[\n")
        seq = list(value)
        for i, val in enumerate(seq):
            pieces.append(pad + "  ")
            _format_value(val, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    else:
        raise ReportError(f"cannot serialize {type(value).__name__}")


def report_json_bytes(report) -> bytes:
    """Deterministic JSON: fixed key order, floats at 17 significant digits."""
    data = report.data if isinstance(report, RunReport) else report
    pieces: list[str] = []
    _format_value(data, pieces, 0)
    pieces.append("\n")
    return "".join(pieces).encode("utf-8")


def report_csv_bytes(report) -> bytes:
    """Per-player table: one header plus one row per player."""
    data = report.data if isinstance(report, RunReport) else report
    histogram = data["winner_histogram"]
    identities = data["identities"]
    lines = []
    if data["kind"] == "single":
        lines.append("name,address_hex,final_balance,wins")
        balances = data["final_balances"]
        for name in data["players"]:
            lines.append(f"{name},{identities[name]},{balances[name]},{histogram[name]}")
    else:
        lines.append("name,address_hex,total_wins")
        for name in data["players"]:
            lines.append(f"{name},{identities[name]},{histogram[name]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report, out_path, fmt: str = "json") -> None:
    if fmt == "json":
        payload = report_json_bytes(report)
    elif fmt == "csv":
        payload = report_csv_bytes(report)
    else:
        raise ReportError(f"unknown report format {fmt!r}")
    try:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ReportError(f"cannot write report {out_path}: {exc}") from None


def load_report(path) -> dict:
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ReportError(f"cannot read report {path}: {exc}") from None
    except ValueError as exc:
        raise ReportError(f"report {path} is not valid JSON: {exc}") from None


_SINGLE_KEYS = (
    "schema", "kind", "scenario", "seed", "rounds", "rng_mode", "pool_mode",
    "players", "identities", "winner_histogram", "final_balances",
    "winners_per_round", "conservation_residual", "fee_sink",
    "stranded_escrow", "chain_height", "chi_square", "attack", "sybil",
    "rejections",
)
_AGGREGATE_KEYS = (
    "schema", "kind", "scenario", "n_seeds", "base_seed", "rounds_per_seed",
    "rng_mode", "pool_mode", "players", "identities", "winner_histogram",
    "per_seed", "residuals_zero", "chi_square_pass_count", "attack", "sybil",
    "failing",
)


# what each field the checks below read must hold: (type, item type, label).
# A field of another type is a reported problem, never an exception.
_FIELD_TYPES = {
    "conservation_residual": (int, None, "an integer"),
    "residuals_zero": (bool, None, "true or false"),
    "failing": (bool, None, "true or false"),
    "per_seed": (list, dict, "an array of objects"),
    "players": (list, str, "an array of strings"),
    "identities": (dict, None, "an object"),
    "winner_histogram": (dict, None, "an object"),
}


def _type_problems(data: dict, keys) -> list:
    problems = []
    for key in keys:
        if key in _FIELD_TYPES:
            want, item, label = _FIELD_TYPES[key]
            value = data[key]
            if type(value) is not want or (item and not all(isinstance(x, item) for x in value)):
                problems.append(f"{key} must be {label}, got {value!r:.60}")
    return problems


def verify_report(data: dict) -> list:
    """Re-check schema, conservation and implied fields; returns failure strings."""
    problems = []
    if not isinstance(data, dict):
        return ["report root must be an object"]
    if data.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    kind = data.get("kind")
    if kind == "single":
        expected = _SINGLE_KEYS
    elif kind == "aggregate":
        expected = _AGGREGATE_KEYS
    else:
        return problems + [f"kind must be single or aggregate, got {kind!r}"]
    for key in expected:
        if key not in data:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    problems = _type_problems(data, expected)
    if problems:
        return problems
    if kind == "single":
        if data["conservation_residual"] != 0:
            problems.append(
                f"conservation residual is {data['conservation_residual']}, expected 0"
            )
    else:
        if not data["residuals_zero"]:
            problems.append("residuals_zero is false")
        for entry in data["per_seed"]:
            if entry.get("conservation_residual") != 0:
                problems.append(
                    f"seed {entry.get('seed')}: residual {entry.get('conservation_residual')}"
                )
        if data["failing"]:
            problems.append("aggregate is flagged failing")
    names = data["players"]
    for field_name in ("identities", "winner_histogram"):
        missing = [n for n in names if n not in data[field_name]]
        if missing:
            problems.append(f"{field_name} missing players: {missing}")
    return problems or _implied_problems(data, kind, names)


def _implied_problems(data: dict, kind: str, names: list) -> list:
    """Compare the fields a report derives from others with a recompute."""
    single = kind == "single"
    rows, n_rows = ("winners_per_round", "rounds") if single else ("per_seed", "n_seeds")
    sizes = ("rounds",) if single else ("n_seeds", "rounds_per_seed")
    if not isinstance(data[rows], list) or not all(type(data[k]) is int for k in sizes):
        return [f"cannot recompute: {rows} must be a list and {', '.join(sizes)} integers"]
    problems = []
    if len(data[rows]) != data[n_rows]:
        problems.append(f"{rows} has {len(data[rows])} entries, expected {data[n_rows]}")
    rounds = data["rounds"] if single else data["n_seeds"] * data["rounds_per_seed"]
    counts = [data["winner_histogram"][n] for n in names]
    for name, count in zip(names, counts):
        if not isinstance(count, int) or not 0 <= count <= rounds:
            problems.append(f"winner_histogram[{name!r}] = {count!r}, outside [0, {rounds}]")
    if problems:
        return problems
    key = "chi_square" if single else "chi_square_pass_count"
    try:
        expected = _chi_square(counts) if single else _pass_count(data["per_seed"])
    except ProtocolError as exc:
        return [f"cannot recompute {key}: {exc}"]
    if data[key] != expected:
        problems.append(f"{key} is {data[key]!r}, recomputed {expected!r}")
    return problems + _attack_problems(data["attack"], counts, rounds, single)


def _attack_problems(attack, counts: list, rounds: int, single: bool) -> list:
    """Compare a node attack's counters with the colluder's wins, the last player's."""
    if attack is None:
        return []
    if not isinstance(attack, dict):
        return [f"attack must be null or an object, got {attack!r:.60}"]
    if not counts:
        return ["attack has no colluder: players is empty"]
    expected = {"attacker_wins": counts[-1], "total_rounds": rounds}
    if not single:
        if rounds < 1:
            return ["cannot recompute attack.rate: no rounds"]
        rate = counts[-1] / rounds
        expected.update(rate=rate, standard_error=stats.binomial_sigma(rate, rounds))
    return [
        f"attack.{key} is {attack.get(key)!r:.60}, recomputed {value!r}"
        for key, value in expected.items()
        if type(attack.get(key)) is not type(value) or attack.get(key) != value
    ]
