"""Acceptance gate: one verdict line per criterion, printed unconditionally.

Each test emits `ACCEPTANCE <n> <name>: PASS|FAIL` before asserting. The
lines print inline (visible under -s or on failure) and are replayed in
the terminal summary via conftest, so a plain `pytest -v` run always ends
with all nine verdicts even when everything is green.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ACCEPTANCE_VERDICTS, tick_to

from delottery_sim import (
    BindingViolation,
    Ledger,
    LotteryConfig,
    MAX_TARGET,
    Stream,
    add_player,
    admission_challenge,
    begin_betting,
    begin_key_upload,
    binomial_sigma,
    buy_shares,
    commit,
    commit_hash_for,
    compute_deposit,
    create_account,
    deploy,
    draw,
    enter_buffer,
    favorable,
    le8,
    load_scenario,
    open_round,
    parse_scenario,
    pooled_standard_error,
    report_json_bytes,
    reveal,
    reveal_key,
    run_many,
    run_once,
    settle,
    solve_pow,
    sybil_admission_trial,
    sybil_spawn,
    upload_key,
    winning_share_count,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden" / "honest-small.json"


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line, flush=True)
    return ok


def test_criterion_1_conservation():
    required = {
        "honest-small", "honest-large", "forfeiture",
        "node-attack-naive", "node-attack-commit-reveal", "sybil",
    }
    paths = sorted(SCENARIO_DIR.glob("*.txt"))
    shipped = {p.stem for p in paths}
    ok = required <= shipped and len(paths) >= 6
    worst = 0.0
    for path in paths:
        sc = load_scenario(path)
        t0 = time.perf_counter()
        report = run_many(sc, 3)  # three seeds each, not just the default
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        zero = (
            report.data["residuals_zero"]
            if report.data["kind"] == "aggregate"
            else report.data["conservation_residual"] == 0
        )
        ok = ok and zero and elapsed < 10.0
    assert _verdict(
        1, "conservation", ok,
        f"{len(paths)} scenarios x 3 seeds, residual 0, slowest {worst:.1f}s",
    )


def test_criterion_2_fairness():
    players = "".join(
        f"[player]\nseed_material = fair-{i:02d}\nbalance = 2000000000\n"
        for i in range(10)
    )
    sc = parse_scenario(
        "name = fairness\nrounds = 2000\ncert_cap = 1\nguess_space_size = 10\n"
        + players
    )
    t0 = time.perf_counter()
    passes = 0
    for seed in range(20):
        report = run_once(sc, seed)
        chi = report.data["chi_square"]
        if chi["pass"] and chi["df"] == 9:
            passes += 1
    elapsed = time.perf_counter() - t0
    ok = passes >= 19 and elapsed < 60.0
    assert _verdict(
        2, "fairness", ok,
        f"chi-square(df=9) < 21.666 for {passes}/20 seeds in {elapsed:.1f}s",
    )


def test_criterion_3_binding():
    ledger = Ledger()
    rnd = open_round(ledger, 5, 5)
    stream = Stream(2024, 0, "binding")
    trials = 10_000
    committers = []
    for i in range(trials):
        acct = create_account(ledger, b"bind" + le8(i), 10)
        value = stream.next_i64()
        commit(ledger, rnd, acct.address, commit_hash_for(value), 1)
        committers.append((acct.address, value))
    tick_to(ledger, 6)
    rejected = accepted = 0
    for address, value in committers:
        wrong = value ^ (1 + stream.below(1 << 32))
        try:
            reveal(ledger, rnd, address, wrong)
        except BindingViolation:
            rejected += 1
        reveal(ledger, rnd, address, value)
        accepted += 1
    ok = rejected == trials and accepted == trials
    assert _verdict(
        3, "binding", ok,
        f"{rejected}/{trials} mismatches rejected, {accepted}/{trials} matches accepted",
    )


def test_criterion_4_forfeiture():
    ledger = Ledger()
    cfg = LotteryConfig(
        share_price=10**9, bet_duration=1, buffer_duration=1, guess_space_size=4
    )
    accounts = [create_account(ledger, f"f{i}".encode(), 10**13) for i in range(3)]
    addrs = [acct.address for acct in accounts]
    state = deploy(ledger, addrs[0], cfg)
    for addr in addrs[1:]:
        proof = solve_pow(admission_challenge(state, addr), cfg.pow_difficulty)
        add_player(state, addr, proof, set(state.active_certifiers))
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    buy_shares(state, addrs[0], [0, 1, 2, 3])  # silent player covers the space
    buy_shares(state, addrs[1], [0])
    tick_to(ledger, 4)
    enter_buffer(state)
    reveal_key(state, addrs[1], key=1)
    reveal_key(state, addrs[2], key=2)
    phi_before = state.phi
    tick_to(ledger, 5)
    draw(state)
    phi_gain = state.phi - phi_before
    silent = addrs[0]
    exact = phi_gain == deposits[silent] and state.players[silent].deposit_refunded == 0
    still_scored = winning_share_count(state, silent) >= 1
    payouts = settle(state)
    paid_anyway = payouts.get(silent, 0) > 0
    ok = (
        exact and still_scored and paid_anyway
        and ledger.conservation_residual() == 0
    )
    assert _verdict(
        4, "forfeiture", ok,
        f"phi += {phi_gain} (the non-revealer's exact deposit), "
        f"guesses still scored, payout {payouts.get(silent, 0)}",
    )


def test_criterion_5_node_attack_separation():
    base = """
    name = separation
    rounds = 10000
    guess_space_size = 10
    rng_mode = {mode}
    [player]
    seed_material = entropy-source
    balance = 40000000000
    shares = 0
    [attacker]
    kind = node
    seed_material = colluder
    balance = 40000000000
    mining_share = 3/10
    shares = 1
    guesses = 9
    """
    t0 = time.perf_counter()
    rates = {}
    for mode in ("naive", "commit-reveal"):
        report = run_once(parse_scenario(base.format(mode=mode)), seed=11)
        attack = report.data["attack"]
        rates[mode] = attack["attacker_wins"] / attack["total_rounds"]
    elapsed = time.perf_counter() - t0
    n = 10_000
    p_naive = 0.1 / (1 - 0.3 * (1 - 0.1))  # retry oracle p/(1-q(1-p))
    naive_ok = abs(rates["naive"] - p_naive) < 3 * binomial_sigma(p_naive, n)
    cr_ok = abs(rates["commit-reveal"] - 0.1) < 3 * binomial_sigma(0.1, n)
    gap = rates["naive"] - rates["commit-reveal"]
    se = pooled_standard_error(rates["naive"], n, rates["commit-reveal"], n)
    separated = gap > 5 * se
    ok = naive_ok and cr_ok and separated and elapsed < 120.0
    assert _verdict(
        5, "node-attack separation", ok,
        f"naive {rates['naive']:.4f} vs oracle {p_naive:.4f}, "
        f"commit-reveal {rates['commit-reveal']:.4f} vs 0.1000, "
        f"gap {gap / se:.1f} pooled SEs, {elapsed:.1f}s",
    )


def test_criterion_6_deposit_oracle():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    stream = Stream(77, 0, "eq1")
    trials = 10_000
    worst = 0
    with mp.workdps(60):
        for _ in range(trials):
            s = stream.below(10**12)
            f = stream.below(10**18)
            k = Fraction(10**6 + 1 + stream.below(10**6 - 2), 10**6)
            mine = compute_deposit(s, k, f)
            kk = mp.mpf(k.numerator) / mp.mpf(k.denominator)
            price = mp.mpf(s) * mp.power(10, mp.log(kk))
            balance = mp.mpf(f) / kk
            oracle = int(mp.floor(price if price > balance else balance))
            worst = max(worst, abs(mine - oracle))
    ok = worst <= 1
    assert _verdict(
        6, "deposit formula oracle", ok,
        f"{trials} random (s, k, f): max deviation {worst} atomic unit(s)",
    )


def test_criterion_7_filter_enumeration():
    space = (0, 1, 2, 3)
    subsets = [
        frozenset(c)
        for r in range(5)
        for c in itertools.combinations(space, r)
    ]
    assert len(subsets) == 16
    cases = 0
    mistakes = 0
    for g, w in itertools.product(subsets, subsets):
        cases += 1
        want = bool(g) and bool(g & w)
        mistakes += favorable(g, w) != want
        want_subset = bool(g) and g <= w
        mistakes += favorable(g, w, subset_rule=True) != want_subset
    ok = cases == 256 and mistakes == 0
    assert _verdict(
        7, "withholding filter fidelity", ok,
        f"{cases} (g, W) pairs x 2 predicates, {mistakes} mismatches",
    )


def _sybil_spend(target: int, policy: str, trials: int) -> tuple:
    ledger = Ledger()
    cfg = LotteryConfig(pow_difficulty=target)
    host = create_account(ledger, b"sybil-host", 10**9).address
    controller = create_account(ledger, b"sybil-ctl", 0).address
    admitted_total = spent_total = 0
    batch = 100
    for i in range(trials // batch):
        state = deploy(ledger, host, cfg)
        fakes = sybil_spawn(ledger, controller, batch, start_salt=i * batch)
        admitted, spent = sybil_admission_trial(state, fakes, policy, 10**9)
        admitted_total += admitted
        spent_total += spent
    return admitted_total, spent_total


def test_criterion_8_sybil_cost_law():
    trials = 1000
    target_a = MAX_TARGET >> 5  # ~32 expected attempts per admission
    target_b = target_a // 3  # three times as hard
    admitted_a, spent_a = _sybil_spend(target_a, "rubberstamp", trials)
    admitted_b, spent_b = _sybil_spend(target_b, "rubberstamp", trials)
    ratio = (spent_b / admitted_b) / (spent_a / admitted_a)
    expected = target_a / target_b
    proportional = abs(ratio - expected) <= 0.20 * expected
    all_admitted = admitted_a == trials and admitted_b == trials

    admitted_h, spent_h = _sybil_spend(target_a, "honest-refuse", trials)
    honest_blocked = admitted_h == 0 and spent_h > 0

    ok = proportional and all_admitted and honest_blocked
    assert _verdict(
        8, "sybil cost law", ok,
        f"spend ratio {ratio:.2f} vs {expected:.2f} expected over {trials} trials; "
        f"honest-refuse admitted {admitted_h}",
    )


def test_criterion_9_determinism():
    sc_path = SCENARIO_DIR / "honest-small.txt"
    first = report_json_bytes(run_many(load_scenario(sc_path), 1))
    second = report_json_bytes(run_many(load_scenario(sc_path), 1))
    in_process = first == second

    golden_ok = GOLDEN.is_file() and GOLDEN.read_bytes() == first

    cmd = [
        sys.executable, "-m", "delottery_sim.cli",
        "run", "--scenario", str(sc_path),
    ]
    runs = [subprocess.run(cmd, capture_output=True, cwd=ROOT) for _ in range(2)]
    cli_ok = (
        all(r.returncode == 0 for r in runs)
        and runs[0].stdout == runs[1].stdout == first
    )
    ok = in_process and golden_ok and cli_ok
    assert _verdict(
        9, "determinism", ok,
        f"{len(first)} byte report, golden + two CLI invocations identical",
    )
