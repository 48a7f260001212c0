import math
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tick_to
from delottery_sim import (
    AdmissionRejected,
    ConfigError,
    H,
    Ledger,
    LotteryConfig,
    MAX_TARGET,
    PhaseError,
    POOL_LITERAL,
    ProtocolError,
    WindowError,
    add_player,
    admission_challenge,
    ban_player,
    begin_betting,
    begin_key_upload,
    buy_shares,
    compute_deposit,
    create_account,
    deploy,
    derive_winners,
    digest_int,
    draw,
    enter_buffer,
    le8,
    reveal_key,
    settle,
    settlement_report,
    solve_pow,
    upload_key,
    winning_share_count,
)


def admit(state, addr, votes=None):
    proof = solve_pow(admission_challenge(state, addr), state.config.pow_difficulty)
    add_player(state, addr, proof, votes or set(state.active_certifiers))


def fresh_lottery(n_players=3, balance=100_000_000, **cfg_kwargs):
    ledger = Ledger()
    cfg = LotteryConfig(**cfg_kwargs)
    accounts = [create_account(ledger, f"p{i}".encode(), balance) for i in range(n_players)]
    state = deploy(ledger, accounts[0].address, cfg)
    for acct in accounts[1:]:
        admit(state, acct.address)
    return ledger, state, accounts


# --- deposit formula ---------------------------------------------------


def test_compute_deposit_reference_value():
    # price term dominates an empty balance: floor(1e6 * 10^ln(3/2))
    assert compute_deposit(1_000_000, Fraction(3, 2), 0) == 2_543_695


def test_compute_deposit_balance_term_is_exact():
    # f/k = 10^18/3 would lose integer precision in floats; Fraction must not
    f = 10**18
    assert compute_deposit(0, Fraction(3, 2), f) == (2 * f) // 3
    # crossover: balance term wins exactly when f/k >= s * 10^ln k
    s = 1_000_000
    threshold = math.floor(s * 10 ** math.log(1.5) * 1.5)
    assert compute_deposit(s, Fraction(3, 2), threshold + 2) > 2_543_695


def test_compute_deposit_identity_factor():
    # k = 1: deposit is max(s, f), allowed here though configs reject it
    assert compute_deposit(7, 1, 100) == 100
    assert compute_deposit(7, 1, 3) == 7
    with pytest.raises(ConfigError):
        compute_deposit(7, Fraction(2), 100)
    with pytest.raises(ConfigError):
        compute_deposit(7, Fraction(1, 2), 100)


def test_config_validation():
    LotteryConfig().validate()
    bad = [
        dict(security_factor=Fraction(1)),
        dict(security_factor=Fraction(2)),
        dict(share_price=-1),
        dict(cert_cap=0),
        dict(bet_duration=0),
        dict(buffer_duration=0),
        dict(guess_space_size=0),
        dict(winning_draws=0),
        dict(winning_draws=11),
        dict(pool_mode="other"),
        dict(pow_difficulty=0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            LotteryConfig(**kwargs).validate()


# --- admission and certification ---------------------------------------


def test_deploy_host_is_ordinary_player_and_certifier():
    ledger, state, accounts = fresh_lottery(1)
    host = accounts[0].address
    assert state.phase == "Enrolling"
    assert list(state.players) == [host]
    assert state.active_certifiers == [host]
    node = create_account(ledger, b"node", 0, is_transaction_node=True)
    with pytest.raises(ProtocolError):
        deploy(ledger, node.address, LotteryConfig())


def test_admission_requires_valid_pow_and_unanimity():
    ledger, state, accounts = fresh_lottery(1)
    host = accounts[0].address
    cand = create_account(ledger, b"cand", 10**8).address
    good = solve_pow(admission_challenge(state, cand), state.config.pow_difficulty)

    wrong_challenge = solve_pow(H(b"other"), state.config.pow_difficulty)
    tick_to(ledger, 1)
    with pytest.raises(AdmissionRejected):
        add_player(state, cand, wrong_challenge, {host})
    with pytest.raises(AdmissionRejected):
        add_player(state, cand, good, set())  # missing the host's vote
    add_player(state, cand, good, {host})
    with pytest.raises(AdmissionRejected):
        add_player(state, cand, good, {host, cand})  # already enrolled

    node = create_account(ledger, b"node2", 0, is_transaction_node=True)
    with pytest.raises(ProtocolError):
        add_player(state, node.address, good, {host, cand})


def test_admission_challenge_binds_instance_and_candidate():
    ledger, state, accounts = fresh_lottery(1)
    cand = create_account(ledger, b"cand", 0).address
    assert admission_challenge(state, cand) == H(b"join" + le8(state.instance_id) + cand)


def test_cert_cap_evicts_most_recent_member():
    ledger, state, accounts = fresh_lottery(1, cert_cap=2)
    a, b, c = (create_account(ledger, s, 10**8).address for s in (b"a", b"b", b"c"))
    host = accounts[0].address
    tick_to(ledger, 1)
    admit(state, a)
    assert state.active_certifiers == [host, a]
    tick_to(ledger, 2)
    admit(state, b)  # cap hit: b replaces a (latest joiner)
    assert state.active_certifiers == [host, b]
    admit(state, c)  # tie on join tick: sequence breaks it
    assert state.active_certifiers == [host, c]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.one_of(st.just("admit"), st.integers(0, 15)), max_size=12),
)
def test_certifier_list_replaces_the_latest_joiner(cert_cap, steps):
    # reference: the member with the highest join index is evicted in place
    ledger, state, accounts = fresh_lottery(1, cert_cap=cert_cap)
    host = accounts[0].address
    join_index = {host: 0}
    expected = [host]
    for step in steps:
        if step != "admit":  # an integer step bans an enrolled player
            player = list(state.players)[step % len(state.players)]
            ban_player(state, player)
            if player in expected:
                expected.remove(player)
            continue
        cand = create_account(ledger, f"c{len(join_index)}".encode(), 0).address
        join_index[cand] = len(join_index)
        admit(state, cand)
        if len(expected) == cert_cap:
            expected[expected.index(max(expected, key=join_index.get))] = cand
        else:
            expected.append(cand)
        assert state.active_certifiers == expected


def test_ban_removes_certifier_and_zeroes_score():
    ledger, state, accounts = fresh_lottery(2)
    target = accounts[1].address
    assert target in state.active_certifiers
    ban_player(state, target)
    assert target not in state.active_certifiers
    assert target in state.banned
    assert state.eligible() == [accounts[0].address]
    with pytest.raises(ProtocolError):
        ban_player(state, b"\x00" * 32)


# --- a full round, checked tick by tick --------------------------------


def escrowed_pool(state):
    """The prize pool between draw and settle, read off the escrow buckets.

    phi plus the held deposits (literal mode) or plus the stakes
    (consistent mode).
    """
    literal = state.config.pool_mode == POOL_LITERAL
    bucket = state.round.bucket if literal else state.stake_bucket
    return state.phi + state.ledger.escrow.get(bucket, 0)


def run_full_round(
    pool_mode="consistent", skip_reveal=(), bettors=None, price=10**13, paid=None
):
    """Drive one lottery to Settled with bet/buffer durations of 1 tick each.

    `paid`, if given, collects how much each bettor's balance fell across
    its buy_shares call.
    """
    ledger, state, accounts = fresh_lottery(
        3,
        balance=10**14,
        share_price=price,
        bet_duration=1,
        buffer_duration=1,
        guess_space_size=4,
        pool_mode=pool_mode,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    for a, guesses in (bettors or {addrs[0]: [0, 1], addrs[1]: [2], addrs[2]: [3]}).items():
        before = ledger.balance_of(a)
        buy_shares(state, a, guesses)
        if paid is not None:
            paid[a] = before - ledger.balance_of(a)
    tick_to(ledger, 4)
    enter_buffer(state)
    for i, a in enumerate(addrs):
        if a not in skip_reveal:
            reveal_key(state, a, key=i)
    tick_to(ledger, 5)
    draw(state)
    payouts = settle(state)
    return ledger, state, addrs, deposits, payouts


def test_full_round_fee_and_conservation():
    paid = {}
    ledger, state, addrs, deposits, payouts = run_full_round(paid=paid)
    price = state.config.share_price
    fee = price // 10**12  # 10 units per share at this price
    assert fee == 10
    shares = {addrs[0]: 2, addrs[1]: 1, addrs[2]: 1}
    for a, m in shares.items():
        assert paid[a] == m * (price + fee)
    # nobody forfeited, so the pool is exactly the stakes: payouts plus the
    # split's remainder are the stakes, and the fees sit beside them in the sink
    assert sum(payouts.values()) + ledger.fee_sink == 4 * price + 4 * fee
    assert not ledger.escrow  # consistent mode strands nothing
    assert ledger.conservation_residual() == 0
    # every deposit came back
    for a in addrs:
        assert state.players[a].deposit_refunded == deposits[a]
    assert state.phase == "Settled"


def test_full_round_all_guesses_covered_someone_wins():
    ledger, state, addrs, _, payouts = run_full_round()
    assert state.winners is not None and len(state.winners) == 1
    assert sum(winning_share_count(state, a) for a in addrs) >= 1
    assert payouts  # the covering bettor got paid
    winners = {a for a in addrs if winning_share_count(state, a)}
    assert set(payouts) == winners


def test_no_forfeits_leaves_phi_empty():
    ledger, state, addrs, deposits, _ = run_full_round()
    assert state.phi == 0
    assert all(state.players[a].deposit_forfeited == 0 for a in addrs)


def test_silent_committer_forfeits_exact_deposit():
    ledger, state, accounts = fresh_lottery(
        3, balance=10**15, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=4,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    buy_shares(state, addrs[0], [0, 1, 2, 3])
    tick_to(ledger, 4)
    enter_buffer(state)
    reveal_key(state, addrs[0], key=0)  # addrs[1], addrs[2] stay silent
    tick_to(ledger, 5)
    draw(state)
    lost = deposits[addrs[1]] + deposits[addrs[2]]
    assert state.players[addrs[1]].deposit_forfeited == deposits[addrs[1]]
    assert state.players[addrs[2]].deposit_forfeited == deposits[addrs[2]]
    # pool = stakes + both forfeited deposits, all paid to the lone winner
    pool = 4 * state.config.share_price + lost
    assert escrowed_pool(state) == pool
    payouts = settle(state)
    assert payouts == {addrs[0]: pool}  # one winning share takes everything
    assert ledger.conservation_residual() == 0


def test_banned_revealer_forfeits_and_scores_zero():
    ledger, state, accounts = fresh_lottery(
        3, balance=10**15, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=4,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    for a in addrs:
        buy_shares(state, a, [0, 1, 2, 3])  # everyone covers the space
    tick_to(ledger, 4)
    enter_buffer(state)
    for i, a in enumerate(addrs):
        reveal_key(state, a, key=i)
    ban_player(state, addrs[2])
    tick_to(ledger, 5)
    draw(state)
    cheat = state.players[addrs[2]]
    assert cheat.deposit_forfeited == deposits[addrs[2]]
    assert winning_share_count(state, addrs[2]) == 0
    # the banned player's stake still sits in the pool that others split
    assert escrowed_pool(state) == 3 * 4 * state.config.share_price + deposits[addrs[2]]
    payouts = settle(state)
    assert addrs[2] not in payouts
    assert ledger.conservation_residual() == 0


def test_no_winning_shares_refunds_stakes_consistent():
    ledger, state, accounts = fresh_lottery(
        1, balance=10**14, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=10,
    )
    host = accounts[0].address
    tick_to(ledger, 1)
    begin_key_upload(state)
    upload_key(state, host, key=5)
    tick_to(ledger, 3)
    begin_betting(state)
    # find a guess that loses for this seed by buying nothing yet
    tick_to(ledger, 4)
    enter_buffer(state)
    reveal_key(state, host, key=5)
    tick_to(ledger, 5)
    draw(state)
    payouts = settle(state)
    assert payouts == {}
    assert ledger.balance_of(host) == 10**14  # stake-free round: full refund
    assert ledger.conservation_residual() == 0


def test_no_winning_shares_literal_strands_stakes():
    ledger, state, accounts = fresh_lottery(
        2, balance=10**14, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=10, pool_mode=POOL_LITERAL,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    tick_to(ledger, 4)
    enter_buffer(state)
    for i, a in enumerate(addrs):
        reveal_key(state, a, key=i)
    tick_to(ledger, 5)
    draw(state)
    # literal mode holds deposits for the pool instead of refunding
    assert ledger.escrow[state.round.bucket] == sum(deposits.values())
    for a in addrs:
        record = state.players[a]
        assert (record.deposit_refunded, record.deposit_forfeited) == (0, 0)
    assert escrowed_pool(state) == sum(deposits.values())
    payouts = settle(state)
    assert payouts == {}
    assert escrowed_pool(state) == 0  # the held deposits went to the sink
    assert not ledger.escrow  # nobody staked, nothing to strand
    for a in addrs:
        # deposits were consumed by the pool and then sunk (no winners)
        assert ledger.balance_of(a) == 10**14 - deposits[a]
    assert ledger.conservation_residual() == 0


def test_literal_mode_strands_stakes_when_winners_exist():
    ledger, state, accounts = fresh_lottery(
        2, balance=10**14, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=2, pool_mode=POOL_LITERAL,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    for a in addrs:
        buy_shares(state, a, [0, 1])
    tick_to(ledger, 4)
    enter_buffer(state)
    for i, a in enumerate(addrs):
        reveal_key(state, a, key=i)
    tick_to(ledger, 5)
    draw(state)
    # pool excludes stakes entirely: it is the held deposits (phi empty here)
    pool = escrowed_pool(state)
    assert pool == sum(deposits.values())
    sink = ledger.fee_sink
    payouts = settle(state)
    assert sum(payouts.values()) + (ledger.fee_sink - sink) == pool
    assert ledger.escrow == {state.stake_bucket: 4 * state.config.share_price}
    assert ledger.conservation_residual() == 0


def test_abort_refunds_all_deposits_and_stakes():
    ledger, state, accounts = fresh_lottery(
        2, balance=10**14, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=4,
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    deposits = {a: upload_key(state, a, key=i) for i, a in enumerate(addrs)}
    tick_to(ledger, 3)
    begin_betting(state)
    buy_shares(state, addrs[0], [0])
    tick_to(ledger, 4)
    enter_buffer(state)
    # nobody reveals
    tick_to(ledger, 5)
    result = draw(state)
    assert result is None
    assert state.winners is None
    assert state.phase == "Drawn"  # abort still passes through the draw phase
    payouts = settle(state)
    assert payouts == {}
    fee = state.config.share_price // 10**12  # one share bought
    assert ledger.balance_of(addrs[0]) == 10**14 - fee  # fees are not refunded
    assert ledger.balance_of(addrs[1]) == 10**14
    for a in addrs:
        assert state.players[a].deposit_refunded == deposits[a]
    assert ledger.conservation_residual() == 0


# --- phase machine and guards ------------------------------------------


def test_phase_order_is_strict():
    ledger, state, accounts = fresh_lottery(1)
    host = accounts[0].address
    with pytest.raises(PhaseError):
        begin_betting(state)  # Enrolling cannot jump to Betting
    with pytest.raises(PhaseError):
        settle(state)
    tick_to(ledger, 1)
    begin_key_upload(state)
    with pytest.raises(PhaseError):
        begin_key_upload(state)  # no re-entry
    with pytest.raises(PhaseError):
        admit_any = solve_pow(admission_challenge(state, b"\x01" * 32), MAX_TARGET)
        add_player(state, b"\x01" * 32, admit_any, {host})
    assert state.phase == "KeyUpload"


def test_timing_gates():
    ledger, state, accounts = fresh_lottery(
        1, balance=10**14, bet_duration=2, buffer_duration=2
    )
    host = accounts[0].address
    tick_to(ledger, 1)
    begin_key_upload(state)
    # commit deadline = 3, betting close = 5, reveal deadline = 7
    assert state.round.commit_deadline == 3
    assert state.betting_close == 5
    assert state.round.reveal_deadline == 7
    tick_to(ledger, 3)
    upload_key(state, host, key=1)  # at the deadline: allowed
    with pytest.raises(PhaseError):
        begin_betting(state)  # window still open through tick 3
    tick_to(ledger, 4)
    begin_betting(state)
    tick_to(ledger, 5)
    buy_shares(state, host, [0])  # at betting close: allowed
    with pytest.raises(PhaseError):
        enter_buffer(state)
    tick_to(ledger, 6)
    with pytest.raises(PhaseError):
        buy_shares(state, host, [1])
    enter_buffer(state)
    tick_to(ledger, 7)
    reveal_key(state, host, key=1)  # at reveal deadline: allowed
    with pytest.raises(PhaseError):
        draw(state)
    tick_to(ledger, 8)
    draw(state)


def snapshot(state):
    """Everything a refused call must leave exactly as it found it."""
    ledger, rnd = state.ledger, state.round
    return (
        {a: acct.balance for a, acct in ledger.accounts.items()},
        dict(ledger.escrow),
        ledger.fee_sink,
        list(ledger.pending),
        dict(rnd.commitments),
        dict(rnd.reveals),
        rnd.state,
        state.phase,
        [astuple(record) for record in state.players.values()],
    )


def test_every_window_reads_the_ledger_clock():
    ledger, state, accounts = fresh_lottery(3, balance=10**14)
    a, b, c = (acct.address for acct in accounts)
    begin_key_upload(state)  # at tick 0: commits close 2, bets 4, reveals 6
    assert (state.round.commit_deadline, state.betting_close) == (2, 4)
    assert state.round.reveal_deadline == 6

    def refused(error, call):
        before = snapshot(state)
        with pytest.raises(error):
            call()
        assert snapshot(state) == before

    tick_to(ledger, 2)
    upload_key(state, a, key=1)
    upload_key(state, b, key=2)
    tick_to(ledger, 3)
    refused(WindowError, lambda: upload_key(state, c, key=3))
    begin_betting(state)
    tick_to(ledger, 4)
    buy_shares(state, a, [0])
    tick_to(ledger, 5)
    refused(PhaseError, lambda: buy_shares(state, b, [1]))
    enter_buffer(state)
    tick_to(ledger, 6)
    reveal_key(state, a, key=1)
    refused(PhaseError, lambda: draw(state))
    tick_to(ledger, 50)  # long past the reveal deadline
    refused(WindowError, lambda: reveal_key(state, b, key=2))
    draw(state)
    assert state.players[b].deposit_forfeited == state.round.commitments[b].deposit


def test_buy_shares_guards():
    ledger, state, accounts = fresh_lottery(
        2, balance=10**8, guess_space_size=4, bet_duration=1, buffer_duration=1
    )
    addrs = [acct.address for acct in accounts]
    tick_to(ledger, 1)
    begin_key_upload(state)
    tick_to(ledger, 3)
    begin_betting(state)
    with pytest.raises(ProtocolError):
        buy_shares(state, addrs[0], [4])  # out of the guess space
    with pytest.raises(ProtocolError):
        buy_shares(state, addrs[0], [-1])
    with pytest.raises(ProtocolError):
        buy_shares(state, b"\x07" * 32, [0])  # not enrolled
    with pytest.raises(ProtocolError):
        buy_shares(state, addrs[0], [0] * 1000)  # cannot afford
    before = ledger.balance_of(addrs[0])
    buy_shares(state, addrs[0], [])  # zero shares: a no-op
    assert ledger.balance_of(addrs[0]) == before
    ban_player(state, addrs[1])
    with pytest.raises(ProtocolError):
        buy_shares(state, addrs[1], [0])


def test_upload_and_reveal_guards():
    ledger, state, accounts = fresh_lottery(2, balance=10**8)
    addrs = [acct.address for acct in accounts]
    ban_player(state, addrs[1])
    tick_to(ledger, 1)
    begin_key_upload(state)
    with pytest.raises(ProtocolError):
        upload_key(state, addrs[1], key=1)  # banned
    with pytest.raises(ProtocolError):
        upload_key(state, b"\x07" * 32, key=1)  # unknown
    with pytest.raises(PhaseError):
        reveal_key(state, addrs[0], key=1)  # wrong phase


def test_host_has_no_special_power():
    # the host is just the first enrolled player; banning the host works
    ledger, state, accounts = fresh_lottery(2)
    ban_player(state, accounts[0].address)
    assert accounts[0].address not in state.active_certifiers
    assert state.eligible() == [accounts[1].address]


# --- winner derivation --------------------------------------------------


def test_derive_winners_counter_mode():
    seed = H(b"seed")
    got = derive_winners(seed, 3, 10)
    expect: set[int] = set()
    counter = 0
    while len(expect) < 3:
        expect.add(digest_int(H(seed + le8(counter))) % 10)
        counter += 1
    assert got == expect
    assert derive_winners(seed, 10, 10) == set(range(10))
    assert derive_winners(seed, 1, 1) == {0}
    with pytest.raises(ProtocolError):
        derive_winners(seed, 0, 10)
    with pytest.raises(ProtocolError):
        derive_winners(seed, 11, 10)


def test_single_player_space_one_takes_whole_pool():
    ledger, state, accounts = fresh_lottery(
        1, balance=10**14, share_price=10**13, bet_duration=1, buffer_duration=1,
        guess_space_size=1,
    )
    host = accounts[0].address
    tick_to(ledger, 1)
    begin_key_upload(state)
    upload_key(state, host, key=9)
    tick_to(ledger, 3)
    begin_betting(state)
    buy_shares(state, host, [0])
    tick_to(ledger, 4)
    enter_buffer(state)
    reveal_key(state, host, key=9)
    tick_to(ledger, 5)
    draw(state)
    assert escrowed_pool(state) == 10**13  # the single stake
    payouts = settle(state)
    assert state.winners == {0}
    assert payouts == {host: 10**13}
    assert ledger.conservation_residual() == 0


def test_settlement_report_shape():
    ledger, state, addrs, _, _ = run_full_round()
    lines = settlement_report(state).strip().split("\n")
    assert len(lines) == 3
    assert [ln.split(",")[0] for ln in lines] == sorted(a.hex() for a in addrs)
    for ln in lines:
        fields = ln.split(",")
        assert len(fields) == 6
        assert int(fields[5]) == ledger.balance_of(bytes.fromhex(fields[0]))
