from fractions import Fraction

import pytest

from conftest import tick_to
from delottery_sim import (
    CERT_HONEST_REFUSE,
    CERT_RUBBERSTAMP,
    Ledger,
    LotteryConfig,
    MAX_TARGET,
    NodeAttacker,
    ProtocolError,
    Stream,
    add_player,
    admission_challenge,
    begin_betting,
    begin_key_upload,
    bounded_pow,
    buy_shares,
    create_account,
    deploy,
    derive_winners,
    enter_buffer,
    favorable,
    reveal_key,
    run_commit_reveal_mode_round,
    run_naive_mode_round,
    settle,
    solve_pow,
    sybil_admission_trial,
    sybil_spawn,
    upload_key,
    verify_pow,
)
from delottery_sim import adversary
from delottery_sim.randao import FINALIZED, peek_output


# --- the favorability predicate -----------------------------------------


def test_filter_intersection_rule():
    assert favorable([3], {3, 7})
    assert favorable([1, 3], {3})
    assert not favorable([1], {3, 7})
    assert favorable([5], {5})


def test_filter_subset_rule():
    assert favorable([3], {3, 7}, subset_rule=True)
    assert not favorable([3, 1], {3, 7}, subset_rule=True)


def test_filter_empty_guesses_always_withholds():
    assert not favorable([], {0, 1, 2})
    assert not favorable([], {0}, subset_rule=True)


def test_filter_does_not_mutate_inputs():
    guesses, winners = [0, 0], {0}
    for subset_rule in (False, True):
        assert favorable(guesses, winners, subset_rule)
    assert (guesses, winners) == ([0, 0], {0})


def test_attacker_mining_share_validation():
    NodeAttacker(b"\x01" * 32, b"\x02" * 32, Fraction(0))
    NodeAttacker(b"\x01" * 32, b"\x02" * 32, 1)
    a = NodeAttacker(b"\x01" * 32, b"\x02" * 32, "3/10")
    assert a.mining_share == Fraction(3, 10)
    with pytest.raises(ProtocolError):
        NodeAttacker(b"\x01" * 32, b"\x02" * 32, Fraction(11, 10))
    with pytest.raises(ProtocolError):
        NodeAttacker(b"\x01" * 32, b"\x02" * 32, -1)


# --- withholding in a live round -----------------------------------------


def drive_to_draw(mode, colluder_guesses, space=4, uploads=False):
    """Stand a 2-player lottery in Buffer with the reveal window closed."""
    ledger = Ledger()
    miner = create_account(ledger, b"\x00m", 0, is_transaction_node=True).address
    atk_node = create_account(ledger, b"\x00a", 0, is_transaction_node=True).address
    cfg = LotteryConfig(
        bet_duration=1, buffer_duration=1, guess_space_size=space, share_price=10**6
    )
    accounts = [create_account(ledger, f"p{i}".encode(), 10**12) for i in range(2)]
    addrs = [acct.address for acct in accounts]
    state = deploy(ledger, addrs[0], cfg)
    proof = solve_pow(admission_challenge(state, addrs[1]), cfg.pow_difficulty)
    add_player(state, addrs[1], proof, set(state.active_certifiers))
    ledger.advance_clock()
    begin_key_upload(state)
    if mode == "commit-reveal" or uploads:
        for i, a in enumerate(addrs):
            upload_key(state, a, key=1000 + i)
    tick_to(ledger, state.round.commit_deadline + 1)
    begin_betting(state)
    buy_shares(state, addrs[0], [0, 1])
    buy_shares(state, addrs[1], colluder_guesses)
    tick_to(ledger, state.betting_close + 1)
    enter_buffer(state)
    if mode == "commit-reveal":
        for i, a in enumerate(addrs):
            reveal_key(state, a, key=1000 + i)
    tick_to(ledger, state.round.reveal_deadline + 1)
    return ledger, state, miner, atk_node, addrs


def test_naive_full_share_attacker_always_wins():
    ledger, state, miner, atk_node, addrs = drive_to_draw("naive", [2])
    attacker = NodeAttacker(atk_node, addrs[1], Fraction(1))
    outcome = run_naive_mode_round(
        state, attacker, miner, Stream(7, 0, "proposer"), addrs[0]
    )
    assert outcome.attacker_won
    assert 2 in outcome.winners
    settle(state)
    assert state.players[addrs[1]].payout > 0
    assert ledger.conservation_residual() == 0
    # every withheld slot shipped as an empty block on chain
    empties = sum(1 for b in ledger.chain if not b.events)
    assert empties >= outcome.withheld


def test_naive_impossible_draw_hits_retry_limit(monkeypatch):
    # subset rule with two guesses and one winning draw: nothing is favorable
    monkeypatch.setattr(adversary, "NAIVE_RETRY_LIMIT", 3)
    ledger, state, miner, atk_node, addrs = drive_to_draw("naive", [0, 1])
    attacker = NodeAttacker(atk_node, addrs[1], Fraction(1), subset_rule=True)
    chain, clock = list(ledger.chain), ledger.clock
    with pytest.raises(ProtocolError, match="never found a favorable draw"):
        run_naive_mode_round(state, attacker, miner, Stream(7, 0, "proposer"), addrs[0])
    # a raised ProtocolError leaves nothing behind: no withheld or draw block
    assert ledger.chain == chain and ledger.clock == clock


def test_naive_zero_share_attacker_never_withholds():
    ledger, state, miner, atk_node, addrs = drive_to_draw("naive", [2])
    attacker = NodeAttacker(atk_node, addrs[1], Fraction(0))
    outcome = run_naive_mode_round(
        state, attacker, miner, Stream(7, 0, "proposer"), addrs[0]
    )
    assert outcome.withheld == 0


def test_naive_no_guesses_no_stall():
    ledger, state, miner, atk_node, addrs = drive_to_draw("naive", [])
    attacker = NodeAttacker(atk_node, addrs[1], Fraction(1))
    outcome = run_naive_mode_round(
        state, attacker, miner, Stream(7, 0, "proposer"), addrs[0]
    )
    assert outcome.withheld == 0
    assert not outcome.attacker_won


def test_naive_without_attacker_matches_first_block_hash():
    ledger, state, miner, _, addrs = drive_to_draw("naive", [2])
    outcome = run_naive_mode_round(state, None, miner, Stream(7, 0, "x"), addrs[0])
    cfg = state.config
    block = ledger.chain[-1]
    assert outcome.winners == derive_winners(
        block.hash, cfg.winning_draws, cfg.guess_space_size
    )
    assert outcome.withheld == 0 and not outcome.attacker_won


def test_naive_draw_refunds_uploaded_deposits():
    # block-hash randomness ignores the round, so every deposit comes back
    ledger, state, miner, _, addrs = drive_to_draw("naive", [2], uploads=True)
    deposits = {a: state.round.commitments[a].deposit for a in addrs}
    assert all(deposits.values())
    before = {a: ledger.balance_of(a) for a in addrs}
    run_naive_mode_round(state, None, miner, Stream(7, 0, "x"), addrs[0])
    assert state.round.state == FINALIZED
    assert state.round.bucket not in ledger.escrow
    for a in addrs:
        assert ledger.balance_of(a) == before[a] + deposits[a]
        assert state.players[a].deposit_refunded == deposits[a]
    settle(state)
    assert ledger.conservation_residual() == 0


def fixed_winners(state):
    cfg = state.config
    return derive_winners(peek_output(state.round), cfg.winning_draws, cfg.guess_space_size)


def test_commit_reveal_withholding_cannot_change_winners():
    # two identical setups; the attacked one only stalls, never redraws.
    # The drive is deterministic, so a first drive tells the colluder
    # which guess the reveals already rule out, and it buys that one.
    fixed = fixed_winners(drive_to_draw("commit-reveal", [2])[1])
    losing = [g for g in range(4) if g not in fixed][:1]
    results = []
    for share in (Fraction(0), Fraction(1)):
        ledger, state, miner, atk_node, addrs = drive_to_draw("commit-reveal", losing)
        fixed = fixed_winners(state)
        attacker = NodeAttacker(atk_node, addrs[1], share, futility_cap=5)
        outcome = run_commit_reveal_mode_round(
            state, attacker, miner, Stream(9, 0, "proposer"), addrs[0]
        )
        results.append((outcome.winners, outcome.withheld, fixed))
    (w0, held0, fixed0), (w1, held1, fixed1) = results
    assert w0 == fixed0 and w1 == fixed1
    assert w0 == w1  # same reveals, same winners, attack or not
    assert held0 == 0
    assert held1 == 5  # stalled to the futility cap, then gave up


def test_commit_reveal_favorable_draw_included_immediately():
    # a first drive learns the fixed winners; in the second the colluder bets on them
    fixed = fixed_winners(drive_to_draw("commit-reveal", [2])[1])
    ledger, state, miner, atk_node, addrs = drive_to_draw("commit-reveal", sorted(fixed))
    assert fixed_winners(state) == fixed
    attacker = NodeAttacker(atk_node, addrs[1], Fraction(1))
    outcome = run_commit_reveal_mode_round(
        state, attacker, miner, Stream(9, 0, "proposer"), addrs[0]
    )
    assert outcome.withheld == 0
    assert outcome.winners == fixed


# --- sybil machinery -----------------------------------------------------


def sybil_fixture(policy, difficulty, budget, fake_count=6):
    ledger = Ledger()
    cfg = LotteryConfig(pow_difficulty=difficulty)
    host = create_account(ledger, b"host", 10**9).address
    state = deploy(ledger, host, cfg)
    controller = create_account(ledger, b"controller", 0).address
    fakes = sybil_spawn(ledger, controller, fake_count)
    admitted, spent = sybil_admission_trial(state, fakes, policy, budget)
    return state, controller, fakes, admitted, spent


def test_sybil_spawn_is_deterministic_and_idempotent():
    ledger = Ledger()
    controller = create_account(ledger, b"c", 0).address
    first = sybil_spawn(ledger, controller, 3)
    again = sybil_spawn(ledger, controller, 3)
    assert first == again
    assert len(set(first)) == 3
    shifted = sybil_spawn(ledger, controller, 2, start_salt=10)
    assert set(shifted).isdisjoint(first)


def test_bounded_pow_budget_exhaustion():
    proof, attempts = bounded_pow(b"x" * 32, 1, 50)  # target 1: unreachable
    assert proof is None and attempts == 50


def test_bounded_pow_takes_any_difficulty():
    # bounded_pow does not validate its target: 0 admits no digest, and
    # anything above 2^256 admits every digest, so nonce 0 wins at once
    assert bounded_pow(b"x" * 32, 0, 50) == (None, 50)
    proof, attempts = bounded_pow(b"x" * 32, MAX_TARGET + 1, 50)
    assert (proof.nonce, proof.difficulty, attempts) == (0, MAX_TARGET + 1, 1)


def test_bounded_pow_matches_unbounded_solver():
    challenge = b"y" * 32
    difficulty = MAX_TARGET >> 4
    proof, attempts = bounded_pow(challenge, difficulty, 10**6)
    reference = solve_pow(challenge, difficulty)
    assert proof == reference
    assert attempts == proof.nonce + 1  # nonces start at zero
    assert verify_pow(proof)


def test_honest_certifiers_admit_nothing_but_spend_happens():
    state, _, fakes, admitted, spent = sybil_fixture(
        CERT_HONEST_REFUSE, MAX_TARGET, budget=1000
    )
    assert admitted == 0
    assert spent == len(fakes)  # trivial difficulty: one hash per attempt
    assert all(f not in state.players for f in fakes)


def test_rubberstamp_admits_until_budget_gone():
    state, _, fakes, admitted, spent = sybil_fixture(
        CERT_RUBBERSTAMP, MAX_TARGET, budget=1000
    )
    assert admitted == len(fakes)
    assert spent == len(fakes)
    assert all(f in state.players for f in fakes)

    state2, _, fakes2, admitted2, spent2 = sybil_fixture(
        CERT_RUBBERSTAMP, MAX_TARGET, budget=2
    )
    assert admitted2 == 2 and spent2 == 2


def test_sybil_spend_scales_with_difficulty():
    # eight-fold harder target should cost measurably more per admission
    cheap = sybil_fixture(CERT_RUBBERSTAMP, MAX_TARGET, budget=10**6, fake_count=30)
    dear = sybil_fixture(CERT_RUBBERSTAMP, MAX_TARGET >> 3, budget=10**6, fake_count=30)
    spent_cheap = cheap[4] / cheap[3]
    spent_dear = dear[4] / dear[3]
    assert spent_cheap == 1.0
    assert spent_dear > 3.0  # expectation is 8; leave slack for variance


def test_unknown_certifier_policy_rejected():
    state, _, fakes, *_ = sybil_fixture(CERT_RUBBERSTAMP, MAX_TARGET, 10)
    with pytest.raises(ProtocolError):
        sybil_admission_trial(state, [], "bribe", 10)
