from functools import reduce

import pytest

from conftest import tick_to
from delottery_sim import (
    BindingViolation,
    H,
    Ledger,
    ProtocolError,
    WindowError,
    combine,
    commit,
    commit_hash_for,
    create_account,
    encode_i64,
    finalize,
    le8,
    open_round,
    peek_output,
    reveal,
    round_transcript,
)


def setup_round(n_players=3, commit_window=5, reveal_window=5):
    ledger = Ledger()
    players = [create_account(ledger, f"p{i}".encode(), 10_000) for i in range(n_players)]
    rnd = open_round(ledger, commit_window, reveal_window)
    return ledger, players, rnd


def test_open_round_deadlines():
    ledger = Ledger()
    rnd = open_round(ledger, 5, 5)
    assert (rnd.commit_deadline, rnd.reveal_deadline) == (5, 10)
    tick_to(ledger, 3)  # windows count from the ledger clock
    rnd = open_round(ledger, 5, 5)
    assert (rnd.commit_deadline, rnd.reveal_deadline) == (8, 13)
    with pytest.raises(ProtocolError):
        open_round(ledger, 0, 5)
    with pytest.raises(ProtocolError):
        open_round(ledger, 5, 0)


def test_commit_escrows_deposit():
    ledger, (a, *_), rnd = setup_round()
    commit(ledger, rnd, a.address, commit_hash_for(7), 100)
    assert ledger.balance_of(a.address) == 9_900
    assert ledger.escrow[rnd.bucket] == 100
    assert ledger.conservation_residual() == 0


def test_commit_window_boundary_inclusive():
    ledger, (a, b, _), rnd = setup_round(commit_window=5)
    tick_to(ledger, 5)
    commit(ledger, rnd, a.address, commit_hash_for(1), 10)  # at deadline: fine
    tick_to(ledger, 6)
    with pytest.raises(WindowError):
        commit(ledger, rnd, b.address, commit_hash_for(2), 10)


def test_commit_rejections():
    ledger, (a, b, _), rnd = setup_round()
    node = create_account(ledger, b"node", 10_000, is_transaction_node=True)
    with pytest.raises(ProtocolError):
        commit(ledger, rnd, node.address, commit_hash_for(1), 10)
    commit(ledger, rnd, a.address, commit_hash_for(1), 10)
    with pytest.raises(ProtocolError):
        commit(ledger, rnd, a.address, commit_hash_for(1), 10)  # duplicate
    with pytest.raises(ProtocolError):
        commit(ledger, rnd, b.address, commit_hash_for(2), 0)  # no deposit
    with pytest.raises(ProtocolError):
        commit(ledger, rnd, b.address, commit_hash_for(2), 99_999)  # too poor


def test_reveal_window_and_binding():
    ledger, (a, b, c), rnd = setup_round(commit_window=5, reveal_window=5)
    commit(ledger, rnd, a.address, commit_hash_for(41), 10)
    commit(ledger, rnd, c.address, commit_hash_for(43), 10)
    tick_to(ledger, 5)
    with pytest.raises(WindowError):
        reveal(ledger, rnd, a.address, 41)  # reveal window not open yet
    tick_to(ledger, 6)
    with pytest.raises(BindingViolation):
        reveal(ledger, rnd, a.address, 42)  # value does not match the hash
    with pytest.raises(ProtocolError):
        reveal(ledger, rnd, b.address, 1)  # never committed
    reveal(ledger, rnd, a.address, 41)
    tick_to(ledger, 7)
    with pytest.raises(ProtocolError):
        reveal(ledger, rnd, a.address, 41)  # double reveal
    tick_to(ledger, 10)
    reveal(ledger, rnd, c.address, 43)  # at the reveal deadline: fine
    tick_to(ledger, 11)
    with pytest.raises(WindowError):
        reveal(ledger, rnd, a.address, 41)  # window closed


def test_window_refusals_change_nothing():
    ledger, (a, b, _), rnd = setup_round(commit_window=5, reveal_window=5)
    commit(ledger, rnd, a.address, commit_hash_for(1), 10)

    def view():
        balances = {p: acct.balance for p, acct in ledger.accounts.items()}
        return (
            balances, dict(ledger.escrow), list(ledger.pending),
            dict(rnd.commitments), dict(rnd.reveals), rnd.state, rnd.output,
        )

    def refused(call):
        before = view()
        with pytest.raises(WindowError):
            call()
        assert view() == before

    refused(lambda: reveal(ledger, rnd, a.address, 1))  # tick 0: commit window
    tick_to(ledger, 6)
    refused(lambda: commit(ledger, rnd, b.address, commit_hash_for(2), 10))
    refused(lambda: finalize(ledger, rnd))
    tick_to(ledger, 11)
    refused(lambda: reveal(ledger, rnd, a.address, 1))


def test_combine_matches_primitive_recompute_and_ignores_order():
    values_ab = {b"\x02" * 32: 5, b"\x01" * 32: -9}
    values_ba = {b"\x01" * 32: -9, b"\x02" * 32: 5}
    got = combine(values_ab, round_id=3)
    assert got == combine(values_ba, round_id=3)
    # independent recompute: XOR-fold the 8-byte value encodings in
    # ascending committer order, then hash with the round id appended
    folded = reduce(
        lambda acc, v: bytes(x ^ y for x, y in zip(acc, encode_i64(v))),
        [values_ab[k] for k in sorted(values_ab)],
        b"\x00" * 8,
    )
    assert got == H(folded + le8(3))


def test_finalize_refunds_and_forfeits_exactly():
    ledger, (a, b, c), rnd = setup_round()
    commit(ledger, rnd, a.address, commit_hash_for(1), 100)
    commit(ledger, rnd, b.address, commit_hash_for(2), 250)
    commit(ledger, rnd, c.address, commit_hash_for(3), 70)
    tick_to(ledger, 6)
    reveal(ledger, rnd, a.address, 1)
    reveal(ledger, rnd, c.address, 3)
    tick_to(ledger, 10)
    with pytest.raises(WindowError):
        finalize(ledger, rnd)  # reveal window still open
    tick_to(ledger, 11)
    output, refunds, forfeited = finalize(ledger, rnd)
    assert refunds == {a.address: 100, c.address: 70}
    assert forfeited == 250
    assert ledger.balance_of(a.address) == 10_000
    assert ledger.balance_of(b.address) == 9_750
    assert ledger.escrow[rnd.bucket] == 250  # forfeit stays for the caller to route
    assert output == combine({a.address: 1, c.address: 3}, rnd.round_id)
    assert peek_output(rnd) == output
    tick_to(ledger, 12)
    with pytest.raises(ProtocolError):
        finalize(ledger, rnd)  # already finalized


def test_finalize_excluded_revealer_is_forfeited():
    ledger, (a, b, _), rnd = setup_round()
    commit(ledger, rnd, a.address, commit_hash_for(1), 100)
    commit(ledger, rnd, b.address, commit_hash_for(2), 100)
    tick_to(ledger, 6)
    reveal(ledger, rnd, a.address, 1)
    reveal(ledger, rnd, b.address, 2)
    tick_to(ledger, 11)
    output, refunds, forfeited = finalize(ledger, rnd, excluded=frozenset({b.address}))
    assert refunds == {a.address: 100}
    assert forfeited == 100
    # the excluded value contributes no entropy either
    assert output == combine({a.address: 1}, rnd.round_id)


def test_no_entropy_aborts_and_refunds_everyone():
    for apply_refunds in (True, False):  # an abort returns every deposit either way
        ledger, (a, b, _), rnd = setup_round()
        commit(ledger, rnd, a.address, commit_hash_for(1), 100)
        commit(ledger, rnd, b.address, commit_hash_for(2), 200)
        tick_to(ledger, 11)
        output, refunds, forfeited = finalize(ledger, rnd, apply_refunds=apply_refunds)
        assert output is None
        assert refunds == {a.address: 100, b.address: 200} and forfeited == 0
        assert ledger.balance_of(a.address) == 10_000
        assert ledger.balance_of(b.address) == 10_000
        assert rnd.bucket not in ledger.escrow
        assert rnd.output is None and rnd.state == "Finalized"


def test_transcript_format_sorted_by_committer():
    ledger, (a, b, _), rnd = setup_round()
    commit(ledger, rnd, a.address, commit_hash_for(17), 40)
    commit(ledger, rnd, b.address, commit_hash_for(-3), 60)
    tick_to(ledger, 6)
    reveal(ledger, rnd, a.address, 17)
    lines = round_transcript(rnd).strip().split("\n")
    assert len(lines) == 2
    assert lines == sorted(lines, key=lambda ln: ln.split(",")[1])
    by_addr = {ln.split(",")[1]: ln.split(",") for ln in lines}
    row_a = by_addr[a.address.hex()]
    row_b = by_addr[b.address.hex()]
    assert row_a[0] == str(rnd.round_id)
    assert row_a[2] == commit_hash_for(17).hex()
    assert (row_a[3], row_a[4], row_a[5]) == ("1", "17", "40")
    assert (row_b[3], row_b[4], row_b[5]) == ("0", "-", "60")
