import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import delottery_sim
from delottery_sim import (
    FEE_SINK,
    AuthTagError,
    DuplicateAddress,
    H,
    InsufficientBalance,
    Ledger,
    MAX_TARGET,
    ProtocolError,
    UnknownAddress,
    bounded_pow,
    chain_dump,
    create_account,
    digest_int,
    le8,
    mine_block,
    preview_block,
    solve_pow,
    verify_chain,
    verify_pow,
)
from delottery_sim.chain import canonical_event_bytes, event_wire_bytes, pow_target


def fresh():
    ledger = Ledger()
    miner = create_account(ledger, b"miner", 0, is_transaction_node=True)
    alice = create_account(ledger, b"alice", 1000)
    bob = create_account(ledger, b"bob", 500)
    return ledger, miner, alice, bob


def test_account_derivation_is_deterministic():
    ledger, _, alice, _ = fresh()
    assert alice.secret == H(b"alice")
    assert alice.address == H(H(b"alice"))
    assert ledger.balance_of(alice.address) == 1000


def test_duplicate_address_rejected():
    ledger, *_ = fresh()
    with pytest.raises(DuplicateAddress):
        create_account(ledger, b"alice", 1)


def test_unknown_address_rejected():
    ledger, *_ = fresh()
    with pytest.raises(UnknownAddress):
        ledger.balance_of(b"\x00" * 32)


def test_debit_overdraft_leaves_balance_untouched():
    ledger, _, alice, bob = fresh()
    with pytest.raises(InsufficientBalance):
        ledger.move(alice.address, bob.address, 1001)
    assert ledger.balance_of(alice.address) == 1000
    assert ledger.balance_of(bob.address) == 500


def test_event_auth_tag_binds_payload():
    ledger, _, alice, bob = fresh()
    ev = ledger.make_event("transfer", alice.address, {"to": bob.address.hex(), "amount": 5})
    assert ledger.verify_event(ev)
    tampered = type(ev)(ev.kind, ev.sender, ev.timestamp, {**ev.payload, "amount": 6}, ev.auth_tag)
    assert not ledger.verify_event(tampered)


def test_canonical_payload_is_key_order_independent():
    ledger, _, alice, _ = fresh()
    a = ledger.make_event("commit", alice.address, {"x": 1, "y": 2})
    b = ledger.make_event("commit", alice.address, {"y": 2, "x": 1})
    assert a.auth_tag == b.auth_tag


def test_payload_keys_cannot_collide_with_separators():
    # unchecked, {"a": 1, "b": 2} and {"a=1|b": 2} would encode alike and share a tag
    sender = b"\x01" * 32
    assert canonical_event_bytes("commit", sender, 0, {"a": 1, "b": 2}).endswith(b"|a=1|b=2")
    for key in ("a=1|b", "a|b", "a=b", "|", "="):
        with pytest.raises(ValueError, match="payload keys"):
            canonical_event_bytes("commit", sender, 0, {key: 2})


def test_swapped_colliding_payload_is_not_mined():
    ledger, miner, alice, _ = fresh()
    with pytest.raises(ValueError):
        ledger.emit("commit", alice.address, {"a=1|b": 2})
    assert ledger.pending == []
    colliding = ledger.emit("commit", alice.address, {"a": 1, "b": 2})
    colliding.payload = {"a=1|b": 2}  # same bytes as the tagged payload, were keys unchecked
    swapped = ledger.emit("commit", alice.address, {"v": 1})
    swapped.payload["v"] = True  # equal to 1, but the encoder refuses bools
    for ev in (colliding, swapped):
        assert not ledger.verify_event(ev)
        with pytest.raises(AuthTagError):
            mine_block(ledger, miner.address, [ev])
        assert len(ledger.chain) == 1 and ledger._last_mine_tick == -1


def test_mining_applies_transfers_and_clears_nothing_on_failure():
    ledger, miner, alice, bob = fresh()
    ok = ledger.emit("transfer", alice.address, {"to": bob.address.hex(), "amount": 100})
    bad = ledger.emit("transfer", bob.address, {"to": alice.address.hex(), "amount": 10_000})
    events = list(ledger.pending)
    ledger.pending.clear()
    # second transfer overdrafts: the whole block must be rejected atomically
    with pytest.raises(ProtocolError):
        mine_block(ledger, miner.address, events)
    assert ledger.balance_of(alice.address) == 1000
    assert ledger.balance_of(bob.address) == 500
    mine_block(ledger, miner.address, [ok])
    assert ledger.balance_of(alice.address) == 900
    assert ledger.balance_of(bob.address) == 600


def test_malformed_transfer_rejects_block_and_moves_nothing():
    ledger, miner, alice, bob = fresh()
    ledger.move(alice.address, "pot", 10)
    to = bob.address.hex()
    ok = ledger.make_event("transfer", alice.address, {"to": to, "amount": 100})
    malformed = [
        {"amount": 1},  # no destination
        {"to": to},  # no amount
        {"to": "not hex", "amount": 1},
        {"to": bob.address, "amount": 1},  # encodes as hex, but is not a string
        {"to": 7, "amount": 1},
        {"to": to, "amount": "1"},
        {"to": to, "amount": [1]},
    ]

    def snapshot():
        balances = {a: acct.balance for a, acct in ledger.accounts.items()}
        return balances, dict(ledger.escrow), list(ledger.chain), ledger._last_mine_tick

    for payload in malformed:
        bad = ledger.make_event("transfer", alice.address, payload)
        before = snapshot()
        with pytest.raises(ProtocolError):
            mine_block(ledger, miner.address, [ok, bad])  # the valid transfer comes first
        assert snapshot() == before, payload
    mine_block(ledger, miner.address, [ok])
    assert (ledger.balance_of(alice.address), ledger.balance_of(bob.address)) == (890, 600)


def test_bad_auth_tag_rejects_block():
    ledger, miner, alice, bob = fresh()
    ev = ledger.make_event("transfer", alice.address, {"to": bob.address.hex(), "amount": 1})
    forged = type(ev)(ev.kind, ev.sender, ev.timestamp, {**ev.payload, "amount": 2}, ev.auth_tag)
    # a payload changed in place after emit: mine_block encodes it as it is now
    changed = ledger.emit("transfer", alice.address, {"to": bob.address.hex(), "amount": 1})
    changed.payload["amount"] = 2
    for bad in (forged, changed):
        with pytest.raises(AuthTagError):
            mine_block(ledger, miner.address, [bad])
        assert len(ledger.chain) == 1
        assert ledger.balance_of(alice.address) == 1000
        assert ledger.balance_of(bob.address) == 500


def test_one_block_per_tick():
    ledger, miner, *_ = fresh()
    mine_block(ledger, miner.address, [])
    with pytest.raises(ProtocolError):
        mine_block(ledger, miner.address, [])
    ledger.advance_clock()
    mine_block(ledger, miner.address, [])
    assert len(ledger.chain) == 3  # genesis, then one block on each tick


def test_miner_must_be_transaction_node():
    ledger, _, alice, _ = fresh()
    with pytest.raises(ProtocolError):
        mine_block(ledger, alice.address, [])


def test_preview_matches_mined_block():
    ledger, miner, alice, bob = fresh()
    ev = ledger.make_event("transfer", alice.address, {"to": bob.address.hex(), "amount": 5})
    preview = preview_block(ledger, [ev], miner.address)
    block = mine_block(ledger, miner.address, [ev])
    assert block == preview
    # the fixed le8(0) field is part of the layout naive-mode winners derive from
    assert block.hash == H(ledger.chain[0].hash + event_wire_bytes(ev) + le8(0) + miner.address)


def test_pow_solve_and_verify():
    proof = solve_pow(b"challenge", 1 << 248)
    assert verify_pow(proof)
    assert digest_int(H(b"challenge" + proof.nonce.to_bytes(8, "little"))) < 1 << 248
    wrong = type(proof)(b"other", proof.nonce, proof.difficulty)
    assert not verify_pow(wrong)


# smallest nonces at 2^248: b"b" 173, b"c" 59, b"d" 395; at 2^256 every nonce 0
_POW_CALLS = st.lists(
    st.tuples(
        st.sampled_from([b"b", b"c", b"d"]),
        st.integers(248, 256),  # difficulty 2^bits
        st.none() | st.integers(-1, 600),  # None: solve_pow, else bounded_pow's bound
    ),
    max_size=12,
)


@example([(b"d", 248, None), (b"d", 248, 395), (b"d", 248, 396)])  # hit at and past the bound
@example([(b"d", 248, None), (b"d", 248, 0), (b"d", 248, -1)])  # hit with no attempts allowed
@example([(b"d", 248, 100), (b"d", 248, 396), (b"d", 248, 100)])  # a failed search stores nothing
@settings(max_examples=40, deadline=None)
@given(_POW_CALLS)
def test_pow_memo_never_changes_an_answer(calls):
    memo = {}
    for challenge, bits, max_attempts in calls:
        difficulty = 1 << bits
        if max_attempts is None:
            assert solve_pow(challenge, difficulty, memo) == solve_pow(challenge, difficulty)
        else:
            got = bounded_pow(challenge, difficulty, max_attempts, memo)
            assert got == bounded_pow(challenge, difficulty, max_attempts)
    assert all(nonce > 0 for nonce in memo.values())  # a nonce-0 search is never stored
    for (challenge, difficulty), nonce in memo.items():
        assert solve_pow(challenge, difficulty).nonce == nonce


@pytest.mark.parametrize(
    "difficulty", [1, (1 << 244) - 1, 1 << 244, (1 << 244) + 1, MAX_TARGET]
)
def test_target_bytes_match_integer_predicate(difficulty):
    edges = {0, difficulty - 2, difficulty - 1, difficulty, difficulty + 1, MAX_TARGET - 1}
    digests = [v.to_bytes(32, "big") for v in edges if 0 <= v < MAX_TARGET]
    digests += [H(bytes([i])) for i in range(64)]
    target = pow_target(difficulty)
    for digest in digests:
        assert (digest <= target) == (digest_int(digest) < difficulty)


def test_verify_chain_detects_tampering():
    ledger, miner, alice, bob = fresh()
    ledger.emit("transfer", alice.address, {"to": bob.address.hex(), "amount": 1})
    for _ in range(3):  # the transfer's block, then two empty ones
        mine_block(ledger, miner.address, ledger.pending)
        ledger.pending.clear()
        ledger.advance_clock()
    chain = ledger.chain
    assert verify_chain(chain)
    block = chain[1]
    forged = type(block)((), block.miner, block.hash)  # events emptied, hash kept
    # every block hash covers the hash before it, so order and gaps show too
    for bad in (
        [chain[0], forged, *chain[2:]],
        [chain[0], chain[2], chain[1], chain[3]],  # a swapped pair
        [*chain[:2], chain[3]],  # a dropped middle block
    ):
        assert not verify_chain(bad)


def test_chain_dump_format():
    ledger, miner, *_ = fresh()
    mine_block(ledger, miner.address, [])
    dump = chain_dump(ledger)
    lines = dump.strip().split("\n")
    assert len(lines) == 2
    genesis = lines[0].split(",")
    assert genesis[0] == "0"
    assert genesis[1] == "00" * 32
    for line in lines:
        height, prev_hex, hash_hex, miner_hex, count = line.split(",")
        assert len(prev_hex) == 64 and len(hash_hex) == 64 and len(miner_hex) == 64
        int(height), int(count)


def test_escrow_conservation_and_bucket_drain():
    ledger, _, alice, bob = fresh()
    minted = ledger.total_minted
    ledger.move(alice.address, "pot", 300)
    assert ledger.balance_of(alice.address) == 700
    assert ledger.total_money() == minted
    ledger.move("pot", "pot2", 100)
    ledger.move("pot2", bob.address, 100)
    assert "pot2" not in ledger.escrow  # emptied buckets disappear
    ledger.move("pot", FEE_SINK, 200)
    assert "pot" not in ledger.escrow
    assert ledger.fee_sink == 200
    assert ledger.conservation_residual() == 0
    with pytest.raises(ProtocolError):
        ledger.move("pot", "x", 1)


def test_transfer_requires_known_destination():
    ledger, _, alice, _ = fresh()
    with pytest.raises(UnknownAddress):
        ledger.move(alice.address, b"\x11" * 32, 1)
    assert ledger.balance_of(alice.address) == 1000


_HOLDERS = ("alice", "bob", "carol", "pot", "pot2", "sink", "stranger")
# an amount is a number, or all that the source holds ("all") or one more ("all+1")
_AMOUNTS = st.one_of(st.integers(-2, 1501), st.sampled_from(["all", "all+1"]))


@given(st.lists(st.tuples(st.sampled_from(_HOLDERS), st.sampled_from(_HOLDERS), _AMOUNTS),
                max_size=25))
def test_move_conserves_money_and_a_raise_changes_nothing(steps):
    ledger = Ledger()
    holder = {name: create_account(ledger, name.encode(), balance).address
              for name, balance in (("alice", 1000), ("bob", 500), ("carol", 0))}
    holder.update(pot="pot", pot2="pot2", sink=FEE_SINK, stranger=H(H(b"stranger")))

    def holdings():
        held = {holder[n]: ledger.balance_of(holder[n]) for n in ("alice", "bob", "carol")}
        held.update((b, ledger.escrow.get(b, 0)) for b in ("pot", "pot2"))
        held[FEE_SINK] = ledger.fee_sink
        return held

    for src_name, dst_name, amount in steps:
        src, dst = holder[src_name], holder[dst_name]
        before = holdings()
        has = before.get(src, 0)
        amount = {"all": has, "all+1": has + 1}.get(amount, amount)
        if 0 <= amount <= has and src_name not in ("sink", "stranger") and dst_name != "stranger":
            ledger.move(src, dst, amount)
            before[src] -= amount
            before[dst] += amount
            assert holdings() == before  # exactly `amount` changed hands
        else:
            escrow = dict(ledger.escrow)
            with pytest.raises(ProtocolError):
                ledger.move(src, dst, amount)
            assert holdings() == before and ledger.escrow == escrow
        assert ledger.conservation_residual() == 0
        assert 0 not in ledger.escrow.values()


def test_only_ledger_move_writes_money():
    """Outside chain.py no code assigns to a balance, the fee sink or the escrow."""
    writes = []
    for path in sorted(Path(delottery_sim.__file__).parent.glob("*.py")):
        if path.name == "chain.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                continue
            if isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute) and node.attr in ("balance", "fee_sink", "escrow"):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


# --- the event encoder against a frozen copy of its first version --------


def _reference_render(value) -> str:
    if isinstance(value, bool):
        raise ValueError("bool payload values are ambiguous; use 0/1")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, str):
        if "|" in value or "=" in value:
            raise ValueError("string payload values may not contain '|' or '='")
        return value
    if isinstance(value, (list, tuple)):
        return ",".join(str(int(v)) for v in value)
    raise ValueError(f"unsupported payload value type {type(value)!r}")


def _reference_encoding(kind, sender, timestamp, payload) -> bytes:
    parts = [kind, sender.hex(), str(timestamp)]
    for key in sorted(payload):
        if "|" in key or "=" in key:
            raise ValueError("payload keys may not contain '|' or '='")
        parts.append(f"{key}={_reference_render(payload[key])}")
    return "|".join(parts).encode()


def _outcome(encode, *args):
    try:
        return encode(*args)
    except ValueError as exc:
        return ValueError, str(exc)


_int_lists = st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=4)
_payload_values = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.binary(max_size=40),
    st.text(alphabet="ab|=c", max_size=6),
    _int_lists,
    _int_lists.map(tuple),
    st.lists(st.booleans(), max_size=3),
    st.floats(allow_nan=False),
)


@example("commit", b"\x01" * 32, 0, {"v": 1, "w": True})
@example("commit", b"\x01" * 32, 0, {"v": 1, "w": "a|b"})
@example("commit", b"\x01" * 32, 0, {"v": 1, "w": "a=b"})
@example("commit", b"\x01" * 32, 0, {"v": 1, "w": 1.5})
@example("commit", b"\x01" * 32, 0, {"a=1|b": 2})
@example("commit", b"\x01" * 32, 0, {"a": "x|y", "b|": 1})
@given(
    kind=st.sampled_from(["transfer", "commit", "draw"]),
    sender=st.binary(min_size=32, max_size=32),
    timestamp=st.integers(min_value=0, max_value=2**40),
    payload=st.dictionaries(st.text(alphabet="abcxyz_|=", min_size=1, max_size=8), _payload_values),
)
def test_encoder_matches_reference(kind, sender, timestamp, payload):
    args = (kind, sender, timestamp, payload)
    assert _outcome(canonical_event_bytes, *args) == _outcome(_reference_encoding, *args)

