"""Simulation-grade blockchain substrate.

Accounts, an integer-unit ledger with escrow buckets, hash-authenticated
events, blocks mined by transaction nodes through a toy proof-of-work, and
a logical tick clock. Everything is deterministic: the PoW nonce search
starts at 0, the clock only moves when the harness advances it, and money
is always an integer count of atomic units.

Authentication model: real signatures are out of scope. An account's
address is H(secret) and an event carries tag = H(secret || canonical
payload bytes). Inside a simulation run the ledger knows every secret, so
it can verify any tag; an adversary that tampers with a payload cannot
re-tag it without the secret, which preserves the forgeable-by-none
contract at simulation grade.

Conservation: sum(balances) + fee_sink + sum(escrow buckets) equals the
total minted at genesis after every operation. `conservation_residual()`
is the oracle the whole test suite leans on.
"""

from dataclasses import dataclass
from functools import partial
from itertools import count

from .errors import (
    AuthTagError,
    DuplicateAddress,
    InsufficientBalance,
    ProtocolError,
    UnknownAddress,
)
from .hashing import H, MAX_TARGET, digest_int, le8

GENESIS_PREV = b"\x00" * 32
GENESIS_MINER = b"\x00" * 32

EVENT_KINDS = (
    "transfer",
    "commit",
    "reveal",
    "buy_shares",
    "join_request",
    "certify",
    "draw",
)


@dataclass(slots=True)
class Account:
    address: bytes
    secret: bytes
    balance: int
    is_transaction_node: bool = False


@dataclass(slots=True)
class Event:
    kind: str
    sender: bytes
    timestamp: int
    payload: dict
    auth_tag: bytes


@dataclass(slots=True)
class Block:
    height: int
    prev_hash: bytes
    events: tuple
    nonce: int
    miner: bytes
    hash: bytes


@dataclass(slots=True)
class PowProof:
    challenge: bytes
    nonce: int
    difficulty: int


def _render_value(value) -> str:
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


def canonical_event_bytes(kind: str, sender: bytes, timestamp: int, payload: dict) -> bytes:
    """Deterministic byte encoding of an event body (the bytes that get tagged)."""
    parts = [kind, sender.hex(), str(timestamp)]
    for key in sorted(payload):
        parts.append(f"{key}={_render_value(payload[key])}")
    return "|".join(parts).encode()


def event_wire_bytes(event: Event) -> bytes:
    body = canonical_event_bytes(event.kind, event.sender, event.timestamp, event.payload)
    return body + event.auth_tag


class Ledger:
    """Account balances, escrow buckets, the block chain and the clock."""

    def __init__(self, mining_difficulty: int = MAX_TARGET):
        if not 0 < mining_difficulty <= MAX_TARGET:
            raise ProtocolError("mining difficulty target must be in (0, 2^256]")
        self.accounts: dict[bytes, Account] = {}
        self.clock = 0
        self.fee_sink = 0
        self.escrow: dict[str, int] = {}
        self.total_minted = 0
        self.mining_difficulty = mining_difficulty
        self.pending: list[Event] = []
        self._last_mine_tick = -1
        self._round_counter = 0
        self._lottery_counter = 0
        # genesis predates the clock; it does not occupy tick 0's block slot
        genesis = _build_block(0, GENESIS_PREV, (), GENESIS_MINER, mining_difficulty)
        self.chain: list[Block] = [genesis]

    # -- identifiers ------------------------------------------------------

    def next_round_id(self) -> int:
        rid = self._round_counter
        self._round_counter += 1
        return rid

    def next_lottery_id(self) -> int:
        lid = self._lottery_counter
        self._lottery_counter += 1
        return lid

    # -- money ------------------------------------------------------------

    def account(self, address: bytes) -> Account:
        acct = self.accounts.get(address)
        if acct is None:
            raise UnknownAddress(f"unknown address {address.hex()[:16]}…")
        return acct

    def balance_of(self, address: bytes) -> int:
        return self.account(address).balance

    def debit(self, address: bytes, amount: int) -> None:
        acct = self.account(address)
        if amount < 0:
            raise ProtocolError("negative amount")
        if acct.balance < amount:
            raise InsufficientBalance(
                f"balance {acct.balance} < {amount} for {address.hex()[:16]}…"
            )
        acct.balance -= amount

    def credit(self, address: bytes, amount: int) -> None:
        if amount < 0:
            raise ProtocolError("negative amount")
        self.account(address).balance += amount

    def to_escrow(self, address: bytes, bucket: str, amount: int) -> None:
        self.debit(address, amount)
        self.escrow[bucket] = self.escrow.get(bucket, 0) + amount

    def from_escrow(self, bucket: str, address: bytes, amount: int) -> None:
        self._drain_bucket(bucket, amount)
        self.credit(address, amount)

    def escrow_move(self, src: str, dst: str, amount: int) -> None:
        self._drain_bucket(src, amount)
        self.escrow[dst] = self.escrow.get(dst, 0) + amount

    def escrow_to_sink(self, bucket: str, amount: int) -> None:
        self._drain_bucket(bucket, amount)
        self.fee_sink += amount

    def _drain_bucket(self, bucket: str, amount: int) -> None:
        held = self.escrow.get(bucket, 0)
        if amount < 0 or held < amount:
            raise ProtocolError(f"escrow bucket {bucket!r} holds {held}, asked {amount}")
        remaining = held - amount
        if remaining:
            self.escrow[bucket] = remaining
        else:
            self.escrow.pop(bucket, None)

    def total_money(self) -> int:
        return sum(a.balance for a in self.accounts.values()) + self.fee_sink + sum(
            self.escrow.values()
        )

    def conservation_residual(self) -> int:
        """total money currently anywhere minus total ever minted; must be 0."""
        return self.total_money() - self.total_minted

    # -- events and clock ---------------------------------------------------

    def make_event(self, kind: str, sender: bytes, payload: dict) -> Event:
        if kind not in EVENT_KINDS:
            raise ProtocolError(f"unknown event kind {kind!r}")
        secret = self.account(sender).secret
        body = canonical_event_bytes(kind, sender, self.clock, payload)
        return Event(kind, sender, self.clock, payload, H(secret + body))

    def emit(self, kind: str, sender: bytes, payload: dict) -> Event:
        ev = self.make_event(kind, sender, payload)
        self.pending.append(ev)
        return ev

    def verify_event(self, event: Event) -> bool:
        acct = self.accounts.get(event.sender)
        if acct is None:
            return False
        body = canonical_event_bytes(event.kind, event.sender, event.timestamp, event.payload)
        return H(acct.secret + body) == event.auth_tag

    def advance_clock(self) -> int:
        self.clock += 1
        return self.clock


def create_account(
    ledger: Ledger,
    seed_material,
    initial_balance: int,
    is_transaction_node: bool = False,
) -> Account:
    """Register a deterministic account: secret = H(seed), address = H(secret)."""
    if isinstance(seed_material, str):
        seed_material = seed_material.encode()
    if not seed_material:
        raise ProtocolError("seed material must be non-empty")
    if initial_balance < 0:
        raise ProtocolError("initial balance must be >= 0")
    secret = H(seed_material)
    address = H(secret)
    if address in ledger.accounts:
        raise DuplicateAddress(f"address {address.hex()[:16]}… already registered")
    acct = Account(address, secret, initial_balance, is_transaction_node)
    ledger.accounts[address] = acct
    ledger.total_minted += initial_balance
    return acct


def transfer(ledger: Ledger, src: bytes, dst: bytes, amount: int) -> None:
    """Move `amount` atomic units; rejects overdrafts leaving the ledger untouched."""
    if amount < 0:
        raise ProtocolError("transfer amount must be >= 0")
    ledger.account(dst)
    ledger.debit(src, amount)
    ledger.credit(dst, amount)


def first_nonce(digest_of, difficulty: int, max_attempts: int | None = None):
    """Smallest nonce from 0 whose digest_of(nonce) reads below the target.

    Returns (nonce, digest) after one digest_of call per attempt, or None
    once max_attempts nonces (when given) have all missed.
    """
    for nonce in count() if max_attempts is None else range(max_attempts):
        digest = digest_of(nonce)
        if digest_int(digest) < difficulty:
            return nonce, digest
    return None


def pow_digest(challenge: bytes, nonce: int) -> bytes:
    """H(challenge || le8(nonce)): one proof-of-work attempt."""
    return H(challenge + le8(nonce))


def solve_pow(challenge: bytes, difficulty: int) -> PowProof:
    """Find the smallest nonce whose pow_digest reads below the target."""
    if not 0 < difficulty <= MAX_TARGET:
        raise ProtocolError("difficulty target must be in (0, 2^256]")
    nonce, _ = first_nonce(partial(pow_digest, challenge), difficulty)
    return PowProof(challenge, nonce, difficulty)


def verify_pow(proof: PowProof) -> bool:
    return digest_int(pow_digest(proof.challenge, proof.nonce)) < proof.difficulty


def block_hash(prev_hash: bytes, events: tuple, nonce: int, miner: bytes) -> bytes:
    """hash = H(prev_hash || concat(event bytes) || le8(nonce) || miner)."""
    return H(prev_hash + b"".join(event_wire_bytes(ev) for ev in events) + le8(nonce) + miner)


def _build_block(height: int, prev_hash: bytes, events: tuple, miner: bytes, difficulty: int) -> Block:
    nonce, digest = first_nonce(lambda n: block_hash(prev_hash, events, n, miner), difficulty)
    return Block(height, prev_hash, events, nonce, miner, digest)


def preview_block(ledger: Ledger, events, miner: bytes, difficulty: int | None = None) -> Block:
    """Mine a candidate on top of the current tip without publishing it.

    mine_block builds the block it appends through this function, so the
    preview is exactly that block for the same inputs and a proposer can
    inspect the hash first and choose to withhold.
    """
    if difficulty is None:
        difficulty = ledger.mining_difficulty
    prev = ledger.chain[-1]
    return _build_block(prev.height + 1, prev.hash, tuple(events), miner, difficulty)


def mine_block(ledger: Ledger, miner: bytes, pending, difficulty: int | None = None) -> Block:
    """Validate, mine and append one block; applies transfer events in order.

    The whole call is atomic: a bad auth tag or an inapplicable transfer
    rejects everything, leaving chain and balances untouched.
    """
    miner_acct = ledger.account(miner)
    if not miner_acct.is_transaction_node:
        raise ProtocolError("miner must be a transaction node")
    if ledger._last_mine_tick == ledger.clock:
        raise ProtocolError(f"a block was already mined at tick {ledger.clock}")
    events = tuple(pending)
    for ev in events:
        if not ledger.verify_event(ev):
            raise AuthTagError(f"event {ev.kind} from {ev.sender.hex()[:16]}… fails auth")
    applied: list[tuple[bytes, bytes, int]] = []
    try:
        for ev in events:
            if ev.kind == "transfer":
                amt = ev.payload["amount"]
                transfer(ledger, ev.sender, bytes.fromhex(ev.payload["to"]), amt)
                applied.append((ev.sender, bytes.fromhex(ev.payload["to"]), amt))
    except ProtocolError:
        for src, dst, amt in reversed(applied):
            ledger.debit(dst, amt)
            ledger.credit(src, amt)
        raise
    block = preview_block(ledger, events, miner, difficulty)
    ledger.chain.append(block)
    ledger._last_mine_tick = ledger.clock
    return block


def verify_chain(chain, difficulty: int | None = None) -> bool:
    """True iff links, stored hashes and difficulty all check out."""
    prev_hash = GENESIS_PREV
    for i, block in enumerate(chain):
        if block.height != i or block.prev_hash != prev_hash:
            return False
        recomputed = block_hash(block.prev_hash, block.events, block.nonce, block.miner)
        if recomputed != block.hash:
            return False
        if difficulty is not None and digest_int(block.hash) >= difficulty:
            return False
        prev_hash = block.hash
    return True


def chain_dump(ledger: Ledger) -> str:
    """Newline-delimited: height,prev_hash_hex,hash_hex,miner_hex,event_count."""
    lines = [
        f"{b.height},{b.prev_hash.hex()},{b.hash.hex()},{b.miner.hex()},{len(b.events)}"
        for b in ledger.chain
    ]
    return "\n".join(lines) + "\n"
