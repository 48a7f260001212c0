"""Simulation-grade blockchain substrate.

Accounts, an integer-unit ledger with escrow buckets, hash-authenticated
events, hash-linked blocks mined by transaction nodes, the admission
proof-of-work, and a logical tick clock. Everything is deterministic: the
PoW nonce search starts at 0, the clock only moves when the harness
advances it, and money is always an integer count of atomic units.

Authentication model: real signatures are out of scope. An account's
address is H(secret) and an event carries tag = H(secret || canonical
payload bytes). Inside a simulation run the ledger knows every secret, so
it can verify any tag; an adversary that tampers with a payload cannot
re-tag it without the secret, which preserves the forgeable-by-none
contract at simulation grade.

Byte layouts (nonces are 8-byte little-endian, as `hashing.le8`):

- event body: `canonical_event_bytes`, "kind|sender_hex|timestamp|k=v|..."
  with payload keys sorted (no key or string value may contain "|" or
  "="); an event's wire bytes are body || auth_tag.
- block: its events, its miner and its hash. Its height is its index in
  `ledger.chain`, and its prev_hash is the hash of the block before it
  there, or GENESIS_PREV for genesis.
- block hash: H(prev_hash || concat(event wire bytes) || le8(0) || miner).
  Blocks carry no difficulty target, so each is hashed once. The le8(0)
  is a fixed field of the layout: naive-mode winners derive from block
  hashes, so dropping it would change every naive-mode report.
- proof-of-work attempt: H(challenge || le8(nonce)).

Target predicate: a PoW digest reads below difficulty d iff
digest_int(digest) < d. The nonce search and `verify_pow` compare the
digest bytes against `pow_target(d)` with <=, which is that predicate for
every integer d: 32-byte strings of equal length order as big-endian
integers.

Conservation: money changes hands only through `Ledger.move`, between
accounts, escrow buckets and the receive-only FEE_SINK, and
`create_account` is the only mint. So sum(balances) + fee_sink +
sum(escrow buckets) equals the total minted after every operation.
`conservation_residual()` is the oracle the whole test suite leans on.
"""

from dataclasses import dataclass
from itertools import count

from .errors import (
    AuthTagError,
    DuplicateAddress,
    InsufficientBalance,
    ProtocolError,
    UnknownAddress,
)
from .hashing import DIGEST_SIZE, H, MAX_TARGET, le8

GENESIS_PREV = b"\x00" * 32
GENESIS_MINER = b"\x00" * 32

# the holder of fees and settlement remainders: it receives and never pays
FEE_SINK = object()

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
    events: tuple
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
        if "|" in key or "=" in key:
            raise ValueError("payload keys may not contain '|' or '='")
        parts.append(f"{key}={_render_value(payload[key])}")
    return "|".join(parts).encode()


def event_wire_bytes(event: Event) -> bytes:
    body = canonical_event_bytes(event.kind, event.sender, event.timestamp, event.payload)
    return body + event.auth_tag


class Ledger:
    """Account balances, escrow buckets, the block chain and the clock."""

    def __init__(self):
        self.accounts: dict[bytes, Account] = {}
        self.clock = 0
        self.fee_sink = 0
        self.escrow: dict[str, int] = {}
        self.total_minted = 0
        self.pending: list[Event] = []
        self._last_mine_tick = -1
        self._round_counter = 0
        self._lottery_counter = 0
        # genesis predates the clock; it does not occupy tick 0's block slot
        genesis_hash = block_hash(GENESIS_PREV, b"", GENESIS_MINER)
        self.chain: list[Block] = [Block((), GENESIS_MINER, genesis_hash)]

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

    def move(self, src, dst, amount: int) -> None:
        """Move `amount` atomic units from holder `src` to holder `dst`.

        A holder is an account address (bytes), an escrow bucket name (str)
        or FEE_SINK, which only receives. Every check runs before anything
        changes, so a raise leaves the ledger as it was. A zero amount
        passes the checks and changes nothing; a bucket that empties
        disappears.
        """
        if amount < 0:
            raise ProtocolError(f"negative amount {amount}")
        dst_acct = self.account(dst) if isinstance(dst, bytes) else None
        src_acct = self.account(src) if isinstance(src, bytes) else None
        if src_acct is not None:
            if src_acct.balance < amount:
                raise InsufficientBalance(
                    f"balance {src_acct.balance} < {amount} for {src.hex()[:16]}…"
                )
        elif src is FEE_SINK:
            raise ProtocolError("the fee sink only receives")
        else:
            held = self.escrow.get(src, 0)
            if held < amount:
                raise ProtocolError(f"escrow bucket {src!r} holds {held}, asked {amount}")
        if not amount:
            return
        if src_acct is not None:
            src_acct.balance -= amount
        elif held == amount:
            del self.escrow[src]
        else:
            self.escrow[src] = held - amount
        if dst_acct is not None:
            dst_acct.balance += amount
        elif dst is FEE_SINK:
            self.fee_sink += amount
        else:
            self.escrow[dst] = self.escrow.get(dst, 0) + amount

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
        return self._authentic_body(event) is not None

    def _authentic_body(self, event: Event) -> bytes | None:
        """The event's body encoded from its payload now, or None if its tag fails.

        A payload changed after tagging into one the encoder refuses fails
        too: no tag can cover bytes that do not exist.
        """
        acct = self.accounts.get(event.sender)
        if acct is None:
            return None
        try:
            body = canonical_event_bytes(event.kind, event.sender, event.timestamp, event.payload)
        except ValueError:
            return None
        return body if H(acct.secret + body) == event.auth_tag else None

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


def pow_target(difficulty: int) -> bytes:
    """The bytes a digest must not exceed to read below `difficulty`.

    `digest <= pow_target(d)` equals `digest_int(digest) < d` for every
    32-byte digest and every integer d: no digest qualifies for d <= 0
    (every digest sorts after the empty string) and every one does for
    d >= 2^256.
    """
    if difficulty <= 0:
        return b""
    return (min(difficulty, MAX_TARGET) - 1).to_bytes(DIGEST_SIZE, "big")


def pow_digest(challenge: bytes, nonce: int) -> bytes:
    """H(challenge || le8(nonce)): one proof-of-work attempt."""
    return H(challenge + nonce.to_bytes(8, "little"))


def bounded_pow(challenge: bytes, difficulty: int, max_attempts: int | None,
                memo: dict | None = None) -> tuple:
    """Nonce search that gives up after max_attempts hashes (None: never).

    Returns (proof or None, attempts burned), where a proof's attempts are
    nonce + 1: nonces run from 0, one pow_digest per attempt. The target is
    not validated. `memo` maps (challenge, difficulty) to the smallest
    qualifying nonce, which is a pure function of the two, so a remembered
    nonce answers without hashing and reports the attempts the search would
    have burned. Only found nonces above 0 are stored: a failed search
    proves nothing about later nonces, and nonce 0 costs one hash anyway.
    """
    key = (challenge, difficulty)
    nonce = None if memo is None else memo.get(key)
    if nonce is None:
        target = pow_target(difficulty)
        for nonce in count() if max_attempts is None else range(max_attempts):
            if pow_digest(challenge, nonce) <= target:
                break
        else:
            return None, max(max_attempts, 0)
        if memo is not None and nonce > 0:
            memo[key] = nonce
    elif max_attempts is not None and nonce >= max_attempts:
        return None, max(max_attempts, 0)
    return PowProof(challenge, nonce, difficulty), nonce + 1


def solve_pow(challenge: bytes, difficulty: int, memo: dict | None = None) -> PowProof:
    """Find the smallest nonce whose pow_digest reads below the target."""
    if not 0 < difficulty <= MAX_TARGET:
        raise ProtocolError("difficulty target must be in (0, 2^256]")
    proof, _ = bounded_pow(challenge, difficulty, None, memo)
    return proof


def verify_pow(proof: PowProof) -> bool:
    return pow_digest(proof.challenge, proof.nonce) <= pow_target(proof.difficulty)


def block_hash(prev_hash: bytes, event_bytes: bytes, miner: bytes) -> bytes:
    """H(prev_hash || event_bytes || le8(0) || miner).

    `event_bytes` is the concatenation of the block's event wire bytes.
    """
    return H(prev_hash + event_bytes + le8(0) + miner)


def preview_block(ledger: Ledger, events, miner: bytes) -> Block:
    """Mine a candidate on top of the current tip without publishing it.

    mine_block builds the block it appends the same way, from the same
    event bytes, so the preview is exactly that block for the same inputs
    and a proposer can inspect the hash first and choose to withhold.
    """
    events = tuple(events)
    event_bytes = b"".join(map(event_wire_bytes, events))
    return Block(events, miner, block_hash(ledger.chain[-1].hash, event_bytes, miner))


def _transfer_move(ev: Event) -> tuple[bytes, bytes, int]:
    """(src, dst, amount) of a transfer event; ProtocolError if malformed."""
    to, amount = ev.payload.get("to"), ev.payload.get("amount")
    if not isinstance(to, str) or not isinstance(amount, int):
        raise ProtocolError("a transfer needs a hex string 'to' and an int 'amount'")
    try:
        return ev.sender, bytes.fromhex(to), amount
    except ValueError:
        raise ProtocolError(f"transfer 'to' is not hex: {to!r}") from None


def mine_block(ledger: Ledger, miner: bytes, pending) -> Block:
    """Validate, mine and append one block; applies transfer events in order.

    Each event is encoded once, from its payload as it is now: the auth
    tag is checked against those bytes and the block is hashed from them.
    The whole call is atomic: a bad auth tag, a malformed transfer or an
    inapplicable one rejects everything, leaving chain and balances
    untouched.
    """
    miner_acct = ledger.account(miner)
    if not miner_acct.is_transaction_node:
        raise ProtocolError("miner must be a transaction node")
    if ledger._last_mine_tick == ledger.clock:
        raise ProtocolError(f"a block was already mined at tick {ledger.clock}")
    events = tuple(pending)
    wire = []
    for ev in events:
        body = ledger._authentic_body(ev)
        if body is None:
            raise AuthTagError(f"event {ev.kind} from {ev.sender.hex()[:16]}… fails auth")
        wire.append(body + ev.auth_tag)
    moves = [_transfer_move(ev) for ev in events if ev.kind == "transfer"]
    applied: list[tuple[bytes, bytes, int]] = []
    try:
        for move in moves:
            ledger.move(*move)
            applied.append(move)
    except ProtocolError:
        for src, dst, amount in reversed(applied):
            ledger.move(dst, src, amount)
        raise
    block = Block(events, miner, block_hash(ledger.chain[-1].hash, b"".join(wire), miner))
    ledger.chain.append(block)
    ledger._last_mine_tick = ledger.clock
    return block


def verify_chain(chain) -> bool:
    """True iff every stored hash checks out over the hash before it.

    Every block hash is recomputed from the events' payloads and the running
    previous hash, so a payload changed after mining is caught, and so is a
    block swapped, dropped or forged: each hash covers its predecessor's.
    """
    prev_hash = GENESIS_PREV
    for block in chain:
        event_bytes = b"".join(map(event_wire_bytes, block.events))
        if block_hash(prev_hash, event_bytes, block.miner) != block.hash:
            return False
        prev_hash = block.hash
    return True


def chain_dump(ledger: Ledger) -> str:
    """Newline-delimited: height,prev_hash_hex,hash_hex,miner_hex,event_count."""
    lines, prev_hash = [], GENESIS_PREV
    for height, b in enumerate(ledger.chain):
        lines.append(f"{height},{prev_hash.hex()},{b.hash.hex()},{b.miner.hex()},{len(b.events)}")
        prev_hash = b.hash
    return "\n".join(lines) + "\n"
