"""Commit-reveal randomness rounds with deposits.

A round runs in two windows of the ledger clock. During the commit window a player
escrows a deposit alongside H(encode(s)) for a secret signed 64-bit value
s. During the reveal window the player discloses s; the round checks the
hash binding. At finalization every valid revealer gets its deposit back,
every silent or lying committer forfeits its deposit, and the revealed
values are folded into one 32-byte output:

    output = H( xor of the 8-byte value encodings, folded in ascending
                committer-address order  ||  le8(round_id) )

XOR makes the fold order-independent (reveal timing cannot steer it) and
the outer hash breaks what little algebraic structure XOR leaves; the
round id separates domains between rounds. Values are encoded as 8-byte
little-endian two's complement.

Transaction nodes are barred from committing: block producers must never
hold a stake in the entropy they order into blocks.

Every window is checked against `ledger.clock`, the clock that also
stamps each event; no caller can pass a time of its own. Window
boundaries are inclusive of the deadline tick. A round that
finalizes with zero valid reveals aborts instead of drawing from nothing:
every deposit (even an excluded committer's) is returned and its output
is None.
"""

from dataclasses import dataclass, field

from .chain import Ledger
from .errors import BindingViolation, ProtocolError, WindowError
from .hashing import H, encode_i64, le8

OPEN = "Open"
FINALIZED = "Finalized"


@dataclass(slots=True)
class Commitment:
    committer: bytes
    commit_hash: bytes
    deposit: int


@dataclass(slots=True)
class Reveal:
    committer: bytes
    value: int


@dataclass(slots=True)
class RngRound:
    round_id: int
    commit_deadline: int
    reveal_deadline: int
    commitments: dict = field(default_factory=dict)
    reveals: dict = field(default_factory=dict)
    state: str = OPEN
    output: bytes | None = None

    @property
    def bucket(self) -> str:
        return f"rng:{self.round_id}"


def commit_hash_for(value: int) -> bytes:
    """The commitment a player publishes for secret value s."""
    return H(encode_i64(value))


def open_round(ledger: Ledger, commit_window: int, reveal_window: int) -> RngRound:
    """A round whose commit window closes `commit_window` ticks after `ledger.clock`."""
    if commit_window < 1 or reveal_window < 1:
        raise WindowError("commit and reveal windows must each be >= 1 tick")
    commit_deadline = ledger.clock + commit_window
    return RngRound(
        round_id=ledger.next_round_id(),
        commit_deadline=commit_deadline,
        reveal_deadline=commit_deadline + reveal_window,
    )


def commit(
    ledger: Ledger,
    rnd: RngRound,
    player: bytes,
    commit_hash: bytes,
    deposit: int,
) -> Commitment:
    """Escrow a deposit with a hash commitment, inside the commit window."""
    if rnd.state == FINALIZED:
        raise ProtocolError("round already finalized")
    if ledger.clock > rnd.commit_deadline:
        raise WindowError(f"commit window closed at tick {rnd.commit_deadline}")
    if ledger.account(player).is_transaction_node:
        raise ProtocolError("transaction node addresses are barred from committing")
    if player in rnd.commitments:
        raise ProtocolError("player already committed this round")
    if deposit <= 0:
        raise ProtocolError("deposit must be positive")
    ledger.move(player, rnd.bucket, deposit)
    c = Commitment(player, commit_hash, deposit)
    rnd.commitments[player] = c
    ledger.emit(
        "commit",
        player,
        {"round_id": rnd.round_id, "commit_hash": commit_hash, "deposit": deposit},
    )
    return c


def reveal(ledger: Ledger, rnd: RngRound, player: bytes, value: int) -> Reveal:
    """Disclose the committed value; a hash mismatch is a BindingViolation."""
    if rnd.state == FINALIZED:
        raise ProtocolError("round already finalized")
    if not rnd.commit_deadline < ledger.clock <= rnd.reveal_deadline:
        raise WindowError(
            f"reveal window is ticks ({rnd.commit_deadline}, {rnd.reveal_deadline}]"
        )
    commitment = rnd.commitments.get(player)
    if commitment is None:
        raise ProtocolError("no commitment on record for this player")
    if player in rnd.reveals:
        raise ProtocolError("player already revealed this round")
    try:
        encoded = encode_i64(value)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    if H(encoded) != commitment.commit_hash:
        raise BindingViolation("revealed value does not match commitment")
    r = Reveal(player, value)
    rnd.reveals[player] = r
    ledger.emit("reveal", player, {"round_id": rnd.round_id, "value": value})
    return r


def combine(values_by_committer: dict, round_id: int) -> bytes:
    """Fold revealed values (committer address -> s) into the round output."""
    acc = 0
    for addr in sorted(values_by_committer):
        acc ^= int.from_bytes(encode_i64(values_by_committer[addr]), "little")
    return H(le8(acc) + le8(round_id))


def peek_output(rnd: RngRound, excluded: frozenset = frozenset()) -> bytes | None:
    """The output finalize would produce right now, or None with no reveals."""
    values = {a: r.value for a, r in rnd.reveals.items() if a not in excluded}
    if not values:
        return None
    return combine(values, rnd.round_id)


def refund_all(ledger: Ledger, rnd: RngRound) -> None:
    """Close the round without an output, returning every committed deposit."""
    for addr in sorted(rnd.commitments):
        ledger.move(rnd.bucket, addr, rnd.commitments[addr].deposit)
    rnd.state = FINALIZED
    rnd.output = None


def finalize(
    ledger: Ledger,
    rnd: RngRound,
    excluded: frozenset = frozenset(),
    apply_refunds: bool = True,
):
    """Close the round: combine reveals, refund revealers, forfeit the rest.

    Returns (output, refunds, forfeited). `excluded` committers (banned
    accounts) contribute no entropy and forfeit their deposits. With
    apply_refunds=False the refunds are computed and left in the round's
    escrow bucket for the caller to route (deposit-consuming pool modes).
    With no valid reveals the round aborts: every deposit is returned,
    whatever apply_refunds says, and the result is (None, refunds, 0).

    Forfeited money always stays in the round bucket; the caller decides
    where captured funds accumulate.
    """
    if rnd.state == FINALIZED:
        raise ProtocolError("round already finalized")
    if ledger.clock <= rnd.reveal_deadline:
        raise WindowError(f"cannot finalize before tick {rnd.reveal_deadline + 1}")
    output = peek_output(rnd, excluded)
    if output is None:
        refund_all(ledger, rnd)
        return None, {a: rnd.commitments[a].deposit for a in sorted(rnd.commitments)}, 0
    refunds: dict[bytes, int] = {}
    forfeited = 0
    for addr in sorted(rnd.commitments):
        deposit = rnd.commitments[addr].deposit
        if addr in rnd.reveals and addr not in excluded:
            refunds[addr] = deposit
            if apply_refunds:
                ledger.move(rnd.bucket, addr, deposit)
        else:
            forfeited += deposit
    rnd.state = FINALIZED
    rnd.output = output
    return output, refunds, forfeited


def round_transcript(rnd: RngRound) -> str:
    """Newline-delimited: round_id,committer_hex,commit_hash_hex,revealed,value_or_dash,deposit."""
    lines = []
    for addr in sorted(rnd.commitments):
        c = rnd.commitments[addr]
        r = rnd.reveals.get(addr)
        lines.append(
            f"{rnd.round_id},{addr.hex()},{c.commit_hash.hex()},"
            f"{1 if r else 0},{r.value if r else '-'},{c.deposit}"
        )
    return "\n".join(lines) + "\n" if lines else ""
