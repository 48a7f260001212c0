"""The lottery state machine: admission, deposits, betting, draw, settlement.

One lottery event walks seven phases in order:

    Deployed -> Enrolling -> KeyUpload -> Betting -> Buffer -> Drawn -> Settled

Enrollment admits players that pass a proof-of-work and are certified by
every member of the bounded active-certifier set A. During KeyUpload each
player escrows a balance-scaled deposit with a hash commitment to a secret
value. Betting sells shares (guesses over a finite guess space) against a
fixed share price plus a 1e-12 transaction fee routed to the fee sink.
Buffer is the reveal window. The draw folds the revealed values of
non-banned players into a 32-byte seed and derives the winning set W from
it; settlement splits the prize pool over winning shares.

Timing: every window and deadline reads `ledger.clock`, the clock that
also stamps each event; no caller can pass a time of its own. The
key-upload and betting windows are each `bet_duration` ticks long and the
buffer is `buffer_duration` ticks. The underlying randomness round is
opened with its reveal deadline at the end of the buffer, and reveals are
additionally gated to the Buffer phase so nobody can reveal while bets are
still open.

Two prize-pool accountings are supported. "consistent" (default) refunds
honest revealers' deposits at the draw and pays winners from forfeitures
plus stake money; total funds are conserved with no stranded escrow.
"literal" consumes the deposits of non-banned revealers into the pool
(forfeitures included via phi) and leaves stake money frozen in escrow,
which mirrors the source accounting at the cost of stranding funds; the
stranded stakes stay in the lottery's stake bucket, so audits stay exact.

The host is the first player and first certifier: no operation takes a
host-only path, so the host has exactly zero privilege after deployment.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import randao
from .chain import FEE_SINK, Ledger, PowProof, verify_pow
from .errors import AdmissionRejected, ConfigError, PhaseError, ProtocolError
from .hashing import H, MAX_TARGET, digest_int, le8

PHASES = ("Deployed", "Enrolling", "KeyUpload", "Betting", "Buffer", "Drawn", "Settled")
DEPLOYED, ENROLLING, KEY_UPLOAD, BETTING, BUFFER, DRAWN, SETTLED = PHASES

POOL_CONSISTENT = "consistent"
POOL_LITERAL = "literal"

FEE_RATIO_DENOMINATOR = 10**12


@dataclass
class LotteryConfig:
    share_price: int = 1_000_000
    security_factor: Fraction = Fraction(3, 2)
    cert_cap: int = 3
    bet_duration: int = 2
    buffer_duration: int = 2
    guess_space_size: int = 10
    winning_draws: int = 1
    pool_mode: str = POOL_CONSISTENT
    pow_difficulty: int = MAX_TARGET

    def validate(self) -> None:
        k = Fraction(self.security_factor)
        if not Fraction(1) < k < Fraction(2):
            raise ConfigError(f"security_factor must lie in the open interval (1, 2), got {k}")
        if self.share_price < 0:
            raise ConfigError("share_price must be >= 0")
        if self.cert_cap < 1:
            raise ConfigError("cert_cap must be >= 1")
        if self.bet_duration < 1 or self.buffer_duration < 1:
            raise ConfigError("bet_duration and buffer_duration must be >= 1 tick")
        if self.guess_space_size < 1:
            raise ConfigError("guess_space_size must be >= 1")
        if not 1 <= self.winning_draws <= self.guess_space_size:
            raise ConfigError("winning_draws must be in [1, guess_space_size]")
        if self.pool_mode not in (POOL_CONSISTENT, POOL_LITERAL):
            raise ConfigError(f"unknown pool_mode {self.pool_mode!r}")
        if not 0 < self.pow_difficulty <= MAX_TARGET:
            raise ConfigError("pow_difficulty target must be in (0, 2^256]")


@dataclass(slots=True)
class PlayerRecord:
    guesses: list = field(default_factory=list)
    deposit_refunded: int = 0
    deposit_forfeited: int = 0
    payout: int = 0


class LotteryState:
    """All mutable state of one lottery event, bound to a ledger."""

    def __init__(self, ledger: Ledger, config: LotteryConfig):
        self.ledger = ledger
        self.config = config
        self.instance_id = ledger.next_lottery_id()
        self.phase = DEPLOYED
        self.players: dict[bytes, PlayerRecord] = {}
        self.active_certifiers: list[bytes] = []  # in join order
        self.banned: set[bytes] = set()
        self.round: randao.RngRound | None = None
        self.betting_close: int | None = None
        self.winners: set[int] | None = None

    @property
    def phi_bucket(self) -> str:
        return f"phi:{self.instance_id}"

    @property
    def stake_bucket(self) -> str:
        return f"stake:{self.instance_id}"

    @property
    def phi(self) -> int:
        return self.ledger.escrow.get(self.phi_bucket, 0)

    def eligible(self) -> list[bytes]:
        """P minus B, in join order."""
        return [a for a in self.players if a not in self.banned]

    def _advance(self, to_phase: str) -> None:
        if PHASES.index(to_phase) != PHASES.index(self.phase) + 1:
            raise PhaseError(f"cannot move {self.phase} -> {to_phase}")
        self.phase = to_phase

    def _require(self, phase: str) -> None:
        if self.phase != phase:
            raise PhaseError(f"operation requires phase {phase}, state is {self.phase}")


def compute_deposit(share_price: int, security_factor, player_balance: int) -> int:
    """Deposit owed by a player: floor(max(s * 10^ln(k), f / k)) atomic units.

    The price term uses 64-bit floats for the transcendental; the balance
    term is exact integer arithmetic. Floor is monotone, so the floor of the
    larger term is the larger of the two floors. k = 1 is accepted here (the
    identity case used in tests); configs enforce the open interval (1, 2).
    """
    k_num, k_den, price_floor = _deposit_terms(share_price, security_factor)
    if share_price < 0 or player_balance < 0:
        raise ProtocolError("share price and balance must be >= 0")
    return max(player_balance * k_den // k_num, price_floor)


@lru_cache(maxsize=64)
def _deposit_terms(share_price: int, security_factor) -> tuple:
    """(k numerator, k denominator, floor(s * 10^ln(k))): once per price and factor."""
    k = Fraction(security_factor)
    if not Fraction(1) <= k < Fraction(2):
        raise ConfigError(f"security factor must lie in [1, 2), got {k}")
    return k.numerator, k.denominator, math.floor(share_price * 10.0 ** math.log(float(k)))


def deploy(ledger: Ledger, host: bytes, config: LotteryConfig) -> LotteryState:
    """Start a lottery event; the host becomes an ordinary enrolled player."""
    config.validate()
    if ledger.account(host).is_transaction_node:
        raise ProtocolError("transaction nodes cannot play")
    state = LotteryState(ledger, config)
    state._advance(ENROLLING)
    state.players[host] = PlayerRecord()
    state.active_certifiers.append(host)
    return state


def admission_challenge(state: LotteryState, candidate: bytes) -> bytes:
    """PoW challenge binding a candidate to this lottery instance."""
    return H(b"join" + le8(state.instance_id) + candidate)


def add_player(
    state: LotteryState,
    candidate: bytes,
    pow_proof: PowProof,
    cert_votes: set,
) -> None:
    """Admit a candidate: valid PoW plus a vote from every active certifier.

    When the certifier set is at capacity, the admitted candidate replaces
    the member that joined last. The set is kept in join order (admission
    appends, a ban removes), so that member is the last entry.
    """
    state._require(ENROLLING)
    if state.ledger.account(candidate).is_transaction_node:
        raise ProtocolError("transaction nodes cannot play")
    if candidate in state.players:
        raise AdmissionRejected("candidate already enrolled")
    if (
        pow_proof.challenge != admission_challenge(state, candidate)
        or pow_proof.difficulty != state.config.pow_difficulty
        or not verify_pow(pow_proof)
    ):
        raise AdmissionRejected("proof of work invalid for this candidate")
    voters = list(state.active_certifiers)
    if not set(voters) <= set(cert_votes):
        raise AdmissionRejected("certification incomplete: every active certifier must vote")
    state.ledger.emit(
        "join_request",
        candidate,
        {"instance": state.instance_id, "pow_nonce": pow_proof.nonce},
    )
    for voter in voters:
        state.ledger.emit(
            "certify", voter, {"instance": state.instance_id, "candidate": candidate}
        )
    state.players[candidate] = PlayerRecord()
    certs = state.active_certifiers
    if len(certs) == state.config.cert_cap:
        certs[-1] = candidate
    else:
        certs.append(candidate)


def ban_player(state: LotteryState, player: bytes) -> None:
    """Mark an account illegal: out of A, keys unused, guesses score zero."""
    if state.phase in (DRAWN, SETTLED):
        raise PhaseError("cannot ban after the draw")
    if player not in state.players:
        raise ProtocolError("player not enrolled")
    state.banned.add(player)
    if player in state.active_certifiers:
        state.active_certifiers.remove(player)


def _require_eligible(state: LotteryState, player: bytes) -> None:
    if player not in state.players or player in state.banned:
        raise ProtocolError("player not enrolled or banned")


def begin_key_upload(state: LotteryState) -> None:
    """Open the randomness round; commits close after bet_duration ticks."""
    state._require(ENROLLING)
    state._advance(KEY_UPLOAD)
    cfg = state.config
    # reveal deadline lands at the end of the buffer; lottery-level gating
    # keeps actual reveals inside the Buffer phase
    state.round = randao.open_round(
        state.ledger, cfg.bet_duration, cfg.bet_duration + cfg.buffer_duration
    )
    state.betting_close = state.round.commit_deadline + cfg.bet_duration


def upload_key(state: LotteryState, player: bytes, key: int) -> int:
    """Commit to a secret key and escrow the balance-scaled deposit d_i."""
    state._require(KEY_UPLOAD)
    _require_eligible(state, player)
    cfg = state.config
    deposit = compute_deposit(
        cfg.share_price, cfg.security_factor, state.ledger.balance_of(player)
    )
    randao.commit(
        state.ledger, state.round, player, randao.commit_hash_for(key), deposit
    )
    return deposit


def begin_betting(state: LotteryState) -> None:
    state._require(KEY_UPLOAD)
    if state.ledger.clock <= state.round.commit_deadline:
        raise PhaseError("key-upload window still open")
    state._advance(BETTING)


def buy_shares(state: LotteryState, player: bytes, guesses) -> None:
    """Buy len(guesses) shares; price plus fee per share, atomically."""
    state._require(BETTING)
    _require_eligible(state, player)
    guesses = list(guesses)
    for g in guesses:
        if not 0 <= g < state.config.guess_space_size:
            raise ProtocolError(f"guess {g} outside [0, {state.config.guess_space_size})")
    if state.ledger.clock > state.betting_close:
        raise PhaseError(f"betting closed after tick {state.betting_close}")
    m = len(guesses)
    if m == 0:
        return
    price = state.config.share_price
    fee = price // FEE_RATIO_DENOMINATOR
    cost = m * (price + fee)
    if state.ledger.balance_of(player) < cost:
        raise ProtocolError(f"balance below {cost} for {m} shares")
    state.ledger.move(player, state.stake_bucket, m * price)
    state.ledger.move(player, FEE_SINK, m * fee)
    state.players[player].guesses.extend(guesses)
    state.ledger.emit(
        "buy_shares",
        player,
        {"instance": state.instance_id, "count": m, "guesses": guesses},
    )


def enter_buffer(state: LotteryState) -> None:
    """Close betting; the buffer doubles as the reveal window."""
    state._require(BETTING)
    if state.ledger.clock <= state.betting_close:
        raise PhaseError(f"betting stays open through tick {state.betting_close}")
    state._advance(BUFFER)


def reveal_key(state: LotteryState, player: bytes, key: int) -> None:
    state._require(BUFFER)
    _require_eligible(state, player)
    randao.reveal(state.ledger, state.round, player, key)


def derive_winners(seed: bytes, count: int, space: int) -> set:
    """Map a 32-byte seed to `count` distinct values in [0, space).

    Counter-mode hashing: candidate i is H(seed || le8(i)) taken mod the
    space size, with duplicates rejected until the set is full.
    """
    if not 1 <= count <= space:
        raise ProtocolError("winning draw count must be in [1, space]")
    winners: set[int] = set()
    counter = 0
    while len(winners) < count:
        winners.add(digest_int(H(seed + le8(counter))) % space)
        counter += 1
    return winners


def draw(state: LotteryState, seed: bytes | None = None) -> set | None:
    """Finalize randomness and fix the winning set W.

    With `seed` given (naive block-hash mode) the commit-reveal round is
    bypassed: any stray deposits are returned and W derives from the seed.
    Otherwise the round is finalized over non-banned committers; banned
    and silent committers forfeit their deposits into phi. A round with no
    valid reveals aborts: the event still passes through Drawn (winners
    absent) so settlement can run the full-refund path.
    """
    state._require(BUFFER)
    ledger, rnd, cfg = state.ledger, state.round, state.config
    if ledger.clock <= rnd.reveal_deadline:
        raise PhaseError(f"buffer runs until tick {rnd.reveal_deadline}")
    output = seed
    if seed is None:
        returned = cfg.pool_mode == POOL_CONSISTENT
        output, refunds, forfeited = randao.finalize(
            ledger, rnd, excluded=frozenset(state.banned), apply_refunds=returned
        )
        returned = returned or output is None  # an abort returns every deposit
    else:  # the round's entropy goes unused, so every deposit is returnable
        randao.refund_all(ledger, rnd)
        refunds = {addr: c.deposit for addr, c in rnd.commitments.items()}
        forfeited, returned = 0, True
    for addr, commitment in rnd.commitments.items():
        record = state.players.get(addr)
        if record is None:
            continue
        if addr not in refunds:
            record.deposit_forfeited = commitment.deposit
        elif returned:
            record.deposit_refunded = refunds[addr]
    ledger.move(rnd.bucket, state.phi_bucket, forfeited)
    if output is not None:
        state.winners = derive_winners(output, cfg.winning_draws, cfg.guess_space_size)
    state._advance(DRAWN)
    return state.winners


def _pool_funds(state: LotteryState) -> tuple:
    """(bucket, amount) of the pool money beside phi: the round bucket
    (literal) or the stakes (consistent).

    After a literal-mode draw the round bucket holds exactly the deposits
    of non-banned revealers: every other deposit was forfeited into phi.
    """
    literal = state.config.pool_mode == POOL_LITERAL
    bucket = state.round.bucket if literal else state.stake_bucket
    return bucket, state.ledger.escrow.get(bucket, 0)


def winning_share_count(state: LotteryState, player: bytes) -> int:
    guesses = state.players[player].guesses
    if player in state.banned or state.winners is None:
        return 0
    return sum(1 for g in guesses if g in state.winners)


def settle(state: LotteryState) -> dict:
    """Distribute the pool over winning shares; returns address -> payout.

    With no winning shares the pool's phi portion rolls to the fee sink and
    stakes are refunded (consistent mode) or left frozen (literal mode).
    An aborted draw refunds deposits and stakes in full in either mode.
    Integer division remainders always route to the fee sink, so the payout
    identity sum(payouts) + remainder == pool is exact.
    """
    state._require(DRAWN)
    if state.winners is None:
        # aborted draw: deposits came back at the abort, stakes come back here
        _refund_stakes(state)
        state._advance(SETTLED)
        return {}
    ledger = state.ledger
    funds_bucket, funds = _pool_funds(state)
    pool = state.phi + funds
    counts = {a: winning_share_count(state, a) for a in state.eligible()}
    total_winning = sum(counts.values())
    payouts: dict[bytes, int] = {}
    if total_winning > 0:
        pool_bucket = f"pool:{state.instance_id}"
        ledger.move(state.phi_bucket, pool_bucket, state.phi)
        ledger.move(funds_bucket, pool_bucket, funds)
        paid = 0
        for addr in state.players:
            shares = counts.get(addr, 0)
            if shares:
                amount = shares * pool // total_winning
                ledger.move(pool_bucket, addr, amount)
                state.players[addr].payout = amount
                payouts[addr] = amount
                paid += amount
        ledger.move(pool_bucket, FEE_SINK, pool - paid)
    else:
        ledger.move(state.phi_bucket, FEE_SINK, state.phi)
        if state.config.pool_mode == POOL_CONSISTENT:
            _refund_stakes(state)
        else:  # nobody won: the held deposits go to the sink
            ledger.move(funds_bucket, FEE_SINK, funds)
    state._advance(SETTLED)
    return payouts


def _refund_stakes(state: LotteryState) -> None:
    price = state.config.share_price
    for addr, record in state.players.items():
        state.ledger.move(state.stake_bucket, addr, len(record.guesses) * price)


def settlement_report(state: LotteryState) -> str:
    """Newline-delimited: address_hex,shares,winning_shares,payout,deposit_refunded,final_balance."""
    lines = []
    for addr in sorted(state.players):
        r = state.players[addr]
        lines.append(
            f"{addr.hex()},{len(r.guesses)},{winning_share_count(state, addr)},"
            f"{r.payout},{r.deposit_refunded},{state.ledger.balance_of(addr)}"
        )
    return "\n".join(lines) + "\n" if lines else ""
