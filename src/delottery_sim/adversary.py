"""Executable attacker models: block withholding and identity flooding.

The node attack targets a lottery whose randomness is the hash of the
block carrying the draw event. A transaction node controlling a fraction
q of block proposals previews each candidate block, derives the winning
set it would imply, and publishes only favorable ones; an unfavorable
draw is withheld (the proposer ships its block without the draw event)
and re-mined next tick by a freshly sampled proposer. Under commit-reveal
randomness the same node can still delay inclusion, but the winning set
is fixed by the finalized round output, so withholding buys nothing.

The guesses g the node grinds for are the ones its colluding player
actually bought this round, read off that player's lottery record. The
favorability predicate defaults to intersection (any winning share is a
prize worth publishing): include iff g intersects W. The stricter subset
rule (include only when every guess wins) is available as a flag. A
colluder that bought nothing gives the node nothing to grind for, so the
draw goes through unwithheld.

The Sybil attack floods admission with fake identities derived from one
controller secret and distinct salts. Each admission attempt pays its
proof of work out of an off-ledger attempt budget, one unit per hash
attempt, so the expected cost per admitted fake scales inversely with the
difficulty target. Certifier behavior is a policy knob: honest certifiers
refuse to vote for unknown identities (nothing gets in at any budget),
rubberstamping certifiers wave everything through until the budget runs
dry.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import lottery, randao
from .chain import (
    Ledger,
    bounded_pow,
    create_account,
    mine_block,
    preview_block,
)
from .errors import AdmissionRejected, DuplicateAddress, ProtocolError
from .hashing import H, le8
from .prng import Stream

MODE_NAIVE = "naive"
MODE_COMMIT_REVEAL = "commit-reveal"
RNG_MODES = (MODE_NAIVE, MODE_COMMIT_REVEAL)

CERT_HONEST_REFUSE = "honest-refuse"
CERT_RUBBERSTAMP = "rubberstamp"

# naive mode retries until a favorable draw lands, which is almost surely
# finite; scenario validation rejects zero-chance setups, and this cap turns
# any built directly through the API into an error that leaves the chain and
# the clock as the round found them
NAIVE_RETRY_LIMIT = 100_000


@dataclass
class NodeAttacker:
    """A block-proposing node colluding with one enrolled player."""

    address: bytes
    colluder: bytes  # the player whose bought guesses the node grinds for
    mining_share: Fraction
    subset_rule: bool = False
    futility_cap: int = 16  # commit-reveal mode: stop stalling after this many blocks

    def __post_init__(self):
        self.mining_share = Fraction(self.mining_share)
        if not 0 <= self.mining_share <= 1:
            raise ProtocolError("mining_share must lie in [0, 1]")


@dataclass(slots=True)
class RoundOutcome:
    winners: set
    attacker_won: bool
    withheld: int


def favorable(guesses, winners, subset_rule: bool = False) -> bool:
    """Whether a draw with winning set `winners` pays the attacker enough to publish.

    Intersection rule: some guess wins. Subset rule: every guess wins. No
    guesses is never favorable.
    """
    gs = set(guesses)
    return bool(gs) and (gs.issubset(winners) if subset_rule else not gs.isdisjoint(winners))


def _proposer_is_attacker(attacker: NodeAttacker, stream: Stream) -> bool:
    q = attacker.mining_share
    return stream.chance(q.numerator, q.denominator)


def _mine_draw(state, attacker, honest_miner, stream, sender, winners_if, cap) -> tuple:
    """The withholding loop both randomness modes share; returns (block, withheld).

    `winners_if(event)` is the winning set W the draw event would imply if
    included; `winners_if` is None when the attacker cannot act on the draw.
    While the attacker can act and has withheld fewer than `cap` blocks, each tick
    samples a proposer by mining share. An attacking proposer withholds an
    unfavorable draw: its slot ships an empty block and the draw event is
    remade next tick. Honest proposers include unconditionally.
    """
    ledger = state.ledger
    withheld = 0
    while True:
        event = ledger.make_event(
            "draw", sender, {"instance": state.instance_id, "attempt": withheld}
        )
        miner = honest_miner
        if (
            winners_if is not None
            and withheld < cap
            and _proposer_is_attacker(attacker, stream)
        ):
            miner = attacker.address
            guesses = state.players[attacker.colluder].guesses
            if not favorable(guesses, winners_if(event), attacker.subset_rule):
                mine_block(ledger, miner, [])  # withhold: slot ships empty
                ledger.advance_clock()
                withheld += 1
                continue
        block = mine_block(ledger, miner, [event])
        ledger.advance_clock()
        return block, withheld


def _outcome(state, attacker, withheld: int) -> RoundOutcome:
    won = attacker is not None and lottery.winning_share_count(state, attacker.colluder) > 0
    return RoundOutcome(state.winners, won, withheld)


def run_naive_mode_round(
    state: lottery.LotteryState,
    attacker: NodeAttacker | None,
    honest_miner: bytes,
    stream: Stream,
    sender: bytes,
) -> RoundOutcome:
    """Resolve one naive-randomness draw under possible withholding.

    The winning set derives from the hash of the block that carries the
    draw event, so the attacker previews each candidate block it would
    propose and a re-mine next tick gives a fresh hash. An attacker
    holding no shares has nothing to gain and lets the draw through.
    """
    cfg = state.config
    ledger = state.ledger
    height, clock, last_mine_tick = len(ledger.chain), ledger.clock, ledger._last_mine_tick
    winners_if = None
    if attacker is not None and state.players[attacker.colluder].guesses:
        def winners_if(event):
            candidate = preview_block(ledger, [event], attacker.address)
            return lottery.derive_winners(
                candidate.hash, cfg.winning_draws, cfg.guess_space_size
            )
    block, withheld = _mine_draw(
        state, attacker, honest_miner, stream, sender, winners_if, NAIVE_RETRY_LIMIT
    )
    if withheld == NAIVE_RETRY_LIMIT:
        # a raised ProtocolError means nothing happened: drop the withheld and draw blocks
        del ledger.chain[height:]
        ledger.clock, ledger._last_mine_tick = clock, last_mine_tick
        raise ProtocolError("withholding never found a favorable draw")
    lottery.draw(state, seed=block.hash)
    return _outcome(state, attacker, withheld)


def run_commit_reveal_mode_round(
    state: lottery.LotteryState,
    attacker: NodeAttacker | None,
    honest_miner: bytes,
    stream: Stream,
    sender: bytes,
) -> RoundOutcome:
    """Resolve one commit-reveal draw; withholding can only stall it.

    The round output is already determined by the reveals, so the
    attacker previews a winning set that no re-mine can change. Stalling
    stops at the futility cap (or the first honest proposer).
    """
    cfg = state.config
    winners_if = None
    cap = 0
    if attacker is not None and state.players[attacker.colluder].guesses:
        output = randao.peek_output(state.round, excluded=frozenset(state.banned))
        if output is not None:
            fixed_w = lottery.derive_winners(output, cfg.winning_draws, cfg.guess_space_size)
            winners_if = lambda event: fixed_w
            cap = attacker.futility_cap
    _, withheld = _mine_draw(state, attacker, honest_miner, stream, sender, winners_if, cap)
    lottery.draw(state)
    return _outcome(state, attacker, withheld)


def sybil_seed_material(controller_secret: bytes, salt: int) -> bytes:
    return controller_secret + b"/sybil/" + le8(salt)


def sybil_spawn(ledger: Ledger, controller: bytes, n: int, start_salt: int = 0) -> list:
    """Derive n fake identities from the controller account's secret, one per salt from start_salt.

    Spawning is deterministic: the same salt always yields the same
    address, and re-spawning an existing salt returns the registered
    account rather than failing.
    """
    secret = ledger.account(controller).secret
    fakes = []
    for salt in range(start_salt, start_salt + n):
        material = sybil_seed_material(secret, salt)
        try:
            acct = create_account(ledger, material, 0)
        except DuplicateAddress:
            acct = ledger.account(H(H(material)))
        fakes.append(acct.address)
    return fakes


def sybil_admission_trial(
    state: lottery.LotteryState,
    fakes: list,
    certifier_policy: str,
    pow_budget: int,
    pow_memo: dict | None = None,
) -> tuple:
    """Attempt admission for each fake; returns (admitted, spent).

    Every hash attempt costs one budget unit. A fake whose proof of work
    cannot finish inside the remaining budget burns what is left and the
    rest of the list is skipped. A proof remembered in `pow_memo` (see
    `bounded_pow`) is charged the attempts its search takes, nonce + 1, so
    the spend is the same with or without the memo. Honest certifiers
    refuse to vote for identities they cannot vouch for, so nothing is
    admitted no matter the spend; rubberstamping certifiers approve
    whatever shows up.
    """
    if certifier_policy not in (CERT_HONEST_REFUSE, CERT_RUBBERSTAMP):
        raise ProtocolError(f"unknown certifier policy {certifier_policy!r}")
    admitted = 0
    spent = 0
    for fake in fakes:
        remaining = pow_budget - spent
        if remaining <= 0:
            break
        challenge = lottery.admission_challenge(state, fake)
        proof, attempts = bounded_pow(
            challenge, state.config.pow_difficulty, remaining, pow_memo
        )
        spent += attempts
        if proof is None:
            break
        votes = (
            set(state.active_certifiers)
            if certifier_policy == CERT_RUBBERSTAMP
            else set()
        )
        try:
            lottery.add_player(state, fake, proof, votes)
        except AdmissionRejected:
            continue
        admitted += 1
    return admitted, spent
