"""Stateful property test of lottery events under any order of operations.

Hypothesis drives uploads, bets, reveals (with the true or a wrong key),
bans, ticks that mine what is pending, the phase steps (block-hash seeded
or commit-reveal draws, settlement, then a fresh event on the same
ledger), in both pool modes. After every step money is conserved and the
phase has not moved back; a call that raises ProtocolError must leave the
ledger, the round and the lottery exactly as they were. A draw and a
settlement that go through are checked against a reference model of who
is refunded and where the pool goes.
"""

from dataclasses import astuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from delottery_sim import (
    H,
    PHASES,
    POOL_CONSISTENT,
    POOL_LITERAL,
    Ledger,
    LotteryConfig,
    ProtocolError,
    add_player,
    admission_challenge,
    ban_player,
    begin_betting,
    begin_key_upload,
    buy_shares,
    create_account,
    deploy,
    draw,
    enter_buffer,
    reveal_key,
    settle,
    solve_pow,
    upload_key,
    winning_share_count,
)
from delottery_sim.harness import tick_through

PRICE = 10**12  # the fee is 1 per share; a deposit is about 2.54 prices
BALANCES = (10**13, 10**13, 3 * PRICE)  # the last player cannot bet after its deposit
PLAYER = st.integers(0, len(BALANCES) - 1)
# a player's move: (sits out, key to upload, guesses to buy, reveals a wrong key)
MOVE = st.tuples(
    st.booleans(), st.integers(-3, 3), st.lists(st.integers(0, 2), max_size=2), st.booleans()
)
MOVES = st.lists(MOVE, min_size=len(BALANCES), max_size=len(BALANCES))  # one per player
STEPS = ("KeyUpload", "Betting", "Buffer", "Drawn")  # the phases a step leaves


def snapshot(state):
    """Everything a refused call must leave as it found it."""
    ledger, rnd = state.ledger, state.round
    return (
        {a: acct.balance for a, acct in ledger.accounts.items()},
        dict(ledger.escrow),
        ledger.fee_sink,
        [b.hash for b in ledger.chain],
        list(ledger.pending),
        ledger.clock,
        state.phase,
        {a: astuple(c) for a, c in rnd.commitments.items()},
        dict(rnd.reveals),
        rnd.finalized,
        {a: astuple(r) for a, r in state.players.items()},
        set(state.banned),
        list(state.active_certifiers),
        state.winners,
    )


class LotteryMachine(RuleBasedStateMachine):
    @initialize(literal=st.booleans())
    def open_ledger(self, literal):
        self.ledger = Ledger()
        self.miner = create_account(self.ledger, b"\x00miner", 0, is_transaction_node=True).address
        self.addrs = [
            create_account(self.ledger, f"p{i}".encode(), b).address
            for i, b in enumerate(BALANCES)
        ]
        self.cfg = LotteryConfig(
            share_price=PRICE, cert_cap=1, bet_duration=2, buffer_duration=6,
            guess_space_size=2, pool_mode=POOL_LITERAL if literal else POOL_CONSISTENT,
        )
        self.next_lottery()

    def next_lottery(self):
        """Deploy a fresh event on the same ledger and open its key upload."""
        self.state = deploy(self.ledger, self.addrs[0], self.cfg)
        for addr in self.addrs[1:]:
            proof = solve_pow(admission_challenge(self.state, addr), self.cfg.pow_difficulty)
            add_player(self.state, addr, proof, set(self.state.active_certifiers))
        begin_key_upload(self.state)
        self.keys = {}
        self.phase_index = PHASES.index(self.state.phase)

    def attempt(self, op) -> bool:
        """Run op; True if it went through, False if it raised and changed nothing."""
        before = snapshot(self.state)
        try:
            op()
        except ProtocolError:
            assert snapshot(self.state) == before
            return False
        return True

    @rule(moves=MOVES)
    def play(self, moves):
        """Each player's own call of the phase, in roster order, unless it sits out.

        The call is an upload in KeyUpload, a bet in Betting and a reveal,
        of the true or a wrong key, in Buffer; in any other phase the
        upload is refused.
        """
        phase = self.state.phase
        for addr, (sits_out, key, guesses, wrong_key) in zip(self.addrs, moves):
            if sits_out:
                continue
            if phase == "Betting":
                self.attempt(lambda: buy_shares(self.state, addr, guesses))
            elif phase == "Buffer":
                key = self.keys.get(addr, 0) + int(wrong_key)
                self.attempt(lambda: reveal_key(self.state, addr, key))
            elif self.attempt(lambda: upload_key(self.state, addr, key)):
                self.keys[addr] = key

    # one ban an event, once its players have had their say: a ban in the
    # Buffer makes a revealer forfeit, one after the draw is refused
    @precondition(lambda self: not self.state.banned and self.state.phase in ("Buffer", "Drawn"))
    @rule(player=PLAYER)
    def ban(self, player):
        self.attempt(lambda: ban_player(self.state, self.addrs[player]))

    @rule()
    def tick_and_mine(self):  # one tick; advance waits out a window with the same walk
        tick_through(self.ledger, self.miner, self.ledger.clock)

    @rule(naive=st.booleans(), wait=st.booleans())
    def advance(self, naive, wait):
        """Take the event one phase on; with `wait`, after its window has closed.

        From Settled a fresh event starts. Without `wait` the step may
        come too early and be refused.
        """
        state, rnd = self.state, self.state.round
        if state.phase == "Settled":
            self.next_lottery()
            return
        if wait and state.phase != "Drawn":
            close = {"KeyUpload": rnd.commit_deadline, "Betting": state.betting_close}
            tick_through(self.ledger, self.miner, close.get(state.phase, rnd.reveal_deadline))
        self.step(state.phase, naive)

    @rule(phase_moves=st.lists(MOVES, max_size=3), ban=st.none() | PLAYER, naive=st.booleans())
    def play_out(self, phase_moves, ban, naive):
        """Walk the event to Settled: the players' moves of each phase, then its step.

        Each step waits out its window, and `ban` is banned in the Buffer,
        after the reveals. Random orders rarely carry an event this far.
        """
        moves = iter(phase_moves)
        while self.state.phase != "Settled":
            self.play(next(moves, ()))
            if ban is not None and self.state.phase == "Buffer":
                self.attempt(lambda: ban_player(self.state, self.addrs[ban]))
            self.advance(naive, wait=True)

    @rule(phase=st.sampled_from(STEPS), naive=st.booleans())
    def step_out_of_turn(self, phase, naive):
        """The step that leaves `phase`, whatever the phase now; mostly refused."""
        self.step(phase, naive)

    def step(self, phase, naive):
        state = self.state
        if phase == "Buffer":
            self.draw_and_check(naive)
        elif phase == "Drawn":
            self.settle_and_check()
        else:
            opener = begin_betting if phase == "KeyUpload" else enter_buffer
            self.attempt(lambda: opener(state))

    def draw_and_check(self, naive):
        state, rnd = self.state, self.state.round
        deposits = {a: c.deposit for a, c in rnd.commitments.items()}
        valid = set(rnd.reveals) - state.banned
        if not self.attempt(lambda: draw(state, seed=H(b"block") if naive else None)):
            return
        # reference model: an unused or aborted round returns every deposit;
        # otherwise valid revealers are refunded in consistent mode only and
        # every other deposit is forfeited into phi
        if naive or not valid:
            refunded, forfeited = set(deposits), set()
        else:
            consistent = state.config.pool_mode == POOL_CONSISTENT
            refunded, forfeited = (valid if consistent else set()), set(deposits) - valid
        assert {a for a, r in state.players.items() if r.deposit_refunded} == refunded
        assert all(state.players[a].deposit_refunded == deposits[a] for a in refunded)
        assert state.phi == sum(deposits[a] for a in forfeited)
        assert (state.winners is None) == (not naive and not valid)

    def settle_and_check(self):
        state, ledger = self.state, self.ledger
        phi, sink = state.phi, ledger.fee_sink
        held = ledger.escrow.get(state.round.bucket, 0)
        stakes = ledger.escrow.get(state.stake_bucket, 0)
        if not self.attempt(lambda: settle(state)):
            return
        # reference model: with no winning share the stakes go back in
        # consistent mode or after an abort; literal mode freezes them and
        # pays from phi and the held deposits instead
        consistent = state.config.pool_mode == POOL_CONSISTENT
        won = any(winning_share_count(state, a) for a in state.players)
        refunded = not won and (consistent or state.winners is None)
        pool = phi + (0 if refunded else stakes) if consistent else phi + held
        payouts = sum(r.payout for r in state.players.values())
        assert payouts + ledger.fee_sink - sink == pool
        frozen = {} if consistent or refunded or not stakes else {state.stake_bucket: stakes}
        mine = {b: v for b, v in ledger.escrow.items() if b.endswith(f":{state.instance_id}")}
        assert mine == frozen  # the event's buckets; earlier literal events keep theirs

    @invariant()
    def money_is_conserved(self):
        assert self.ledger.conservation_residual() == 0

    @invariant()
    def phase_never_moves_back(self):  # next_lottery restarts the count
        index = PHASES.index(self.state.phase)
        assert index >= self.phase_index
        self.phase_index = index


LotteryMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, derandomize=True, deadline=None
)
TestLotteryMachine = LotteryMachine.TestCase
