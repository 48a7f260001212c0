"""
Anatomy of a commit-reveal round
================================

Drives the randomness primitive by hand, without the lottery on top:
three participants escrow deposits behind hashed commitments, only two
reveal, and the silent one is slashed. The combined output depends on
every revealed value and on nothing else.
"""

from delottery_sim import (
    Ledger,
    combine,
    commit,
    commit_hash_for,
    create_account,
    finalize,
    open_round,
    reveal,
    round_transcript,
)

ledger = Ledger()
alice = create_account(ledger, b"alice", 10_000)
bob = create_account(ledger, b"bob", 10_000)
carol = create_account(ledger, b"carol", 10_000)

# every window is read off the ledger clock, which starts at tick 0:
# commit window ticks 0..5 inclusive, reveal window ticks 6..10
rnd = open_round(ledger, commit_window=5, reveal_window=5)
print(f"round {rnd.round_id}: commit through tick {rnd.commit_deadline}, "
      f"reveal through tick {rnd.reveal_deadline}")

# each participant publishes H(value) and locks a deposit; the value
# itself stays secret until the reveal window
secrets = {alice.address: 414141, bob.address: -7, carol.address: 2**40}
for acct, deposit in ((alice, 500), (bob, 750), (carol, 300)):
    commit(ledger, rnd, acct.address, commit_hash_for(secrets[acct.address]), deposit)
    print(f"  commit from {acct.address.hex()[:12]}..., deposit {deposit}, "
          f"balance now {ledger.balance_of(acct.address)}")

# alice and bob reveal inside the window; carol never shows up
while ledger.clock <= rnd.commit_deadline:
    ledger.advance_clock()
reveal(ledger, rnd, alice.address, secrets[alice.address])
reveal(ledger, rnd, bob.address, secrets[bob.address])
while ledger.clock <= rnd.reveal_deadline:
    ledger.advance_clock()

# finalize after the reveal deadline: revealers are refunded, carol's
# deposit is forfeited and left in the round's escrow bucket for the
# caller (here: nobody) to route
output, refunds, forfeited = finalize(ledger, rnd)
print(f"\noutput     {output.hex()}")
print(f"refunds    { {a.hex()[:12]: v for a, v in refunds.items()} }")
print(f"forfeited  {forfeited} (carol's deposit)")
print(f"balances   alice {ledger.balance_of(alice.address)}, "
      f"bob {ledger.balance_of(bob.address)}, carol {ledger.balance_of(carol.address)}")

# the output is just the fold of the revealed values plus the round id,
# so anyone can recompute it from the transcript
recomputed = combine(
    {alice.address: secrets[alice.address], bob.address: secrets[bob.address]},
    rnd.round_id,
)
print(f"recomputed matches: {recomputed == output}")

print("\ntranscript (round, committer, commitment, revealed, value, deposit):")
print(round_transcript(rnd))
