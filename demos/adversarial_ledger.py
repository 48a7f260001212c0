"""
The chain under the lottery
===========================

Everything the simulator does lands on a toy hash-linked chain:
events carry auth tags bound to the sender's secret, blocks apply
transfers atomically, and the whole history re-verifies from genesis.
This demo mines a few blocks by hand, tampers with one, and watches
verification catch it.
"""

from delottery_sim import (
    Ledger,
    chain_dump,
    create_account,
    mine_block,
    verify_chain,
)

ledger = Ledger()
miner = create_account(ledger, b"miner", 0, is_transaction_node=True)
alice = create_account(ledger, b"alice", 1_000)
bob = create_account(ledger, b"bob", 0)

# queue two signed transfer events and mine them into one block; the
# balances move when the block applies, atomically or not at all
ledger.emit("transfer", alice.address, {"to": bob.address.hex(), "amount": 300})
ledger.emit("transfer", alice.address, {"to": bob.address.hex(), "amount": 50})
block = mine_block(ledger, miner.address, ledger.pending)
ledger.pending.clear()
ledger.advance_clock()

print(f"mined block {block.height}: {len(block.events)} events, "
      f"hash {block.hash.hex()[:16]}...")
print(f"alice {ledger.balance_of(alice.address)}, bob {ledger.balance_of(bob.address)}")

# a second, empty block to give the chain some length
mine_block(ledger, miner.address, [])
ledger.advance_clock()

print("\nchain dump (height, prev_hash, hash, miner, events):")
print(chain_dump(ledger))

print(f"verify_chain: {verify_chain(ledger.chain)}")

# rewrite history: bump the amount inside the mined event payload; the
# stored block hash no longer matches its recomputed contents
ledger.chain[1].events[0].payload["amount"] = 999
print(f"after tampering with a payload: verify_chain = {verify_chain(ledger.chain)}")
