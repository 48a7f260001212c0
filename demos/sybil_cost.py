"""
What a fake identity costs
==========================

Admission demands a proof of work: a nonce whose hash lands below a
target. Halving the target doubles the expected number of hash attempts,
so flooding the lottery with Sybil identities has a price the protocol
designer can dial. Certifier behavior matters even more: honest
certifiers refuse to vouch for strangers, and then no budget buys a
single admission.
"""

from delottery_sim import (
    Ledger,
    LotteryConfig,
    MAX_TARGET,
    create_account,
    deploy,
    sybil_admission_trial,
    sybil_spawn,
)


def admission_cost(difficulty_bits: int, policy: str, fakes: int = 200) -> tuple:
    ledger = Ledger()
    cfg = LotteryConfig(pow_difficulty=1 << difficulty_bits)
    host = create_account(ledger, b"host", 10**9).address
    state = deploy(ledger, host, cfg)
    controller = create_account(ledger, b"controller", 0).address
    spawned = sybil_spawn(ledger, controller, fakes)
    return sybil_admission_trial(state, spawned, policy, pow_budget=10**9)


print("rubberstamping certifiers (everything gets a vote):")
print(f"{'target':>8} {'expected':>9} {'measured':>9}")
for bits in (253, 252, 251, 250):
    admitted, spent = admission_cost(bits, "rubberstamp")
    expected = MAX_TARGET // (1 << bits)
    print(f"  2^{bits}  {expected:>9} {spent / admitted:>9.1f}")

print("\nhonest certifiers (unknown identities get no vote):")
admitted, spent = admission_cost(250, "honest-refuse")
print(f"  admitted {admitted} fakes after burning {spent} hash attempts")

print("\nThe spend per admission tracks 2^256/target, doubling with every")
print("bit of difficulty, while honest certification voids the attack at")
print("any budget: cost raises the floor, vetting removes the door.")
