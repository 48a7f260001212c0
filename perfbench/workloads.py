"""The benchmark's three workloads and the schedule of seeds each pass runs.

Every workload is scenario text generated here; the simulator only ever
sees the `Scenario` that `parse_scenario` builds from it. A pass is one
`run_many` call over `SEEDS_PER_PASS` consecutive seeds starting at the
pass's base seed, plus emitting and verifying its report.

The benchmark's `--seed` picks one of `SLOTS` seed slots (seed mod SLOTS).
Pass i of a run uses schedule entry i mod PASSES_PER_SLOT of that slot,
so one run checks the report bytes of several seeds while the same
`--seed` always gives the same inputs. Every base seed of the schedule
has its report digest pinned in `digests.json`. The seed held out of
tuning is named in `baseline.json`.
"""

from dataclasses import dataclass

SLOTS = 10
PASSES_PER_SLOT = 8
SEEDS_PER_PASS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # rounds per seed
    template: str  # scenario text with a {base_seed} field

    def text(self, base_seed: int) -> str:
        return self.template.format(base_seed=base_seed)

    @property
    def rounds_per_pass(self) -> int:
        return self.rounds * SEEDS_PER_PASS


def _fairness() -> Workload:
    # acceptance criterion 2's scenario verbatim, plus the base seed
    players = "".join(
        f"[player]\nseed_material = fair-{i:02d}\nbalance = 2000000000\n"
        for i in range(10)
    )
    return Workload(
        "fairness",
        2000,
        "name = fairness\nrounds = 2000\ncert_cap = 1\nguess_space_size = 10\n"
        "base_seed = {base_seed}\n" + players,
    )


def _grind_naive() -> Workload:
    # a zero-share entropy source and a colluding node that proposes 9 of
    # 10 blocks and holds guess 9 of 10: q(1-p)/(1-q(1-p)) = 0.81/0.19,
    # about 4.3 withheld blocks per draw
    rounds = 4000
    return Workload(
        "grind-naive",
        rounds,
        f"""name = grind-naive
rounds = {rounds}
base_seed = {{base_seed}}
rng_mode = naive
guess_space_size = 10
[player]
seed_material = entropy-source
balance = 40000000000
shares = 0
[attacker]
kind = node
seed_material = colluder
balance = 40000000000
mining_share = 9/10
shares = 1
guesses = 9
""",
    )


def _sybil_pow() -> Workload:
    # 2^244 targets cost about 4096 attempts per proof; 3 joining honest
    # players and 8 fakes per round solve one each, and the budget never
    # runs dry, so nonce search is nearly all of the work
    rounds = 12
    players = "".join(f"[player]\nseed_material = honest-{i}\n" for i in range(4))
    return Workload(
        "sybil-pow",
        rounds,
        f"""name = sybil-pow
rounds = {rounds}
base_seed = {{base_seed}}
rng_mode = commit-reveal
pow_difficulty_bits = 244
{players}[attacker]
kind = sybil
seed_material = sybil-controller
fake_count = 8
budget = 1000000000
certifier_policy = honest-refuse
""",
    )


WORKLOADS = {w.name: w for w in (_fairness(), _grind_naive(), _sybil_pow())}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def pass_base_seed(slot: int, pass_index: int) -> int:
    """Base seed of pass `pass_index` in `slot`; passes never share a seed."""
    entry = slot * PASSES_PER_SLOT + pass_index % PASSES_PER_SLOT
    return entry * SEEDS_PER_PASS
