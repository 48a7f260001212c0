"""Write digests.json: the SHA-256 of every benchmark pass's report bytes.

    python3 perfbench/pin_digests.py

The digests were pinned once, on the commit that introduced the
benchmark, and every later commit must reproduce them byte for byte: a
speed-up that changes one report byte fails the benchmark's gate. Rerun
this only to add a workload or seed slot, never to make a failing pass
pass. Passes run in parallel, one worker process per CPU.
"""

import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from run import DIGESTS, import_program
from workloads import PASSES_PER_SLOT, SEEDS_PER_PASS, SLOTS, WORKLOADS, pass_base_seed


def pass_digest(task: tuple) -> tuple:
    name, slot, index = task
    sim = import_program()
    text = WORKLOADS[name].text(pass_base_seed(slot, index))
    report = sim.run_many(sim.parse_scenario(text), SEEDS_PER_PASS)
    return task, hashlib.sha256(sim.report_json_bytes(report)).hexdigest()


def main() -> int:
    tasks = [
        (name, slot, index)
        for name in WORKLOADS
        for slot in range(SLOTS)
        for index in range(PASSES_PER_SLOT)
    ]
    table = {name: {str(slot): [None] * PASSES_PER_SLOT for slot in range(SLOTS)} for name in WORKLOADS}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(mp_context=context) as pool:
        for (name, slot, index), digest in pool.map(pass_digest, tasks):
            table[name][str(slot)][index] = digest
            print(name, slot, index, digest, file=sys.stderr, flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
