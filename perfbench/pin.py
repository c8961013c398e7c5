"""Regenerate pins.json: the output digests of every workload on the pinned
seeds, from the program as it is now.

    python3 perfbench/pin.py

A change that is meant to alter records, event streams, frames or the
aggregate report reruns this and says in CHANGES.md why the digests moved.
"""

import json
import sys

from run import HELD_OUT_SEED, PINS, WORKLOADS, measure

PINNED_SEEDS = (*range(0, 11), HELD_OUT_SEED)


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            _, ctx = measure(workload, seed, seconds=0.0, trace=False)
            if ctx.checks.failures:
                sys.exit(f"{workload} seed {seed}: {ctx.checks.failures[:3]}")
            pins[workload][str(seed)] = ctx.digests
            print(workload, seed, ctx.digests, flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
