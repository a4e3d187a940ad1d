#!/usr/bin/env python
"""CI smoke for the SoA batch backend (``repro.batch``).

Runs a small latency x queue-depth grid of three kernels — a pure
streaming kernel, a loss-of-decoupling recurrence, and a computed
gather — through the batch engine (the program-specialized lane
stepper with saturation collapse) with per-lane output verification
armed.  Every grid point must run batched, and a random subsample of
lanes is re-executed on the scalar machine and required to match the
*full result dict* exactly: cycles, instruction counts, every stall
bucket (keys, order, counts), memory traffic, and occupancy
statistics.

Exit status is non-zero on any divergence, so the workflow fails
loudly if the lockstep engine ever drifts from the scalar machine.

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py
"""

from __future__ import annotations

import random
import sys

from repro.batch import run_batch
from repro.harness.jobs import BatchJob, run_job

KERNELS = ("daxpy", "tridiag", "computed_gather")
LATENCIES = (1, 4, 16, 64)
QUEUE_DEPTHS = (1, 4, 8, 32)
N = 48
SUBSAMPLE = 10


def main() -> int:
    jobs = []
    for kernel in KERNELS:
        jobs.extend(
            BatchJob(
                kernel, N, latencies=LATENCIES,
                queue_depths=QUEUE_DEPTHS, check=True,
            ).expand()
        )
    results = run_batch(jobs)
    if len(results) != len(jobs):
        missing = [i for i in range(len(jobs)) if i not in results]
        print(f"FAIL: batch engine skipped lanes {missing}",
              file=sys.stderr)
        return 1

    rng = random.Random(1983)
    sample = sorted(rng.sample(range(len(jobs)), SUBSAMPLE))
    mismatches = 0
    for i in sample:
        want = run_job(jobs[i])
        got = results[i]
        if got != want:
            mismatches += 1
            diff = {
                k for k in set(want) | set(got)
                if want.get(k) != got.get(k)
            }
            print(f"FAIL: lane {i} ({jobs[i].kernel}, "
                  f"latency={jobs[i].sma_config.memory.latency}, "
                  f"depth={jobs[i].sma_config.queues.load_queue_depth}) "
                  f"diverges in {sorted(diff)}", file=sys.stderr)
    if mismatches:
        return 1
    print(f"batch smoke OK: {len(jobs)} lanes run "
          f"({len(KERNELS)} kernels x {len(LATENCIES)} latencies x "
          f"{len(QUEUE_DEPTHS)} depths, outputs verified), "
          f"{len(sample)} lanes re-checked bit-exact against the "
          f"scalar machine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
