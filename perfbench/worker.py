"""One fresh process of the benchmark: a set-up probe, the run's
untimed preparation, or one pass.

Usage (``run.py`` does this; ``src`` must be on ``PYTHONPATH``)::

    python perfbench/worker.py --workload suite --seed 1 --tmp DIR \\
        [--shared DIR] [--trace] [--setup | --prepare]

The last line of standard output is one JSON object: ``ready_at``
(``time.monotonic()`` once the imports are done, for the parent's
set-up time), ``reference_s`` (the host-speed reference loop's time)
and, for a pass, its measurements (``Pass.summary``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import workloads  # imports the repro layers a pass uses

READY_AT = time.monotonic()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--shared", type=Path, default=None,
                        help="directory shared by the passes of one run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", action="store_true",
                        help="measure set-up only, run no pass")
    parser.add_argument("--prepare", action="store_true",
                        help="make the run's shared inputs, run no pass")
    args = parser.parse_args()
    args.tmp.mkdir(parents=True, exist_ok=True)
    out: dict = {"ready_at": READY_AT}
    if args.setup:
        out["reference_s"] = workloads.reference_s()
        if args.workload == "service":
            out["setup_s"] = workloads.service_setup(args.tmp)
        print(json.dumps(out))
        return 0
    expected = json.loads(
        (Path(__file__).with_name("expected.json")).read_text()
    )
    p = workloads.Pass(args.workload, args.seed, args.tmp, expected,
                       trace=args.trace,
                       shared=args.shared)
    if args.prepare:
        if args.workload in workloads.PREPARE:
            workloads.PREPARE[args.workload](p)
    else:
        workloads.PASSES[args.workload](p)
        out.update(p.summary())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
