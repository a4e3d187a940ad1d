"""Re-record ``expected.json``: the exact digest of every experiment
table and the seed-independent counts of ``suite`` and ``sweep``.

Run from the repository root after a deliberate change to the tables::

    python3 perfbench/record.py

The tables come from a traced ``suite`` pass; a traced ``sweep`` pass
adds its counts (its R-F1 and R-F2 tables must match the suite's).
"""

from __future__ import annotations

import json
import shutil
import time

from run import HERE, ROOT, spawn


def main() -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    expected.setdefault("tables", {})
    tmp = ROOT / ".perfbench" / "record"
    try:
        for workload in ("suite", "sweep"):
            out = spawn(workload, 1, tmp / workload,
                        time.monotonic() + 600, trace=True)
            if workload == "suite":
                expected["tables"] = dict(sorted(out["digests"].items()))
                path.write_text(json.dumps(expected, indent=1) + "\n")
            expected[workload] = {
                "jobs": out["jobs"],
                "distinct_jobs": out["jobs_seen"]["distinct_jobs"],
                "sim_instructions": out["sim_instructions"],
                "counts": out["deterministic"],
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"recorded {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
