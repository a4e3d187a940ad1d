"""End-to-end benchmark of the SMA reproduction: one command, one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the benchmark runs untraced passes, each after a few
set-up probes, for about ``--seconds`` (at least one pass), and reports
the end-to-end metrics as medians over them, with every time scaled to
the quiet host's speed (see ``REFERENCE_S``).  With ``--trace 1`` it
runs two untraced and two traced passes, interleaved, and reports the
per-layer metrics, the tracing overhead and the span coverage, and
checks that the deterministic counts repeat exactly.  Every pass checks
its outputs; wrong or failed outputs are counted, not fatal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: wall-clock budget of one invocation; passes stop starting past it
BUDGET_S = 150.0
#: set-up probes before each pass (a service pass starts its own server,
#: which is a set-up sample already)
SETUP_PROBES = {"suite": 2, "grid": 2, "sweep": 2, "service": 0}
TRACED_PASSES = 2

#: end-to-end metrics in the result line, each with a bound in
#: BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"),
    ("jobs_per_s", "1/s"), ("sim_instr_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: printed but not in the result line: the warm phase's run-to-run
#: spread (0.26 to 0.34 of the median over ten runs) exceeds any bound
#: it could get; the cold phase unscaled; and the host speed factor
PRINTED_ONLY = (("warm_s", "s"), ("wall_s_unscaled", "s"),
                ("host_speed", "x"))
#: ``workloads.reference_s()`` on the quiet host the benchmark was tuned
#: on (2 cores, Xeon at 2.0 GHz, Python 3.11).  Every time metric is
#: scaled by REFERENCE_S / the reference time measured with it, which
#: takes out the shared host's speed swings (the same loop ran 1.5x
#: slower for minutes at a time, and whole ten-run sets drifted by up
#: to 1.8x); program changes still move the scaled times in full.
REFERENCE_S = 0.0135


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, tmp: Path, deadline: float,
          trace: bool = False, setup: bool = False,
          prepare: bool = False) -> dict:
    """Run one worker process to completion; returns its JSON summary
    plus ``setup_s`` (spawn until its imports were done)."""
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp), "--shared",
           str(tmp.parent)]
    if trace:
        cmd.append("--trace")
    if setup:
        cmd.append("--setup")
    if prepare:
        cmd.append("--prepare")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp)}
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} worker ran past the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                          + stderr[-3000:])
    out = json.loads(lines[-1])
    if out.get("setup_s") is None:
        out["setup_s"] = out["ready_at"] - start
    return out


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; needs 2+ values)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: int, tmp: Path,
               deadline: float) -> tuple[dict, list[dict], dict]:
    """Untraced passes for about ``seconds`` (at least one): another
    pass starts only if one more of the mean length still fits.  Each
    pass is preceded by a few set-up probes, so set-up is sampled across
    the whole run."""
    spawn(workload, seed, tmp / "prepare", deadline, prepare=True)
    probes: list[dict] = []
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_PROBES[workload]):
            probes.append(spawn(workload, seed, tmp / f"setup{len(probes)}",
                                deadline, setup=True))
        passes.append(spawn(workload, seed, tmp / f"pass{len(passes)}",
                            deadline))
        now = time.monotonic()
        mean = (now - start) / len(passes)
        if now + mean - start > seconds or now + mean > deadline:
            break

    def speed(p: dict) -> float:
        """Host speed when ``p`` ran, relative to the quiet host."""
        return REFERENCE_S / p["reference_s"]

    setups = [p["setup_s"] * speed(p) for p in probes + passes]
    colds = [p["walls"]["cold"][0] * speed(p) for p in passes]
    warms = [w * speed(p) for p in passes for w in p["walls"]["warm"]]
    median = statistics.median
    values = {
        "setup_s": median(setups),
        "wall_s": median(colds),
        "warm_s": median(warms),
        "jobs_per_s": median(p["jobs"] / c for p, c in zip(passes, colds)),
        "sim_instr_per_s": median(
            p["sim_instructions"] / c for p, c in zip(passes, colds)),
        "latency_p50_ms": median(
            percentile(p["latencies_ms"], 50) * speed(p) for p in passes),
        "latency_p95_ms": median(
            percentile(p["latencies_ms"], 95) * speed(p) for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "wall_s_unscaled": median(p["walls"]["cold"][0] for p in passes),
        "host_speed": median(speed(p) for p in probes + passes),
    }
    per_pass = len(passes[0]["latencies_ms"])
    samples = {name: f"{len(passes)} passes" for name in values}
    samples["setup_s"] = f"{len(setups)} samples"
    samples["warm_s"] = f"{len(warms)} samples"
    samples["host_speed"] = f"{len(probes) + len(passes)} samples"
    for name in ("latency_p50_ms", "latency_p95_ms"):
        samples[name] = f"{len(passes)} passes x {per_pass} samples"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END + PRINTED_ONLY}
    return metrics, passes, samples


def per_layer(workload: str, seed: int, tmp: Path, deadline: float,
              expected: dict) -> tuple[dict, list[dict], dict, list[str]]:
    from layers import PER_LAYER

    spawn(workload, seed, tmp / "prepare", deadline, prepare=True)
    untraced, traced = [], []
    for i in range(TRACED_PASSES):  # interleaved, so drift hits both
        untraced.append(spawn(workload, seed, tmp / f"untraced{i}",
                              deadline))
        traced.append(spawn(workload, seed, tmp / f"traced{i}", deadline,
                            trace=True))
    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for i, p in enumerate(traced):  # kept after the scratch files go
        shutil.move(p["spans_file"],
                    spans_dir / f"{workload}-seed{seed}-pass{i}.jsonl")
    defects = []
    first = traced[0]["deterministic"]
    for other in traced[1:]:
        for key, value in other["deterministic"].items():
            if value != first[key]:
                defects.append(f"{key} drifted between traced passes: "
                               f"{first[key]} vs {value}")
    recorded = expected.get(workload, {}).get("counts", {})
    for key, value in recorded.items():
        if first.get(key) != value:
            defects.append(f"{key} = {first.get(key)} but the recorded "
                           f"count is {value}")

    def wall(p: dict) -> float:  # scaled to the quiet host's speed
        return (sum(sum(ws) for ws in p["walls"].values())
                * REFERENCE_S / p["reference_s"])

    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _unit, _better, _moves in PER_LAYER
        if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median(wall(p) for p in traced)
        / statistics.median(wall(p) for p in untraced) - 1.0
    )
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better, _moves in PER_LAYER}
    samples = {name: f"{len(traced)} traced passes" for name in values}
    return metrics, untraced + traced, samples, defects


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "grid", "sweep", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    tmp = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + BUDGET_S
    defects: list[str] = []
    try:
        if args.trace:
            metrics, passes, samples, defects = per_layer(
                args.workload, args.seed, tmp, deadline, expected)
        else:
            metrics, passes, samples = end_to_end(
                args.workload, args.seed, args.seconds, tmp, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"output check: {problem}", file=sys.stderr)
    for defect in defects:
        print(f"benchmark defect: {defect}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} pass(es), trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:8s}"
              f" ({samples[name]})")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):>16.6g} "
          f"{'fraction':8s} ({failed} of {attempted} operations)")
    for name, _unit in PRINTED_ONLY:
        metrics.pop(name, None)
    print(json.dumps({
        "correct": failed == 0 and not defects,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
