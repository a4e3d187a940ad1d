"""Preemption-safe job execution: run in bounded cycle slices, snapshot
between slices, finish anywhere.

The scheduler's migration story rests on one function:
:func:`run_job_slice` executes *up to* ``max_cycles`` simulated cycles
of a job, starting either fresh or from a checkpoint taken by a
previous slice (possibly in a different worker process), and returns
either the finished result dict — byte-identical to
:func:`repro.harness.jobs.run_job` — or a new checkpoint.  Because the
checkpoint is the PR 5 ``snapshot()`` JSON form, it is picklable,
process-portable, and fingerprint-checked on restore: a slice sequence
spread across a drained worker, a crashed worker, and a respawned pool
replays to the same bits as one uninterrupted run
(``tests/test_service.py::TestSlices``).

Each slice advances the simulator with ``step_cycles``, which runs the
same loop as an uninterrupted ``run()`` (event-horizon for plain SMA and
cluster jobs) and stops at exactly the slice budget, so slicing costs a
machine rebuild and a snapshot per slice, not per-cycle reference
ticking.

Eligibility (:func:`sliceable`) is conservative: plain SMA and cluster
jobs only.  Speculative configurations are excluded because a snapshot
may not be taken mid-speculation, and a slice boundary can land inside
an open frame; scalar/vector/occupancy jobs have no snapshot contract
(observers force naive ticking anyway).  Ineligible jobs run atomically
through :func:`repro.harness.jobs.run_job` — preemption then loses at
most one job's progress, never its result.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import SMAConfig
from ..errors import CheckpointError, SimulationError
from ..harness.jobs import (
    Job,
    _instantiated,
    _lowered_sma,
    cluster_result_dict,
    cluster_workloads,
    sma_result_dict,
)

#: job machine kinds with a snapshot()/restore() contract
SLICE_MACHINES = ("sma", "sma-nostream", "cluster")

#: hard ceiling matching run_on_sma/run_cluster's max_cycles default
MAX_TOTAL_CYCLES = 10_000_000


def sliceable(job: Job) -> bool:
    """Whether ``job`` can run in checkpointed slices."""
    if job.machine not in SLICE_MACHINES:
        return False
    cfg = job.sma_config
    if (cfg is not None and cfg.speculation is not None
            and cfg.speculation.enabled):
        # snapshots are refused mid-speculation, and a slice boundary
        # can land inside an open frame
        return False
    from ..harness.jobs import _metrics_armed

    if _metrics_armed():
        # an armed RunReport capture adds result keys the sliced path
        # does not produce; run such jobs atomically instead
        return False
    return True


def _build_sma(job: Job):
    """The exact machine :func:`repro.harness.runner.run_on_sma` builds
    for this job — same lowering, config fit and load order, so a
    snapshot taken from one is restorable into the other."""
    from ..core import SMAMachine
    from ..harness.runner import _fit_memory, _load_inputs

    use_streams = job.machine == "sma"
    kernel, inputs = _instantiated(job.kernel, job.n, job.seed)
    lowered = _lowered_sma(job.kernel, job.n, job.seed, use_streams,
                           job.lod_variant)
    cfg = job.sma_config or SMAConfig()
    cfg = replace(cfg, memory=_fit_memory(cfg.memory, lowered.layout))
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine, lowered, kernel


def _finish_sma(job: Job, machine, lowered, kernel) -> dict:
    from ..harness.runner import KernelRun, _dump_outputs

    # the machine is done: run() returns immediately with the collected
    # SMAResult, exactly as an uninterrupted run would have
    result = machine.run(max_cycles=MAX_TOTAL_CYCLES)
    run = KernelRun(
        kernel,
        "sma" if lowered.uses_streams else "sma-nostream",
        result,
        _dump_outputs(machine, lowered.layout, kernel),
        lowered.layout,
    )
    return sma_result_dict(job, run, lowered.info)


def _build_cluster(job: Job):
    from ..harness.runner import _prepare_cluster

    workloads = cluster_workloads(job)
    cluster, lowered, cfg, _metrics = _prepare_cluster(
        workloads, job.sma_config, metrics=False
    )
    return cluster, lowered, workloads, cfg


def _finish_cluster_job(job: Job, cluster, lowered, workloads, cfg) -> dict:
    from ..harness.runner import _finish_cluster

    cluster_result = cluster.run(max_cycles=MAX_TOTAL_CYCLES)
    run = _finish_cluster(
        cluster, lowered, workloads, cfg, cluster_result,
        job.check, None,
    )
    return cluster_result_dict(job, run)


def run_job_slice(job: Job, state: dict | None, max_cycles: int) -> dict:
    """Run one bounded slice of ``job``.

    ``state`` is the previous slice's checkpoint (or ``None`` for the
    first slice).  Returns ``{"done": True, "result": ...}`` when the
    job completed within the slice, else ``{"done": False, "state":
    <snapshot>, "cycle": <clock>}``.

    A checkpoint the current code refuses (``CheckpointError`` — e.g. a
    snapshot from a previous server generation after a code change) is
    discarded and the job restarts from cycle zero: slower, never wrong.
    """
    if max_cycles < 1:
        raise ValueError("slice budget must be >= 1 cycle")
    if job.machine == "cluster":
        cluster, lowered, workloads, cfg = _build_cluster(job)
        sim = cluster

        def finish():
            return _finish_cluster_job(job, cluster, lowered, workloads,
                                       cfg)
    else:
        machine, lowered, kernel = _build_sma(job)
        sim = machine

        def finish():
            return _finish_sma(job, machine, lowered, kernel)

    if state is not None:
        try:
            sim.restore(state)
        except CheckpointError:
            # stale checkpoint (code or config drift): restart fresh
            pass
    if not sim.done():
        if sim.cycle >= MAX_TOTAL_CYCLES:
            raise SimulationError(
                f"job exceeded {MAX_TOTAL_CYCLES} cycles without "
                "completing"
            )
        sim.step_cycles(max_cycles)
    if sim.done():
        return {"done": True, "result": finish()}
    return {"done": False, "state": sim.snapshot(), "cycle": sim.cycle}
