"""Per-layer attribution for the traced run.

:class:`Instrument` wraps the public entry points of each layer of the
``repro`` package — ``harness``, ``kernels``, ``core``, ``baseline``,
``batch``, ``codegen`` and ``service`` (client side) — with
:class:`spans.Recorder` spans, from outside ``src/``.  It is installed
only around the timed phases of a traced pass and restored after each.

:func:`layer_metrics` turns the spans and the counters a pass reports
into the per-layer metrics listed in :data:`PER_LAYER`, together with
the end-to-end metric and workload each should move.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict

from spans import Patcher, Recorder, covered, self_times

EXPERIMENT_IDS = (
    "R-T1", "R-T2", "R-T3", "R-T4", "R-T5", "R-T6", "R-T7",
    "R-F1", "R-F2", "R-F3", "R-F4", "R-F5", "R-F6", "R-F7", "R-F8", "R-F9",
)

#: (name, unit, better, what it should move) for every per-layer metric
PER_LAYER: list[tuple[str, str, str, str]] = [
    *((f"harness.experiment.{eid}.s", "s", "lower", "suite wall_s")
      for eid in EXPERIMENT_IDS),
    ("harness.run_jobs.s", "s", "lower", "suite wall_s"),
    ("harness.assembly.s", "s", "lower", "suite wall_s"),
    ("harness.duplicate_jobs", "count", "lower", "suite wall_s"),
    ("harness.expand.s", "s", "lower", "grid wall_s"),
    ("harness.flush.s", "s", "lower", "grid wall_s"),
    ("harness.job_key.s", "s", "lower", "grid warm_s"),
    ("harness.job_key.calls", "count", "lower", "grid warm_s"),
    ("harness.cache.hits", "count", "higher", "grid warm_s"),
    ("harness.cache.flushed", "count", "lower", "grid warm_s"),
    ("kernels.lower.s", "s", "lower", "suite wall_s (predicted: no move)"),
    ("kernels.lower.calls", "count", "lower",
     "suite wall_s (predicted: no move)"),
    ("kernels.reference.s", "s", "lower",
     "suite wall_s (predicted: no move)"),
    ("kernels.reference.calls", "count", "lower",
     "suite wall_s (predicted: no move)"),
    ("kernels.instantiate.s", "s", "lower",
     "suite wall_s (predicted: no move)"),
    ("core.build.s", "s", "lower", "suite wall_s; service wall_s"),
    ("core.build.calls", "count", "lower", "suite wall_s; service wall_s"),
    ("core.run.s", "s", "lower",
     "suite wall_s; service wall_s, latency_p95_ms"),
    ("core.run.calls", "count", "lower", "suite wall_s; service wall_s"),
    ("core.run.cycles", "count", "lower", "suite wall_s; service wall_s"),
    ("core.run.instructions", "count", "lower",
     "suite wall_s; service wall_s"),
    ("core.host_ns_per_cycle", "ns", "lower",
     "suite wall_s; service wall_s, latency_p95_ms"),
    ("core.run_spec.s", "s", "lower", "suite wall_s"),
    ("core.run_spec.calls", "count", "lower", "suite wall_s"),
    ("core.run_spec.cycles", "count", "lower", "suite wall_s"),
    ("core.naive_forced", "count", "lower", "suite wall_s"),
    ("core.cluster.s", "s", "lower", "suite wall_s"),
    ("core.cluster.calls", "count", "lower", "suite wall_s"),
    ("core.cluster.cycles", "count", "lower", "suite wall_s"),
    ("baseline.scalar.s", "s", "lower", "suite wall_s; service wall_s"),
    ("baseline.scalar.calls", "count", "lower",
     "suite wall_s; service wall_s"),
    ("baseline.scalar.cycles", "count", "lower",
     "suite wall_s; service wall_s"),
    ("baseline.vector.s", "s", "lower", "suite wall_s; service wall_s"),
    ("baseline.vector.calls", "count", "lower",
     "suite wall_s; service wall_s"),
    ("batch.run_batch.s", "s", "lower",
     "grid wall_s, jobs_per_s, peak_rss_mb"),
    ("batch.engine_run.s", "s", "lower",
     "grid wall_s, jobs_per_s, peak_rss_mb"),
    ("batch.engine_build.s", "s", "lower",
     "grid wall_s, jobs_per_s, peak_rss_mb"),
    ("batch.lanes_served", "count", "higher", "grid wall_s, jobs_per_s"),
    ("batch.lanes_simulated", "count", "lower", "grid wall_s, jobs_per_s"),
    ("batch.collapse_share", "fraction", "higher",
     "grid wall_s, jobs_per_s"),
    ("batch.groups", "count", "lower", "sweep wall_s"),
    ("batch.lanes_per_group", "lanes", "higher", "sweep wall_s"),
    ("batch.scalar_fallback", "count", "lower", "sweep wall_s"),
    ("batch.compile.s", "s", "lower", "sweep wall_s"),
    ("batch.compiles", "count", "lower", "sweep wall_s"),
    ("batch.artifact_hits", "count", "higher", "sweep wall_s"),
    ("batch.unsupported", "count", "lower", "sweep wall_s"),
    ("codegen.compiles", "count", "lower", "none (must read 0)"),
    ("codegen.hits", "count", "lower", "none (must read 0)"),
    ("service.submit.s", "s", "lower", "service latency_p50_ms, warm_s"),
    ("service.submit.calls", "count", "lower",
     "service latency_p50_ms, warm_s"),
    ("service.wait.s", "s", "lower", "service latency_p50_ms, warm_s"),
    ("service.wait.calls", "count", "lower",
     "service latency_p50_ms, warm_s"),
    ("service.executed", "count", "lower", "service wall_s, jobs_per_s"),
    ("service.coalesced", "count", "higher", "service wall_s, jobs_per_s"),
    ("service.store_hits", "count", "higher",
     "service wall_s, jobs_per_s"),
    ("service.rejected", "count", "lower", "service wall_s, jobs_per_s"),
    ("service.respawns", "count", "lower", "service wall_s, jobs_per_s"),
    ("service.store.blobs", "count", "lower", "service wall_s, jobs_per_s"),
    ("service.store.dedup_hits", "count", "higher",
     "service wall_s, jobs_per_s"),
    ("service.shared_share", "fraction", "higher",
     "service wall_s, jobs_per_s"),
    ("trace.overhead_frac", "fraction", "lower", "none (tracing cost)"),
    ("trace.coverage", "fraction", "higher", "none (attribution quality)"),
]

#: counts that must repeat exactly across runs of one seed
DETERMINISTIC = (
    "core.run.cycles", "core.run.instructions", "core.run_spec.cycles",
    "core.cluster.cycles", "batch.lanes_simulated", "batch.compiles",
    "harness.duplicate_jobs", "service.executed", "codegen.compiles",
    "sim_instructions",
)


def sim_instructions(results) -> int:
    """Simulated AP + EP + scalar instructions in job result dicts."""
    return sum(
        r.get("ap_instructions", 0) + r.get("ep_instructions", 0)
        + r.get("instructions", 0)
        for r in results
    )


def _spec_enabled(machine) -> bool:
    spec = machine.config.speculation
    return spec is not None and spec.enabled


class Instrument:
    """The traced run's wrappers plus the counters read at the same
    boundaries.  :meth:`install` before a timed phase, :meth:`restore`
    after it; spans and counters accumulate across phases."""

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder or Recorder()
        self.patcher = Patcher()
        self.phase = None
        #: repr of every job handed to ``run_jobs``, per phase
        self.jobs: dict[str, list[str]] = defaultdict(list)
        #: simulated instructions in cold-phase ``run_jobs`` results
        self.sim_instructions = 0
        self.counts: Counter = Counter()
        self._cache_at_install: dict[str, int] = {}

    # -- install / restore -------------------------------------------------

    def install(self, phase: str) -> None:
        import repro.baseline as baseline
        import repro.batch.cache as batch_cache
        import repro.batch.dispatch as dispatch
        import repro.core as core
        import repro.harness.experiments as experiments
        import repro.harness.parallel as parallel
        import repro.kernels as kernels
        from repro.batch import LaneEngine
        from repro.harness.jobs import BatchJob
        from repro.service import ServiceClient

        self.phase = phase
        rec = self.recorder
        p = self.patcher
        for eid, fn in list(experiments.EXPERIMENTS.items()):
            p.patch_item(experiments.EXPERIMENTS, eid,
                         rec.wrap(fn, f"harness.experiment.{eid}"))
        p.patch_everywhere(parallel.run_jobs, rec.wrap(
            parallel.run_jobs, "harness.run_jobs", self._on_run_jobs))
        p.patch_everywhere(parallel.job_key,
                           rec.wrap(parallel.job_key, "harness.job_key"))
        p.patch(BatchJob, "expand",
                rec.wrap(BatchJob.expand, "harness.expand"))

        for fn in (kernels.lower_sma, kernels.lower_scalar,
                   kernels.lower_vector):
            p.patch_everywhere(fn, rec.wrap(fn, "kernels.lower"))
        p.patch_everywhere(kernels.run_reference, rec.wrap(
            kernels.run_reference, "kernels.reference"))
        p.patch(kernels.KernelSpec, "instantiate", rec.wrap(
            kernels.KernelSpec.instantiate, "kernels.instantiate"))

        machine = core.SMAMachine
        p.patch(machine, "__init__",
                rec.wrap(machine.__init__, "core.build"))
        p.patch(machine, "run", rec.wrap(
            machine.run,
            lambda a, k: "core.run_spec" if _spec_enabled(a[0])
            else "core.run",
            self._on_machine_run))
        p.patch(core.SMACluster, "run", rec.wrap(
            core.SMACluster.run, "core.cluster", _cycles))
        p.patch(baseline.ScalarMachine, "run", rec.wrap(
            baseline.ScalarMachine.run, "baseline.scalar", _cycles))
        p.patch(baseline.VectorMachine, "run", rec.wrap(
            baseline.VectorMachine.run, "baseline.vector"))

        real_run_batch = dispatch.run_batch

        @functools.wraps(real_run_batch)
        def run_batch(jobs, *args, on_result=None, **kwargs):
            # results land (and are flushed to the harness cache) through
            # this callback, from inside the batch layer
            if on_result is not None:
                on_result = rec.wrap(on_result, "harness.flush")
            return real_run_batch(jobs, *args, on_result=on_result, **kwargs)

        p.patch_everywhere(real_run_batch, rec.wrap(
            run_batch, "batch.run_batch", self._on_run_batch))
        p.patch(dispatch, "run_group",
                _counting(dispatch.run_group, self._on_run_group))
        p.patch(LaneEngine, "__init__",
                rec.wrap(LaneEngine.__init__, "batch.engine_build"))
        p.patch(LaneEngine, "run", rec.wrap(
            LaneEngine.run, "batch.engine_run", self._on_engine_run))
        p.patch(batch_cache, "get_or_compile", rec.wrap(
            batch_cache.get_or_compile, "batch.compile"))

        p.patch(ServiceClient, "submit",
                rec.wrap(ServiceClient.submit, "service.submit"))
        p.patch(ServiceClient, "job_status",
                rec.wrap(ServiceClient.job_status, "service.wait"))

        self._cache_at_install = _cache_counters()

    def restore(self) -> None:
        self.patcher.restore()
        self.phase = None
        for key, value in _cache_counters().items():
            self.counts[key] += value - self._cache_at_install[key]

    # -- counters read at the wrapped boundaries ----------------------------

    def _on_run_jobs(self, span, args, kwargs, results) -> None:
        jobs = args[0] if args else kwargs["jobs"]
        self.jobs[self.phase].extend(repr(job) for job in jobs)
        if self.phase == "cold":
            self.sim_instructions += sim_instructions(results)

    def _on_machine_run(self, span, args, kwargs, result) -> None:
        cfg = args[0].config
        span.attrs["cycles"] = result.cycles
        span.attrs["instructions"] = result.instructions
        if cfg.faults is not None or _spec_enabled(args[0]):
            self.counts["core.naive_forced"] += 1

    def _on_run_batch(self, span, args, kwargs, result) -> None:
        jobs = args[0] if args else kwargs["jobs"]
        self.counts["batch.scalar_fallback"] += len(jobs) - len(result)

    def _on_run_group(self, result) -> None:
        self.counts["batch.groups"] += 1
        self.counts["batch.lanes_served"] += len(result)

    def _on_engine_run(self, span, args, kwargs, result) -> None:
        self.counts["batch.lanes_simulated"] += len(args[0].now)


def _cycles(span, args, kwargs, result) -> None:
    span.attrs["cycles"] = result.cycles


def _counting(fn, on_result):
    """Span-free wrapper that only hands each result to ``on_result``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result)
        return result

    return wrapper


def _cache_counters() -> dict[str, int]:
    """The compiled-artifact caches' own counters (deltas are taken
    over each timed phase)."""
    import repro.batch.cache as batch_cache
    import repro.codegen.cache as codegen_cache

    return {
        "batch.compiles": batch_cache.stats.compiles,
        "batch.artifact_hits": batch_cache.stats.hits,
        "batch.unsupported": batch_cache.stats.unsupported,
        "codegen.compiles": codegen_cache.stats.compiles,
        "codegen.hits": codegen_cache.stats.hits,
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``trace`` is the pass's trace record: ``spans`` (list of
    :class:`spans.Span`), ``regions`` (timed ``(start, end)`` pairs),
    ``counts`` (counter name -> value) and ``service`` (the server's
    ``/v1/stats`` payload plus ``cold_requests``, or ``None``).
    Every ``.s`` metric is self time summed over the timed phases,
    except ``harness.experiment.<ID>.s``, which is the experiment's
    inclusive wall time.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    attrs: Counter = Counter()
    for span in spans:
        self_s[span.name] += selfs[span.id]
        total_s[span.name] += span.duration
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attrs[f"{span.name}.{key}"] += value
    counts = trace["counts"]
    m: dict[str, float] = {}
    for eid in EXPERIMENT_IDS:
        m[f"harness.experiment.{eid}.s"] = total_s[f"harness.experiment.{eid}"]
    for key in ("run_jobs", "expand", "flush"):
        m[f"harness.{key}.s"] = self_s[f"harness.{key}"]
    m["harness.assembly.s"] = sum(
        v for k, v in self_s.items() if k.startswith("harness.experiment.")
    )
    for key in ("harness.duplicate_jobs", "harness.cache.hits",
                "harness.cache.flushed"):
        m[key] = counts.get(key, 0)
    for name in ("harness.job_key", "kernels.lower", "kernels.reference",
                 "core.build", "core.run", "core.run_spec", "core.cluster",
                 "baseline.scalar", "baseline.vector", "service.submit",
                 "service.wait"):
        m[f"{name}.s"] = self_s[name]
        m[f"{name}.calls"] = calls[name]
    m["kernels.instantiate.s"] = self_s["kernels.instantiate"]
    for key in ("core.run.cycles", "core.run.instructions",
                "core.run_spec.cycles", "core.cluster.cycles",
                "baseline.scalar.cycles"):
        m[key] = attrs[key]
    m["core.host_ns_per_cycle"] = (
        m["core.run.s"] * 1e9 / m["core.run.cycles"]
        if m["core.run.cycles"] else 0.0
    )
    m["core.naive_forced"] = counts.get("core.naive_forced", 0)
    m["batch.run_batch.s"] = self_s["batch.run_batch"]
    m["batch.engine_run.s"] = self_s["batch.engine_run"]
    m["batch.engine_build.s"] = self_s["batch.engine_build"]
    m["batch.compile.s"] = self_s["batch.compile"]
    for key in ("batch.lanes_served", "batch.lanes_simulated",
                "batch.groups", "batch.scalar_fallback", "batch.compiles",
                "batch.artifact_hits", "batch.unsupported",
                "codegen.compiles", "codegen.hits"):
        m[key] = counts.get(key, 0)
    served = m["batch.lanes_served"]
    m["batch.collapse_share"] = (
        1.0 - m["batch.lanes_simulated"] / served if served else 0.0
    )
    m["batch.lanes_per_group"] = (
        served / m["batch.groups"] if m["batch.groups"] else 0.0
    )
    service = trace.get("service") or {}
    sweep = service.get("sweep", {})
    store = service.get("store", {})
    m["service.executed"] = sweep.get("executed", 0)
    m["service.coalesced"] = sweep.get("coalesced", 0)
    m["service.store_hits"] = sweep.get("hits", 0)
    m["service.rejected"] = sweep.get("rejected", 0)
    m["service.respawns"] = sweep.get("respawns", 0)
    m["service.store.blobs"] = store.get("blobs", 0)
    m["service.store.dedup_hits"] = store.get("dedup_hits", 0)
    cold = service.get("cold_requests", 0)
    m["service.shared_share"] = (
        1.0 - m["service.executed"] / cold if cold else 0.0
    )
    wall = sum(end - start for start, end in trace["regions"])
    m["trace.coverage"] = (
        sum(covered(spans, start, end) for start, end in trace["regions"])
        / wall if wall else 0.0
    )
    m["sim_instructions"] = counts.get("sim_instructions", 0)
    return m
