"""The benchmark's workloads, one timed pass each.

A pass runs in a fresh worker process (see ``worker.py``), so every
cold phase starts with empty per-process memoization, an empty result
cache and, for ``service``, a freshly started server with an empty
store.  Each pass times its cold phase and its all-hit warm phase,
checks every output it produced, and counts failed or wrong outputs
against the operations it attempted instead of aborting.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``suite``    all 16 experiment tables, serial, no cache — ``repro
             experiment all``; warm phase: the same tables from a result
             cache filled once per run (untimed).
``grid``     three dense ``repro batch`` grids (4,800 points), then
             again from a result cache filled once per run (untimed).
``sweep``    ``repro sweep`` of R-F1 and R-F2 with ``--backend batch``
             into a fresh cache, then again from that cache.
``service``  two closed-loop clients against a ``repro serve`` process,
             one job per request, first against an empty store, then a
             warm one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.harness import EXPERIMENTS, harness_policy, run_experiment, run_job
from repro.harness.jobs import BatchJob
from repro.harness import parallel
from repro.service import ServiceClient, ServiceError, job_from_spec, \
    job_to_spec

from layers import DETERMINISTIC, Instrument, layer_metrics, sim_instructions
from spans import Patcher

WORKLOADS = ("suite", "grid", "sweep", "service")

GRID_KERNELS = ("daxpy", "hydro", "inner_product")
GRID_N = 64
GRID_LATENCIES = tuple(range(1, 51))
GRID_DEPTHS = tuple(range(1, 33))
#: grid points re-run through the scalar ``run_job`` path per pass
GRID_SUBSAMPLE = 24
SWEEP_IDS = ("R-F1", "R-F2")
SERVICE_IDS = ("R-T1", "R-T2", "R-F1", "R-F2", "R-F4", "R-F5")
SERVICE_CLIENTS = 2
#: warm phases this short are repeated and their median reported
WARM_REPEATS = {"suite": 15, "grid": 2, "sweep": 40, "service": 1}


def table_digest(table) -> str:
    """sha256 over a table's exact contents (cell values unrounded)."""
    payload = repr((table.experiment_id, table.title, tuple(table.columns),
                    table.rows, table.notes))
    return hashlib.sha256(payload.encode()).hexdigest()


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast the shared host
    runs this interpreter right now (see ``run.REFERENCE_S``)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(100_000):
            acc = (acc + i * 7) % 1000003
            table[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Pass:
    """Measurements and output-check tallies of one pass."""

    def __init__(self, workload: str, seed: int, tmp: Path, expected: dict,
                 trace: bool = False, inject=None, shared: Path | None = None):
        self.workload = workload
        self.seed = seed
        self.tmp = Path(tmp)
        #: directory shared by the passes of one run (inputs made once)
        self.shared = shared
        self.expected = expected
        self.inject = inject
        self.instrument = Instrument() if trace else None
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.regions: list[tuple[float, float]] = []
        self.latencies_ms: list[float] = []
        self.jobs = 0
        self.sim_instructions = 0
        self.peak_rss_mb = 0.0
        self.setup_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.digests: dict[str, str] = {}
        self.service_stats: dict | None = None
        #: reference-loop times taken just before and after the cold phase
        self.references: list[float] = []

    @contextlib.contextmanager
    def timed(self, phase: str):
        """Time one phase; in a traced pass the layer wrappers are
        installed just outside the clock reads and restored after.  The
        host's speed is sampled on both sides of the cold phase."""
        if phase == "cold":
            self.references.append(reference_s())
        if self.instrument is not None:
            self.instrument.install(phase)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.instrument is not None:
                self.instrument.restore()
            self.walls[phase].append(end - start)
            self.regions.append((start, end))
            if phase == "cold":
                self.references.append(reference_s())

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        """Count ``weight`` attempted operations, all failed unless
        ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.problems) < 20:
                self.problems.append(what)

    def policy(self):
        return harness_policy(inject=self.inject, retries=0)

    def check_table(self, eid: str, table, phase: str) -> None:
        if table is None:
            self.check(False, f"{phase} {eid}: raised")
            return
        digest = table_digest(table)
        self.digests[eid] = digest
        want = self.expected["tables"].get(eid)
        self.check(digest == want, f"{phase} {eid}: table digest "
                   f"{digest[:12]} != recorded {str(want)[:12]}")

    def summary(self) -> dict:
        out = {
            "walls": dict(self.walls),
            "latencies_ms": self.latencies_ms,
            "jobs": self.jobs,
            "sim_instructions": self.sim_instructions,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
            "reference_s": statistics.median(self.references),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digests": self.digests,
        }
        if self.instrument is not None:
            inst = self.instrument
            cold = inst.jobs.get("cold", [])
            counts = Counter(self.counts)
            counts.update(inst.counts)
            counts["harness.duplicate_jobs"] = len(cold) - len(set(cold))
            counts["sim_instructions"] = self.sim_instructions
            trace = {
                "spans": inst.recorder.spans,
                "regions": self.regions,
                "counts": counts,
                "service": self.service_stats,
            }
            metrics = layer_metrics(trace)
            out["layers"] = metrics
            out["deterministic"] = {k: metrics.get(k, counts.get(k, 0))
                                    for k in DETERMINISTIC}
            out["jobs_seen"] = {"jobs": len(cold),
                                "distinct_jobs": len(set(cold))}
            spans_path = self.tmp / "spans.jsonl"
            inst.recorder.write(spans_path)
            out["spans_file"] = str(spans_path)
        return out


def _tables(p: Pass, ids, phase: str, **kwargs) -> None:
    """Run experiments one by one (each is one latency sample in the
    cold phase) and check every table against its recorded digest."""
    tables = {}
    with p.timed(phase):
        for eid in ids:
            start = time.perf_counter()
            try:
                table = run_experiment(eid, **kwargs)
                table.to_text()
            except Exception as exc:  # counted as a failed output
                p.problems.append(f"{phase} {eid}: {exc!r}"[:300])
                table = None
            if phase == "cold":
                p.latencies_ms.append((time.perf_counter() - start) * 1e3)
            tables[eid] = table
    for eid in ids:
        p.check_table(eid, tables[eid], phase)


def suite(p: Pass, ids=None) -> None:
    ids = list(ids or EXPERIMENTS)
    random.Random(p.seed).shuffle(ids)
    with p.policy() as stats:
        _tables(p, ids, "cold")
    p.peak_rss_mb = peak_rss_mb()
    cache = str(_suite_cache(p, ids))
    with p.policy() as warm:
        for _ in range(WARM_REPEATS["suite"]):
            _tables(p, ids, "warm", cache_dir=cache)
    p.counts["harness.cache.hits"] = stats.hits + warm.hits
    p.counts["harness.cache.flushed"] = stats.flushed + warm.flushed
    _count_recorded(p, len(ids) == len(EXPERIMENTS))


def _suite_cache(p: Pass, ids=EXPERIMENTS) -> Path:
    """The result cache the suite's warm phase reads: filled once per
    run (untimed, with two worker processes) and shared by its passes."""
    cache = (p.shared or p.tmp) / "suite-cache"
    complete = cache / "complete"
    if not complete.exists():
        with p.policy():
            for eid in ids:
                run_experiment(eid, jobs=2, cache_dir=str(cache))
        complete.touch()
    return cache


def _count_recorded(p: Pass, full: bool) -> None:
    """Jobs and simulated instructions of a pass that only sees tables:
    counted by the wrappers when traced, else the recorded counts."""
    if p.instrument is not None:
        p.sim_instructions = p.instrument.sim_instructions
        p.jobs = len(p.instrument.jobs.get("cold", []))
    elif full:  # seed-independent, recorded in expected.json
        p.jobs = p.expected[p.workload]["jobs"]
        p.sim_instructions = p.expected[p.workload]["sim_instructions"]


def sweep(p: Pass) -> None:
    ids = list(SWEEP_IDS)
    random.Random(p.seed).shuffle(ids)
    cache = str(p.tmp / "cache")
    with p.policy() as stats:
        _tables(p, ids, "cold", cache_dir=cache, backend="batch")
        p.peak_rss_mb = peak_rss_mb()
        for _ in range(WARM_REPEATS["sweep"]):
            _tables(p, ids, "warm", cache_dir=cache, backend="batch")
    p.counts["harness.cache.hits"] = stats.hits
    p.counts["harness.cache.flushed"] = stats.flushed
    _count_recorded(p, True)


def grid_jobs(seed: int) -> list[BatchJob]:
    return [
        BatchJob(kernel, GRID_N, seed, latencies=GRID_LATENCIES,
                 queue_depths=GRID_DEPTHS)
        for kernel in GRID_KERNELS
    ]


def grid(p: Pass) -> None:
    grids = grid_jobs(p.seed)

    def run(phase: str, **kwargs) -> list:
        out = []
        with p.timed(phase):
            for batch_job in grids:
                start = time.perf_counter()
                try:
                    results = parallel.run_jobs(
                        batch_job.expand(), backend="batch", **kwargs)
                except Exception as exc:  # counted as failed points
                    p.problems.append(f"{phase} {batch_job.kernel}: "
                                      f"{exc!r}"[:300])
                    results = None
                if phase == "cold":
                    p.latencies_ms.append(
                        (time.perf_counter() - start) * 1e3)
                out.append(results)
        return out

    # The cold phase is ``repro batch`` as it defaults, without a cache:
    # creating 4,800 cache files is disk-bound, and shared-disk latency
    # made it vary tenfold between runs.  The warm phase reads a cache
    # filled (untimed) from the cold results under the harness's own
    # keys, once per run.
    with p.policy():
        cold = run("cold")
    p.peak_rss_mb = peak_rss_mb()
    expanded = [batch_job.expand() for batch_job in grids]
    p.jobs = sum(len(jobs) for jobs in expanded)
    cache = (p.shared or p.tmp) / "grid-cache"
    complete = cache / "complete"
    if not complete.exists():  # the first pass of a run fills it
        cache.mkdir(exist_ok=True)
        for jobs, results in zip(expanded, cold):
            for job, result in zip(jobs, results or ()):
                (cache / f"{parallel.job_key(job)}.json").write_text(
                    json.dumps(result))
        complete.touch()
    with p.policy() as stats:
        warms = [run("warm", cache_dir=str(cache))
                 for _ in range(WARM_REPEATS["grid"])]
    p.counts["harness.cache.hits"] = stats.hits
    p.counts["harness.cache.flushed"] = stats.flushed
    misses = p.jobs * WARM_REPEATS["grid"] - stats.hits
    p.check(misses == 0, f"warm: {misses} cache misses (the harness "
            "cache layout changed?)")

    flat = [(g, i) for g, jobs in enumerate(expanded)
            for i in range(len(jobs))]
    sample = random.Random(p.seed).sample(flat, GRID_SUBSAMPLE)
    for g, jobs in enumerate(expanded):
        results = cold[g]
        if results is None:
            p.check(False, f"cold {grids[g].kernel}: raised", len(jobs))
            continue
        p.sim_instructions += sim_instructions(results)
        picked = [i for h, i in sample if h == g]
        p.check(True, "", len(jobs) - len(picked))
        for i in picked:
            p.check(results[i] == run_job(jobs[i]),
                    f"{grids[g].kernel} point {i}: batch result differs "
                    f"from run_job")
        for warm in warms:
            p.check(warm[g] == results, f"warm {grids[g].kernel}: "
                    f"differs from the cold results", len(jobs))


def service_inputs() -> tuple[list, dict[str, str]]:
    """The jobs of :data:`SERVICE_IDS`, in experiment order, and each
    job's in-process result as canonical JSON (the reference every
    service response is compared with byte for byte)."""
    import repro.harness.experiments as experiments

    real = experiments.run_jobs
    recorded: list = []

    def recording(jobs, *args, **kwargs):
        results = real(jobs, *args, **kwargs)
        recorded.extend(zip(jobs, results))
        return results

    with Patcher() as patcher:
        patcher.patch(experiments, "run_jobs", recording)
        for eid in SERVICE_IDS:
            run_experiment(eid)
    jobs = [job for job, _ in recorded]
    expected = {repr(job): canonical(result) for job, result in recorded}
    return jobs, expected


class Server:
    """A ``repro serve`` subprocess with an empty store, started and
    stopped by the benchmark (every exit path waits for it)."""

    def __init__(self, store: Path, log: Path):
        self.store = store
        self.log = log
        self.proc = None
        self.client = None

    def __enter__(self) -> "Server":
        start = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--store", str(self.store), "--workers", "2"],
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        line = self.proc.stdout.readline().strip()
        if "http://" not in line:
            self._stop()
            raise RuntimeError(f"server did not announce a URL: {line!r}")
        self.url = line.split()[-1]
        self.client = ServiceClient(self.url)
        deadline = start + 60.0
        while not self.client.healthz():
            if time.perf_counter() > deadline:
                self._stop()
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start
        return self

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def _stop(self) -> None:
        try:
            if self.proc.poll() is None and self.client is not None:
                try:
                    self.client.shutdown()
                    self.proc.wait(timeout=30)
                except (OSError, ServiceError, subprocess.TimeoutExpired):
                    pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()

    def __exit__(self, *exc) -> None:
        self._stop()


def service_setup(tmp: Path) -> float:
    """Seconds from spawning ``repro serve`` until ``/v1/healthz``
    answers."""
    with Server(tmp / "store", tmp / "server.log") as server:
        return server.setup_s


def _service_inputs_once(p: Pass) -> tuple[list, dict[str, str]]:
    """:func:`service_inputs`, made by the first pass of a run and read
    back by the others (wire-format job specs, not pickles)."""
    path = p.shared / "service-inputs.json" if p.shared else None
    if path is not None and path.exists():
        saved = json.loads(path.read_text())
        return [job_from_spec(spec) for spec in saved["jobs"]], \
            saved["expected"]
    jobs, expected = service_inputs()
    if path is not None:
        path.write_text(json.dumps({
            "jobs": [job_to_spec(job) for job in jobs],
            "expected": expected,
        }))
    return jobs, expected


def service(p: Pass) -> None:
    jobs, expected = _service_inputs_once(p)
    orders = []
    for c in range(SERVICE_CLIENTS):
        order = list(jobs)
        random.Random(p.seed * 1000 + c).shuffle(order)
        orders.append(order)
    with Server(p.tmp / "store", p.tmp / "server.log") as server:
        p.setup_s = server.setup_s
        cold = _drive(p, server.url, orders, "cold")
        warm = [_drive(p, server.url, orders, "warm")
                for _ in range(WARM_REPEATS["service"])]
        p.service_stats = server.client.stats()
        p.peak_rss_mb = server.peak_rss_mb()
    p.jobs = sum(len(order) for order in orders)
    p.service_stats["cold_requests"] = p.jobs
    for phase, got in [("cold", cold)] + [("warm", w) for w in warm]:
        for c, order in enumerate(orders):
            for i, job in enumerate(order):
                result = got[c][i]
                ok = (result is not None
                      and canonical(result) == expected[repr(job)])
                p.check(ok, f"{phase} client {c} request {i} "
                        f"({job.machine}/{job.kernel}): "
                        + ("failed" if result is None else
                           "differs from the in-process result"))
                if phase == "cold" and result is not None:
                    p.sim_instructions += sim_instructions([result])


def _drive(p: Pass, url: str, orders, phase: str) -> list[list]:
    """Closed loop: each client thread sends its next job only after the
    previous one's result arrived.  Returns each client's results (None
    for a failed request)."""
    got = [[None] * len(order) for order in orders]
    recorder = p.instrument.recorder if p.instrument is not None else None
    latencies: list[list[float]] = [[] for _ in orders]

    def client_loop(c: int) -> None:
        client = ServiceClient(url, timeout=120.0)
        for i, job in enumerate(orders[c]):
            span = (recorder.span("service.run", request=f"{c}-{i}")
                    if recorder is not None else contextlib.nullcontext())
            start = time.perf_counter()
            with span:
                try:
                    [got[c][i]] = client.run([job], timeout=120.0)
                except (ServiceError, OSError) as exc:
                    if len(p.problems) < 20:
                        p.problems.append(f"{phase} request: {exc!r}"[:300])
            latencies[c].append((time.perf_counter() - start) * 1e3)

    with p.timed(phase):
        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if phase == "cold":
        for lat in latencies:
            p.latencies_ms.extend(lat)
    return got


PASSES = {"suite": suite, "grid": grid, "sweep": sweep, "service": service}
#: untimed per-run preparation whose result the passes of a run share
PREPARE = {"suite": _suite_cache, "service": _service_inputs_once}
