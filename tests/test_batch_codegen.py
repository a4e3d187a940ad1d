"""Program-specialized batch codegen: bit-exactness and dispatch.

The batch lane stepper (:mod:`repro.batch.emitter`) compiles one
straight-line numpy loop per decoded AP/EP program pair, and the
dispatch layer adds saturation collapse (deep-queue lanes served from a
probe run) on top.  None of that may ever move a number.  The scalar
machine is the reference throughout.  This suite pins:

* batch vs scalar equivalence on random lane grids, on every lane (full
  result dicts), and per-lane stats plus full memory images against
  the scalar machine;
* every suite kernel specializes;
* the saturation-collapse planner only collapses provably-dominated
  lanes, and collapsed results equal per-lane scalar reruns;
* the fingerprint cache compiles once per program pair; a program the
  emitter refuses is negative-cached and its jobs run on the scalar
  path, cache-interchangeably;
* two dispatch regressions: speculation-enabled configs stay on the
  scalar path, and ``lod_variant`` jobs land in distinct lane groups.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import LaneEngine, run_batch
from repro.batch.cache import clear_cache, stats as cache_stats
from repro.batch.decode import QueueLayout
from repro.batch.dispatch import (
    _BATCH_MACHINES,
    _collapse_classes,
    _group_key,
    batch_eligible,
    plan_groups,
    run_group,
)
from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMAMachine
from repro.harness.jobs import (
    BatchJob,
    Job,
    _instantiated,
    _lowered_sma,
    run_job,
)
from repro.harness.parallel import harness_policy, run_jobs
from repro.harness.runner import _fit_memory, _load_inputs
from repro.kernels import all_kernels

KERNELS = ("daxpy", "tridiag", "computed_gather")


def _grid_config(latency: int, depth: int, banks: int) -> SMAConfig:
    """The experiments' sweep convention (mirrors BatchJob.expand)."""
    return SMAConfig(
        memory=MemoryConfig(
            latency=latency, bank_busy=max(1, latency // 2),
            num_banks=banks,
        ),
        queues=QueueConfig(
            load_queue_depth=depth, store_data_depth=depth,
            store_addr_depth=depth, index_queue_depth=depth,
        ),
    )


# ---------------------------------------------------------------------------
# batch vs scalar
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(KERNELS),
    st.sampled_from(("sma", "sma-nostream")),
    st.lists(st.integers(1, 96), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
)
def test_random_grid_matches_scalar_on_every_lane(
    kernel, machine, latencies, depths
):
    jobs = BatchJob(
        kernel, 28, machine=machine,
        latencies=tuple(latencies), queue_depths=tuple(depths),
    ).expand()
    results = run_batch(jobs)
    assert sorted(results) == list(range(len(jobs)))
    for lane, job in enumerate(jobs):
        assert results[lane] == run_job(job), f"lane {lane}: {job}"


@pytest.mark.parametrize("machine", ["sma", "sma-nostream"])
@pytest.mark.parametrize(
    "kernel", [spec.name for spec in all_kernels()]
)
def test_every_suite_program_specializes(kernel, machine):
    """The generated stepper must exist for every kernel in the suite,
    on both batch machines (``run_group`` raises ``Unsupported``
    otherwise), and agree with the scalar machine."""
    job = Job(machine, kernel, 24, sma_config=_grid_config(8, 4, 8))
    assert run_group([job])[0] == run_job(job)


def _staged_engine(kernel_name, machine, n, configs):
    """Build one multi-lane engine the way ``dispatch.run_group`` does,
    so digests read the engine's own memory planes, not a re-run."""
    use_streams = _BATCH_MACHINES[machine]
    kernel, inputs = _instantiated(kernel_name, n, 12345)
    lowered = _lowered_sma(kernel_name, n, 12345, use_streams)
    layout = lowered.layout
    fitted = [
        cfg.__class__(
            **{**cfg.__dict__, "memory": _fit_memory(cfg.memory, layout)}
        )
        for cfg in configs
    ]
    size = max(cfg.memory.size for cfg in fitted)
    touched = layout.end + 16
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            touched = max(touched, base + len(values))
    image = np.zeros(min(touched, size), dtype=np.float64)
    for program in (lowered.access_program, lowered.execute_program):
        for base, values in program.data:
            image[base:base + len(values)] = np.asarray(
                values, dtype=np.float64
            )
    for decl in kernel.arrays:
        arr = np.asarray(inputs[decl.name], dtype=np.float64)
        image[layout.base(decl.name):][:arr.shape[0]] = arr
    engine = LaneEngine(
        lowered.access_program, lowered.execute_program, fitted,
        image, logical_size=size,
    )
    return kernel, layout, engine


def _scalar_image(kernel_name, n, config):
    """Run one config on the scalar machine; return its result dict
    and its full final memory image."""
    kernel, inputs = _instantiated(kernel_name, n, 12345)
    lowered = _lowered_sma(kernel_name, n, 12345, True)
    cfg = config.__class__(**{
        **config.__dict__,
        "memory": _fit_memory(config.memory, lowered.layout),
    })
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    machine.run()
    image = np.asarray(
        machine.memory.dump_array(0, cfg.memory.size), dtype=np.float64
    )
    return run_job(Job("sma", kernel_name, n, sma_config=config)), image


def _digest(words) -> str:
    return hashlib.sha256(
        np.asarray(words, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("kernel", KERNELS)
def test_compiled_memory_digests_and_lane_dicts_match(kernel):
    """Each lane's stats and its whole memory image (the staged prefix
    plus the untouched, still-zero rest) equal the scalar machine's."""
    depths = (1, 2, 5, 9, 33)
    configs = [_grid_config(11, depth, 4) for depth in depths]
    _, _, engine = _staged_engine(kernel, "sma", 32, configs)
    out = engine.run()
    for lane, cfg in enumerate(configs):
        scalar, image = _scalar_image(kernel, 32, cfg)
        lane_dict = out.stats.lane_dict(lane)
        assert lane_dict == {key: scalar[key] for key in lane_dict}
        staged = out.memory[lane]
        assert staged.shape[0] <= image.shape[0]
        full = np.zeros_like(image)
        full[: staged.shape[0]] = staged
        assert _digest(full) == _digest(image), (
            f"{kernel} memory image diverges at lane {lane} "
            f"(depth {depths[lane]})"
        )


# ---------------------------------------------------------------------------
# saturation collapse
# ---------------------------------------------------------------------------


def test_collapse_planner_picks_dominating_probe():
    configs = [_grid_config(8, depth, 8) for depth in (1, 4, 64)]
    configs.append(_grid_config(9, 2, 8))  # different residual class
    qlay = QueueLayout.from_config(configs[0])
    classes = _collapse_classes(configs, qlay)
    assert len(classes) == 1  # the latency-9 lane is a singleton
    probe, members, caps = classes[0]
    assert probe == 2 and members == [0, 1, 2]
    assert (caps[members.index(probe)] == caps.max(axis=0)).all()


def test_collapse_planner_requires_componentwise_dominator():
    # load depth and index depth pull in opposite directions: neither
    # lane dominates, so the planner must simulate both
    a = SMAConfig(queues=QueueConfig(load_queue_depth=4,
                                     index_queue_depth=1))
    b = SMAConfig(queues=QueueConfig(load_queue_depth=1,
                                     index_queue_depth=4))
    assert _collapse_classes([a, b], QueueLayout.from_config(a)) == []


def test_collapse_skips_dominated_lanes_bit_exactly(monkeypatch):
    jobs = BatchJob(
        "daxpy", 32, latencies=(8,), queue_depths=tuple(range(1, 33)),
    ).expand()
    lanes_simulated = []
    real_run = LaneEngine.run

    def spy(self, *args, **kwargs):
        lanes_simulated.append(self.now.shape[0])
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(LaneEngine, "run", spy)
    results = run_batch(jobs)
    assert len(results) == len(jobs)
    # the probe run plus the saturated residue must cover fewer lanes
    # than the grid: the deep-queue tail was served from the probe
    assert sum(lanes_simulated) < len(jobs)
    # ...and the served lanes are still bit-exact against the scalar
    # interpreter (first/middle/deepest, all collapse candidates)
    for lane in (0, 15, 31):
        assert results[lane] == run_job(jobs[lane])


# ---------------------------------------------------------------------------
# artifact cache
# ---------------------------------------------------------------------------


def test_one_compile_serves_the_whole_grid():
    clear_cache()
    jobs = BatchJob(
        "daxpy", 24, latencies=(2, 8, 32), queue_depths=(2, 8),
    ).expand()
    first = run_batch(jobs)
    assert cache_stats.compiles == 1
    assert run_batch(jobs) == first
    assert cache_stats.compiles == 1  # second sweep is all cache hits
    assert cache_stats.hits >= 1


def _program_len(kernel: str) -> int:
    lowered = _lowered_sma(kernel, 24, 12345, True)
    return len(lowered.access_program) + len(lowered.execute_program)


def test_unsupported_group_runs_on_scalar_path(monkeypatch, tmp_path):
    """A group the emitter refuses (here: a program over the emission
    length cap) is negative-cached and left out of ``run_batch``'s
    result; ``run_jobs(backend="batch")`` runs it on the scalar path,
    flushing entries a later scalar sweep serves verbatim, while the
    other group still runs batched."""
    from repro.batch import emitter

    small = BatchJob("daxpy", 24, latencies=(2, 8)).expand()
    large = BatchJob("tridiag", 24, latencies=(2, 8)).expand()
    jobs = small + large
    assert _program_len("daxpy") < _program_len("tridiag")
    clear_cache()
    monkeypatch.setattr(emitter, "MAX_PROGRAM_LEN", _program_len("daxpy"))
    try:
        before = cache_stats.unsupported
        assert sorted(run_batch(jobs)) == list(range(len(small)))
        assert cache_stats.unsupported == before + 1
        batch = run_jobs(jobs, cache_dir=tmp_path, backend="batch")
        assert cache_stats.unsupported == before + 1  # negative-cached
        assert batch == run_jobs(jobs, backend="scalar")
        with harness_policy() as stats:
            assert run_jobs(jobs, cache_dir=tmp_path) == batch
        assert stats.hits == len(jobs)
    finally:
        clear_cache()  # drop the poisoned negative-cache entry


# ---------------------------------------------------------------------------
# dispatch regressions
# ---------------------------------------------------------------------------


def test_speculative_configs_stay_on_scalar_path():
    """Regression: an *enabled* speculative AP config used to slip into
    a lane group (the gate only looked for a non-None config object) and
    silently report non-speculative timing."""
    armed = SMAConfig(speculation=SpeculationConfig(accuracy=0.5))
    disarmed = SMAConfig(speculation=SpeculationConfig(mode="never"))
    assert not batch_eligible(Job("sma", "tridiag", 24, sma_config=armed))
    assert batch_eligible(Job("sma", "tridiag", 24, sma_config=disarmed))
    jobs = [
        Job("sma", "tridiag", 24, sma_config=armed),
        Job("sma", "tridiag", 24, sma_config=disarmed),
    ]
    assert [i for group in plan_groups(jobs) for i in group] == [1]
    # end to end: the batch backend must hand the armed job to the
    # scalar path, so both backends report identical (speculative)
    # timing
    assert run_jobs(jobs, backend="batch") == run_jobs(jobs)


def test_lod_variant_jobs_get_distinct_lane_groups():
    """Regression: the group key ignored ``lod_variant``, so an
    ``addr``/``branch`` relowering could share a lane group with the
    default lowering and run the wrong program."""
    base = Job("sma", "tridiag", 24)
    variant = Job("sma", "tridiag", 24, lod_variant="branch")
    assert _group_key(base) != _group_key(variant)
    assert len(plan_groups([base, variant])) == 2
    results = run_batch([base, variant])
    assert results[0] == run_job(base)
    assert results[1] == run_job(variant)
    assert results[0] != results[1]  # the relowering times differently
