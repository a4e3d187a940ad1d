"""Event-horizon scheduler equivalence and the memory horizon.

Three layers of guarantees:

**Equivalence** — running the same machine (or cluster) under every
registered scheduler (``"naive"`` and ``"event-horizon"``)
must produce bit-identical observables: cycle counts, every stall
counter, LOD accounting, queue occupancy statistics (samples, sums,
maxima, full histograms — exercising the lazy event-driven accounting
against per-cycle sampling), metrics bucket partitions, and the final
memory image.  Hypothesis drives randomized kernels, latencies, queue
depths and bank counts through all the loops; the comparison iterates
:data:`SMAMachine.SCHEDULERS`, so a newly registered scheduler is
covered automatically.

**Horizon** — the scheduler jumps to the banked memory's
``next_event_time(now)``: the earliest pending completion or bank-free
time.  The global property test checks the soundness direction the
scheduler relies on: immediately after a cycle that made no progress
(the scheduler's "template" position, where stall flags are fresh), no
progress may occur before the reported horizon.  Direct unit tests pin
the memory's cases (no work, completion clamp, earliest busy bank, a
bank freeing exactly at ``now``).

**Jumps** — a missed jump is never wrong, so the layers above would
still pass if the horizon stopped jumping; a deterministic check
requires most cycles of the latency-dominated R-F1 regime to be
replayed rather than stepped.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FaultConfig, MemoryConfig, SMAConfig
from repro.core import SMACluster, SMAMachine
from repro.errors import MemoryError_, SimulationError
from repro.harness.experiments import LATENCY_REPS, _configs
from repro.harness.runner import _fit_memory, _load_inputs
from repro.isa import assemble
from repro.kernels import get_kernel, lower_sma
from repro.memory import BankedMemory, MainMemory

from tests.test_cluster_fast_forward import (
    _build_cluster,
    _observables as _cluster_observables,
)
from tests.test_fast_forward import _fuzz_kernels, _machine, _observables

SCHEDULERS = SMAMachine.SCHEDULERS


def _full_observables(machine, result):
    obs = _observables(machine, result)
    obs["image"] = machine.memory.dump_array(
        0, machine.config.memory.size
    ).tolist()
    return obs


def _run_all_schedulers(kernel, inputs, latency, depth, banks,
                        metrics=False):
    observed = {}
    for scheduler in SCHEDULERS:
        machine = _machine(kernel, inputs, latency, depth, banks)
        if metrics:
            machine.attach_metrics()
        result = machine.run(scheduler=scheduler)
        observed[scheduler] = _full_observables(machine, result)
    reference = next(iter(SCHEDULERS))
    for scheduler, obs in observed.items():
        assert obs == observed[reference], (
            f"{scheduler} disagrees with {reference}"
        )
    return observed[reference]


# ---------------------------------------------------------------------------
# machine-level equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((2, 4, 8, 16, 32, 64)),   # latency
    st.sampled_from((1, 2, 4, 8, 16)),        # queue depth
    st.sampled_from((1, 2, 8)),               # banks
    st.integers(0, 2**31),                    # input seed
)
def test_schedulers_identical_on_random_kernels(
    kernel_n, latency, depth, banks, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    _run_all_schedulers(kernel, inputs, latency, depth, banks)


@pytest.mark.parametrize(
    "name", ("daxpy", "hydro", "tridiag", "computed_gather", "pic_gather")
)
@pytest.mark.parametrize("latency", (8, 32, 128))
@pytest.mark.parametrize("depth", (2, 8))
def test_schedulers_identical_on_suite_kernels(name, latency, depth):
    kernel, inputs = get_kernel(name).instantiate(32)
    _run_all_schedulers(kernel, inputs, latency, depth, banks=8)


def test_schedulers_identical_with_metrics_attached():
    """The event-horizon replay must drive the metrics classifier's
    closed-form replay to the same buckets naive ticking counts."""
    kernel, inputs = get_kernel("tridiag").instantiate(48)
    obs = _run_all_schedulers(
        kernel, inputs, latency=64, depth=2, banks=8, metrics=True
    )
    breakdown = obs["result"]["stall_breakdown"]
    assert sum(breakdown.values()) == obs["cycle"]


def test_two_registered_schedulers():
    assert list(SCHEDULERS) == ["naive", "event-horizon"]
    for name, entry in SCHEDULERS.items():
        assert callable(entry), name


def test_unknown_scheduler_rejected():
    machine = _machine(
        *get_kernel("daxpy").instantiate(8), latency=4, depth=4, banks=4
    )
    with pytest.raises(ValueError, match="unknown scheduler"):
        machine.run(scheduler="speculative")


def _daxpy(faults=None):
    kernel, inputs = get_kernel("daxpy").instantiate(24, 0)
    lowered = lower_sma(kernel)
    cfg = SMAConfig(
        memory=_fit_memory(MemoryConfig(latency=8, bank_busy=4),
                           lowered.layout),
        faults=faults,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine


def test_fault_injection_downgrades_to_naive():
    faults = FaultConfig(reject_prob=0.2, seed=7)
    faulted = _daxpy(faults)
    got = faulted.run(scheduler="event-horizon")
    reference = _daxpy(faults)
    want = reference.run(scheduler="naive")
    assert _full_observables(faulted, got) == \
        _full_observables(reference, want)


def test_resumed_budget_abort_stays_bit_identical():
    reference = _daxpy()
    want = reference.run(scheduler="naive")
    machine = _daxpy()
    with pytest.raises(SimulationError, match="cycle budget"):
        machine.run(max_cycles=want.cycles // 2, scheduler="event-horizon")
    # resumes with live streams and in-flight completions
    got = machine.run(scheduler="event-horizon")
    assert _full_observables(machine, got) == \
        _full_observables(reference, want)


def test_restored_snapshot_stays_bit_identical():
    reference = _daxpy()
    want = reference.run(scheduler="naive")
    donor = _daxpy()
    with pytest.raises(SimulationError, match="cycle budget"):
        donor.run(max_cycles=want.cycles // 2, scheduler="naive")
    machine = _daxpy()
    machine.restore(donor.snapshot())
    got = machine.run(scheduler="event-horizon")
    assert _full_observables(machine, got) == \
        _full_observables(reference, want)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_deadlock_parity_across_schedulers(scheduler):
    """The deadlock diagnostic must fire at the identical cycle with the
    identical stall accounting under every scheduler."""
    from tests.test_fast_forward import _starved_machine

    machine = _starved_machine()
    with pytest.raises(SimulationError, match="deadlock"):
        machine.run(deadlock_window=100, scheduler=scheduler)
    reference = _starved_machine()
    with pytest.raises(SimulationError, match="deadlock"):
        reference.run(deadlock_window=100, scheduler="naive")
    assert machine.cycle == reference.cycle
    assert dict(machine.ep.stats.stall_cycles) == dict(
        reference.ep.stats.stall_cycles
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cycle_budget_parity_across_schedulers(scheduler):
    from tests.test_fast_forward import _starved_machine

    machine = _starved_machine()
    with pytest.raises(SimulationError, match="budget"):
        machine.run(
            max_cycles=60, deadlock_window=1000, scheduler=scheduler
        )
    assert machine.cycle == 60


def _bad_gather_machine():
    """A gather whose second index (2.5) is not an address; the index
    arrives from memory after a long jointly stalled span."""
    machine = SMAMachine(
        assemble("streamld iq0, #64, #1, #4\ngather lq0, iq0, #0, #4\nhalt"),
        assemble("mov x1, #4\nt: add x2, lq0, #0.0\ndecbnz x1, t\nhalt"),
        SMAConfig(memory=MemoryConfig(latency=64, bank_busy=8, num_banks=2)),
    )
    machine.load_array(64, [1.0, 2.5, 3.0, 0.0])
    return machine


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_malformed_gather_index_parity_across_schedulers(scheduler):
    """A malformed gather index raises the reference diagnostic at the
    identical cycle under every scheduler."""
    reference = _bad_gather_machine()
    with pytest.raises(MemoryError_, match="non-integral") as expected:
        reference.run(scheduler="naive")
    machine = _bad_gather_machine()
    with pytest.raises(MemoryError_) as raised:
        machine.run(scheduler=scheduler)
    assert str(raised.value) == str(expected.value)
    assert machine.cycle == reference.cycle


# ---------------------------------------------------------------------------
# cluster-level equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.sampled_from(("daxpy", "hydro", "tridiag", "pic_gather")),
        min_size=1, max_size=3,
    ),
    st.sampled_from((8, 32, 64)),         # latency
    st.sampled_from((2, 8)),              # queue depth
    st.sampled_from((2, 8)),              # banks
    st.sampled_from((1, 2)),              # port width
    st.integers(0, 2**31),                # input seed
)
def test_cluster_schedulers_identical_on_random_mixes(
    names, latency, depth, banks, ports, seed
):
    specs = [
        get_kernel(name).instantiate(24, seed + j)
        for j, name in enumerate(names)
    ]
    observed = {}
    for scheduler in SCHEDULERS:
        cluster = _build_cluster(specs, latency, depth, banks, ports)
        metrics = cluster.attach_metrics()
        result = cluster.run(scheduler=scheduler)
        observed[scheduler] = _cluster_observables(cluster, result, metrics)
    reference = next(iter(SCHEDULERS))
    for scheduler, obs in observed.items():
        assert obs == observed[reference], (
            f"cluster {scheduler} disagrees with {reference}"
        )


def test_cluster_rejects_unknown_scheduler():
    specs = [get_kernel("daxpy").instantiate(16, 1)]
    cluster = _build_cluster(specs, latency=8, depth=4, banks=4)
    with pytest.raises(ValueError, match="unknown scheduler"):
        cluster.run(scheduler="speculative")


# ---------------------------------------------------------------------------
# the global soundness property
# ---------------------------------------------------------------------------


def _progress(machine):
    """A tuple that changes iff the machine made forward progress."""
    return (
        machine.ap.stats.instructions,
        machine.ep.stats.instructions,
        machine.engine.stats.requests_issued,
        machine.store_unit.stats.stores_issued,
    )


def _assert_horizons_sound(machine, limit=2_000_000):
    """Naive-tick the machine; after every cycle that made no progress
    (fresh stall flags — the scheduler's template position), require that
    no progress occurs before the reported horizon."""
    jumps_checked = 0
    prev = _progress(machine)
    progressed = True
    while not machine.done():
        assert machine.cycle < limit, "machine did not terminate"
        if not progressed:
            horizon = machine.banked.next_event_time(machine.cycle)
            if horizon is not None and horizon > machine.cycle:
                jumps_checked += 1
                while machine.cycle < horizon and not machine.done():
                    machine.step_cycle()
                    state = _progress(machine)
                    assert state == prev, (
                        f"progress at cycle {machine.cycle} before "
                        f"horizon {horizon}: {prev} -> {state}"
                    )
                continue
        machine.step_cycle()
        state = _progress(machine)
        progressed = state != prev
        prev = state
    return jumps_checked


@pytest.mark.parametrize(
    "name,latency,depth",
    [
        ("daxpy", 64, 2),
        ("hydro", 128, 4),
        ("tridiag", 64, 2),        # LOD recurrence: AP drags to EP speed
        ("pic_gather", 64, 4),     # indexed descriptors
    ],
)
def test_no_progress_before_reported_horizon(name, latency, depth):
    kernel, inputs = get_kernel(name).instantiate(32)
    machine = _machine(kernel, inputs, latency=latency, depth=depth,
                       banks=2)
    jumps = _assert_horizons_sound(machine)
    assert jumps > 0, "workload never exposed a jumpable window"


@settings(max_examples=15, deadline=None)
@given(
    _fuzz_kernels(),
    st.sampled_from((16, 64)),
    st.sampled_from((1, 2)),
    st.integers(0, 2**31),
)
def test_no_progress_before_reported_horizon_fuzzed(
    kernel_n, latency, depth, seed
):
    kernel, _n = kernel_n
    rng = np.random.default_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2, 2, decl.size) for decl in kernel.arrays
    }
    machine = _machine(kernel, inputs, latency=latency, depth=depth,
                       banks=1)
    _assert_horizons_sound(machine)


# ---------------------------------------------------------------------------
# the banked-memory horizon
# ---------------------------------------------------------------------------


def _memory(latency=8, bank_busy=4, banks=2, size=256):
    cfg = MemoryConfig(
        latency=latency, bank_busy=bank_busy, num_banks=banks, size=size
    )
    return BankedMemory(MainMemory(size), cfg)


class TestBankedMemoryContract:
    def test_no_pending_completions(self):
        # every bank starts free at cycle 0, so probe from cycle 1
        assert _memory().next_event_time(1) is None

    def test_completion_time_and_clamp(self):
        mem = _memory(latency=8, bank_busy=4)
        assert mem.try_issue(0, 0, on_complete=lambda v: None)
        assert mem.next_event_time(5) == 8  # bank freed at 4
        assert mem.next_event_time(8) == 8
        assert mem.next_event_time(12) == 12  # overdue clamps to now

    def test_completion_before_bank_free(self):
        mem = _memory(latency=2, bank_busy=6, banks=1)
        assert mem.try_issue(0, 0, on_complete=lambda v: None)
        assert mem.next_event_time(0) == 2

    def test_writes_without_callback_are_not_completions(self):
        mem = _memory(bank_busy=4, banks=1)
        assert mem.try_issue(0, 0, is_write=True, value=1.0)
        assert mem.next_event_time(0) == 4  # only the busy bank
        assert mem.next_event_time(5) is None

    def test_earliest_busy_bank(self):
        mem = _memory(latency=100, bank_busy=5, banks=2)
        assert mem.try_issue(0, 0, is_write=True, value=0.0)  # bank 0 → 5
        assert mem.try_issue(1, 1, is_write=True, value=0.0)  # bank 1 → 6
        assert mem.next_event_time(2) == 5
        assert mem.next_event_time(6) == 6

    def test_bank_freeing_exactly_at_now(self):
        """A bank that frees at ``now`` still counts: it admits, at
        ``now``, the request it refused the cycle before."""
        mem = _memory(bank_busy=4)
        assert mem.try_issue(0, 0, is_write=True, value=0.0)
        assert mem.next_event_time(4) == 4
        assert mem.next_event_time(5) is None


# ---------------------------------------------------------------------------
# the horizon actually jumps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", LATENCY_REPS)
def test_high_latency_runs_mostly_jump(name, monkeypatch):
    """A missed jump is never wrong, so the equivalence tests above
    would still pass if the horizon stopped jumping.  In the
    latency-dominated regime (R-F1 at latency 256) most cycles are
    jointly stalled: at least 75% of them must be replayed in closed
    form rather than stepped."""
    replayed = [0]
    replay = SMAMachine._replay_fast

    def counting(machine, snapshot, count):
        replayed[0] += count
        replay(machine, snapshot, count)

    monkeypatch.setattr(SMAMachine, "_replay_fast", counting)
    sma_cfg, _ = _configs(latency=256)
    kernel, inputs = get_kernel(name).instantiate(256)
    lowered = lower_sma(kernel)
    cfg = replace(
        sma_cfg, memory=_fit_memory(sma_cfg.memory, lowered.layout)
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    result = machine.run(scheduler="event-horizon")
    assert replayed[0] >= 0.75 * result.cycles, (
        f"{replayed[0]} of {result.cycles} cycles replayed"
    )


# ---------------------------------------------------------------------------
# lazy occupancy accounting survives a partial run boundary
# ---------------------------------------------------------------------------


def test_two_phase_run_keeps_occupancy_exact():
    """Statistics must stay exact when an event-horizon run aborts (cycle
    budget) and a second run finishes the machine — the lazy sampling
    bracket opens and closes twice."""
    kernel, inputs = get_kernel("daxpy").instantiate(32)
    reference = _machine(kernel, inputs, latency=64, depth=4, banks=8)
    expected = _full_observables(
        reference, reference.run(scheduler="naive")
    )

    machine = _machine(kernel, inputs, latency=64, depth=4, banks=8)
    with pytest.raises(SimulationError, match="budget"):
        machine.run(max_cycles=expected["cycle"] // 2,
                    scheduler="event-horizon")
    result = machine.run(scheduler="event-horizon")
    assert _full_observables(machine, result) == expected
