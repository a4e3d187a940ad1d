"""Bounded stepping (``step_cycles``) on the production loops.

``SMAMachine.step_cycles`` and ``SMACluster.step_cycles`` run the loop
``run()`` would pick and stop at exactly ``cycle + count``.  The contract
under test:

* ``step_cycles(k)`` reaches the same ``state_digest()`` as ``k`` naive
  single steps — including values of ``k`` that land inside an
  event-horizon jump, where the stop clamps the jump;
* a snapshot taken after ``step_cycles``, restored and run to completion,
  equals a straight run;
* fault-injected machines and clusters still step on the naive loop,
  while speculative machines step on the event-horizon loop and match
  naive single steps;
* a deadlocking program raises the same deadlock error from
  ``step_cycles`` as from ``run()``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    FaultConfig,
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMAMachine
from repro.core.cluster import SMACluster
from repro.errors import SimulationError
from repro.harness.runner import _fit_memory, _load_inputs
from repro.isa import assemble
from repro.kernels import get_kernel, lower_sma


def _build(name="daxpy", n=24, latency=32, seed=5, variant=None,
           speculation=None, faults=None, metrics=False):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    cfg = SMAConfig(
        memory=_fit_memory(mem, lowered.layout),
        queues=QueueConfig(load_queue_depth=4),
        speculation=speculation,
        faults=faults,
    )
    machine = SMAMachine(lowered.access_program, lowered.execute_program,
                         cfg)
    _load_inputs(machine, lowered.layout, kernel, inputs)
    if metrics:
        machine.attach_metrics()
    return machine


def _build_cluster(names=("daxpy", "hydro"), n=24, latency=32,
                   faults=None, metrics=False):
    base = 16
    lowered = []
    for i, name in enumerate(names):
        kernel, inputs = get_kernel(name).instantiate(n, 100 + i)
        low = lower_sma(kernel, base=base)
        lowered.append((low, kernel, inputs))
        base = low.layout.end + 16
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2),
                       num_banks=4, size=base + 16)
    cluster = SMACluster(
        [(low.access_program, low.execute_program)
         for low, _, _ in lowered],
        SMAConfig(memory=mem, queues=QueueConfig(load_queue_depth=4),
                  faults=faults),
    )
    for low, kernel, inputs in lowered:
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name),
                               inputs[decl.name])
    if metrics:
        cluster.attach_metrics()
    return cluster


def _naive_steps(sim, count):
    """The reference: ``count`` single naive cycles, stopping at done."""
    stepped = 0
    while stepped < count and not sim.done():
        sim.step_cycle()
        stepped += 1
    return stepped


def _jump_spans(build):
    """(start, count) of every closed-form replay an uninterrupted
    event-horizon run of ``build()`` takes."""
    spans = []
    original = SMAMachine._replay_fast

    def spy(self, snapshot, count):
        spans.append((self.cycle, count))
        return original(self, snapshot, count)

    sim = build()
    SMAMachine._replay_fast = spy
    try:
        sim.run(scheduler="event-horizon")
    finally:
        SMAMachine._replay_fast = original
    return sorted(set(spans))


BUILDERS = {
    "machine": lambda: _build(metrics=True),
    "cluster": lambda: _build_cluster(metrics=True),
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_stop_inside_a_jump_matches_naive(kind):
    build = BUILDERS[kind]
    spans = [(s, c) for s, c in _jump_spans(build) if c >= 2]
    assert spans, "workload takes no multi-cycle jump"
    for start, count in spans[:: max(1, len(spans) // 6)]:
        cut = start + count // 2  # strictly inside the skipped span
        fast = build()
        assert fast.step_cycles(cut) == cut
        naive = build()
        assert _naive_steps(naive, cut) == cut
        assert fast.cycle == naive.cycle == cut
        assert fast.state_digest() == naive.state_digest()


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(sorted(BUILDERS)),
    cuts=st.lists(st.integers(1, 400), min_size=1, max_size=4),
)
def test_chained_step_cycles_match_naive(kind, cuts):
    build = BUILDERS[kind]
    fast = build()
    naive = build()
    for k in cuts:
        assert fast.step_cycles(k) == _naive_steps(naive, k)
        assert fast.state_digest() == naive.state_digest()


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(["daxpy", "hydro", "tridiag", "pic_gather"]),
    latency=st.sampled_from([8, 64]),
    cut=st.integers(1, 600),
)
def test_machine_random_k_matches_naive(name, latency, cut):
    fast = _build(name, latency=latency)
    naive = _build(name, latency=latency)
    assert fast.step_cycles(cut) == _naive_steps(naive, cut)
    assert fast.state_digest() == naive.state_digest()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("cut", (1, 37, 250))
def test_snapshot_after_step_cycles_resumes_exactly(kind, cut):
    build = BUILDERS[kind]
    straight = build()
    straight.run()

    source = build()
    source.step_cycles(cut)
    snap = json.loads(json.dumps(source.snapshot()))
    resumed = build()
    resumed.restore(snap)
    assert resumed.state_digest() == source.state_digest()
    resumed.run()
    assert resumed.state_digest() == straight.state_digest()


def test_cluster_step_cycles_stops_at_done():
    cluster = _build_cluster(n=8)
    stepped = cluster.step_cycles(10 ** 7)
    assert cluster.done() and 0 < stepped < 10 ** 7
    assert cluster.finish_cycles == [n.cycle for n in cluster.nodes]
    assert cluster.step_cycles(10) == 0


# ---------------------------------------------------------------------------
# fault injection still steps naively; speculation does not
# ---------------------------------------------------------------------------


def _forbid(monkeypatch, loop):
    """Make the shared ``loop`` (machines and clusters alike) raise."""
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{loop} loop used")

    monkeypatch.setitem(SMAMachine.SCHEDULERS, loop, refuse)


FAULTS = FaultConfig(reject_prob=0.2, seed=3)


@pytest.mark.parametrize("config", ("faults",))
def test_naive_only_machine_configs_step_naive(config, monkeypatch):
    naive = _build(faults=FAULTS)
    _naive_steps(naive, 150)
    fast = _build(faults=FAULTS)
    _forbid(monkeypatch, "event-horizon")
    assert fast.step_cycles(150) == 150
    assert fast.state_digest() == naive.state_digest()


@pytest.mark.parametrize("cut", (97, 250))
def test_speculative_step_cycles_stay_on_event_horizon(cut, monkeypatch):
    kwargs = {"name": "pic_gather", "variant": "addr",
              "speculation": SpeculationConfig(mode="perfect", max_depth=4)}
    naive = _build(**kwargs)
    _naive_steps(naive, cut)
    fast = _build(**kwargs)
    _forbid(monkeypatch, "naive")
    assert fast.step_cycles(cut) == cut
    # a snapshot is refused mid-speculation; compare what it covers
    assert fast.cycle == naive.cycle
    assert fast.ap.stats == naive.ap.stats
    assert fast.ep.stats == naive.ep.stats
    assert fast._spec.stats == naive._spec.stats
    assert [q.stats for q in fast._queue_list] == \
        [q.stats for q in naive._queue_list]


def test_faulty_cluster_steps_naive(monkeypatch):
    naive = _build_cluster(faults=FAULTS)
    _naive_steps(naive, 150)
    _forbid(monkeypatch, "event-horizon")
    fast = _build_cluster(faults=FAULTS)
    assert fast.step_cycles(150) == 150
    assert fast.state_digest() == naive.state_digest()


# ---------------------------------------------------------------------------
# deadlock diagnostics
# ---------------------------------------------------------------------------


def _deadlocking_programs():
    # the EP pops a load queue the AP never feeds
    return assemble("halt"), assemble("mov x1, lq0\nhalt")


def _error(fn):
    with pytest.raises(SimulationError) as info:
        fn()
    return str(info.value)


def test_deadlock_raises_same_error_from_step_cycles():
    def build():
        return SMAMachine(*_deadlocking_programs(), SMAConfig())

    want = _error(build().run)
    assert "deadlock" in want
    assert _error(lambda: build().step_cycles(10 ** 6)) == want


def test_cluster_deadlock_raises_same_error_from_step_cycles():
    def build():
        daxpy = lower_sma(get_kernel("daxpy").instantiate(8, 1)[0])
        return SMACluster(
            [(daxpy.access_program, daxpy.execute_program),
             _deadlocking_programs()],
            SMAConfig(),
        )

    want = _error(build().run)
    assert "cluster deadlock" in want
    assert _error(lambda: build().step_cycles(10 ** 6)) == want
