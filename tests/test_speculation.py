"""Speculative AP mode (repro.core.speculation): safety and recovery.

The contract under test (ARCHITECTURE §20):

* accuracy 0 / mode "never" never builds an engine — runs are
  bit-identical to a machine with no speculation config at all (cycles,
  every stall bucket, lod accounting, the final memory image);
* a perfect predictor eliminates (nearly) all ``lod_*`` stall cycles on
  LOD-collapsed lowerings while outputs stay word-exact;
* mispredictions roll back completely: wrong-path queue slots, wrong-path
  memory traffic and AP register state all disappear, deterministically;
* speculation state round-trips through checkpoint/restore, and a
  snapshot taken while predictions are unresolved is refused.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMACluster, SMAMachine
from repro.core.speculation import build_oracle
from repro.errors import CheckpointError
from repro.harness.experiments import SPECULATION_REPS
from repro.harness.runner import _fit_memory, _load_inputs, run_on_sma
from repro.kernels import get_kernel, lower_sma

from tests.test_event_horizon import _full_observables

#: (kernel, lod_variant): every speculation-relevant lowering shape
CASES = (
    ("computed_gather", None),   # native EP-computed subscripts
    ("pic_gather", "addr"),      # rewritten gather indices (lod_eaq)
    ("tridiag", "branch"),       # execute-resolved back-edge (lod_ebq)
)

MEM = MemoryConfig(latency=16, bank_busy=8)


def _spec_cfg(speculation):
    return SMAConfig(memory=MEM, speculation=speculation)


def _run(name, variant, speculation, n=48, seed=7):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    return kernel, run_on_sma(
        kernel, inputs, _spec_cfg(speculation), lowered=lowered
    )


def _digest(run):
    h = hashlib.sha256()
    for name in sorted(run.outputs):
        h.update(np.asarray(run.outputs[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def _build(name, variant, speculation, n=32, seed=7, latency=16,
           queues=QueueConfig(), metrics=False):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    cfg = SMAConfig(
        memory=_fit_memory(mem, lowered.layout),
        queues=queues,
        speculation=speculation,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    if metrics:
        machine.attach_metrics()
    return machine


class TestDisabledIsBitIdentical:
    @pytest.mark.parametrize("name,variant", CASES)
    @pytest.mark.parametrize(
        "off",
        [None,
         SpeculationConfig(accuracy=0.0),
         SpeculationConfig(mode="never")],
        ids=["no-config", "accuracy-0", "mode-never"],
    )
    def test_disabled_forms_match_plain(self, name, variant, off):
        _, plain = _run(name, variant, None)
        _, disabled = _run(name, variant, off)
        assert disabled.result.cycles == plain.result.cycles
        assert dict(disabled.result.ap.stall_cycles) == \
            dict(plain.result.ap.stall_cycles)
        assert disabled.result.lod_events == plain.result.lod_events
        assert disabled.result.speculation is None
        assert _digest(disabled) == _digest(plain)


class TestRecovery:
    @pytest.mark.parametrize("name,variant", CASES)
    def test_perfect_predictor_eliminates_lod(self, name, variant):
        _, plain = _run(name, variant, None)
        _, spec = _run(
            name, variant,
            SpeculationConfig(mode="perfect", max_depth=16),
        )
        assert plain.result.lod_stall_cycles > 0
        assert spec.result.lod_stall_cycles <= \
            0.1 * plain.result.lod_stall_cycles
        assert spec.result.cycles < plain.result.cycles
        assert _digest(spec) == _digest(plain)
        stats = spec.result.speculation
        assert stats["rollbacks"] == 0
        assert stats["predictions"] == stats["correct_predictions"]

    @pytest.mark.parametrize("name,variant", CASES)
    def test_cycles_monotone_in_accuracy(self, name, variant):
        plain_digest = None
        cycles = []
        for accuracy in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, run = _run(
                name, variant,
                SpeculationConfig(accuracy=accuracy, max_depth=16),
            )
            if plain_digest is None:
                plain_digest = _digest(run)
            # wrong-path execution never changes values
            assert _digest(run) == plain_digest
            cycles.append(run.result.cycles)
        assert cycles == sorted(cycles, reverse=True)

    def test_rollbacks_actually_exercised(self):
        _, run = _run(
            "pic_gather", "addr",
            SpeculationConfig(accuracy=0.5, max_depth=16),
        )
        stats = run.result.speculation
        assert stats["rollbacks"] > 0
        assert stats["squashed_completions"] > 0
        assert run.result.ap.stall_cycles.get("misspeculation", 0) > 0

    def test_rollback_deterministic_across_reruns(self):
        spec = SpeculationConfig(accuracy=0.5, max_depth=8)
        _, first = _run("pic_gather", "addr", spec)
        _, again = _run("pic_gather", "addr", spec)
        assert again.result.cycles == first.result.cycles
        assert dict(again.result.ap.stall_cycles) == \
            dict(first.result.ap.stall_cycles)
        assert again.result.speculation == first.result.speculation
        assert _digest(again) == _digest(first)

    def test_predictor_seed_changes_coin_sequence(self):
        a = _run("pic_gather", "addr",
                 SpeculationConfig(accuracy=0.5, seed=0))[1]
        b = _run("pic_gather", "addr",
                 SpeculationConfig(accuracy=0.5, seed=99))[1]
        # different coin sequences, same (correct) outputs
        assert a.result.speculation != b.result.speculation
        assert _digest(a) == _digest(b)


class TestScheduling:
    def test_run_keeps_event_horizon(self, monkeypatch):
        """A speculative run stays on the event-horizon loop it asks for
        (the naive loop is never entered) and matches naive ticking."""
        want = _build(
            "computed_gather", None, SpeculationConfig(mode="perfect")
        ).run(scheduler="naive")
        machine = _build(
            "computed_gather", None, SpeculationConfig(mode="perfect")
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("speculative run fell back to naive")

        monkeypatch.setitem(SMAMachine.SCHEDULERS, "naive", refuse)
        got = machine.run(scheduler="event-horizon")
        assert got.to_dict() == want.to_dict()

    def test_rf9_depth1_row_replays_refusals(self, monkeypatch):
        """The R-F9 depth-1 row is refusal-bound: the AP asks for a
        second prediction every cycle its one frame is open, and those
        cycles are jointly stalled.  With the naive loop forbidden, the
        row must still match the golden table, with at least one
        replayed span in which the refusal count grew."""
        from repro.harness.experiments import fig9_spec_depth

        def refuse(*_args, **_kwargs):
            raise AssertionError("speculative run fell back to naive")

        refusal_spans = []
        replay = SMAMachine._replay_fast

        def spy(machine, snapshot, count):
            before = machine._spec and machine._spec.stats.depth_refusals
            replay(machine, snapshot, count)
            if machine._spec and machine._spec.stats.depth_refusals > before:
                refusal_spans.append(count)

        monkeypatch.setitem(SMAMachine.SCHEDULERS, "naive", refuse)
        monkeypatch.setattr(SMAMachine, "_replay_fast", spy)
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden_experiments.json")
            .read_text()
        )["tables"]["R-F9"]
        table = fig9_spec_depth(
            n=golden["kwargs"]["n"], reps=SPECULATION_REPS[:1], depths=(1,)
        )
        row = json.loads(json.dumps(list(table.rows[0])))
        assert row == golden["rows"][0]
        assert row[golden["columns"].index("depth_refusals")] > 0
        assert sum(refusal_spans) > 0


# ---------------------------------------------------------------------------
# naive vs event-horizon under speculation
# ---------------------------------------------------------------------------
#
# Both loops call the same unit steps, so these draws check what only the
# event-horizon loop does: jumps over jointly stalled spans, their
# closed-form replay (refusal counters included), the rollback-penalty
# bound on the horizon, and the template confirm that a cycle which
# committed or rolled back a prediction is not idle.  Large penalties and
# shallow depths put rollbacks and refusal stalls next to jumped spans.

SPEC_DRAWS = dict(
    case=st.sampled_from(CASES),
    accuracy=st.sampled_from((0.3, 0.6, 0.9, 1.0)),
    max_depth=st.integers(1, 4),
    penalty=st.sampled_from((0, 1, 3, 24)),
    latency=st.sampled_from((4, 16, 48)),
    seed=st.integers(0, 2**16),
)


def _spec_config(accuracy, max_depth, penalty, seed):
    return SpeculationConfig(accuracy=accuracy, max_depth=max_depth,
                             rollback_penalty=penalty, seed=seed)


def _loop_observables(machine, result):
    obs = _full_observables(machine, result)
    obs["speculation"] = result.speculation
    return obs


def _spec_machine(case, speculation, latency):
    return _build(
        *case, speculation, n=20, seed=3, latency=latency,
        queues=QueueConfig(load_queue_depth=4, index_queue_depth=4),
        metrics=True,
    )


def _spec_cluster(cases, speculation, latency, n=16):
    base = 16
    staged = []
    for name, variant in cases:
        kernel, inputs = get_kernel(name).instantiate(n, 3)
        low = lower_sma(kernel, base=base, lod_variant=variant)
        staged.append((low, kernel, inputs))
        base = low.layout.end + 16
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2),
                       num_banks=4, size=base + 16)
    cluster = SMACluster(
        [(low.access_program, low.execute_program) for low, _, _ in staged],
        SMAConfig(memory=mem, queues=QueueConfig(load_queue_depth=4),
                  speculation=speculation),
    )
    for low, kernel, inputs in staged:
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name), inputs[decl.name])
    cluster.attach_metrics()
    return cluster


@settings(max_examples=25, deadline=None)
@given(**SPEC_DRAWS)
def test_machine_loops_agree_under_speculation(
    case, accuracy, max_depth, penalty, latency, seed
):
    spec = _spec_config(accuracy, max_depth, penalty, seed)
    observed = []
    for scheduler in SMAMachine.SCHEDULERS:
        machine = _spec_machine(case, spec, latency)
        result = machine.run(scheduler=scheduler)
        observed.append(_loop_observables(machine, result))
    naive, fast = observed
    assert fast == naive


@settings(max_examples=10, deadline=None)
@given(other=st.sampled_from(CASES), **SPEC_DRAWS)
def test_cluster_loops_agree_under_speculation(
    other, case, accuracy, max_depth, penalty, latency, seed
):
    spec = _spec_config(accuracy, max_depth, penalty, seed)
    observed = []
    for scheduler in SMAMachine.SCHEDULERS:
        cluster = _spec_cluster((case, other), spec, latency)
        result = cluster.run(scheduler=scheduler)
        observed.append({
            "cycles": result.cycles,
            "finish": result.finish_cycles,
            "nodes": [
                _loop_observables(node, node_result)
                for node, node_result in zip(cluster.nodes, result.nodes)
            ],
            "contention": result.contention(),
        })
    naive, fast = observed
    assert fast == naive


def test_jumps_end_at_the_rollback_penalty(monkeypatch):
    """A long penalty with both processors stalled is jumped, and the
    jump stops exactly where the AP may issue again — the penalty bound
    on the horizon is live, not just sound."""
    ends = []
    replay = SMAMachine._replay_fast

    def spy(machine, snapshot, count):
        replay(machine, snapshot, count)
        if machine.cycle == machine._spec.penalty_until:
            ends.append(count)

    monkeypatch.setattr(SMAMachine, "_replay_fast", spy)
    spec = _spec_config(0.5, 2, 24, 1)
    machine = _spec_machine(("pic_gather", "addr"), spec, latency=4)
    got = machine.run()
    monkeypatch.undo()
    want = _spec_machine(("pic_gather", "addr"), spec, latency=4)
    assert _loop_observables(machine, got) == \
        _loop_observables(want, want.run(scheduler="naive"))
    assert got.speculation["rollbacks"] > 0
    assert ends, "no jump ended at a rollback penalty"


class TestOracle:
    @pytest.mark.parametrize("name,variant", SPECULATION_REPS)
    def test_taps_identical_under_naive_and_event_horizon(
        self, name, variant, monkeypatch
    ):
        """The pre-run is pinned to event-horizon; its EAQ/EBQ tap
        sequences must equal those of a naive pre-run."""
        machine = _build(name, variant, SpeculationConfig(mode="perfect"),
                         n=64)
        pinned = build_oracle(machine)

        original = SMAMachine.run
        seen = []

        def naive_run(self, **kwargs):
            seen.append(kwargs.get("scheduler"))
            return original(self, **{**kwargs, "scheduler": "naive"})

        monkeypatch.setattr(SMAMachine, "run", naive_run)
        naive = build_oracle(machine)
        assert seen == ["event-horizon"]
        assert pinned == naive
        key = "eaq" if variant == "addr" else "ebq"
        assert len(pinned[key]) > 0


class TestCheckpoint:
    def test_snapshot_refused_mid_speculation(self):
        machine = _build(
            "computed_gather", None,
            SpeculationConfig(mode="perfect", max_depth=16),
        )
        for _ in range(200_000):
            machine.step_cycle()
            if machine._spec is not None and machine._spec.in_flight():
                break
        else:
            raise AssertionError("speculation never went in flight")
        with pytest.raises(CheckpointError, match="mid-speculation"):
            machine.snapshot()

    def test_roundtrip_between_speculations(self):
        spec = SpeculationConfig(accuracy=0.5, max_depth=4)
        straight = _build("computed_gather", None, spec)
        want = straight.run()

        source = _build("computed_gather", None, spec)
        cut = 0
        for _ in range(200_000):
            source.step_cycle()
            cut += 1
            if (cut > 50 and source._spec is not None
                    and source._spec.idle() and not source.done()):
                break
        snap = json.loads(json.dumps(source.snapshot()))

        resumed = _build("computed_gather", None, spec)
        resumed.restore(snap)
        got = resumed.run()
        assert got.cycles == want.cycles
        assert dict(got.ap.stall_cycles) == dict(want.ap.stall_cycles)
        assert got.speculation == want.speculation
        assert np.array_equal(resumed.memory._words,
                              straight.memory._words)

    def test_plain_snapshot_has_no_speculation_key(self):
        machine = _build("computed_gather", None, None)
        machine.step_cycles(20)
        assert "speculation" not in machine.snapshot()


class TestConfig:
    def test_enabled_property(self):
        assert not SpeculationConfig(accuracy=0.0).enabled
        assert not SpeculationConfig(mode="never").enabled
        assert SpeculationConfig(accuracy=0.5).enabled
        assert SpeculationConfig(mode="perfect", accuracy=0.0).enabled

    def test_lower_sma_rejects_unknown_variant(self):
        from repro.errors import LoweringError

        kernel, _ = get_kernel("daxpy").instantiate(16, 0)
        with pytest.raises(LoweringError, match="lod_variant"):
            lower_sma(kernel, lod_variant="sideways")

    def test_job_rejects_unknown_variant(self):
        from repro.harness.jobs import Job

        with pytest.raises(ValueError, match="lod_variant"):
            Job("sma", "daxpy", 16, lod_variant="sideways")
