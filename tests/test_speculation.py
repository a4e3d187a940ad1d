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

import numpy as np
import pytest

from repro.config import (
    MemoryConfig,
    QueueConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMAMachine
from repro.core.speculation import build_oracle
from repro.errors import CheckpointError
from repro.harness.experiments import SPECULATION_REPS
from repro.harness.runner import _fit_memory, _load_inputs, run_on_sma
from repro.kernels import get_kernel, lower_sma

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


def _build(name, variant, speculation, n=32, seed=7):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    lowered = lower_sma(kernel, lod_variant=variant)
    cfg = SMAConfig(
        memory=_fit_memory(MEM, lowered.layout),
        queues=QueueConfig(),
        speculation=speculation,
    )
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
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
    def test_run_downgrades_fast_schedulers(self):
        machine = _build(
            "computed_gather", None, SpeculationConfig(mode="perfect")
        )
        want = _build(
            "computed_gather", None, SpeculationConfig(mode="perfect")
        ).run(scheduler="naive")
        got = machine.run(scheduler="codegen")  # silently downgraded
        assert got.cycles == want.cycles
        assert got.speculation == want.speculation


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
