"""Checkpoint/restore (repro.core.checkpoint): snapshot fidelity.

The central property: a run interrupted at an arbitrary cycle,
snapshotted, restored into a *freshly built* machine, and run to
completion is indistinguishable — cycle count, memory image, stall
attribution, state digest — from the same run left uninterrupted.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.config import MemoryConfig, QueueConfig, SMAConfig
from repro.core import SMAMachine, snapshot_digest
from repro.core.cluster import SMACluster
from repro.errors import CheckpointError
from repro.harness.runner import _fit_memory, _load_inputs
from repro.kernels import get_kernel, lower_sma


def _build(kernel_name="daxpy", n=48, latency=8, seed=12345,
           metrics=False):
    spec = get_kernel(kernel_name)
    kernel, inputs = spec.instantiate(n, seed)
    lowered = lower_sma(kernel)
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2))
    cfg = SMAConfig(memory=_fit_memory(mem, lowered.layout),
                    queues=QueueConfig())
    machine = SMAMachine(lowered.access_program, lowered.execute_program,
                         cfg)
    _load_inputs(machine, lowered.layout, kernel, inputs)
    if metrics:
        machine.attach_metrics()
    return machine


def _build_cluster(n=24, latency=8):
    base = 16
    lowered = []
    for i, name in enumerate(("daxpy", "hydro")):
        kernel, inputs = get_kernel(name).instantiate(n, 100 + i)
        low = lower_sma(kernel, base=base)
        lowered.append((low, kernel, inputs))
        base = low.layout.end + 16
    mem = MemoryConfig(latency=latency, bank_busy=max(1, latency // 2),
                       size=base + 16)
    cluster = SMACluster(
        [(low.access_program, low.execute_program)
         for low, _, _ in lowered],
        SMAConfig(memory=mem, queues=QueueConfig()),
    )
    for low, kernel, inputs in lowered:
        for decl in kernel.arrays:
            cluster.load_array(low.layout.base(decl.name),
                               inputs[decl.name])
    return cluster


class TestDigest:
    def test_identical_machines_same_digest(self):
        assert _build().state_digest() == _build().state_digest()

    def test_digest_changes_as_state_advances(self):
        machine = _build()
        before = machine.state_digest()
        machine.step_cycles(5)
        assert machine.state_digest() != before

    def test_digest_is_over_canonical_snapshot(self):
        machine = _build()
        assert machine.state_digest() == snapshot_digest(machine.snapshot())


class TestMachineRoundTrip:
    @settings(max_examples=12, deadline=None)
    @given(
        kernel=st.sampled_from(["daxpy", "tridiag", "pic_gather"]),
        scheduler=st.sampled_from(list(SMAMachine.SCHEDULERS)),
        cut=st.integers(min_value=1, max_value=90),
        metrics=st.booleans(),
    )
    def test_resume_matches_uninterrupted(self, kernel, scheduler, cut,
                                          metrics):
        straight = _build(kernel, n=32, metrics=metrics)
        want = straight.run(scheduler=scheduler)

        source = _build(kernel, n=32, metrics=metrics)
        source.step_cycles(cut)
        snap = source.snapshot()
        # the snapshot itself must survive a JSON round-trip unchanged
        snap = json.loads(json.dumps(snap))

        resumed = _build(kernel, n=32, metrics=metrics)
        resumed.restore(snap)
        assert resumed.state_digest() == source.state_digest()
        got = resumed.run(scheduler=scheduler)

        assert got.cycles == want.cycles
        assert np.array_equal(resumed.memory._words,
                              straight.memory._words)
        assert got.stall_breakdown == want.stall_breakdown
        assert resumed.state_digest() == straight.state_digest()

    def test_snapshot_does_not_perturb_the_run(self):
        plain = _build()
        observed = _build()
        observed.step_cycles(17)
        observed.snapshot()
        observed.step_cycles(17)
        observed.snapshot()
        want = plain.run()
        got = observed.run()
        assert got.cycles == want.cycles
        assert plain.state_digest() == observed.state_digest()

    def test_step_cycles_stops_at_done(self):
        machine = _build(n=16)
        stepped = machine.step_cycles(10 ** 9)
        assert machine.done() and stepped < 10 ** 9
        assert machine.step_cycles(10) == 0


class TestRestoreRejects:
    def test_mismatched_program(self):
        snap = _build("daxpy").snapshot()
        with pytest.raises(CheckpointError, match="fingerprint"):
            _build("hydro").restore(snap)

    def test_mismatched_config(self):
        snap = _build(latency=8).snapshot()
        with pytest.raises(CheckpointError, match="fingerprint"):
            _build(latency=16).restore(snap)

    def test_bad_version(self):
        machine = _build()
        snap = machine.snapshot()
        snap["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            machine.restore(snap)

    def test_wrong_kind(self):
        machine = _build()
        snap = machine.snapshot()
        with pytest.raises(CheckpointError, match="cluster snapshot"):
            _build_cluster().restore(snap)


class TestClusterRoundTrip:
    def test_resume_matches_uninterrupted(self):
        straight = _build_cluster()
        want = straight.run()

        source = _build_cluster()
        source.step_cycles(40)
        snap = json.loads(json.dumps(source.snapshot()))

        resumed = _build_cluster()
        resumed.restore(snap)
        assert resumed.state_digest() == source.state_digest()
        got = resumed.run()

        assert got.cycles == want.cycles
        assert got.finish_cycles == want.finish_cycles
        assert np.array_equal(resumed.memory._words,
                              straight.memory._words)
        assert resumed.state_digest() == straight.state_digest()


class TestCheckpointCLI:
    def test_save_then_load_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ck.json"
        assert main(["checkpoint", "save", "daxpy", "--n", "32",
                     "--cycles", "30", "--out", str(out)]) == 0
        saved = capsys.readouterr().out
        assert "digest" in saved
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "daxpy"
        assert payload["digest"] == snapshot_digest(payload["snapshot"])

        assert main(["checkpoint", "load", str(out)]) == 0
        loaded = capsys.readouterr().out
        assert "(verified)" in loaded
        assert "ran to completion" in loaded

    def test_load_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["checkpoint", "load", str(bad)]) == 2

        good = tmp_path / "ck.json"
        assert main(["checkpoint", "save", "daxpy", "--n", "32",
                     "--cycles", "10", "--out", str(good)]) == 0
        payload = json.loads(good.read_text())

        def far_word(p):
            p["snapshot"]["memory"]["nonzero"].append([10**9, 1.0])

        for mutate in (
            lambda p: p.update(snapshot=None),
            lambda p: p.update(snapshot=[1, 2]),
            lambda p: p.update(n=-5),
            far_word,
        ):
            tampered = json.loads(json.dumps(payload))
            mutate(tampered)
            bad.write_text(json.dumps(tampered))
            capsys.readouterr()
            assert main(["checkpoint", "load", str(bad)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1, err
            assert "Traceback" not in err

    def test_load_rejects_wrong_machine(self, tmp_path, capsys):
        out = tmp_path / "ck.json"
        assert main(["checkpoint", "save", "daxpy", "--n", "32",
                     "--cycles", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["kernel"] = "hydro"  # snapshot no longer matches
        out.write_text(json.dumps(payload))
        assert main(["checkpoint", "load", str(out)]) == 2
        assert "rejected" in capsys.readouterr().err
