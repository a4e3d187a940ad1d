"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from spans import Patcher, Recorder, covered, self_times  # noqa: E402


def _expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_spans_nest_and_self_times_add_up():
    rec = Recorder(clock=_fake_clock())

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = rec.wrap(leaf, "leaf")
    wrapped_middle = rec.wrap(middle, "middle")
    with rec.span("root", request="r1") as root:
        wrapped_middle()
        wrapped_leaf()
    by_name: dict[str, list] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    [middle_span] = by_name["middle"]
    assert middle_span.parent == root.id
    leaves = by_name["leaf"]
    assert sorted(s.parent for s in leaves) == sorted(
        [middle_span.id, middle_span.id, root.id])
    for span in rec.spans:  # children lie inside their parent
        if span.parent is not None:
            parent = next(s for s in rec.spans if s.id == span.parent)
            assert parent.start <= span.start <= span.end <= parent.end
    assert all(s.request == "r1" for s in rec.spans)
    selfs = self_times(rec.spans)
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert selfs[middle_span.id] == pytest.approx(
        middle_span.duration - sum(
            s.duration for s in leaves if s.parent == middle_span.id))
    assert covered(rec.spans, root.start, root.end) == root.duration


def test_spans_of_threads_do_not_nest_into_each_other():
    rec = Recorder()
    barrier = threading.Barrier(2)

    def work(tag):
        with rec.span("request", request=tag):
            barrier.wait(timeout=10)
            with rec.span("child"):
                pass

    threads = [threading.Thread(target=work, args=(t,)) for t in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = {s.id: s for s in rec.spans if s.name == "request"}
    assert all(s.parent is None for s in roots.values())
    for child in (s for s in rec.spans if s.name == "child"):
        assert roots[child.parent].request == child.request
        assert roots[child.parent].thread == child.thread


def test_instrument_restores_every_wrapper():
    import repro.core as core
    import repro.harness.experiments as experiments
    import repro.harness.parallel as parallel
    from layers import Instrument

    before = (core.SMAMachine.run, core.SMAMachine.__init__,
              parallel.run_jobs, experiments.run_jobs,
              dict(experiments.EXPERIMENTS))
    inst = Instrument()
    inst.install("cold")
    assert core.SMAMachine.run is not before[0]
    assert experiments.run_jobs is not before[3]
    inst.restore()
    after = (core.SMAMachine.run, core.SMAMachine.__init__,
             parallel.run_jobs, experiments.run_jobs,
             dict(experiments.EXPERIMENTS))
    assert after == before

    patcher = Patcher()
    target = {"k": 1}
    patcher.patch_item(target, "k", 2)
    patcher.restore()
    assert target == {"k": 1}


def test_tampered_digest_is_caught(tmp_path):
    import workloads

    expected = _expected()
    expected["tables"]["R-F6"] = "0" * 64
    p = workloads.Pass("suite", 1, tmp_path, expected)
    workloads.suite(p, ids=["R-T4", "R-F6"])
    per_table = 1 + workloads.WARM_REPEATS["suite"]  # cold + warm phases
    assert p.attempted == 2 * per_table
    assert p.failed == per_table
    assert all("R-F6" in problem for problem in p.problems)


def test_injected_job_failure_counts_in_failed_frac(tmp_path):
    import workloads
    from repro.harness import FaultSpec

    p = workloads.Pass("suite", 1, tmp_path, _expected(),
                       inject=FaultSpec.parse("mem-error:0.3"))
    workloads.suite(p, ids=["R-T4"])
    assert p.attempted > 0
    assert p.failed == p.attempted  # every faulted table is wrong
    clean = workloads.Pass("suite", 1, tmp_path / "clean", _expected())
    workloads.suite(clean, ids=["R-T4"])
    assert clean.failed == 0 and clean.attempted == p.attempted


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    import re

    from layers import PER_LAYER
    from run import END_TO_END

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [row[:3] for row in PER_LAYER]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
