"""Experiment-number invariance guard.

The event-horizon scheduler, the codegen backend and every hot-loop
fast path are *pure performance* changes: no measured R-T/R-F
number may move.  ``golden_experiments.json`` pins every experiment
table — columns and all row values — at a reduced problem size;
this suite replays the same calls and compares exactly (a JSON
round-trip on the live table normalizes tuples to lists, nothing else).

If an intentional timing-model or experiment-definition change moves a
number, regenerate with
``PYTHONPATH=src python scripts/update_golden_experiments.py`` and
review the diff — every changed value should be explicable by the
change you made.
"""

import json
import pathlib

import pytest

from repro.harness.experiments import EXPERIMENTS

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_experiments.json").read_text()
)


def test_golden_covers_every_experiment():
    assert sorted(GOLDEN["tables"]) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("eid", sorted(GOLDEN["tables"]))
def test_experiment_numbers_pinned(eid):
    want = GOLDEN["tables"][eid]
    table = EXPERIMENTS[eid](**want["kwargs"])
    assert list(table.columns) == want["columns"]
    got_rows = json.loads(json.dumps([list(row) for row in table.rows]))
    assert got_rows == want["rows"], (
        f"{eid} measured numbers changed; if intentional, regenerate "
        "tests/golden_experiments.json via "
        "scripts/update_golden_experiments.py"
    )
