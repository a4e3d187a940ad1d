"""Analytic lower bounds on SMA run time that no engine computes.

Agreement between the naive and event-horizon schedulers says nothing
when both share a timing-model bug, and the golden tables would then
pin that bug.  These checks come straight from the DAE machine model
and the memory counters a run leaves behind
(``machine.banked.stats``):

* each processor retires at most one instruction per cycle, so the run
  lasts at least as many cycles as the AP and the EP each retire;
* the memory port accepts at most ``accepts_per_cycle`` requests per
  cycle, so ``reads + writes`` requests need at least
  ``ceil((reads + writes) / accepts_per_cycle)`` cycles;
* a bank accepts again only ``bank_busy`` cycles after its last accept,
  so a bank with ``a`` accesses needs ``(a - 1) * bank_busy + 1``
  cycles;
* a load accepted at cycle ``t >= 0`` completes at ``t + latency``, so
  a run with any read lasts at least ``latency + 1`` cycles.

They are checked on random suite kernel x memory configuration draws
and on every SMA row of ``golden_cycles.json``.
"""

import json
import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemoryConfig, SMAConfig
from repro.core import SMAMachine
from repro.harness.runner import _fit_memory, _load_inputs
from repro.kernels import get_kernel, kernel_names, lower_sma

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_cycles.json").read_text()
)


def _run(name, n, seed, config, use_streams=True):
    kernel, inputs = get_kernel(name).instantiate(n, seed=seed)
    lowered = lower_sma(kernel, use_streams=use_streams)
    cfg = replace(config, memory=_fit_memory(config.memory, lowered.layout))
    machine = SMAMachine(
        lowered.access_program, lowered.execute_program, cfg
    )
    _load_inputs(machine, lowered.layout, kernel, inputs)
    return machine, machine.run()


def lower_bounds(machine, result) -> dict[str, int]:
    """Each analytic bound on ``result.cycles``, by name."""
    mem = machine.config.memory
    stats = machine.banked.stats
    accesses = stats.reads + stats.writes
    busiest = max(stats.per_bank_accesses)
    return {
        "ap_instructions": result.ap.instructions,
        "ep_instructions": result.ep.instructions,
        "port": -(-accesses // mem.accepts_per_cycle),
        "bank_busy": (busiest - 1) * mem.bank_busy + 1 if busiest else 0,
        "latency": mem.latency + 1 if stats.reads else 0,
    }


def _assert_bounded(machine, result):
    violated = {
        name: bound
        for name, bound in lower_bounds(machine, result).items()
        if result.cycles < bound
    }
    assert not violated, f"{result.cycles} cycles below {violated}"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(kernel_names()),
    st.sampled_from((16, 24, 32)),        # problem size
    st.sampled_from((1, 2, 3, 4, 8, 16)),  # banks
    st.integers(1, 64),                   # latency
    st.integers(1, 16),                   # bank busy
    st.sampled_from((1, 2, 4)),           # accepts per cycle
    st.booleans(),                        # stream descriptors
    st.integers(0, 2**31),                # input seed
)
def test_cycles_respect_analytic_bounds_on_random_configs(
    name, n, banks, latency, bank_busy, accepts, use_streams, seed
):
    memory = MemoryConfig(
        num_banks=banks, latency=latency, bank_busy=bank_busy,
        accepts_per_cycle=accepts,
    )
    machine, result = _run(
        name, n, seed, SMAConfig(memory=memory), use_streams
    )
    _assert_bounded(machine, result)


@pytest.mark.parametrize("column, use_streams",
                         [("sma", True), ("sma_nostream", False)])
@pytest.mark.parametrize("name", sorted(GOLDEN["cycles"]))
def test_golden_rows_respect_analytic_bounds(name, column, use_streams):
    machine, result = _run(
        name, GOLDEN["n"], GOLDEN["seed"], SMAConfig(), use_streams
    )
    assert result.cycles == GOLDEN["cycles"][name][column]
    _assert_bounded(machine, result)
