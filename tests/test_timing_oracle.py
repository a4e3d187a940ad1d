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

Next to the bounds sit conservation laws of the same model:

* every memory read fills a reserved load- or index-queue slot, and
  every memory write drains one store-data entry, so
  ``reads == sum of load and index queue pushes`` and
  ``writes == sum of store-data queue pops``;
* each accepted request lands in exactly one bank, so
  ``reads + writes == sum of per-bank accesses``;
* a finished run has drained every queue: ``pushes == pops``;
* Little's law: a load-queue slot is reserved at issue and filled
  ``latency`` cycles later, so the time-summed load-queue occupancy
  (``mean_outstanding_loads * cycles``) is at least
  ``latency * load-queue pushes``.

All of them are checked on random suite kernel x memory configuration
draws and on every SMA row of ``golden_cycles.json``.

A speculative run (:mod:`repro.core.speculation`) obeys laws of its own,
checked on the 18 speculative R-T7/R-F9 jobs and on random draws:

* each rollback stalls the AP on ``misspeculation`` for at most
  ``rollback_penalty`` cycles, so
  ``misspeculation <= rollbacks * rollback_penalty``;
* only a mispredicted frame rolls back (a rollback may undo several
  nested frames), so ``rollbacks <= predictions - correct_predictions``;
* only a correct prediction commits: ``commits <= correct_predictions``;
* a perfect predictor never rolls back;
* the SMA cycle lower bounds above still hold;
* the outputs are word-exact against the non-speculative run: wrong-path
  work changes timing, never values.

The uncached scalar baseline gets an exact oracle rather than bounds.
The machine is strictly serial — one instruction at a time, a load
blocking for the full latency, at most one access per cycle — so its
bank-conflict waits are a function of the address trace alone.
:func:`scalar_oracle` walks a functional run of the scalar program,
letting each access wait ``max(0, bank_free - t)``, and predicts
``cycles == instructions + loads * latency + bank_conflict_waits``
with no simulator in the loop: on every scalar row of
``golden_cycles.json`` and on random kernel x memory draws.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
)
from repro.core import SMAMachine
from repro.harness.experiments import (
    SPEC_ACCURACIES,
    SPEC_DEPTH,
    SPEC_DEPTHS,
    SPECULATION_REPS,
    _spec_sma,
)
from repro.harness.jobs import Job
from repro.harness.runner import _fit_memory, _load_inputs, run_on_scalar
from repro.isa import ALU_FUNCS, ALU_OPS, Op, Reg
from repro.isa.operands import NUM_REGS
from repro.kernels import get_kernel, kernel_names, lower_scalar, lower_sma

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_cycles.json").read_text()
)


def _run(name, n, seed, config, use_streams=True, lod_variant=None):
    kernel, inputs = get_kernel(name).instantiate(n, seed=seed)
    lowered = lower_sma(kernel, use_streams=use_streams,
                        lod_variant=lod_variant)
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


def conservation_laws(machine, result) -> dict[str, tuple[int, int]]:
    """Each conservation law as ``(lhs, rhs)``; every law but
    ``littles_law`` (``lhs >= rhs``) requires ``lhs == rhs``."""
    queues = machine.queues
    stats = machine.banked.stats
    load_pushes = sum(q.stats.pushes for q in queues.load)
    occupancy = round(result.mean_outstanding_loads * max(result.cycles, 1))
    return {
        "reads": (
            stats.reads,
            load_pushes + sum(q.stats.pushes for q in queues.index),
        ),
        "writes": (
            stats.writes, sum(q.stats.pops for q in queues.store_data)
        ),
        "bank_accesses": (
            stats.reads + stats.writes, sum(stats.per_bank_accesses)
        ),
        "littles_law": (
            occupancy, machine.config.memory.latency * load_pushes
        ),
        **{
            f"drained_{q.name}": (q.stats.pushes, q.stats.pops)
            for q in queues.all_queues()
        },
    }


def _assert_conserved(machine, result):
    laws = conservation_laws(machine, result)
    broken = {
        name: (lhs, rhs) for name, (lhs, rhs) in laws.items()
        if (lhs < rhs if name == "littles_law" else lhs != rhs)
    }
    assert not broken, f"conservation laws broken: {broken}"


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
    _assert_conserved(machine, result)


@pytest.mark.parametrize("column, use_streams",
                         [("sma", True), ("sma_nostream", False)])
@pytest.mark.parametrize("name", sorted(GOLDEN["cycles"]))
def test_golden_rows_respect_analytic_bounds(name, column, use_streams):
    machine, result = _run(
        name, GOLDEN["n"], GOLDEN["seed"], SMAConfig(), use_streams
    )
    assert result.cycles == GOLDEN["cycles"][name][column]
    _assert_bounded(machine, result)
    _assert_conserved(machine, result)


# ---------------------------------------------------------------------------
# speculation laws
# ---------------------------------------------------------------------------


def speculation_laws(config, result) -> dict[str, tuple[int, int]]:
    """Each speculation law as ``(lhs, rhs)`` requiring ``lhs <= rhs``."""
    spec = result.speculation
    laws = {
        "penalty": (
            result.ap.stall_cycles.get("misspeculation", 0),
            spec["rollbacks"] * config.rollback_penalty,
        ),
        "rollbacks": (
            spec["rollbacks"],
            spec["predictions"] - spec["correct_predictions"],
        ),
        "commits": (spec["commits"], spec["correct_predictions"]),
    }
    if config.mode == "perfect" or config.accuracy >= 1.0:
        laws["perfect_never_rolls_back"] = (spec["rollbacks"], 0)
    return laws


def _assert_speculation_laws(name, variant, n, seed, config):
    machine, result = _run(name, n, seed, config, lod_variant=variant)
    broken = {
        law: (lhs, rhs)
        for law, (lhs, rhs) in speculation_laws(
            config.speculation, result
        ).items()
        if lhs > rhs
    }
    assert not broken, f"speculation laws broken: {broken}"
    _assert_bounded(machine, result)
    plain, _ = _run(name, n, seed, replace(config, speculation=None),
                    lod_variant=variant)
    assert (machine.memory._words == plain.memory._words).all(), \
        "speculation changed the outputs"
    return result


#: the speculative jobs of R-T7 (accuracy sweep; 0.0 is the baseline)
#: and R-F9 (perfect predictor, depth sweep), as the experiments run them
SPEC_JOBS = [
    (name, variant, SpeculationConfig(accuracy=acc, max_depth=SPEC_DEPTH))
    for name, variant in SPECULATION_REPS
    for acc in SPEC_ACCURACIES if acc > 0.0
] + [
    (name, variant, SpeculationConfig(mode="perfect", max_depth=depth))
    for name, variant in SPECULATION_REPS
    for depth in SPEC_DEPTHS
]


@pytest.mark.parametrize(
    "name, variant, speculation", SPEC_JOBS,
    ids=[f"{n}-{v}-{s.mode}-{s.accuracy}-d{s.max_depth}"
         for n, v, s in SPEC_JOBS],
)
def test_experiment_speculative_jobs_obey_laws(name, variant, speculation):
    job = Job("sma", name, 256)
    result = _assert_speculation_laws(
        name, variant, job.n, job.seed, _spec_sma(speculation)
    )
    assert result.speculation["predictions"] > 0


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((("computed_gather", None),) + SPECULATION_REPS),
    st.sampled_from((0.25, 0.5, 0.75, 1.0)),   # accuracy
    st.integers(1, 8),                         # max_depth
    st.sampled_from((0, 1, 2, 5, 17)),         # rollback_penalty
    st.integers(0, 2**16),                     # predictor seed
    st.sampled_from((4, 16, 48)),              # latency
)
def test_speculation_laws_on_random_draws(
    case, accuracy, max_depth, penalty, seed, latency
):
    name, variant = case
    config = SMAConfig(
        memory=MemoryConfig(latency=latency,
                            bank_busy=max(1, latency // 2)),
        speculation=SpeculationConfig(
            accuracy=accuracy, max_depth=max_depth,
            rollback_penalty=penalty, seed=seed,
        ),
    )
    _assert_speculation_laws(name, variant, 24, 11, config)


# ---------------------------------------------------------------------------
# exact oracle for the uncached scalar baseline
# ---------------------------------------------------------------------------


def scalar_oracle(program, words, memory: MemoryConfig) -> dict[str, int]:
    """Time a functional run of the scalar ``program`` over the memory
    image ``words`` (mutated): each instruction issues in one cycle, an
    access first waits for its bank (``addr % num_banks``) to free, and
    a load then blocks for ``latency`` cycles."""
    regs = [0.0] * NUM_REGS
    bank_free = [0] * memory.num_banks
    t = pc = instructions = loads = waits = 0

    def read(operand):
        return regs[operand.index] if isinstance(operand, Reg) \
            else operand.value

    def access(base, offset) -> int:
        nonlocal t, waits
        addr = int(read(base) + read(offset))
        wait = max(0, bank_free[addr % memory.num_banks] - t)
        waits += wait
        t += wait
        bank_free[addr % memory.num_banks] = t + memory.bank_busy
        return addr

    while True:
        instr = program[pc]
        op, srcs = instr.op, instr.srcs
        pc += 1
        if op in ALU_OPS:
            regs[instr.dest.index] = ALU_FUNCS[op](*map(read, srcs))
        elif op is Op.LOAD:
            regs[instr.dest.index] = float(words[access(*srcs)])
            loads += 1
            t += memory.latency
        elif op is Op.STORE:
            words[access(srcs[1], srcs[2])] = read(srcs[0])
        elif op is Op.JMP or (
            op in (Op.BEQZ, Op.BNEZ)
            and (read(srcs[0]) == 0) == (op is Op.BEQZ)
        ):
            pc = instr.branch_target()
        elif op is Op.DECBNZ:
            regs[instr.dest.index] -= 1
            if regs[instr.dest.index] != 0:
                pc = instr.branch_target()
        t += 1
        instructions += 1
        if op is Op.HALT:
            return {"cycles": t, "instructions": instructions,
                    "loads": loads, "bank_conflict_waits": waits}


def _scalar_prediction(name, n, seed, memory=MemoryConfig()):
    kernel, inputs = get_kernel(name).instantiate(n, seed=seed)
    lowered = lower_scalar(kernel)
    words = np.zeros(_fit_memory(memory, lowered.layout).size)
    for base, values in lowered.program.data:
        words[base:base + len(values)] = values
    for decl in kernel.arrays:
        base = lowered.layout.base(decl.name)
        words[base:base + decl.size] = inputs[decl.name]
    predicted = scalar_oracle(lowered.program, words, memory)
    assert predicted["cycles"] == (
        predicted["instructions"] + predicted["loads"] * memory.latency
        + predicted["bank_conflict_waits"]
    )
    return kernel, inputs, predicted


def test_scalar_oracle_golden_daxpy_example():
    # 868 issue cycles + 192 blocking loads x latency 8, no conflicts
    _, _, predicted = _scalar_prediction("daxpy", GOLDEN["n"], GOLDEN["seed"])
    assert predicted == {"cycles": 2404, "instructions": 868,
                         "loads": 192, "bank_conflict_waits": 0}


@pytest.mark.parametrize("name", sorted(GOLDEN["cycles"]))
def test_scalar_oracle_predicts_golden_rows(name):
    _, _, predicted = _scalar_prediction(name, GOLDEN["n"], GOLDEN["seed"])
    assert predicted["cycles"] == GOLDEN["cycles"][name]["scalar"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(kernel_names()),
    st.sampled_from((16, 24)),            # problem size
    st.integers(1, 32),                   # latency
    st.integers(1, 12),                   # bank busy
    st.sampled_from((1, 2, 3, 8)),        # banks
    st.integers(0, 2**31),                # input seed
)
def test_scalar_oracle_predicts_random_configs(
    name, n, latency, bank_busy, banks, seed
):
    memory = MemoryConfig(latency=latency, bank_busy=bank_busy,
                          num_banks=banks)
    kernel, inputs, predicted = _scalar_prediction(name, n, seed, memory)
    result = run_on_scalar(
        kernel, inputs, ScalarConfig(memory=memory)
    ).result
    assert {key: getattr(result, key) for key in predicted} == predicted

