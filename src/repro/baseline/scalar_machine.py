"""Baseline: a conventional in-order scalar von Neumann machine.

This is the comparator the SMA is evaluated against.  It executes a single
unified instruction stream; every operand reference it makes to memory is
an individual, **blocking** ``load`` — the processor idles for the full
memory latency (plus any bank-conflict wait) before the next instruction
issues.  ``store`` is fire-and-forget: it occupies the bank but does not
block the processor beyond its issue cycle.

Two memory configurations:

* **uncached** — every access goes to the same banked memory model the SMA
  uses, so latency and bank parameters are held identical across machines;
* **cached** — accesses go through a set-associative write-back data cache
  (:class:`repro.memory.DataCache`); the banked model is bypassed because
  the cache's miss penalty already embodies the memory latency.

All timing assumptions are deliberately *charitable* to the baseline
(single-cycle ALU, free instruction fetch, no write stalls), so measured
SMA speedups are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import ScalarConfig
from ..errors import CycleBudgetExceeded, SimulationError
from ..isa import ALU_FUNCS, ALU_OPS, Imm, Op, Program, Reg, SCALAR_OPS
from ..isa.operands import NUM_REGS
from ..memory import BankedMemory, DataCache, MainMemory
from ..memory.main_memory import as_address


@dataclass
class ScalarResult:
    """Statistics from one scalar-baseline run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    #: cycles the processor spent waiting on memory (latency + conflicts).
    memory_stall_cycles: int
    bank_conflict_waits: int
    #: end-of-run cycles writing back dirty cache lines (0 uncached).
    drain_cycles: int = 0
    cache: Any = None  # CacheStats when a cache is configured

    def stall_breakdown(self) -> dict[str, int]:
        """Partition of total cycles (see repro.metrics.attribution).

        The machine is event-jumped, so the buckets are derived exactly
        from its counters: every cycle is either an issue cycle
        (``compute``), a blocking memory wait net of bank-conflict retry
        time (``memory_wait``), a bank-conflict wait (``bank_busy``), or
        the end-of-run dirty-line write-back (``store_drain``); they
        always sum to ``cycles``.
        """
        return {
            "compute": self.instructions,
            "memory_wait": self.memory_stall_cycles
            - self.bank_conflict_waits,
            "bank_busy": self.bank_conflict_waits,
            "store_drain": self.drain_cycles,
        }

    def to_dict(self) -> dict:
        """JSON-serializable flat summary (for harness consumers)."""
        out = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "memory_stall_cycles": self.memory_stall_cycles,
            "bank_conflict_waits": self.bank_conflict_waits,
            "drain_cycles": self.drain_cycles,
        }
        if self.cache is not None:
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_hit_rate"] = self.cache.hit_rate
        return out

    def summary(self) -> str:
        lines = [
            f"cycles               {self.cycles}",
            f"instructions         {self.instructions}",
            f"loads/stores         {self.loads}/{self.stores}",
            f"memory stall cycles  {self.memory_stall_cycles}",
        ]
        if self.cache is not None:
            lines.append(
                f"cache hit rate       {self.cache.hit_rate:.3f} "
                f"({self.cache.hits}/{self.cache.accesses})"
            )
        return "\n".join(lines)


class ScalarMachine:
    """In-order, single-issue interpreter of a unified program."""

    def __init__(self, program: Program, config: ScalarConfig | None = None):
        self.config = config or ScalarConfig()
        self.program = program
        self.memory = MainMemory(self.config.memory.size)
        self.cache: DataCache | None = None
        self.banked: BankedMemory | None = None
        if self.config.cache is not None:
            if self.config.prefetch is not None:
                from ..memory.prefetch import PrefetchingCache

                self.cache = PrefetchingCache(
                    self.config.cache,
                    self.config.memory.latency,
                    self.config.prefetch,
                )
            else:
                self.cache = DataCache(
                    self.config.cache, self.config.memory.latency
                )
        else:
            self.banked = BankedMemory(self.memory, self.config.memory)
        self.registers: list[float] = [0.0] * NUM_REGS
        self.pc = 0
        self.cycle = 0
        self.halted = False
        self._stats = {
            "instructions": 0,
            "loads": 0,
            "stores": 0,
            "memory_stall_cycles": 0,
            "conflict_waits": 0,
        }
        for base, values in program.data:
            self.memory.load_array(base, values)
        for instr in program:
            if instr.op not in SCALAR_OPS:
                raise SimulationError(
                    f"{instr.op.value} is not a valid scalar-machine op"
                )

    # -- workload I/O ------------------------------------------------------

    def load_array(self, base: int, values) -> None:
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        return self.memory.dump_array(base, count)

    # -- observability -----------------------------------------------------

    def attach_metrics(self, registry=None):
        """Register this machine's counters (and its cache's / banked
        memory's) into a metrics registry; returns the registry.

        The scalar machine jumps the clock instead of ticking, so there
        is no per-cycle hook — the registry getters plus
        :meth:`ScalarResult.stall_breakdown` are the whole layer.
        """
        from ..metrics import MetricsRegistry

        reg = registry if registry is not None else MetricsRegistry()
        for key in self._stats:
            reg.register_counter(
                f"scalar.{key}", lambda s=self._stats, k=key: s[k]
            )
        reg.register_counter("scalar.cycles", lambda m=self: m.cycle)
        if self.cache is not None:
            self.cache.register_metrics(reg, "cache")
        if self.banked is not None:
            self.banked.register_metrics(reg, "memory")
        self._metrics_registry = reg
        return reg

    # -- memory helpers ----------------------------------------------------

    def _wait_for_bank(self, addr: int) -> None:
        assert self.banked is not None
        banked = self.banked
        waited = 0
        while not banked.can_accept(addr, self.cycle):
            # jump straight to the cycle the bank frees up; a same-cycle
            # port reject clears after a single cycle.  Equivalent to
            # ticking one cycle at a time (the processor is blocked, so
            # no other state advances while it waits).
            free_at = banked.bank_free_time(addr)
            target = free_at if free_at > self.cycle else self.cycle + 1
            waited += target - self.cycle
            self.cycle = target
        if waited:
            self._stats["conflict_waits"] += waited
            self._stats["memory_stall_cycles"] += waited

    def _do_load(self, addr) -> float:
        a = as_address(addr)
        self._stats["loads"] += 1
        if self.cache is not None:
            cost = self.cache.access(a, is_write=False, now=self.cycle, pc=self.pc)
            # the issue cycle itself is charged by the main loop
            self.cycle += cost - 1
            self._stats["memory_stall_cycles"] += cost - 1
            return self.memory.read(a)
        self._wait_for_bank(a)
        assert self.banked is not None
        accepted = self.banked.try_issue(a, self.cycle)
        assert accepted
        latency = self.config.memory.latency
        self.cycle += latency  # blocking load: wait for the data
        self._stats["memory_stall_cycles"] += latency
        return self.memory.read(a)

    def _do_store(self, addr, value) -> None:
        a = as_address(addr)
        self._stats["stores"] += 1
        if self.cache is not None:
            cost = self.cache.access(a, is_write=True, now=self.cycle, pc=self.pc)
            self.cycle += cost - 1
            self._stats["memory_stall_cycles"] += cost - 1
            self.memory.write(a, value)
            return
        self._wait_for_bank(a)
        assert self.banked is not None
        accepted = self.banked.try_issue(a, self.cycle, is_write=True, value=value)
        assert accepted

    # -- execution ---------------------------------------------------------

    def _read(self, operand) -> float:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise SimulationError(
            f"scalar machine cannot read operand {operand}"
        )

    def run(self, max_cycles: int = 100_000_000) -> ScalarResult:
        """Run to HALT; returns the collected statistics."""
        while not self.halted:
            if self.cycle >= max_cycles:
                raise CycleBudgetExceeded(f"exceeded cycle budget {max_cycles}")
            if self.pc >= len(self.program):
                raise SimulationError(
                    f"ran off the end of program {self.program.name!r}"
                )
            instr = self.program[self.pc]
            op = instr.op
            next_pc = self.pc + 1
            if op in ALU_OPS:
                args = [self._read(s) for s in instr.srcs]
                assert isinstance(instr.dest, Reg)
                self.registers[instr.dest.index] = ALU_FUNCS[op](*args)
            elif op is Op.LOAD:
                addr = self._read(instr.srcs[0]) + self._read(instr.srcs[1])
                assert isinstance(instr.dest, Reg)
                self.registers[instr.dest.index] = self._do_load(addr)
            elif op is Op.STORE:
                value = self._read(instr.srcs[0])
                addr = self._read(instr.srcs[1]) + self._read(instr.srcs[2])
                self._do_store(addr, value)
            elif op is Op.JMP:
                next_pc = instr.branch_target()
            elif op in (Op.BEQZ, Op.BNEZ):
                value = self._read(instr.srcs[0])
                if (value == 0) == (op is Op.BEQZ):
                    next_pc = instr.branch_target()
            elif op is Op.DECBNZ:
                assert isinstance(instr.dest, Reg)
                self.registers[instr.dest.index] -= 1
                if self.registers[instr.dest.index] != 0:
                    next_pc = instr.branch_target()
            elif op is Op.HALT:
                self.halted = True
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover - exhaustive over SCALAR_OPS
                raise SimulationError(f"unhandled scalar op {op}")
            self.cycle += 1  # issue cycle of this instruction
            self._stats["instructions"] += 1
            self.pc = next_pc
        drained = 0
        if self.cache is not None:
            drained = self.cache.flush_cycles()
            self.cycle += drained
        return ScalarResult(
            cycles=self.cycle,
            instructions=self._stats["instructions"],
            loads=self._stats["loads"],
            stores=self._stats["stores"],
            memory_stall_cycles=self._stats["memory_stall_cycles"],
            bank_conflict_waits=self._stats["conflict_waits"],
            drain_cycles=drained,
            cache=self.cache.stats if self.cache is not None else None,
        )
