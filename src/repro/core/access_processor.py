"""The Access Processor (AP).

The AP executes the *access program*: integer/address arithmetic, loop
control for memory traversal, and the structured memory instructions.  It
is a single-issue, in-order machine — one instruction per cycle unless a
resource stalls it, in which case the same instruction retries next cycle
and the stall cycle is attributed to a cause:

=================  =========================================================
``stream_slots``   ``streamld``/``streamst``/``gather``/``scatter`` found no
                   free descriptor slot in the stream engine
``queue_full``     ``ldq`` could not reserve its destination queue slot
``memory_busy``    ``ldq`` was rejected by the banked memory (conflict/port)
``saq_full``       ``staddr`` found the store-address queue full
``lod_eaq``        waiting on a value the EP must compute (data-dependent
                   address) — a **loss-of-decoupling** event
``lod_ebq``        waiting on an EP-resolved branch outcome — also LOD
``iq_empty``       ``fromq`` on an index queue whose head has not returned
=================  =========================================================

The distinction between the two ``lod_*`` causes and the rest is what the
loss-of-decoupling experiment (R-T4) measures: ordinary stalls mean the
memory or queues are saturated (decoupling is *working*); LOD stalls mean
the AP has been dragged back to the EP's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..errors import MemoryError_, SimulationError
from ..isa import ACCESS_OPS, ALU_FUNCS, ALU_OPS, Imm, Op, Program, Queue, Reg
from ..isa.operands import NUM_REGS, QueueSpace
from ..memory.banks import BankedMemory
from ..memory.main_memory import as_address
from ..queues import QueueFile
from .descriptors import StreamDescriptor, StreamEngine, StreamKind


@dataclass
class APStats:
    instructions: int = 0
    stall_cycles: dict[str, int] = field(default_factory=dict)
    #: number of distinct LOD episodes (entries into a lod_* stall).
    lod_events: int = 0

    def total_stalls(self) -> int:
        return sum(self.stall_cycles.values())

    def lod_stall_cycles(self) -> int:
        return sum(
            v for k, v in self.stall_cycles.items() if k.startswith("lod_")
        )


# decoded-instruction kinds (first element of each decode tuple); plain
# ints so the step dispatches on integer compares, not enum hashing.
# _A_SPEC wraps a decoded entry in a speculation-aware handler:
# ``(_A_SPEC, handler, entry)`` (see AccessProcessor.attach_speculation)
(_A_ALU, _A_LDQ, _A_DECBNZ, _A_FROMQ, _A_STADDR, _A_BQ, _A_BR, _A_STREAM,
 _A_JMP, _A_HALT, _A_NOP, _A_SPEC) = range(12)

#: the kinds that touch LOD queues or reserve slots, and the handler
#: each takes while a speculation engine is attached
_SPEC_HANDLERS = {
    _A_LDQ: "_spec_ldq",
    _A_STADDR: "_spec_staddr",
    _A_FROMQ: "_spec_fromq",
    _A_BQ: "_spec_bq",
}

# decoded-operand tags: register index / immediate value / invalid
_O_REG, _O_IMM, _O_BAD = range(3)


class AccessProcessor:
    """In-order interpreter of the access instruction stream."""

    __slots__ = (
        "program", "queues", "memory", "engine", "registers", "pc",
        "halted", "stats", "_stalled_on", "_decoded", "_saq", "_ebq",
        "_bank_free", "_nbanks", "_accepts", "_prog", "_plen", "_spec",
    )

    def __init__(
        self,
        program: Program,
        queues: QueueFile,
        memory: BankedMemory,
        engine: StreamEngine,
    ):
        self.program = program
        self.queues = queues
        self.memory = memory
        self.engine = engine
        self.registers: list[float] = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.stats = APStats()
        self._stalled_on: str | None = None
        #: SpeculationEngine when the machine runs in speculative AP mode
        #: (set by attach_speculation); None keeps every kind on the
        #: plain decode.
        self._spec = None
        for instr in program:
            if instr.op not in ACCESS_OPS:
                raise SimulationError(
                    f"{instr.op.value} is not a valid access-processor op"
                )
        # decode cache + memory-model constants for step; the bank-free
        # list and the config values are stable for the machine's
        # lifetime (BankedMemory mutates the list in place)
        self._decoded = [self._decode(pc) for pc in range(len(program))]
        # bounds-check cache for step; valid only while self.program is
        # still the construction-time object (identity-checked there)
        self._prog = program
        self._plen = len(program)
        self._saq = queues.store_addr
        self._ebq = queues.ep_to_ap_branch
        self._bank_free = memory._bank_free_at
        self._nbanks = memory.config.num_banks
        self._accepts = memory.config.accepts_per_cycle

    # -- decode cache ------------------------------------------------------

    def attach_speculation(self, spec) -> None:
        """Attach (or, with ``None``, detach) a speculation engine.

        Re-decodes the kinds in :data:`_SPEC_HANDLERS` into ``_A_SPEC``
        entries whose handlers call the engine's hooks; every other kind
        keeps its plain decode, so a non-speculative AP pays nothing for
        speculation but the rollback-penalty gate at the top of
        :meth:`step`."""
        self._spec = spec
        self._decoded = [self._decode(pc) for pc in range(len(self.program))]

    def _decode(self, pc: int):
        entry = self._decode_plain(self.program[pc])
        if self._spec is not None and entry[0] in _SPEC_HANDLERS:
            return (_A_SPEC, getattr(self, _SPEC_HANDLERS[entry[0]]), entry)
        return entry

    def _decode_plain(self, instr):
        """Decode one instruction into a kind-tagged tuple for
        :meth:`step`.  An operand that is invalid at execution time is
        tagged ``_O_BAD`` so the error is raised at the cycle the
        instruction executes, not at construction."""
        op = instr.op
        if op in ALU_OPS:
            dest = instr.dest
            return (
                _A_ALU,
                ALU_FUNCS[op],
                tuple(self._decode_operand(s) for s in instr.srcs),
                dest.index if isinstance(dest, Reg) else None,
            )
        if op is Op.HALT:
            return (_A_HALT,)
        if op is Op.NOP:
            return (_A_NOP,)
        if op is Op.JMP:
            return (_A_JMP, instr.branch_target())
        if op in (Op.BEQZ, Op.BNEZ):
            return (
                _A_BR,
                self._decode_operand(instr.srcs[0]),
                op is Op.BEQZ,
                instr.branch_target(),
            )
        if op is Op.DECBNZ:
            assert isinstance(instr.dest, Reg)
            return (_A_DECBNZ, instr.dest.index, instr.branch_target())
        if op in (Op.STREAMLD, Op.GATHER, Op.STREAMST, Op.SCATTER):
            return (_A_STREAM, instr)
        if op is Op.LDQ:
            dest = instr.dest
            assert isinstance(dest, Queue)
            return (
                _A_LDQ,
                self.queues.resolve(dest),
                self._decode_operand(instr.srcs[0]),
                self._decode_operand(instr.srcs[1]),
            )
        if op is Op.STADDR:
            data_q = instr.srcs[0]
            assert isinstance(data_q, Queue) and \
                data_q.space is QueueSpace.SDQ
            return (
                _A_STADDR,
                data_q.index,
                self._decode_operand(instr.srcs[1]),
                self._decode_operand(instr.srcs[2]),
            )
        if op is Op.FROMQ:
            src = instr.srcs[0]
            assert isinstance(src, Queue)
            if src.space is QueueSpace.EAQ:
                cause = "lod_eaq"
            elif src.space is QueueSpace.EBQ:
                cause = "lod_ebq"
            else:
                cause = "iq_empty"
            dest = instr.dest
            return (
                _A_FROMQ,
                self.queues.resolve(src),
                cause,
                dest.index if isinstance(dest, Reg) else None,
            )
        assert op in (Op.BQNZ, Op.BQEZ)  # exhaustive over ACCESS_OPS
        return (_A_BQ, op is Op.BQNZ, instr.branch_target())

    @staticmethod
    def _decode_operand(operand):
        if isinstance(operand, Reg):
            return (_O_REG, operand.index)
        if isinstance(operand, Imm):
            return (_O_IMM, operand.value)
        return (_O_BAD, operand)

    # ------------------------------------------------------------------

    def _stall(self, cause: str) -> None:
        st = self.stats.stall_cycles
        st[cause] = st.get(cause, 0) + 1
        if cause.startswith("lod_") and self._stalled_on != cause:
            self.stats.lod_events += 1
        self._stalled_on = cause

    def _read(self, operand) -> float:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise SimulationError(
            f"AP operand {operand} must be a register or immediate here"
        )

    def step(self, now: int) -> None:
        """Attempt to execute one instruction this cycle.

        Dispatches on the predecoded kind tags with the queue and memory
        probes inlined.  A stalled instruction retries next cycle and
        charges the cycle to its stall cause; an entry into a ``lod_*``
        stall counts one LOD episode."""
        if self.halted:
            return
        spec = self._spec
        if spec is not None and spec.ap_blocked(self, now):
            return
        pc = self.pc
        # bounds-check against the live program (not just the decode
        # cache) so a program swapped after construction still faults at
        # its own end; the identity test keeps the common case to one
        # cached-length compare
        if pc >= self._plen or self.program is not self._prog:
            if pc >= len(self.program):
                raise SimulationError(
                    f"AP ran off the end of program {self.program.name!r}"
                )
        decoded = self._decoded
        entry = decoded[pc]
        kind = entry[0]
        stats = self.stats
        registers = self.registers
        if kind == _A_ALU:
            args = []
            for tag, payload in entry[2]:
                if tag == _O_REG:
                    args.append(registers[payload])
                elif tag == _O_IMM:
                    args.append(payload)
                else:
                    raise SimulationError(
                        f"AP operand {payload} must be a register or "
                        "immediate here"
                    )
            registers[entry[3]] = entry[1](*args)
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_LDQ:
            tag, payload = entry[2]
            if tag == _O_REG:
                a = registers[payload]
            elif tag == _O_IMM:
                a = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            tag, payload = entry[3]
            if tag == _O_REG:
                b = registers[payload]
            elif tag == _O_IMM:
                b = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            addr = as_address(a + b)
            target = entry[1]
            if len(target._slots) >= target.capacity:
                target.stats.full_stalls += 1
                st = stats.stall_cycles
                st["queue_full"] = st.get("queue_full", 0) + 1
                self._stalled_on = "queue_full"
                return
            memory = self.memory
            cyc, cnt = memory._issues_at
            if (memory.reject is not None and memory.reject(addr, now)) or \
                    (cyc == now and cnt >= self._accepts) or \
                    self._bank_free[addr % self._nbanks] > now:
                st = stats.stall_cycles
                st["memory_busy"] = st.get("memory_busy", 0) + 1
                self._stalled_on = "memory_busy"
                return
            token = target.reserve()
            accepted = memory.try_issue(
                addr, now, on_complete=partial(target.fill, token)
            )
            assert accepted
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_DECBNZ:
            index = entry[1]
            registers[index] -= 1
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[2] if registers[index] != 0 else pc + 1
            return
        if kind == _A_FROMQ:
            queue = entry[1]
            slots = queue._slots
            if not slots or not slots[0].filled:
                queue.stats.empty_stalls += 1
                cause = entry[2]
                st = stats.stall_cycles
                st[cause] = st.get(cause, 0) + 1
                if cause != "iq_empty" and self._stalled_on != cause:
                    stats.lod_events += 1
                self._stalled_on = cause
                return
            registers[entry[3]] = queue.pop()
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_STADDR:
            saq = self._saq
            if len(saq._slots) >= saq.capacity:
                saq.stats.full_stalls += 1
                st = stats.stall_cycles
                st["saq_full"] = st.get("saq_full", 0) + 1
                self._stalled_on = "saq_full"
                return
            tag, payload = entry[2]
            if tag == _O_REG:
                a = registers[payload]
            elif tag == _O_IMM:
                a = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            tag, payload = entry[3]
            if tag == _O_REG:
                b = registers[payload]
            elif tag == _O_IMM:
                b = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            saq.push((as_address(a + b), entry[1]))
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_BQ:
            ebq = self._ebq
            slots = ebq._slots
            if not slots or not slots[0].filled:
                ebq.stats.empty_stalls += 1
                st = stats.stall_cycles
                st["lod_ebq"] = st.get("lod_ebq", 0) + 1
                if self._stalled_on != "lod_ebq":
                    stats.lod_events += 1
                self._stalled_on = "lod_ebq"
                return
            value = ebq.pop()
            taken = (value != 0) == entry[1]
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[2] if taken else pc + 1
            return
        if kind == _A_BR:
            tag, payload = entry[1]
            if tag == _O_REG:
                value = registers[payload]
            elif tag == _O_IMM:
                value = payload
            else:
                raise SimulationError(
                    f"AP operand {payload} must be a register or "
                    "immediate here"
                )
            taken = (value == 0) == entry[2]
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[3] if taken else pc + 1
            return
        if kind == _A_STREAM:
            if not self._start_stream(entry[1]):
                return
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_JMP:
            stats.instructions += 1
            self._stalled_on = None
            self.pc = entry[1]
            return
        if kind == _A_HALT:
            self.halted = True
            stats.instructions += 1
            self._stalled_on = None
            self.pc = pc + 1
            return
        if kind == _A_SPEC:
            entry[1](entry[2], now)
            return
        # _A_NOP
        stats.instructions += 1
        self._stalled_on = None
        self.pc = pc + 1

    def _retire(self, new_pc: int | None = None) -> None:
        self.stats.instructions += 1
        self._stalled_on = None
        self.pc = new_pc if new_pc is not None else self.pc + 1

    def _operand(self, decoded) -> float:
        tag, payload = decoded
        if tag == _O_REG:
            return self.registers[payload]
        if tag == _O_IMM:
            return payload
        raise SimulationError(
            f"AP operand {payload} must be a register or immediate here"
        )

    # -- op implementations ---------------------------------------------

    def _start_stream(self, instr) -> bool:
        spec = self._spec
        if spec is not None and spec.ap_stream_barrier(self):
            # descriptors cannot be squashed, so they are speculation
            # barriers: wait until every open frame has resolved
            return False
        if not self.engine.has_free_slot():
            self._stall("stream_slots")
            return False
        produced, consumed = self.engine.queue_roles_in_use()
        # dest is the produced queue (loads/gathers); queue sources are
        # consumed (store data, gather/scatter indices)
        if isinstance(instr.dest, Queue):
            if self.queues.resolve(instr.dest) in produced:
                self._stall("stream_queue_busy")
                return False
        for s in instr.srcs:
            if isinstance(s, Queue) and self.queues.resolve(s) in consumed:
                self._stall("stream_queue_busy")
                return False
        op = instr.op
        if op is Op.STREAMLD:
            dest = instr.dest
            assert isinstance(dest, Queue)
            desc = StreamDescriptor(
                StreamKind.LOAD,
                base=as_address(self._read(instr.srcs[0])),
                stride=as_address(self._read(instr.srcs[1])),
                count=as_address(self._read(instr.srcs[2])),
                target=self.queues.resolve(dest),
            )
        elif op is Op.GATHER:
            dest = instr.dest
            index_q = instr.srcs[0]
            assert isinstance(dest, Queue) and isinstance(index_q, Queue)
            desc = StreamDescriptor(
                StreamKind.GATHER,
                base=as_address(self._read(instr.srcs[1])),
                count=as_address(self._read(instr.srcs[2])),
                target=self.queues.resolve(dest),
                index_queue=self.queues.resolve(index_q),
            )
        elif op is Op.STREAMST:
            data_q = instr.srcs[0]
            assert isinstance(data_q, Queue)
            desc = StreamDescriptor(
                StreamKind.STORE,
                base=as_address(self._read(instr.srcs[1])),
                stride=as_address(self._read(instr.srcs[2])),
                count=as_address(self._read(instr.srcs[3])),
                data_queue=self.queues.resolve(data_q),
            )
        else:  # SCATTER
            data_q, index_q = instr.srcs[0], instr.srcs[1]
            assert isinstance(data_q, Queue) and isinstance(index_q, Queue)
            desc = StreamDescriptor(
                StreamKind.SCATTER,
                base=as_address(self._read(instr.srcs[2])),
                count=as_address(self._read(instr.srcs[3])),
                data_queue=self.queues.resolve(data_q),
                index_queue=self.queues.resolve(index_q),
            )
        self.engine.start(desc)
        return True

    # -- speculation-aware handlers (_A_SPEC entries) --------------------

    def _spec_address(self, entry) -> int:
        """``entry``'s two address operands summed.  While a frame is
        open the address may come from a wrong path: an invalid one
        becomes 0, and the caller clamps it into memory."""
        try:
            return as_address(
                self._operand(entry[2]) + self._operand(entry[3])
            )
        except (MemoryError_, ValueError, OverflowError):
            if not self._spec.in_flight():
                raise
            return 0

    def _spec_ldq(self, entry, now: int) -> None:
        target = entry[1]
        spec = self._spec
        addr = self._spec_address(entry)
        if spec.in_flight():
            # a doomed wrong-path load must not crash the simulation
            addr %= self.memory.storage.size
        if not target.can_reserve():
            target.note_full_stall()
            self._stall("queue_full")
            return
        if not self.memory.can_accept(addr, now):
            self._stall("memory_busy")
            return
        token = target.reserve()
        spec.note_reserved(target, token)
        accepted = self.memory.try_issue(
            addr, now, on_complete=partial(target.fill, token)
        )
        assert accepted
        self._retire()

    def _spec_staddr(self, entry, now: int) -> None:
        saq = self._saq
        if not saq.can_reserve():
            saq.note_full_stall()
            self._stall("saq_full")
            return
        # a wrong-path address dies with its slot before commit
        slot = saq.push((self._spec_address(entry), entry[1]))
        self._spec.note_reserved(saq, slot)
        self._retire()

    def _spec_fromq(self, entry, now: int) -> None:
        if self._spec.ap_fromq(self, entry[1], entry[2], entry[3]):
            self._retire()

    def _spec_bq(self, entry, now: int) -> None:
        value = self._spec.ap_branch_value(self)
        if value is not None:
            taken = (value != 0) == entry[1]
            self._retire(entry[2] if taken else None)
