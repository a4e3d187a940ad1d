"""Structure-of-arrays lane state for many machine configs at once.

One *lane* is one complete SMA machine — AP, EP, stream engine, store
unit, banked memory — described by its own :class:`repro.config.SMAConfig`
(latency, bank count/busy, queue depths).  All lanes run the same
access/execute program pair on the same input data, so a sweep grid of
``N`` timing points becomes ``N`` lanes stepped together: every piece of
architectural state is one numpy array with a leading lane axis.

:class:`LaneEngine` holds that state and the cold-path helpers (stream
descriptor creation, memory growth, the deadlock diagnostic) that the
program-specialized lane stepper calls back into.  The stepper itself is
generated per program pair by :mod:`repro.batch.emitter` and cached by
:mod:`repro.batch.cache`; :meth:`LaneEngine.run` raises
:class:`~repro.batch.emitter.Unsupported` when the emitter cannot
specialize the program, and :mod:`repro.batch.dispatch` then leaves the
group to the scalar path.

**Bit-exactness contract.**  For every lane, all statistics the harness
reports (:func:`repro.harness.jobs._run_sma` keys: cycles, instruction
counts, stall-cause cycle counts, LOD episodes, occupancy, memory
traffic) and the final memory image are identical to running that lane's
config through ``SMAMachine.run(scheduler="naive")``.  The Hypothesis
suites in ``tests/test_batch_equivalence.py`` and
``tests/test_batch_codegen.py`` compare every lane against the scalar
machine.

Timing-model scope (enforced by :mod:`repro.batch.dispatch`): one memory
port (``accepts_per_cycle == 1``), one stream issue per cycle, no fault
injection, no attached metrics.

In-flight loads need no completion heap: per lane, requests issue at
most one per cycle and share one latency, so fills mature in issue
order — a ring of fill times per lane replaces the heap, and a queue
slot is *filled* exactly when its recorded fill time is ``<= now``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SMAConfig
from ..errors import SimulationError
from ..isa import Program
from . import decode as D
from .emitter import Unsupported, _addr

#: sentinel for "no stall cause" / empty times
_NONE = -1
_BIG = np.int64(1) << 62


@dataclass
class LaneStats:
    """Per-lane statistic arrays collected by one batch run.

    ``lane_dict(i)`` assembles the harness result-dict fragment for lane
    ``i`` with the exact key set, value types and stall-dict key order
    (first-occurrence order) of the scalar job path.
    """

    cycles: np.ndarray
    ap_instructions: np.ndarray
    ep_instructions: np.ndarray
    ap_stalls: np.ndarray        # [lanes, len(D.AP_CAUSES)]
    ap_first: np.ndarray         # first cycle each cause was charged
    ep_stalls: np.ndarray        # [lanes, len(D.EP_CAUSES)]
    ep_first: np.ndarray
    lod_events: np.ndarray
    memory_reads: np.ndarray
    memory_writes: np.ndarray
    occupancy_sum: np.ndarray
    occupancy_max: np.ndarray

    def lane_dict(self, i: int) -> dict:
        ap_order = np.argsort(self.ap_first[i], kind="stable")
        ap_stalls = {
            D.AP_CAUSES[c]: int(self.ap_stalls[i, c])
            for c in ap_order
            if self.ap_stalls[i, c] > 0
        }
        ep_order = np.argsort(self.ep_first[i], kind="stable")
        ep_stalls = {
            D.EP_CAUSES[c]: int(self.ep_stalls[i, c])
            for c in ep_order
            if self.ep_stalls[i, c] > 0
        }
        cycles = int(self.cycles[i])
        lod_stall_cycles = sum(
            int(self.ap_stalls[i, c]) for c in D.LOD_CAUSES
        )
        return {
            "cycles": cycles,
            "ap_instructions": int(self.ap_instructions[i]),
            "ep_instructions": int(self.ep_instructions[i]),
            "ap_stalls": ap_stalls,
            "ep_stalls": ep_stalls,
            "ep_total_stalls": sum(ep_stalls.values()),
            "mean_outstanding_loads":
                int(self.occupancy_sum[i]) / max(cycles, 1),
            "max_outstanding_loads": int(self.occupancy_max[i]),
            "lod_events": int(self.lod_events[i]),
            "lod_stall_cycles": lod_stall_cycles,
            "memory_reads": int(self.memory_reads[i]),
            "memory_writes": int(self.memory_writes[i]),
        }


@dataclass
class BatchOutcome:
    """Everything a batch run produced: stats plus final memory images."""

    stats: LaneStats
    memory: np.ndarray  # [lanes, words]

    def dump_array(self, lane: int, base: int, count: int) -> np.ndarray:
        out = np.zeros(count, dtype=np.float64)
        have = self.memory[lane, base : base + count]
        out[: have.shape[0]] = have
        return out


class LaneEngine:
    """Lane state arrays plus the generated stepper's cold-path helpers."""

    def __init__(
        self,
        access_program: Program,
        execute_program: Program,
        configs: list[SMAConfig],
        memory_image: np.ndarray,
        logical_size: int | None = None,
    ):
        L = len(configs)
        if L == 0:
            raise SimulationError("batch run needs at least one lane")
        qlay = D.QueueLayout.from_config(configs[0])
        for cfg in configs:
            if D.QueueLayout.from_config(cfg) != qlay:
                raise SimulationError(
                    "batch lanes must share the structural queue layout"
                )
            if cfg.memory.accepts_per_cycle != 1:
                raise SimulationError(
                    "batch engine models one memory port per cycle"
                )
            if cfg.stream_issue_per_cycle != 1:
                raise SimulationError(
                    "batch engine models one stream issue per cycle"
                )
            if cfg.faults is not None:
                raise SimulationError(
                    "batch engine does not model fault injection"
                )
        self.qlay = qlay
        # kept for the batch-codegen cache key (program text is what
        # the emitter specializes on)
        self.access_program = access_program
        self.execute_program = execute_program
        self.ap_prog = D.decode_access(access_program, qlay)
        self.ep_prog = D.decode_execute(execute_program, qlay)
        self.ap_len = len(self.ap_prog)
        self.ep_len = len(self.ep_prog)
        NQ = qlay.total
        self.NQ = NQ
        self.NL = qlay.num_load

        i64 = np.int64
        caps = np.array(
            [qlay.capacities(cfg) for cfg in configs], dtype=i64
        )
        CAP = int(caps.max())
        self.latency = np.array(
            [cfg.memory.latency for cfg in configs], dtype=i64
        )
        self.bank_busy = np.array(
            [cfg.memory.bank_busy for cfg in configs], dtype=i64
        )
        self.nbanks = np.array(
            [cfg.memory.num_banks for cfg in configs], dtype=i64
        )
        NB = int(self.nbanks.max())
        self.max_streams = int(configs[0].max_streams)
        for cfg in configs:
            if cfg.max_streams != self.max_streams:
                raise SimulationError(
                    "batch lanes must share max_streams"
                )
        S = self.max_streams
        # in-flight loads are bounded by the reserved slots they occupy
        # (load + index queues); the +1 keeps the ring's head != tail
        P = int(
            (caps[:, : qlay.num_load].sum(axis=1)
             + caps[:, qlay.iq(0) : qlay.saq].sum(axis=1)).max()
        ) + 1

        self.now = np.zeros(L, dtype=i64)
        self.active = np.ones(L, dtype=bool)
        self.cycles = np.zeros(L, dtype=i64)
        self.last_progress = np.zeros(L, dtype=i64)

        self.ap_pc = np.zeros(L, dtype=i64)
        self.ap_halt = np.zeros(L, dtype=bool)
        self.ap_regs = np.zeros((L, 32), dtype=np.float64)
        self.ap_stalled = np.full(L, _NONE, dtype=i64)
        self.ep_pc = np.zeros(L, dtype=i64)
        self.ep_halt = np.zeros(L, dtype=bool)
        self.ep_regs = np.zeros((L, 32), dtype=np.float64)
        self.ep_stalled = np.full(L, _NONE, dtype=i64)

        self.q_vals = np.zeros((L, NQ, CAP), dtype=np.float64)
        self.q_fill = np.full((L, NQ, CAP), _BIG, dtype=i64)
        self.q_head = np.zeros((L, NQ), dtype=i64)
        self.q_count = np.zeros((L, NQ), dtype=i64)
        self.q_cap = caps
        self.saq_dqi = np.zeros((L, CAP), dtype=i64)
        #: per-queue occupancy high-water marks, maintained by the
        #: compiled stepper when ``track_saturation`` is set; the
        #: saturation-collapse planner (:mod:`repro.batch.dispatch`)
        #: uses them to prove deep-queue lanes bit-identical to a probe
        self.q_peak = np.zeros((L, NQ), dtype=i64)
        self.track_saturation = False

        self.st_kind = np.zeros((L, S), dtype=i64)
        self.st_base = np.zeros((L, S), dtype=i64)
        self.st_stride = np.zeros((L, S), dtype=i64)
        self.st_count = np.zeros((L, S), dtype=i64)
        self.st_issued = np.zeros((L, S), dtype=i64)
        self.st_tq = np.full((L, S), _NONE, dtype=i64)
        self.st_dq = np.full((L, S), _NONE, dtype=i64)
        self.st_iq = np.full((L, S), _NONE, dtype=i64)
        self.n_live = np.zeros(L, dtype=i64)
        self.rr = np.zeros(L, dtype=i64)
        self.produced_mask = np.zeros(L, dtype=i64)
        self.consumed_mask = np.zeros(L, dtype=i64)

        # only the touched prefix of memory is materialized per lane;
        # bounds checks use the full logical size and the backing grows
        # on demand, so semantics match the scalar flat store exactly
        self.mem = np.broadcast_to(
            memory_image, (L, memory_image.shape[0])
        ).copy()
        self.alloc = memory_image.shape[0]
        self.msize = (
            memory_image.shape[0] if logical_size is None
            else logical_size
        )
        if self.msize < self.alloc:
            raise SimulationError("logical size smaller than image")
        self.bank_free = np.zeros((L, NB), dtype=i64)
        self.port_used = np.zeros(L, dtype=bool)

        self.pend_t = np.zeros((L, P), dtype=i64)
        self.pend_head = np.zeros(L, dtype=i64)
        self.pend_count = np.zeros(L, dtype=i64)
        self.P = P

        self.stats = LaneStats(
            cycles=self.cycles,
            ap_instructions=np.zeros(L, dtype=i64),
            ep_instructions=np.zeros(L, dtype=i64),
            ap_stalls=np.zeros((L, len(D.AP_CAUSES)), dtype=i64),
            ap_first=np.full((L, len(D.AP_CAUSES)), _BIG, dtype=i64),
            ep_stalls=np.zeros((L, len(D.EP_CAUSES)), dtype=i64),
            ep_first=np.full((L, len(D.EP_CAUSES)), _BIG, dtype=i64),
            lod_events=np.zeros(L, dtype=i64),
            memory_reads=np.zeros(L, dtype=i64),
            memory_writes=np.zeros(L, dtype=i64),
            occupancy_sum=np.zeros(L, dtype=i64),
            occupancy_max=np.zeros(L, dtype=i64),
        )
        # per-cycle scratch flags (full-length; reset over the active set)
        self._delivered = np.zeros(L, dtype=bool)
        self._progress = np.zeros(L, dtype=bool)

    # -- cold paths the generated stepper calls back into ---------------

    _as_addr = staticmethod(_addr)

    def _check_addr(self, addr) -> None:
        if np.any((addr < 0) | (addr >= self.msize)):
            bad = int(addr[(addr < 0) | (addr >= self.msize)][0])
            raise SimulationError(
                f"address {bad} out of range [0, {self.msize})"
            )
        top = int(addr.max(initial=-1))
        if top >= self.alloc:  # rare: touch beyond the staged prefix
            new = min(self.msize, max(top + 1, 2 * self.alloc))
            pad = np.zeros(
                (self.mem.shape[0], new - self.alloc), dtype=np.float64
            )
            self.mem = np.concatenate([self.mem, pad], axis=1)
            self.alloc = new

    def _ap_stall(self, lanes, cause: int) -> None:
        st = self.stats
        st.ap_stalls[lanes, cause] += 1
        first = st.ap_first[lanes, cause] == _BIG
        if first.any():
            st.ap_first[lanes[first], cause] = self.now[lanes[first]]
        if cause in D.LOD_CAUSES:
            entering = self.ap_stalled[lanes] != cause
            st.lod_events[lanes[entering]] += 1
        self.ap_stalled[lanes] = cause

    def _ap_retire(self, lanes, new_pc=None) -> None:
        self.stats.ap_instructions[lanes] += 1
        self.ap_stalled[lanes] = _NONE
        if new_pc is None:
            self.ap_pc[lanes] += 1
        else:
            self.ap_pc[lanes] = new_pc
        self._progress[lanes] = True

    def _read_ap(self, lanes, operand):
        tag, payload = operand
        if tag == D.R:
            return self.ap_regs[lanes, payload]
        return np.full(lanes.size, payload, dtype=np.float64)

    def _ap_stream(self, lanes, entry) -> None:
        (_, skind, tq, dq, iq, base_op, stride_op, count_op,
         consumed) = entry
        free = self.n_live[lanes] < self.max_streams
        self._ap_stall(lanes[~free], D.C_STREAM_SLOTS)
        lanes = lanes[free]
        if lanes.size == 0:
            return
        busy = np.zeros(lanes.size, dtype=bool)
        if tq >= 0:
            busy |= (self.produced_mask[lanes] >> tq) & 1 == 1
        for qid in consumed:
            busy |= (self.consumed_mask[lanes] >> qid) & 1 == 1
        self._ap_stall(lanes[busy], D.C_STREAM_QUEUE_BUSY)
        lanes = lanes[~busy]
        if lanes.size == 0:
            return
        base = self._as_addr(self._read_ap(lanes, base_op))
        stride = (
            self._as_addr(self._read_ap(lanes, stride_op))
            if stride_op is not None
            else np.ones(lanes.size, dtype=np.int64)
        )
        count = self._as_addr(self._read_ap(lanes, count_op))
        if np.any(count < 0):
            raise SimulationError("negative stream count")
        live = count > 0  # zero-length streams never activate
        ll = lanes[live]
        if ll.size:
            slot = self.n_live[ll]
            self.st_kind[ll, slot] = skind
            self.st_base[ll, slot] = base[live]
            self.st_stride[ll, slot] = stride[live]
            self.st_count[ll, slot] = count[live]
            self.st_issued[ll, slot] = 0
            self.st_tq[ll, slot] = tq
            self.st_dq[ll, slot] = dq
            self.st_iq[ll, slot] = iq
            self.n_live[ll] += 1
            if tq >= 0:
                self.produced_mask[ll] |= 1 << tq
            if dq >= 0:
                self.consumed_mask[ll] |= 1 << dq
            if iq >= 0:
                self.consumed_mask[ll] |= 1 << iq
        self._ap_retire(lanes)

    def _deadlock_error(self, lane: int, deadlock_window: int) -> None:
        """Raise the deadlock diagnostic for one overdue lane."""
        raise SimulationError(
            "deadlock: no forward progress for "
            f"{deadlock_window} cycles at cycle "
            f"{int(self.now[lane])} (lane {lane}); "
            f"AP@{int(self.ap_pc[lane])} "
            f"halted={bool(self.ap_halt[lane])}; "
            f"EP@{int(self.ep_pc[lane])} "
            f"halted={bool(self.ep_halt[lane])}; "
            f"live streams={int(self.n_live[lane])}"
        )

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
    ) -> BatchOutcome:
        """Run every lane to completion on the program-specialized lane
        stepper; raises :class:`~repro.batch.emitter.Unsupported` when
        the emitter cannot specialize this program pair."""
        from .cache import get_or_compile

        artifact = get_or_compile(self)
        if artifact is None:
            raise Unsupported(
                "program cannot be specialized by the batch emitter"
            )
        artifact.fn(self, max_cycles, deadlock_window)
        return BatchOutcome(stats=self.stats, memory=self.mem)
