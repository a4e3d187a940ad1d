"""Banked, pipelined main-memory timing model.

The memory is ``num_banks``-way low-order interleaved.  A request to bank
``addr % num_banks`` is *accepted* only if that bank has been idle for
``bank_busy`` cycles since its last acceptance and the port has spare issue
bandwidth this cycle; otherwise the requester must retry (the rejection is
recorded as a bank conflict or port reject).  An accepted request completes
``latency`` cycles later: loads deliver their value through a callback
(normally filling a reserved queue slot), stores are already visible.

Functional ordering model: the data effect of a request happens at *issue*
time — writes update the backing store immediately, reads capture the
current value and deliver it at completion.  Requests therefore take effect
in acceptance order, which is the order the processors issued them in; the
timing pipeline only delays observation, never reorders data.  This is the
standard conservative model for trace-level architecture simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..config import FaultConfig, MemoryConfig
from .main_memory import MainMemory, as_address


@dataclass
class MemoryStats:
    """Traffic and contention counters for one banked memory."""

    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0
    port_rejects: int = 0
    busy_bank_cycles: int = 0
    #: completion callbacks fired (loads delivered / stores acknowledged)
    completions: int = 0
    per_bank_accesses: list[int] = field(default_factory=list)

    def utilization(self, elapsed_cycles: int, num_banks: int) -> float:
        """Fraction of bank-cycles spent servicing requests."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_bank_cycles / (elapsed_cycles * num_banks)


class BankedMemory:
    """Cycle-stepped interleaved memory front-end over a MainMemory."""

    #: True on fault-injecting subclasses; the run loops consult this to
    #: stay on the naive loop, whose per-cycle :meth:`tick` delivers (or
    #: drops) every completion and whose clock never jumps over a cycle
    #: in which the fault predicate would change its verdict.
    fault_injection = False
    #: transient-reject predicate ``reject(addr, now) -> bool`` consulted
    #: by every acceptance check before the port/bank test; ``None`` on a
    #: fault-free memory (:class:`FaultyMemory` installs its own).
    reject = None

    def __init__(self, storage: MainMemory, config: MemoryConfig):
        self.storage = storage
        self.config = config
        self._bank_free_at = [0] * config.num_banks
        self._completions: list[tuple[int, int, Callable, Optional[float]]] = []
        self._seq = 0
        self._issues_at = (-1, 0)  # (cycle, count) for the port limit
        self.stats = MemoryStats(per_bank_accesses=[0] * config.num_banks)

    def register_metrics(self, registry, prefix: str = "memory") -> None:
        """Publish traffic/contention counters into a metrics registry."""
        from ..metrics.registry import register_stats

        register_stats(registry, prefix, self.stats)
        registry.register_histogram(
            f"{prefix}.per_bank_accesses",
            lambda s=self.stats: dict(enumerate(s.per_bank_accesses)),
        )

    # -- issue side ------------------------------------------------------

    def can_accept(self, addr, now: int) -> bool:
        """Would a request to ``addr`` be accepted this cycle?"""
        a = as_address(addr)
        if self.reject is not None and self.reject(a, now):
            return False
        bank = a % self.config.num_banks
        cycle, count = self._issues_at
        if cycle == now and count >= self.config.accepts_per_cycle:
            return False
        return self._bank_free_at[bank] <= now

    def try_issue(
        self,
        addr,
        now: int,
        *,
        is_write: bool = False,
        value: float | None = None,
        on_complete: Callable[[Optional[float]], None] | None = None,
    ) -> bool:
        """Attempt to issue one request; returns acceptance.

        On acceptance the functional effect is applied immediately (see
        module docstring); ``on_complete(read_value_or_None)`` fires when
        :meth:`tick` reaches ``now + latency``.
        """
        a = as_address(addr)
        if self.reject is not None and self.reject(a, now):
            return False
        bank = a % self.config.num_banks
        cycle, count = self._issues_at
        if cycle == now and count >= self.config.accepts_per_cycle:
            self.stats.port_rejects += 1
            return False
        if self._bank_free_at[bank] > now:
            self.stats.bank_conflicts += 1
            return False
        # accept
        self._issues_at = (now, count + 1) if cycle == now else (now, 1)
        self._bank_free_at[bank] = now + self.config.bank_busy
        self.stats.busy_bank_cycles += self.config.bank_busy
        self.stats.per_bank_accesses[bank] += 1
        if is_write:
            self.stats.writes += 1
            self.storage.write(a, value)
            result: Optional[float] = None
        else:
            self.stats.reads += 1
            result = self.storage.read(a)
        if on_complete is not None:
            self._seq += 1
            heapq.heappush(
                self._completions,
                (now + self.config.latency, self._seq, on_complete, result),
            )
        return True

    def bank_free_time(self, addr) -> int:
        """Cycle at which ``addr``'s bank next accepts a request."""
        return self._bank_free_at[as_address(addr) % self.config.num_banks]

    # -- completion side ---------------------------------------------------

    def tick(self, now: int) -> None:
        """Fire every completion whose time has arrived (call once per
        cycle, before the processors step)."""
        while self._completions and self._completions[0][0] <= now:
            _, _, callback, result = heapq.heappop(self._completions)
            self.stats.completions += 1
            callback(result)

    def squash_completions(self, slots) -> int:
        """Remove in-flight completions that would fill one of ``slots``
        (speculative rollback).  Every load completion is scheduled as
        ``partial(queue.fill, slot)`` (the encoding the checkpoint layer
        introspects too), so matching is by the identity of the partial's
        first argument; other callbacks are untouched.  Returns the
        number of completions squashed."""
        if not self._completions:
            return 0
        ids = {id(s) for s in slots}
        keep = []
        removed = 0
        for entry in self._completions:
            args = getattr(entry[2], "args", None)
            if args and id(args[0]) in ids:
                removed += 1
            else:
                keep.append(entry)
        if removed:
            # in place: the event-horizon loops hold the list itself
            heapq.heapify(keep)
            self._completions[:] = keep
        return removed

    def quiescent(self) -> bool:
        """True when no request is in flight."""
        return not self._completions

    def next_event_time(self, now: int) -> int | None:
        """Earliest cycle ≥ ``now`` at which the memory can wake a
        stalled machine, or ``None`` when nothing is pending.

        The processors talk only through queues, so once both are
        stalled only the memory changes anything by the passage of time:
        a completion fires (clamped to ``now`` when overdue) or a busy
        bank frees.  Bank-free times count from ``now`` inclusive: a bank
        that frees at ``now`` admits, at ``now``, a request it refused
        the cycle before.  The per-cycle port limit is ignored: it
        resets every cycle, and a confirmed-idle cycle issued nothing."""
        best = None
        if self._completions:
            best = self._completions[0][0]
            if best < now:
                best = now
        for t in self._bank_free_at:
            if t >= now and (best is None or t < best):
                best = t
        return best


class FaultyMemory(BankedMemory):
    """Banked memory with deterministic transient-fault injection.

    Two fault classes, both parameterized by :class:`FaultConfig`:

    * **transient rejects** — a hash over ``(address, cycle, seed)``
      rejects a fraction of requests.  The predicate is installed as the
      :attr:`BankedMemory.reject` hook, which every requester evaluates
      before the port/bank test, and each rejection it reports is
      counted in ``injected_rejects`` (one per requester per cycle).
      Requesters simply retry, so this perturbs timing only — functional
      results are unchanged.
    * **dropped completions** — :meth:`tick` silently discards the first
      ``drop_completions`` completions it would deliver, leaving a
      reserved-but-never-filled queue slot.  Completions deliver in
      issue order (fixed latency), so these are the first accepted
      loads.  A correct watchdog then reports a deadlock
      (``SimulationError``) instead of hanging.

    The event-horizon loops deliver completions inline and jump over
    cycles in which the predicate would change its verdict, so the run
    loops stay on ``naive`` whenever :attr:`fault_injection` is set.
    """

    fault_injection = True

    def __init__(self, storage: MainMemory, config: MemoryConfig,
                 faults: FaultConfig):
        super().__init__(storage, config)
        self.faults = faults
        self.injected_rejects = 0
        self.dropped_completions = 0
        self._drop_budget = faults.drop_completions
        if faults.reject_prob > 0.0:
            self.reject = self._fault_reject

    def _fault_reject(self, a: int, now: int) -> bool:
        """Deterministic per-(address, cycle) reject predicate; counts
        every rejection it reports."""
        h = (a * 2654435761 + now * 40503 + self.faults.seed * 97) & 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        h ^= h >> 16
        if h / 2.0 ** 32 < self.faults.reject_prob:
            self.injected_rejects += 1
            return True
        return False

    def tick(self, now: int) -> None:
        comps = self._completions
        while self._drop_budget > 0 and comps and comps[0][0] <= now:
            # its reserved queue slot will never fill
            heapq.heappop(comps)
            self._drop_budget -= 1
            self.dropped_completions += 1
        super().tick(now)
