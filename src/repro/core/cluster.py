"""SMA multiprocessor cluster (future-work extension).

A natural growth path for a decoupled node is replication: several SMA
processor pairs sharing one banked main memory.  Each node keeps its own
queues, stream engine and store unit — the *only* shared resource is the
memory, so the interesting question the cluster answers is **how much of a
node's standalone performance survives memory interference**, as a
function of the interleaving degree and the nodes' access patterns.

The cluster owns the memory tick: every simulated cycle it delivers
completions once, then steps each node (round-robin order rotates each
cycle so no node gets a standing priority at the memory port).  Nodes run
disjoint address ranges — the runner lays each kernel out in its own
region — so no coherence protocol is needed; the contention being studied
is bandwidth, not sharing.

**Cluster event-horizon loop.**  The latency-dominated regime that makes
single-machine fast-forward pay off (see :mod:`repro.core.machine`) is
*worse* in a cluster: contention stretches every memory round-trip, so a
larger fraction of cycles are jointly idle — every node stalled on a
pending completion.  The default loop (:meth:`SMACluster.
_run_event_horizon`) drives the nodes exactly like a standalone
event-horizon run: each node calls the same unit steps as naive ticking
(and its speculation engine's end-of-cycle resolution), keeps its
queue-occupancy statistics by lazy (event-driven) accounting on its own
clock — stopped at that node's own finish cycle, so early finishers are
not over-sampled — and, once a template cycle confirms that every
running node is stalled, the shared clock jumps to the shared memory's
next event (a completion or a bank freeing,
:meth:`repro.memory.BankedMemory.next_event_time`, bounded by any node's
rollback penalty) and every running node replays the skipped span in
closed form through ``_replay_fast``.  Finished nodes are frozen (naive
ticking does not step them either), and the shared memory needs no replay of its own: a
jointly-idle cycle issues no accesses, so bank-free times and port
counters are static until the next completion.  Everything stays
bit-identical to naive ticking (property-tested in
``tests/test_cluster_fast_forward.py``), including per-node metrics
buckets — ``attach_metrics`` works in cluster mode because the node
classifiers replay in closed form just as they do standalone.

Used by experiment R-F8 (`bench_fig8_multiprocessor.py`).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field, replace

from ..config import SMAConfig
from ..errors import CycleBudgetExceeded, SimulationError
from ..isa import Program
from ..memory import BankedMemory, MainMemory
from .machine import SMAMachine, SMAResult, resolutions, speculation_horizon


@dataclass
class ClusterResult:
    """Per-node results plus shared-memory contention statistics."""

    cycles: int
    nodes: list[SMAResult]
    bank_conflicts: int
    port_rejects: int
    memory_utilization: float
    #: cycle at which each node transitioned to done (== elapsed cycles,
    #: exact even across fast-forward jumps)
    finish_cycles: list[int] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"cluster cycles      {self.cycles}"]
        for i, node in enumerate(self.nodes):
            lines.append(
                f"node {i}: {node.cycles} cycles, "
                f"{node.memory_reads + node.memory_writes} memory ops"
            )
        lines.append(f"bank conflicts      {self.bank_conflicts}")
        lines.append(f"memory utilization  {self.memory_utilization:.3f}")
        return "\n".join(lines)

    def contention(self) -> dict:
        """Shared-memory contention section (JSON-serializable)."""
        return {
            "bank_conflicts": self.bank_conflicts,
            "port_rejects": self.port_rejects,
            "memory_utilization": self.memory_utilization,
        }


class SMACluster:
    """N SMA nodes contending for one banked memory."""

    def __init__(
        self,
        programs: list[tuple[Program, Program]],
        config: SMAConfig | None = None,
    ):
        if not programs:
            raise ValueError("cluster needs at least one node")
        self.config = config or SMAConfig()
        self.memory = MainMemory(self.config.memory.size)
        if self.config.faults is not None:
            from ..memory.banks import FaultyMemory

            self.banked = FaultyMemory(
                self.memory, self.config.memory, self.config.faults
            )
        else:
            self.banked = BankedMemory(self.memory, self.config.memory)
        node_config = replace(self.config)
        self.nodes = [
            SMAMachine(ap, ep, node_config, shared_memory=self.banked)
            for ap, ep in programs
        ]
        self.cycle = 0
        #: cycle each node finished at (None while running)
        self.finish_cycles: list[int | None] = [None] * len(self.nodes)

    def load_array(self, base: int, values) -> None:
        """Stage workload data into the shared memory."""
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        return self.memory.dump_array(base, count)

    def attach_metrics(self):
        """Attach a stall-attribution metrics layer to every node.

        Returns the list of per-node :class:`SMAMachineMetrics`.  Each
        node gets its own registry (counter names collide across nodes
        otherwise); the shared memory's counters are published into every
        node's registry, getter-based over the one shared stats object.
        Like the single-machine case, attaching metrics keeps the fast
        cluster loop enabled — node classifiers and samplers replay in
        closed form.
        """
        return [node.attach_metrics() for node in self.nodes]

    def done(self) -> bool:
        return all(n.done() for n in self.nodes) and self.banked.quiescent()

    def _step_all(self) -> None:
        """Simulate one cluster cycle on the reference path: memory tick,
        then every running node's ``step_cycle(tick_memory=False)``, in
        an order that rotates with the cycle number.

        A node whose ``done()`` flips during (or before) its step is
        recorded in ``finish_cycles`` *immediately* at the current cycle.
        (The old code deferred recording to the node's next visit, one
        cycle late under naive ticking and a whole jump late under
        fast-forward.)
        """
        now = self.cycle
        self.banked.tick(now)
        count = len(self.nodes)
        # rotate service order so the memory port is shared fairly; the
        # rotation is a pure function of the cycle number, so it is
        # unaffected by clock jumps
        rotation = now % count
        for offset in range(count):
            index = (rotation + offset) % count
            node = self.nodes[index]
            if node.done():
                if self.finish_cycles[index] is None:
                    # finished via this cycle's memory tick (the final
                    # completion drained the last pending access)
                    self.finish_cycles[index] = now
                continue
            node.cycle = now
            node.step_cycle(tick_memory=False)
            if self.finish_cycles[index] is None and node.done():
                self.finish_cycles[index] = node.cycle
        self.cycle = now + 1

    def step_cycles(self, count: int) -> int:
        """Advance up to ``count`` cluster cycles, stopping early when
        the cluster is done; returns the number of cycles advanced.

        Same contract as :meth:`SMAMachine.step_cycles`: the loop
        :meth:`run` would pick, stopped at exactly ``cycle + count``, so
        the state reached is bit-identical to naive ticking.  A budget
        stop leaves running nodes without a finish cycle (``run`` only
        fills the gaps once every node is done)."""
        start = self.cycle
        try:
            self.run(max_cycles=start + count)
        except CycleBudgetExceeded:
            pass
        return self.cycle - start

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """Cluster checkpoint: per-node machine snapshots composed with
        the shared clock, functional store and banked timing state (see
        :mod:`repro.core.checkpoint`)."""
        from .checkpoint import snapshot_cluster

        return snapshot_cluster(self)

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot` (fingerprint-checked)."""
        from .checkpoint import restore_cluster

        restore_cluster(self, data)

    def state_digest(self) -> str:
        """Deterministic sha256 over the canonical snapshot encoding."""
        from .checkpoint import digest

        return digest(self.snapshot())

    def _progress_state(self) -> tuple[int, ...]:
        """Changes iff any node made forward progress or memory moved."""
        return tuple(
            part for node in self.nodes for part in node.progress_state()
        ) + (self.banked.stats.reads + self.banked.stats.writes,)

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        scheduler: str = "event-horizon",
    ) -> ClusterResult:
        """Run every node to completion under shared-memory contention.

        ``scheduler`` picks the loop exactly as in
        :meth:`SMAMachine.run` — any key of
        :data:`SMAMachine.SCHEDULERS` (``"naive"`` /
        ``"event-horizon"``).  Cycle counts and every per-node
        statistic are bit-identical across both.
        """
        if scheduler not in SMAMachine.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected one of "
                + ", ".join(SMAMachine.SCHEDULERS)
            )
        if self.banked.fault_injection and scheduler != "naive":
            # see SMAMachine.run: only naive ticking exercises the
            # injected faults faithfully
            scheduler = "naive"
        if scheduler == "event-horizon":
            self._run_event_horizon(max_cycles, deadlock_window)
        else:
            self._run_naive(max_cycles, deadlock_window)
        return self._collect()

    def _run_event_horizon(
        self, max_cycles: int, deadlock_window: int
    ) -> None:
        """Memory-event-driven cluster loop.

        Every node runs under its own :meth:`SMAMachine.lazy_occupancy`
        bracket, steps through :func:`_fast_node_step` and replays its
        jumps through ``_replay_fast``.  Each bracket flushes up to its
        node's own cycle, which stops at the node's finish cycle.  Node
        speculation engines are built first, as each node's first
        ``step_cycle`` would at cycle 0.
        """
        for node in self.nodes:
            if not node._spec_ready:
                node._ensure_speculation()
        with ExitStack() as brackets:
            steps = [
                _fast_node_step(
                    node, brackets.enter_context(node.lazy_occupancy())
                )
                for node in self.nodes
            ]
            self._event_horizon_loop(max_cycles, deadlock_window, steps)

    def _event_horizon_loop(
        self, max_cycles: int, deadlock_window: int, steps
    ) -> None:
        """The cluster cycle of :meth:`_step_all` with per-node
        ``steps[i](now)`` in place of ``step_cycle``, plus jumps to the
        shared memory's next event.

        A jump is only *planned* when every running node has both
        processors halted or stalled and the next event lies beyond
        ``now + 1``; it is only *taken* after one live template cycle
        confirms that nothing moved (pre-step flags can be stale) and no
        node resolved a prediction, and then runs to the next event after
        the template.  The next event is the memory's, bounded by the end
        of any node's rollback penalty (:func:`speculation_horizon`).
        Progress is probed as one sum of monotone counters (node
        retirements, requests, stores and memory traffic), which changes
        exactly when the :meth:`_progress_state` tuple would.
        """
        nodes = self.nodes
        n = len(nodes)
        banked = self.banked
        specs = tuple(node._spec for node in nodes if node._spec is not None)
        horizon = speculation_horizon(banked.next_event_time, specs)
        comps = banked._completions
        mstats = banked.stats
        finish = self.finish_cycles
        procs = [(node.ap, node.ep) for node in nodes]
        counters = [
            (node.ap.stats, node.ep.stats, node.engine.stats,
             node.store_unit.stats)
            for node in nodes
        ]
        live = [not node.done() for node in nodes]
        running = sum(live)
        last_progress = 0
        p_total = -1
        while running or comps:
            now = self.cycle
            if now >= max_cycles:
                raise CycleBudgetExceeded(
                    f"exceeded cycle budget {max_cycles}"
                )
            snapshots = None
            for i in range(n):
                if live[i]:
                    ap, ep = procs[i]
                    if not (
                        (ap.halted or ap._stalled_on is not None)
                        and (ep.halted or ep._stalled_on is not None)
                    ):
                        break
            else:
                t = horizon(now)
                if t is None or t > now + 1:
                    snapshots = [
                        (i, nodes[i].stall_snapshot())
                        for i in range(n) if live[i]
                    ]
                    resolved = resolutions(specs) if specs else 0
            banked.tick(now)
            # rotating service order, exactly as in _step_all
            rotation = now % n
            for offset in range(n):
                i = (rotation + offset) % n
                if not live[i]:
                    continue
                node = nodes[i]
                if not node.done():
                    steps[i](now)
                    if not node.done():
                        continue
                    if finish[i] is None:
                        finish[i] = node.cycle
                elif finish[i] is None:
                    # finished via this cycle's memory tick
                    finish[i] = now
                live[i] = False
                running -= 1
            self.cycle = now + 1
            total = mstats.reads + mstats.writes
            for ap_s, ep_s, engine_s, su_s in counters:
                total += (
                    ap_s.instructions + ep_s.instructions
                    + engine_s.requests_issued + su_s.stores_issued
                )
            if total != p_total:
                p_total = total
                last_progress = self.cycle
                continue
            if snapshots is not None and (
                not specs or resolutions(specs) == resolved
            ):
                target = horizon(self.cycle)
                bound = last_progress + deadlock_window + 1
                if target is None or target > bound:
                    target = bound
                if target > max_cycles:
                    target = max_cycles
                count = target - self.cycle
                if count > 0:
                    for i, snapshot in snapshots:
                        if live[i]:
                            nodes[i]._replay_fast(snapshot, count)
                    self.cycle += count
            if self.cycle - last_progress > deadlock_window:
                raise SimulationError(
                    f"cluster deadlock at cycle {self.cycle}: "
                    + self._deadlock_reports()
                )

    def _run_naive(self, max_cycles: int, deadlock_window: int) -> None:
        """The reference loop: one :meth:`_step_all` per cluster cycle."""
        last_state: tuple = ()
        last_progress = 0
        while not self.done():
            if self.cycle >= max_cycles:
                raise CycleBudgetExceeded(
                    f"exceeded cycle budget {max_cycles}"
                )
            self._step_all()
            state = self._progress_state()
            if state != last_state:
                last_state = state
                last_progress = self.cycle
            elif self.cycle - last_progress > deadlock_window:
                raise SimulationError(
                    f"cluster deadlock at cycle {self.cycle}: "
                    + self._deadlock_reports()
                )

    def _collect(self) -> ClusterResult:
        for index, node in enumerate(self.nodes):
            if self.finish_cycles[index] is None:
                self.finish_cycles[index] = node.cycle
        mstats = self.banked.stats
        cycles = max(self.cycle, 1)
        return ClusterResult(
            cycles=self.cycle,
            nodes=[n.collect_result() for n in self.nodes],
            bank_conflicts=mstats.bank_conflicts,
            port_rejects=mstats.port_rejects,
            memory_utilization=mstats.utilization(
                cycles, self.config.memory.num_banks
            ),
            finish_cycles=[
                finish if finish is not None else self.cycle
                for finish in self.finish_cycles
            ],
        )

    def _deadlock_reports(self) -> str:
        return "; ".join(
            f"node{i}: {n.deadlock_report()}"
            for i, n in enumerate(self.nodes)
        )


def _fast_node_step(node: SMAMachine, clock: list[int]):
    """Return ``step(now)``: ``node.step_cycle(tick_memory=False)`` with
    the unit steps and the speculation engine's end-of-cycle resolution
    hoisted into locals, and queue occupancy accounted lazily against
    ``clock`` (the node's :meth:`SMAMachine.lazy_occupancy` cell)
    instead of sampled."""
    ap = node.ap
    ep = node.ep
    ap_step = ap.step
    ep_step = ep.step
    su_tick = node.store_unit.tick
    engine_tick = node.engine.tick
    saq_slots = node.queues.store_addr._slots
    engine_streams = node.engine._streams
    metrics = node._metrics
    spec = node._spec

    def step(now: int) -> None:
        clock[0] = now
        # each unit step begins with the same emptiness/halt check;
        # doing it here skips the call entirely on quiet components
        if saq_slots:
            su_tick(now)
        if engine_streams:
            engine_tick(now)
        if not ap.halted:
            ap_step(now)
        if not ep.halted:
            ep_step(now)
        if spec is not None:
            spec.on_cycle(node, now)
        if metrics is not None:
            metrics.on_cycle(node, now)
        node.cycle = now + 1

    return step
