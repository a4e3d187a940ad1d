"""The coupled SMA machine: AP + EP + stream engine + store unit + memory.

:class:`SMAMachine` owns one instance of every component and advances them
in lockstep, one simulated cycle per iteration:

1. memory completions are delivered (filling reserved queue slots),
2. the store unit tries to commit one paired store,
3. the stream engine issues structured-access requests,
4. the access processor and the execute processor each attempt one
   instruction,
5. queue occupancies are sampled.

The run ends when both processors have halted *and* all asynchronous work
has drained (streams finished, SAQ empty, memory quiescent).  A watchdog
aborts with a diagnostic if no forward progress happens for
``deadlock_window`` cycles — with an in-order machine and FIFO queues this
always indicates a miscompiled program (e.g. EP pops a queue the AP never
feeds), and the stall-cause breakdown in the exception message says which.

**Schedulers.**  ``run`` picks one of the two loops in
:data:`SMAMachine.SCHEDULERS`, :func:`naive_loop` and
:func:`event_horizon_loop`.  Both drive a list of nodes against one
clock owner — ``[machine]`` for a standalone machine, the nodes of an
:class:`repro.core.cluster.SMACluster` sharing its banked memory — so a
standalone machine simulates exactly as a one-node cluster, and
:func:`run_nodes` is the one entry point for both.  Both loops call the
same unit steps (one ``step``/``tick`` per unit).  ``"naive"`` is the
jump-free reference loop: it ticks every cycle, samples every queue each
cycle, delivers completions through
:meth:`repro.memory.BankedMemory.tick` and serves every observer.  The
default, ``"event-horizon"``, delivers completions inline, accounts
queue occupancy lazily and, when every processor is stalled, jumps the
clock to the next memory event — a load maturing or a busy bank freeing
(:meth:`repro.memory.BankedMemory.next_event_time`), or the end of a
speculation rollback penalty — replaying the skipped cycles' statistic
increments in closed form.  The processors talk only through queues and
the nodes only through the memory, so once all are stalled nothing but
the memory (and the penalty clocks) can wake them.  An attached
``observer`` forces naive ticking, so trace collectors see every cycle,
and so does fault injection.

The metrics layer (:meth:`SMAMachine.attach_metrics`) is *not* an
observer: its per-cycle stall classifier and stride samplers replay in
closed form inside ``_replay_fast``, so attaching metrics keeps
event-horizon enabled and every bucket total bit-identical to naive
ticking (property-tested in ``tests/test_metrics.py``).
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..config import SMAConfig
from ..errors import CycleBudgetExceeded, SimulationError
from ..isa import Program
from ..memory import BankedMemory, MainMemory
from ..queues import QueueFile
from .access_processor import AccessProcessor, APStats
from .descriptors import StreamEngine, StreamEngineStats
from .execute_processor import EPStats, ExecuteProcessor
from .store_unit import StoreUnit, StoreUnitStats

@dataclass
class SMAResult:
    """Everything measured during one SMA run."""

    cycles: int
    ap: APStats
    ep: EPStats
    engine: StreamEngineStats
    store_unit: StoreUnitStats
    memory_reads: int
    memory_writes: int
    bank_conflicts: int
    port_rejects: int
    memory_utilization: float
    #: time-weighted mean number of occupied load-queue slots — the
    #: run-ahead ("slip") the decoupling achieved.
    mean_outstanding_loads: float
    max_outstanding_loads: int
    queue_stats: dict[str, Any] = field(default_factory=dict)
    #: per-bucket cycle partition (see repro.metrics.attribution); None
    #: unless metrics were attached to the machine.
    stall_breakdown: dict[str, int] | None = None
    #: speculative-AP counters (see repro.core.speculation); None unless
    #: the machine ran with speculation enabled.
    speculation: dict[str, int] | None = None

    @property
    def instructions(self) -> int:
        return self.ap.instructions + self.ep.instructions

    @property
    def lod_events(self) -> int:
        return self.ap.lod_events

    @property
    def lod_stall_cycles(self) -> int:
        return self.ap.lod_stall_cycles()

    def to_dict(self) -> dict:
        """JSON-serializable flat summary (for harness consumers)."""
        out = {
            "cycles": self.cycles,
            "ap_instructions": self.ap.instructions,
            "ep_instructions": self.ep.instructions,
            "ap_stalls": dict(self.ap.stall_cycles),
            "ep_stalls": dict(self.ep.stall_cycles),
            "streams_started": self.engine.streams_started,
            "stream_requests": self.engine.requests_issued,
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "bank_conflicts": self.bank_conflicts,
            "port_rejects": self.port_rejects,
            "memory_utilization": self.memory_utilization,
            "mean_outstanding_loads": self.mean_outstanding_loads,
            "max_outstanding_loads": self.max_outstanding_loads,
            "lod_events": self.lod_events,
            "lod_stall_cycles": self.lod_stall_cycles,
        }
        if self.stall_breakdown is not None:
            out["stall_breakdown"] = dict(self.stall_breakdown)
        if self.speculation is not None:
            out["speculation"] = dict(self.speculation)
        return out

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"cycles                 {self.cycles}",
            f"AP instructions        {self.ap.instructions}"
            f"  (stalls {self.ap.total_stalls()}: {self.ap.stall_cycles})",
            f"EP instructions        {self.ep.instructions}"
            f"  (stalls {self.ep.total_stalls()}: {self.ep.stall_cycles})",
            f"streams started        {self.engine.streams_started}"
            f"  requests {self.engine.requests_issued}",
            f"memory reads/writes    {self.memory_reads}/{self.memory_writes}"
            f"  conflicts {self.bank_conflicts}",
            f"memory utilization     {self.memory_utilization:.3f}",
            f"mean outstanding loads {self.mean_outstanding_loads:.2f}"
            f"  (max {self.max_outstanding_loads})",
            f"LOD events             {self.lod_events}"
            f"  ({self.lod_stall_cycles} stall cycles)",
        ]
        return "\n".join(lines)


def speculation_horizon(horizon, specs):
    """Bound a memory ``horizon(now)`` by the rollback penalties of
    ``specs``: ``penalty_until`` is a speculation engine's only timed
    state, and the AP stalls on ``misspeculation`` until it.  A penalty
    ending at ``now`` itself still bounds, so a jump from ``now`` never
    replays the first cycle the AP may issue again."""
    if not specs:
        return horizon

    def bounded(now: int) -> int | None:
        t = horizon(now)
        for spec in specs:
            end = spec.penalty_until
            if end >= now and (t is None or end < t):
                t = end
        return t

    return bounded


def resolutions(specs) -> int:
    """Predictions resolved so far (commits + rollbacks) over ``specs``.
    A resolution changes state without retiring an instruction, so the
    event-horizon loop compares this across a template cycle before
    jumping."""
    return sum(s.stats.commits + s.stats.rollbacks for s in specs)


# -- the simulation loops -----------------------------------------------
#
# Both loops step a list of :class:`SMAMachine` nodes against one clock
# owner, which holds the shared clock (``owner.cycle``) and the memory
# (``owner.banked``): the machine itself when it runs standalone, or an
# SMACluster.  A node finishing is recorded in ``finish[i]`` at the end
# of the cycle it finished in; finished nodes are not stepped again.  The
# loop ends once every node finished and the memory has drained.
#
# Progress (for the deadlock watchdog and the jump confirmation) is one
# sum of monotone counters: retired AP/EP instructions and memory reads
# plus writes.  Every stream request and committed store is a memory
# access, so the sum changes exactly when any of those counters does.


def reference_cycle(owner, nodes, live, finish) -> None:
    """One cycle of the reference loop: deliver due completions, then
    each live node's :meth:`SMAMachine._reference_step` in an order that
    rotates with the cycle number (so no node holds a standing priority
    at the memory port)."""
    now = owner.cycle
    owner.banked.tick(now)
    n = len(nodes)
    for offset in range(n):
        i = (now + offset) % n
        if live[i]:
            node = nodes[i]
            node._reference_step(now)
            if node.done():
                live[i] = False
                finish[i] = now + 1
    owner.cycle = now + 1


def naive_loop(owner, nodes, finish, max_cycles, deadlock_window,
               observer=None) -> None:
    """The jump-free reference loop: one :func:`reference_cycle` per
    simulated cycle, then ``observer(owner, cycle)`` when one is given."""
    comps = owner.banked._completions
    mstats = owner.banked.stats
    retired = [(node.ap.stats, node.ep.stats) for node in nodes]
    live = [not node.done() for node in nodes]
    last_progress = 0
    p_total = -1
    while comps or True in live:
        now = owner.cycle
        if now >= max_cycles:
            raise CycleBudgetExceeded(f"exceeded cycle budget {max_cycles}")
        reference_cycle(owner, nodes, live, finish)
        if observer is not None:
            observer(owner, now)
        total = mstats.reads + mstats.writes
        for ap_stats, ep_stats in retired:
            total += ap_stats.instructions + ep_stats.instructions
        if total != p_total:
            p_total = total
            last_progress = now + 1
        elif now + 1 - last_progress > deadlock_window:
            raise SimulationError(owner._deadlock_message(deadlock_window))


def _node_steps(node, clock, finished):
    """The event-horizon node step as a generator: each ``send(now)``
    runs the node's unit steps for cycle ``now`` and yields the node's
    AP + EP instruction count, its share of the progress probe.  The
    node's state lives in generator locals (resuming a generator costs a
    fraction of a closure call, which copies every free variable in),
    and queue occupancy is accounted lazily against ``clock`` (the
    node's :meth:`SMAMachine.lazy_occupancy` cell).  A step after which
    the node is done (:meth:`SMAMachine.done`, spelled out over the same
    identity-stable containers) appends the node to ``finished``."""
    ap = node.ap
    ep = node.ep
    ap_stats = ap.stats
    ep_stats = ep.stats
    ap_step = ap.step
    ep_step = ep.step
    su_tick = node.store_unit.tick
    engine_tick = node.engine.tick
    saq_slots = node.queues.store_addr._slots
    engine_streams = node.engine._streams
    # only a node that owns its memory waits for it to drain
    comps = node.banked._completions if node._owns_memory else ()
    metrics = node._metrics
    spec = node._spec
    spec_stack = () if spec is None else spec.stack
    now = yield
    while True:
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
        if (
            ap.halted and ep.halted and not engine_streams
            and not saq_slots and not comps and not spec_stack
        ):
            finished.append(node)
        now = yield ap_stats.instructions + ep_stats.instructions


def event_horizon_loop(owner, nodes, finish, max_cycles, deadlock_window,
                       observer=None) -> None:
    """The reference cycle with completions delivered inline, each node
    stepped through :func:`_node_steps` under its own
    :meth:`SMAMachine.lazy_occupancy` bracket (flushed at the node's own
    finish cycle), and jumps to the memory's next event.

    A jump is only *planned* when this cycle delivered no completion and
    every processor ended its last step halted or blocked; it is only
    *taken* after one live template cycle confirms that nothing moved —
    the pre-step flags can be stale (e.g. an EP freed a queue after its
    AP's stall was recorded) — and that it resolved no speculation frame
    (a commit or rollback retires nothing).  The jump target is the next
    event after the template: with every unit idle and nothing issued, no
    state but the memory's and the rollback-penalty clocks' changes with
    time (:func:`speculation_horizon`).  Every running node replays the
    skipped span through :meth:`SMAMachine._replay_fast`; the memory needs
    no replay, since a jointly idle cycle issues no access.  Deadlock and
    cycle-budget diagnostics fire at the identical cycle as naive
    ticking.  ``observer`` is never given (:func:`run_nodes` serves
    observers on the naive loop).
    """
    banked = owner.banked
    comps = banked._completions
    mstats = banked.stats
    pop = heapq.heappop
    n = len(nodes)
    specs = tuple(node._spec for node in nodes if node._spec is not None)
    horizon = speculation_horizon(banked.next_event_time, specs)
    # one (AP, EP) pair per node: each attribute site below then sees a
    # single processor type, which keeps its lookup specialised
    procs = [(node.ap, node.ep) for node in nodes]
    running = [node for node in nodes if not node.done()]
    # retired instructions of finished nodes (no longer stepped)
    retired = sum(
        node.ap.stats.instructions + node.ep.stats.instructions
        for node in nodes if node not in running
    )
    finished = []
    last_progress = 0
    p_total = -1
    with ExitStack() as brackets:
        steps = {}
        for node in nodes:
            stepper = _node_steps(
                node, brackets.enter_context(node.lazy_occupancy()),
                finished,
            )
            next(stepper)  # run to the first yield
            steps[node] = stepper.send

        def rotations():
            # the rotating service order of reference_cycle, per
            # cycle % n, over the running nodes; a sole running node
            # (every standalone machine) is stepped without the rotation
            orders = [
                [steps[node] for node in nodes[r:] + nodes[:r]
                 if node in running]
                for r in range(n)
            ]
            return orders, orders[0][0] if len(running) == 1 else None

        orders, solo = rotations()
        while running or comps:
            now = owner.cycle
            if now >= max_cycles:
                raise CycleBudgetExceeded(
                    f"exceeded cycle budget {max_cycles}"
                )
            delivered = False
            while comps and comps[0][0] <= now:
                _, _, callback, result = pop(comps)
                mstats.completions += 1
                callback(result)
                delivered = True
            snapshots = None
            if not delivered:
                # finished nodes have both processors halted
                for ap, ep in procs:
                    if not (
                        (ap.halted or ap._stalled_on is not None)
                        and (ep.halted or ep._stalled_on is not None)
                    ):
                        break
                else:
                    t = horizon(now)
                    if t is None or t > now + 1:
                        snapshots = [
                            (node, node.stall_snapshot())
                            for node in running
                        ]
                        resolved = resolutions(specs) if specs else 0
            if solo is not None:
                total = retired + solo(now)
            else:
                total = retired
                for step in orders[now % n]:
                    total += step(now)
            owner.cycle = now = now + 1
            if finished:
                for node in finished:
                    finish[nodes.index(node)] = now
                    running.remove(node)
                    retired += (
                        node.ap.stats.instructions
                        + node.ep.stats.instructions
                    )
                finished.clear()
                orders, solo = rotations()
            total += mstats.reads + mstats.writes
            if total != p_total:
                p_total = total
                last_progress = now
                continue
            if snapshots is not None and (
                not specs or resolutions(specs) == resolved
            ):
                target = horizon(now)
                bound = last_progress + deadlock_window + 1
                if target is None or target > bound:
                    target = bound
                if target > max_cycles:
                    target = max_cycles
                count = target - now
                if count > 0:
                    for node, snapshot in snapshots:
                        if node in running:
                            node._replay_fast(snapshot, count)
                    owner.cycle = now = target
            if now - last_progress > deadlock_window:
                raise SimulationError(
                    owner._deadlock_message(deadlock_window)
                )


def run_nodes(owner, nodes, finish, max_cycles, deadlock_window,
              scheduler, observer=None) -> None:
    """Run ``nodes`` against ``owner``'s clock and memory on the loop
    ``scheduler`` names in :data:`SMAMachine.SCHEDULERS` — the one path
    behind :meth:`SMAMachine.run` and
    :meth:`repro.core.cluster.SMACluster.run`.

    Fault injection and an observer downgrade to the naive loop:
    event-horizon delivers completions inline (bypassing the dropping
    ``FaultyMemory.tick``) and jumps over cycles in which the
    deterministic fault predicate would have changed its verdict, and an
    observer must see every cycle.  Speculation engines (and their
    oracle pre-runs) are built first, as a node's first reference step
    would."""
    loops = SMAMachine.SCHEDULERS
    if scheduler not in loops:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of "
            + ", ".join(loops)
        )
    if owner.banked.fault_injection or observer is not None:
        scheduler = "naive"
    for node in nodes:
        if not node._spec_ready:
            node._ensure_speculation()
    loops[scheduler](
        owner, nodes, finish, max_cycles, deadlock_window, observer
    )


class SMAMachine:
    """A complete decoupled access/execute machine instance."""

    def __init__(
        self,
        access_program: Program,
        execute_program: Program,
        config: SMAConfig | None = None,
        shared_memory: BankedMemory | None = None,
    ):
        self.config = config or SMAConfig()
        if shared_memory is not None:
            # multiprocessor configuration: several machines contend for
            # one banked memory (see repro.core.cluster); the cluster owns
            # the memory tick
            self.memory = shared_memory.storage
            self.banked = shared_memory
            self._owns_memory = False
        else:
            self.memory = MainMemory(self.config.memory.size)
            if self.config.faults is not None:
                from ..memory.banks import FaultyMemory

                self.banked = FaultyMemory(
                    self.memory, self.config.memory, self.config.faults
                )
            else:
                self.banked = BankedMemory(self.memory, self.config.memory)
            self._owns_memory = True
        self.queues = QueueFile(self.config)
        self.engine = StreamEngine(
            self.banked,
            self.config.max_streams,
            self.config.stream_issue_per_cycle,
        )
        self.store_unit = StoreUnit(self.queues, self.banked)
        self.ap = AccessProcessor(
            access_program, self.queues, self.banked, self.engine
        )
        self.ep = ExecuteProcessor(execute_program, self.queues)
        for program in (access_program, execute_program):
            for base, values in program.data:
                self.memory.load_array(base, values)
        self.cycle = 0
        self._occupancy_sum = 0
        self._occupancy_max = 0
        #: stall-attribution layer, attached via attach_metrics(); unlike
        #: an observer it does not force naive ticking
        self._metrics = None
        # flat queue view, built once: used by the per-cycle sampling and
        # by the statistics replay of skipped cycles
        self._queue_list = self.queues.all_queues()
        self._load_slots = [q._slots for q in self.queues.load]
        #: speculative-AP engine (repro.core.speculation), built lazily by
        #: _ensure_speculation so the oracle pre-run sees loaded inputs
        self._spec = None
        self._spec_ready = False

    # -- convenience for loading workloads ------------------------------

    def load_array(self, base: int, values) -> None:
        """Place a workload array into memory before running."""
        self.memory.load_array(base, values)

    def dump_array(self, base: int, count: int):
        """Read back a result array after running."""
        return self.memory.dump_array(base, count)

    # -- observability ---------------------------------------------------

    def attach_metrics(self, samplers=None, registry=None):
        """Attach the stall-attribution metrics layer; returns it.

        Unlike ``run(observer=...)`` this keeps the event-horizon
        scheduler enabled: the classifier and any stride samplers are
        replayed in closed form when the clock jumps.  ``samplers=None``
        installs the default load-queue-occupancy sampler; pass an empty
        tuple for none.
        """
        from ..metrics import SMAMachineMetrics, StrideSampler

        if samplers is None:
            samplers = (
                StrideSampler(
                    "load_queue_occupancy",
                    lambda m: sum(map(len, m._load_slots)),
                    stride=64,
                ),
            )
        self._metrics = SMAMachineMetrics(
            self, registry=registry, samplers=samplers
        )
        return self._metrics

    # -- the simulation loop ---------------------------------------------

    def done(self) -> bool:
        """True when both processors halted and all async work drained."""
        return (
            self.ap.halted
            and self.ep.halted
            and self.engine.idle()
            and not self.store_unit.pending()
            and (not self._owns_memory or self.banked.quiescent())
            and (self._spec is None or self._spec.idle())
        )

    def step_cycle(self) -> None:
        """Advance the machine by one reference cycle.  A cluster node
        leaves the memory tick to its cluster, which owns the shared
        memory and ticks it once per cycle for all nodes."""
        if self._owns_memory:
            self.banked.tick(self.cycle)
        self._reference_step(self.cycle)

    def _reference_step(self, now: int) -> None:
        """The node's part of a reference cycle: every unit steps once,
        then queue occupancies are sampled."""
        if not self._spec_ready:
            self._ensure_speculation()
        self.store_unit.tick(now)
        self.engine.tick(now)
        self.ap.step(now)
        self.ep.step(now)
        if self._spec is not None:
            # end-of-cycle prediction resolution: both processors have
            # acted, so any EP confirmation pushed this cycle is visible
            self._spec.on_cycle(self, now)
        self.queues.sample()
        outstanding = sum(map(len, self._load_slots))
        self._occupancy_sum += outstanding
        if outstanding > self._occupancy_max:
            self._occupancy_max = outstanding
        if self._metrics is not None:
            self._metrics.on_cycle(self, now)
        self.cycle = now + 1

    def _ensure_speculation(self, oracle: dict | None = None) -> None:
        """Build the speculation engine on first use (idempotent).
        ``oracle`` supplies pre-recorded prediction tables (checkpoint
        restore), skipping the reference pre-run.

        Deferred past construction so the oracle pre-run observes the
        same initial memory image as the speculative run — workloads are
        loaded with :meth:`load_array` after the machine is built.  A
        config whose :attr:`SpeculationConfig.enabled` is false (accuracy
        0 or mode ``"never"``) never creates an engine at all, keeping
        such runs bit-identical to a machine with no speculation config.
        """
        self._spec_ready = True
        spec_cfg = self.config.speculation
        if spec_cfg is None or not spec_cfg.enabled or self._spec is not None:
            return
        from .speculation import SpeculationEngine

        self._spec = SpeculationEngine(self, spec_cfg, oracle=oracle)
        self.ap.attach_speculation(self._spec)

    def step_cycles(self, count: int) -> int:
        """Advance up to ``count`` cycles, stopping early at completion;
        returns the number of cycles advanced.  Used for mid-run
        checkpoints and the service's bounded slices, by machines and
        clusters alike.

        Runs the loop ``run`` would pick (fault injection still
        downgrades to naive ticking) with the budget set to exactly
        ``cycle + count``: jumps are clamped to the budget and the lazy
        occupancy brackets flush on the way out, so the state reached is
        bit-identical to ``count`` naive ``step_cycle`` calls.  The
        deadlock watchdog is armed as in ``run``, counting from the
        first cycle of this call.  A budget stop leaves a running
        cluster node without a finish cycle."""
        start = self.cycle
        try:
            self.run(max_cycles=start + count)
        except CycleBudgetExceeded:
            pass
        return self.cycle - start

    # -- checkpoint / restore --------------------------------------------

    def snapshot(self) -> dict:
        """JSON-clean image of the machine's full mutable state (see
        :mod:`repro.core.checkpoint`).  Take only between runs / steps,
        never from inside a scheduler loop."""
        from .checkpoint import snapshot_machine

        return snapshot_machine(self)

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`; the machine must have been built
        from the same programs and configuration (fingerprint-checked,
        :class:`repro.errors.CheckpointError` otherwise).  All containers
        are mutated in place, so cached references stay valid."""
        from .checkpoint import restore_machine

        restore_machine(self, data)

    def state_digest(self) -> str:
        """Deterministic sha256 over the canonical snapshot encoding; two
        machines with bit-identical state produce the same digest."""
        from .checkpoint import digest

        return digest(self.snapshot())

    def deadlock_report(self) -> str:
        return (
            f"AP@{self.ap.pc} halted={self.ap.halted} "
            f"stalls={self.ap.stats.stall_cycles}; "
            f"EP@{self.ep.pc} halted={self.ep.halted} "
            f"stalls={self.ep.stats.stall_cycles}; "
            f"live streams={self.engine.live_streams}"
        )

    def _deadlock_message(self, deadlock_window: int) -> str:
        return (
            "deadlock: no forward progress for "
            f"{deadlock_window} cycles at cycle {self.cycle}; "
            + self.deadlock_report()
        )

    def collect_result(self) -> SMAResult:
        """Snapshot the statistics gathered so far into an SMAResult."""
        mstats = self.banked.stats
        cycles = max(self.cycle, 1)
        return SMAResult(
            cycles=self.cycle,
            ap=self.ap.stats,
            ep=self.ep.stats,
            engine=self.engine.stats,
            store_unit=self.store_unit.stats,
            memory_reads=mstats.reads,
            memory_writes=mstats.writes,
            bank_conflicts=mstats.bank_conflicts,
            port_rejects=mstats.port_rejects,
            memory_utilization=mstats.utilization(
                cycles, self.config.memory.num_banks
            ),
            mean_outstanding_loads=self._occupancy_sum / cycles,
            max_outstanding_loads=self._occupancy_max,
            queue_stats={q.name: q.stats for q in self.queues.all_queues()},
            stall_breakdown=(
                self._metrics.stall_breakdown()
                if self._metrics is not None else None
            ),
            speculation=(
                self._spec.stats.to_dict()
                if self._spec is not None else None
            ),
        )

    # -- scheduler registry ----------------------------------------------
    #
    # Each entry maps a scheduler name to a loop ``(owner, nodes, finish,
    # max_cycles, deadlock_window, observer)`` (see :func:`run_nodes`).
    # The CLI (``--scheduler`` choices), the cluster and the benchmark
    # shoot-out all iterate this mapping, so registering a scheduler here
    # is the single step needed to surface it everywhere.

    #: accepted values for ``run(scheduler=...)``, in reference-first
    #: order (the first entry is the baseline the others must match)
    SCHEDULERS = {
        "naive": naive_loop,
        "event-horizon": event_horizon_loop,
    }

    def run(
        self,
        max_cycles: int = 10_000_000,
        deadlock_window: int = 10_000,
        observer=None,
        scheduler: str = "event-horizon",
    ) -> SMAResult:
        """Run to completion; returns the collected statistics.

        ``observer``, if given, is called as ``observer(machine, cycle)``
        once per simulated cycle after all components have stepped — the
        hook the trace collectors in :mod:`repro.trace` attach through.
        An observer forces naive ticking.

        ``scheduler`` selects the simulation loop:

        ``"naive"``          tick every cycle (the reference loop)
        ``"event-horizon"``  memory-event jumps over jointly stalled
                             spans, lazy occupancy accounting (default)

        The machine runs as the single node of its own clock
        (:func:`run_nodes`).  Fault injection downgrades event-horizon
        to naive; speculative runs take either loop.  Cycle counts and
        every statistic are bit-identical across both
        (``tests/test_fast_forward.py``, ``tests/test_event_horizon.py``
        and, under speculation, ``tests/test_speculation.py``).
        """
        run_nodes(self, [self], [None], max_cycles, deadlock_window,
                  scheduler, observer)
        return self.collect_result()

    # -- event-horizon scheduling ----------------------------------------

    @contextmanager
    def lazy_occupancy(self):
        """Bracket a fast loop with lazy (event-driven) queue-occupancy
        accounting; yields the ``clock`` cell.

        Occupancies change only on reserve/pop, so each mutation flushes
        the elapsed span at the stable length instead of every cycle
        sampling every queue — bit-identical totals at a fraction of the
        bookkeeping cost.  The driver sets ``clock[0]`` to the current
        cycle before stepping this machine.  On exit (errors included)
        the queues are flushed up to ``self.cycle`` and the load-queue
        aggregate is folded into the machine-level occupancy counters, so
        a cluster node's accounting stops at its own finish cycle.
        """
        clock = [self.cycle]
        load_queues = self.queues.load
        occ_before = [q.stats.occupancy_sum for q in load_queues]
        agg = self.queues.begin_lazy_sampling(clock)
        try:
            yield clock
        finally:
            clock[0] = self.cycle
            self.queues.end_lazy_sampling(agg)
            self._occupancy_sum += sum(
                q.stats.occupancy_sum - before
                for q, before in zip(load_queues, occ_before)
            )
            if agg.max_seen > self._occupancy_max:
                self._occupancy_max = agg.max_seen

    # -- statistics replay of skipped cycles ---------------------------
    #
    # The snapshot/replay methods below are the *replay contract* the
    # event-horizon loop drives: snapshot before a candidate idle cycle
    # and, once the cycle is confirmed fully idle, replay it ``count``
    # times in closed form (``_replay_fast``, under lazy occupancy
    # accounting).  Neither touches the memory model, so a non-owning
    # cluster node replays exactly like a standalone machine.

    def stall_snapshot(self):
        """Snapshot of every counter a fully-idle cycle can increment,
        taken immediately before simulating the replay-template cycle."""
        ap = self.ap.stats
        ep = self.ep.stats
        su = self.store_unit.stats
        spec = self._spec
        return (
            dict(ap.stall_cycles),
            ap.lod_events,
            dict(ep.stall_cycles),
            self.engine.stats.blocked_cycles,
            su.data_wait_cycles,
            su.memory_wait_cycles,
            [
                (q.stats.empty_stalls, q.stats.full_stalls)
                for q in self._queue_list
            ],
            # a stalled speculative AP refuses a prediction every cycle
            None if spec is None
            else (spec.stats.depth_refusals, spec.stats.oracle_refusals),
        )

    def _replay_fast(self, snapshot, count: int) -> None:
        """Advance the clock by ``count`` cycles, applying the statistic
        increments of the just-simulated idle cycle (the delta against
        ``snapshot``) in closed form.

        Sound because a fully-idle cycle leaves every piece of machine
        state untouched except monotone counters: queue contents, PCs,
        stall causes and the stream engine's round-robin pointer are all
        unchanged, so each skipped cycle would have incremented exactly
        the same counters by exactly the same amounts.  Per-queue
        occupancy is not sampled here: the lazy accounting of
        :meth:`lazy_occupancy` covers a skipped span on the queue's next
        flush (contents are constant across it).
        """
        ap_before, lod_before, ep_before, blocked_before, \
            dwait_before, mwait_before, queues_before, spec_before = snapshot
        ap = self.ap.stats
        for cause, value in ap.stall_cycles.items():
            delta = value - ap_before.get(cause, 0)
            if delta:
                ap.stall_cycles[cause] = value + delta * count
        ap.lod_events += (ap.lod_events - lod_before) * count
        ep = self.ep.stats
        for cause, value in ep.stall_cycles.items():
            delta = value - ep_before.get(cause, 0)
            if delta:
                ep.stall_cycles[cause] = value + delta * count
        engine_stats = self.engine.stats
        engine_stats.blocked_cycles += (
            engine_stats.blocked_cycles - blocked_before
        ) * count
        su = self.store_unit.stats
        su.data_wait_cycles += (su.data_wait_cycles - dwait_before) * count
        su.memory_wait_cycles += (su.memory_wait_cycles - mwait_before) * count
        for queue, (empty_before, full_before) in zip(
            self._queue_list, queues_before
        ):
            stats = queue.stats
            delta = stats.empty_stalls - empty_before
            if delta:
                stats.empty_stalls += delta * count
            delta = stats.full_stalls - full_before
            if delta:
                stats.full_stalls += delta * count
        if spec_before is not None:
            spec = self._spec.stats
            depth_before, oracle_before = spec_before
            spec.depth_refusals += (spec.depth_refusals - depth_before) * count
            spec.oracle_refusals += (
                spec.oracle_refusals - oracle_before
            ) * count
        if self._metrics is not None:
            # skipped cycles are self.cycle .. self.cycle + count - 1
            self._metrics.on_replay(self, self.cycle, count)
        self.cycle += count
