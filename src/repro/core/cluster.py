"""SMA multiprocessor cluster (future-work extension).

A natural growth path for a decoupled node is replication: several SMA
processor pairs sharing one banked main memory.  Each node keeps its own
queues, stream engine and store unit — the *only* shared resource is the
memory, so the interesting question the cluster answers is **how much of a
node's standalone performance survives memory interference**, as a
function of the interleaving degree and the nodes' access patterns.

The cluster owns the memory tick and the clock; its nodes are plain
:class:`SMAMachine` instances built over the shared memory.  It runs on
the same two loops as a standalone machine (:func:`repro.core.machine.
run_nodes`): every simulated cycle delivers completions once, then steps
each running node, in a round-robin order that rotates each cycle so no
node gets a standing priority at the memory port.  A standalone machine
is the one-node case of the same loops.  Under the default
event-horizon loop, once every running node is stalled the shared clock
jumps to the shared memory's next event and every running node replays
the skipped span in closed form; each node's queue occupancy is
accounted lazily on its own clock, stopped at its own finish cycle.
Everything stays bit-identical to naive ticking (property-tested in
``tests/test_cluster_fast_forward.py``), including per-node metrics
buckets.  Nodes run disjoint address ranges — the runner lays each
kernel out in its own region — so no coherence protocol is needed; the
contention being studied is bandwidth, not sharing.

Used by experiment R-F8 (`bench_fig8_multiprocessor.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import SMAConfig
from ..isa import Program
from ..memory import BankedMemory, MainMemory
from .machine import SMAMachine, SMAResult, reference_cycle, run_nodes


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

    def step_cycle(self) -> None:
        """Advance the cluster by one reference cycle (see
        :func:`repro.core.machine.reference_cycle`)."""
        reference_cycle(
            self, self.nodes, [not node.done() for node in self.nodes],
            self.finish_cycles,
        )

    #: same contract as for a machine: the loop ``run`` would pick,
    #: stopped at exactly ``cycle + count``
    step_cycles = SMAMachine.step_cycles

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
        run_nodes(self, self.nodes, self.finish_cycles, max_cycles,
                  deadlock_window, scheduler)
        return self._collect()

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

    def _deadlock_message(self, deadlock_window: int) -> str:
        return f"cluster deadlock at cycle {self.cycle}: " + "; ".join(
            f"node{i}: {n.deadlock_report()}"
            for i, n in enumerate(self.nodes)
        )
