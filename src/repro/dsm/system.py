"""System assembly: build a cluster, run an application, collect results.

:class:`DsmSystem` wires together the simulation substrate (engine,
network, disks), the shared address space, one :class:`HlrcNode` per
rank with its logging-protocol instance, and the application's SPMD
program.  One system object corresponds to one run; results come back
as a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..config import ClusterConfig
from ..errors import ApplicationError, ConfigError
from ..sim.disk import Disk
from ..sim.engine import Simulator
from ..sim.events import AllOf
from ..sim.faults import DiskFaultPlan, FaultPlan
from ..sim.network import Network
from ..sim.stats import NodeStats
from ..sim.trace import Tracer
from ..memory import SharedAddressSpace
from .api import Dsm
from .hlrc import HlrcNode, ProbeFn
from .home import round_robin_homes
from .logginghooks import LoggingHooks, NoLogging

__all__ = ["DsmSystem", "RunResult"]

#: Factory producing one logging-protocol instance per node.
HooksFactory = Callable[[int], LoggingHooks]


@dataclass
class RunResult:
    """Everything measured during one simulated run."""

    app_name: str
    protocol: str
    total_time: float
    node_stats: List[NodeStats]
    log_summaries: List[Dict[str, Any]]
    network_bytes: int
    network_msgs: int
    bytes_by_kind: Dict[str, int]
    config: ClusterConfig
    #: False when a live kill stalled the cluster before completion.
    completed: bool = True
    #: Names of the processes left blocked by a live kill.
    blocked: List[str] = field(default_factory=list)
    #: Live node objects, retained for verification and recovery setup.
    nodes: List[HlrcNode] = field(default_factory=list, repr=False)
    #: Per-disk summaries (op latency histograms, byte/op counters).
    disk_stats: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    #: Home-replication factor the run was configured with (1 = off).
    replication: int = 1
    #: Per-node replicator summaries (empty when replication is off).
    replication_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: Fault-domain labels, one per node (None when zones are unset).
    zones: Optional[Any] = None
    #: Nodes killed live during the run (fault plan + explicit kill).
    dead_nodes: List[int] = field(default_factory=list)

    # -- stable-storage metrics (checkpoint-driven truncation) ----------
    @property
    def live_log_bytes(self) -> int:
        """On-disk log bytes not yet reclaimed, across all nodes."""
        return int(sum(s.get("live_log_bytes", 0) for s in self.log_summaries))

    @property
    def reclaimed_log_bytes(self) -> int:
        """Log bytes garbage-collected by truncation, across all nodes."""
        return int(sum(s.get("reclaimed_bytes", 0) for s in self.log_summaries))

    @property
    def aggregate(self) -> NodeStats:
        """Cluster-wide sums of all node counters and time buckets."""
        return NodeStats.aggregate(self.node_stats)

    # -- logging metrics used by Table 2 --------------------------------
    @property
    def num_flushes(self) -> int:
        """Total stable-storage flushes across all nodes."""
        return int(sum(s.get("flushes", 0) for s in self.log_summaries))

    @property
    def total_log_bytes(self) -> int:
        """Total bytes of logged data across all nodes."""
        return int(sum(s.get("bytes_flushed", 0) for s in self.log_summaries))

    @property
    def mean_flush_bytes(self) -> float:
        """Average size of one flush (the paper's "mean log size")."""
        n = self.num_flushes
        return self.total_log_bytes / n if n else 0.0


class DsmSystem:
    """One simulated cluster executing one application run."""

    def __init__(
        self,
        app: Any,
        config: Optional[ClusterConfig] = None,
        hooks_factory: Optional[HooksFactory] = None,
        protocol_name: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        fault_plan: Optional[FaultPlan] = None,
        disk_fault_plan: Optional["DiskFaultPlan"] = None,
        replication: int = 1,
    ):
        self.app = app
        self.config = config or ClusterConfig.ultra5()
        self.hooks_factory = hooks_factory or (lambda _i: NoLogging())
        # explicit None-check: an empty Tracer is falsy (it has __len__)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.sim = Simulator()
        self.fault_plan = fault_plan
        for victim in (fault_plan.kills if fault_plan is not None else {}):
            if not (0 <= victim < self.config.num_nodes):
                raise ConfigError(f"fault-plan kill target {victim} out of range")
        self.network = Network(
            self.sim, self.config.network, self.config.num_nodes,
            fault_plan=fault_plan,
            zones=list(self.config.zones) if self.config.zones is not None else None,
            wan_latency_s=self.config.zone_wan_latency_s,
        )
        self.network.tracer = self.tracer
        # An active plan interposes the reliable transport between the
        # protocol and the wire; otherwise the nodes talk to the bare
        # network and every existing stat stays byte-identical.
        if fault_plan is not None and fault_plan.active:
            from .reliable import ReliableTransport

            self.transport: Any = ReliableTransport(self.network, self.sim)
        else:
            self.transport = self.network
        self.disks = [
            Disk(self.sim, self.config.disk, f"disk{i}")
            for i in range(self.config.num_nodes)
        ]
        # the logging hooks pick the plan up from their node's disk when
        # they bind (disks exist before nodes, so this must come first)
        self.disk_fault_plan = disk_fault_plan
        if disk_fault_plan is not None:
            for disk in self.disks:
                disk.fault_plan = disk_fault_plan

        # let the application lay out shared memory
        self.space = SharedAddressSpace(self.config.page_size)
        app.allocate(self.space, self.config.num_nodes)
        if self.space.npages == 0:
            raise ApplicationError(f"{app!r} allocated no shared memory")

        homes_fn = getattr(app, "homes", None)
        if homes_fn is not None:
            homes = homes_fn(self.space, self.config.num_nodes)
        else:
            homes = None
        if homes is None:
            homes = round_robin_homes(self.space.npages, self.config.num_nodes)
        if len(homes) != self.space.npages:
            raise ConfigError(
                f"home map covers {len(homes)} pages, space has {self.space.npages}"
            )
        self.homes = list(homes)

        self.nodes = [
            HlrcNode(self, i, self.hooks_factory(i))
            for i in range(self.config.num_nodes)
        ]
        self._protocol_name = protocol_name or self.nodes[0].hooks.name

        # quorum-replicated homes: plan the replica groups and seed every
        # follower's mirror from the primary's pristine home frames
        # (nothing has run yet, and only home frames start materialised)
        self.replication = replication
        self.replica_groups: Dict[int, Any] = {}
        if replication >= 2:
            from ..core.replication import Replicator, plan_groups

            n = self.config.num_nodes
            self.replica_groups = plan_groups(n, replication, self.config.zones)
            pages_of: Dict[int, List[int]] = {i: [] for i in range(n)}
            for page, home in enumerate(self.homes):
                pages_of[home].append(page)
            for node in self.nodes:
                rep = Replicator(self.replica_groups[node.id])
                rep.bind(node)
                node.replicator = rep
            for primary, group in self.replica_groups.items():
                for f in group.followers:
                    self.nodes[f].replicator.init_follower(
                        primary, pages_of[primary], self.nodes[primary].memory, n
                    )

    # ------------------------------------------------------------------
    def add_probe(self, probe: ProbeFn) -> None:
        """Attach a failure-point probe to every node."""
        for node in self.nodes:
            node.probes.append(probe)

    # ------------------------------------------------------------------
    def run(
        self,
        kill_node: Optional[int] = None,
        kill_at: Optional[float] = None,
    ) -> RunResult:
        """Execute the application to completion and collect metrics.

        ``kill_node``/``kill_at`` crash one node **live**: its main and
        server processes are killed at the given virtual time and the
        run continues until the survivors stall (no recovery happens --
        this is the demonstration of *why* the paper needs one).  The
        returned result then has ``completed=False`` and names the
        blocked survivors.
        """
        servers = [
            self.sim.spawn(node.server_loop(), name=f"server{node.id}")
            for node in self.nodes
        ]
        mains = [
            self.sim.spawn(self._main(node), name=f"main{node.id}")
            for node in self.nodes
        ]
        completed = True
        blocked: List[str] = []

        def controller() -> Generator[Any, Any, None]:
            yield AllOf([m.done for m in mains])
            for s in servers:
                s.kill()

        ctl = self.sim.spawn(controller(), name="controller")

        kills: Dict[int, float] = {}
        if self.fault_plan is not None:
            kills.update(self.fault_plan.kills)
        if kill_node is not None:
            if not (0 <= kill_node < len(self.nodes)):
                raise ConfigError(f"kill_node {kill_node} out of range")
            kills[kill_node] = kill_at or 0.0
            # with an active plan the network also stops delivering the
            # victim's in-flight frames; the bare network keeps the
            # pre-fault-injection behaviour (processes die, frames land)
            if self.transport is not self.network:
                self.network.fault_plan.kills.setdefault(kill_node, kill_at or 0.0)
        for victim, at_time in sorted(kills.items()):

            def do_kill(v: int = victim) -> None:
                mains[v].kill()
                servers[v].kill()

            self.sim.schedule(at_time, do_kill)

        try:
            total = self.sim.run()
        except Exception as exc:
            from ..errors import DeadlockError

            if isinstance(exc, DeadlockError) and kills:
                completed = False
                blocked = list(exc.blocked)
                total = self.sim.now
                ctl.kill()
                for proc in mains + servers:
                    proc.kill()
            else:
                raise
        failed = [m for m in mains if m.error is not None]
        if failed:  # pragma: no cover - surfaced via SimulationError in run()
            raise ApplicationError(f"ranks failed: {[m.name for m in failed]}")
        return RunResult(
            completed=completed,
            blocked=blocked,
            app_name=getattr(self.app, "name", type(self.app).__name__),
            protocol=self._protocol_name,
            total_time=total,
            node_stats=[n.stats for n in self.nodes],
            log_summaries=[n.hooks.log_summary() for n in self.nodes],
            network_bytes=self.network.total_bytes,
            network_msgs=sum(self.network.msgs_sent),
            bytes_by_kind=dict(self.network.bytes_by_kind),
            config=self.config,
            nodes=self.nodes,
            disk_stats=[d.summary() for d in self.disks],
            replication=self.replication,
            replication_stats=[
                n.replicator.summary()
                for n in self.nodes
                if getattr(n, "replicator", None) is not None
            ],
            zones=self.config.zones,
            dead_nodes=sorted(kills),
        )

    def _main(self, node: HlrcNode) -> Generator[Any, Any, None]:
        dsm = Dsm(node, node.id, self.config.num_nodes)
        yield from self.app.program(dsm)
