"""Sharded cluster execution: the tile grid across nodes, survivably.

The paper's Section VII extension ("multiple nodes, e.g. using MPI or a
Cloud-based solution") as an executable tier: :class:`ClusterDispatcher`
shards an :class:`~repro.engine.plan.ExecutionPlan`'s tile grid across
simulated nodes, runs each shard through the *existing*
:func:`~repro.engine.dispatch.execute_plan` loop (one
:class:`~repro.gpu.simulator.GPUSimulator` per node), and merges the
per-node partial profiles through one
:class:`~repro.engine.accumulate.ProfileAccumulator`.

Bit-identity is the design invariant.  Tiles are independent, so a
tile's output depends only on its geometry, the series, and the config —
never on which node ran it.  The coordinator commits completed tiles
through the same :class:`~repro.engine.accumulate.TileCommitOrder` rule
as :func:`~repro.engine.dispatch.execute_plan` — a tile merges once no
smaller id is outstanding (hence the strict-``<`` tie-break contract) —
so the final profile is bit-identical to a single-node run *regardless
of sharding, node loss, or recovery*.  The merge is **asynchronous**:
each node's finished tiles commit as soon as their predecessors have,
and are journaled as they merge — a coordinator crash mid-recovery
leaves a valid prefix journal that :func:`resume_cluster` continues
bit-identically.  OOM-split children take ids past every id of the
job, so they never collide with another node's tiles.

Node-loss recovery: a :class:`~repro.cluster.faults.NodeFaultPlan`
decides deterministically which nodes crash and after what fraction of
their shard.  Crashed nodes stay dead; their unfinished tiles re-shard
round-robin over the sorted survivors in the next round, paced by the
config's :class:`~repro.core.config.RetryPolicy` (seeded jittered
backoff) and charged the heartbeat detector's detection latency.  The
modelled time prices every phase: topology-aware broadcast over the
fabric graph (degraded NICs included), per-round GPU makespans
(stragglers included), the reduce-tree gather, and the merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import RetryPolicy, RunConfig
from ..core.result import MatrixProfileResult
from ..engine.accumulate import ProfileAccumulator, TileCommitOrder
from ..engine.backends import AnalyticBackend, NumericBackend
from ..engine.checkpoint import RunJournal
from ..engine.dispatch import TileRetryExhaustedError, execute_plan
from ..engine.plan import JobSpec
from ..gpu.calibration import MERGE_TIME_PER_ELEMENT, TILE_DISPATCH_OVERHEAD
from ..gpu.simulator import GPUSimulator
from ..gpu.stream import Timeline
from ..gpu.topology import (
    cluster_broadcast_time,
    cluster_reduce_time,
    degrade_link,
)
from ..precision.modes import PrecisionMode
from .faults import HeartbeatDetector, NodeFaultPlan
from .spec import ClusterSpec

__all__ = ["NodeShard", "ClusterRunResult", "ClusterDispatcher", "resume_cluster"]


@dataclass
class NodeShard:
    """One node's work in one dispatch round."""

    node: int
    round: int
    n_tiles: int
    gpu_time: float  # straggler-scaled simulated makespan of the shard


@dataclass
class ClusterRunResult:
    """Outcome of one cluster run (modelled times + numeric profile)."""

    cluster: ClusterSpec
    mode: PrecisionMode
    nodes: list[NodeShard] = field(default_factory=list)
    broadcast_time: float = 0.0
    gather_time: float = 0.0
    merge_time: float = 0.0
    #: detection latency + retry backoff paid across recovery rounds.
    recovery_overhead: float = 0.0
    round_makespans: list[float] = field(default_factory=list)
    tiles_total: int = 0
    tiles_completed: int = 0
    tiles_restored: int = 0
    tiles_resharded: int = 0
    node_deaths: tuple[int, ...] = ()
    detection_latency: float = 0.0
    backoff_seconds: float = 0.0
    rounds: int = 0
    #: populated on numeric runs; None for modeled (analytic) clusters.
    profile: object = None
    index: object = None
    costs: dict = field(default_factory=dict)
    timeline: Timeline = field(default_factory=Timeline)
    merge_elements: int = 0
    escalations: dict = field(default_factory=dict)

    @property
    def dropped_tiles(self) -> int:
        return self.tiles_total - self.tiles_completed

    @property
    def gpu_makespan(self) -> float:
        """Recovery rounds are sequential: the compute critical path is
        the sum of per-round makespans (one round => the classic max
        over nodes)."""
        return sum(self.round_makespans)

    @property
    def total_time(self) -> float:
        return (
            self.broadcast_time
            + self.gpu_makespan
            + self.gather_time
            + self.merge_time
            + self.recovery_overhead
        )

    def efficiency_vs(self, single_node: "ClusterRunResult") -> float:
        """Strong-scaling parallel efficiency against a 1-node run."""
        return single_node.total_time / (
            self.cluster.n_nodes * self.total_time
        )

    def to_result(self, spec: JobSpec) -> MatrixProfileResult:
        """The standard result object (numeric runs only)."""
        if self.profile is None:
            raise ValueError("a modeled cluster run has no numeric profile")
        return MatrixProfileResult(
            profile=self.profile,
            index=self.index,
            mode=self.mode,
            m=spec.m,
            n_tiles=self.tiles_total,
            n_gpus=self.cluster.total_gpus,
            timeline=self.timeline,
            merge_time=self.merge_time,
            costs=self.costs,
            escalations=dict(self.escalations),
            resumed_tiles=self.tiles_restored,
        )


class ClusterDispatcher:
    """Shards a job across a simulated node fleet and survives its faults.

    Parameters
    ----------
    cluster:
        The fleet (:class:`ClusterSpec`); its ``placement`` picks the
        sharding rule.
    node_faults:
        Optional :class:`NodeFaultPlan` — the storm schedule.
    heartbeat:
        Failure detector pricing crash detection; defaults to a 0.5 s /
        3-miss detector seeded from the fault plan.
    retry_policy:
        Backoff between recovery rounds; defaults to the job config's
        policy (zero-delay when unset).
    fault_plan, health, max_retries, oom_split:
        Tile-level fault machinery, passed through to every per-node
        :func:`execute_plan` call (PR 3's GPU storms compose with node
        storms).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        node_faults: NodeFaultPlan | None = None,
        heartbeat: HeartbeatDetector | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        health=None,
        max_retries: int = 0,
        oom_split: bool = False,
    ):
        self.cluster = cluster
        self.node_faults = node_faults
        self.heartbeat = heartbeat or HeartbeatDetector(
            seed=getattr(node_faults, "seed", 0)
        )
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.health = health
        self.max_retries = max_retries
        self.oom_split = oom_split
        #: autoscale history: (old_size, new_size) per resize() call.
        self.resize_events: list[tuple[int, int]] = []
        #: most recent :class:`ClusterRunResult` (health reporting hook).
        self.last_run: ClusterRunResult | None = None

    # ------------------------------------------------------------------
    # Elasticity

    def resize(self, n_nodes: int) -> None:
        """Grow or shrink the node pool (between jobs; autoscaler hook)."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if n_nodes == self.cluster.n_nodes:
            return
        self.resize_events.append((self.cluster.n_nodes, n_nodes))
        self.cluster = ClusterSpec(
            **{**self.cluster.to_dict(), "n_nodes": n_nodes}
        )

    # ------------------------------------------------------------------
    # Sharding rules

    def _initial_shards(self, tiles, total: int) -> dict[int, list]:
        """Round 0: the spec's placement over the full fleet.  ``total``
        is the full grid size (block boundaries stay put on resume)."""
        shards: dict[int, list] = {}
        for tile in tiles:
            node = self.cluster.node_of(tile.tile_id, total)
            shards.setdefault(node, []).append(tile)
        return shards

    @staticmethod
    def _reshard(tiles, survivors) -> dict[int, list]:
        """Recovery rounds: round-robin over the sorted survivors."""
        shards: dict[int, list] = {}
        order = sorted(survivors)
        for i, tile in enumerate(sorted(tiles, key=lambda t: t.tile_id)):
            shards.setdefault(order[i % len(order)], []).append(tile)
        return shards

    # ------------------------------------------------------------------

    def run(
        self,
        spec: JobSpec,
        n_tiles: int | None = None,
        *,
        plan=None,
        journal: RunJournal | None = None,
        anytime: bool = False,
    ) -> ClusterRunResult:
        """Execute ``spec`` over the fleet; see the module docstring.

        ``plan``: an already-built :class:`ExecutionPlan` to shard as-is.
        Resume paths must pass the journal-rebuilt plan — re-planning
        from a tile *count* would rebuild a different grid for
        triangular (``symmetric_tiles``) layouts, whose tile count is
        not the requested ``n_tiles``.
        ``journal``: an open :class:`RunJournal` — completed tiles are
        skipped on entry (resume) and every merged tile is recorded.
        ``anytime=True`` returns a partial result instead of raising
        when the whole fleet dies (graceful degradation; the profile's
        untouched columns stay at the dtype limit, a valid upper bound).
        """
        cluster = self.cluster
        faults = self.node_faults
        numeric = not spec.is_modeled
        policy = spec.policy
        if plan is None:
            n_tiles = (
                n_tiles if n_tiles is not None else 4 * cluster.total_gpus
            )
            plan = spec.plan(n_tiles=n_tiles)
        retry_policy = (
            self.retry_policy
            if self.retry_policy is not None
            else (spec.config.retry_policy or RetryPolicy())
        )

        result = ClusterRunResult(
            cluster=cluster, mode=policy.mode, tiles_total=len(plan.tiles)
        )
        accumulator = ProfileAccumulator(
            spec.d, spec.n_q_seg, policy, materialize=numeric
        )

        # Resume: skip journaled tiles, adopt the snapshot.
        done_keys = frozenset()
        if journal is not None:
            done_keys = frozenset(journal.completed_keys())
            journal.restore(accumulator)
            base_mode = PrecisionMode.parse(spec.config.mode)
            for rec in journal.completed_records():
                if rec["mode"] is not None:
                    mode = PrecisionMode.parse(rec["mode"])
                    if mode != base_mode:
                        result.escalations[rec["tile_id"]] = mode

        pending = [t for t in plan.tiles if RunJournal.key(t) not in done_keys]
        result.tiles_restored = len(plan.tiles) - len(pending)
        result.tiles_completed = result.tiles_restored

        # Fabric with this storm's degraded NICs priced in.
        topology = cluster.topology()
        if faults is not None:
            for node in range(cluster.n_nodes):
                factor = faults.link_factor(node)
                if factor < 1.0:
                    degrade_link(topology, node, factor)
                    faults.record("degraded_link", node, factor)

        # Broadcast both input series to the full fleet.
        input_bytes = (
            float((spec.n_r_seg + spec.m - 1) + (spec.n_q_seg + spec.m - 1))
            * spec.d
            * policy.itemsize
        )
        result.broadcast_time = cluster_broadcast_time(input_bytes, topology)

        backend = (
            NumericBackend(discount_shared_h2d=True)
            if numeric
            else AnalyticBackend()
        )
        if self.fault_plan is not None:
            injector = self.fault_plan.injector
            corruptor = self.fault_plan.corruptor
        else:
            injector = corruptor = None

        def commit(execution) -> None:
            accumulator.add(execution)
            result.tiles_completed += 1
            if journal is not None:
                journal.record(execution, accumulator)

        order = TileCommitOrder(commit, (t.tile_id for t in pending))
        next_id = plan.next_tile_id
        dead: set[int] = set()
        straggled: set[int] = set()
        round_no = 0

        while pending:
            live = [n for n in range(cluster.n_nodes) if n not in dead]
            if not live:
                if anytime:
                    break
                first = min(pending, key=lambda t: t.tile_id)
                raise TileRetryExhaustedError(
                    first.tile_id,
                    round_no,
                    RuntimeError("every node in the cluster is dead"),
                    node_ids=tuple(sorted(dead)),
                )
            if round_no == 0 and len(live) == cluster.n_nodes:
                shards = self._initial_shards(pending, result.tiles_total)
            else:
                shards = self._reshard(pending, live)

            round_makespan = 0.0
            newly_dead: list[int] = []
            ran: set[int] = set()
            for node in sorted(shards):
                shard = shards[node]
                run_tiles = shard
                if faults is not None and faults.crashes(node):
                    fraction = faults.crash_fraction(node)
                    run_tiles = shard[: int(len(shard) * fraction)]
                    newly_dead.append(node)
                    faults.record("crash", node, fraction)
                if not run_tiles:
                    continue
                assignment = [
                    self.cluster.gpu_of(t.tile_id) for t in run_tiles
                ]
                subplan = spec.plan(tiles=run_tiles, assignment=assignment)
                subplan.next_tile_id = next_id
                sim = GPUSimulator(
                    cluster.device_spec, n_gpus=cluster.gpus_per_node
                )
                report = execute_plan(
                    subplan,
                    backend,
                    sim,
                    keep_executions=True,
                    max_retries=self.max_retries,
                    failure_injector=injector,
                    corruptor=corruptor,
                    health=self.health,
                    oom_split=self.oom_split,
                    # With no accumulator the dispatch journals nothing;
                    # the journal only makes it skip split children a
                    # resumed run already holds.
                    journal=journal,
                    label=f"node{node}",
                )
                result.escalations.update(report.escalations)
                result.tiles_restored += report.tiles_restored
                result.tiles_completed += report.tiles_restored
                # Every tile the node ran finished or split: children take
                # job-wide fresh ids and replace their parent in the order.
                # Journaled children were skipped and never finish.
                ran.update(t.tile_id for t in run_tiles)
                dispatched = set(report.splits).union(
                    e.tile.tile_id for e in report.executions
                )
                for parent, children in report.splits.items():
                    next_id += len(children)
                    result.tiles_total += len(children) - 1
                    order.expect(c for c in children if c in dispatched)
                    order.drop(parent)
                for execution in report.executions:
                    order.finish(execution)
                slowdown = 1.0
                if faults is not None:
                    slowdown = faults.straggler(node)
                    if slowdown > 1.0 and node not in straggled:
                        straggled.add(node)
                        faults.record("straggler", node, slowdown)
                gpu_time = sim.timeline.makespan * slowdown
                result.timeline.extend(sim.timeline)
                result.nodes.append(
                    NodeShard(
                        node=node,
                        round=round_no,
                        n_tiles=len(run_tiles),
                        gpu_time=gpu_time,
                    )
                )
                round_makespan = max(round_makespan, gpu_time)

            result.round_makespans.append(round_makespan)
            pending = [t for t in pending if t.tile_id not in ran]

            if newly_dead:
                dead.update(newly_dead)
                result.node_deaths = tuple(sorted(dead))
                result.tiles_resharded += len(pending)
                detect = max(
                    self.heartbeat.detection_latency(n) for n in newly_dead
                )
                backoff = retry_policy.delay(
                    ("reshard", tuple(sorted(newly_dead))), round_no
                )
                result.detection_latency += detect
                result.backoff_seconds += backoff
                result.recovery_overhead += detect + backoff
            round_no += 1

        order.flush()
        result.rounds = round_no if round_no > 0 else 1

        # Gather + merge over the survivors (reduce tree of partials).
        survivors = [n for n in range(cluster.n_nodes) if n not in dead]
        partial_bytes = float(spec.n_q_seg) * spec.d * (policy.itemsize + 8)
        result.gather_time = cluster_reduce_time(
            partial_bytes, topology, survivors or None
        )
        covering = max(1, round(result.tiles_total**0.5))
        n_mergers = max(len(survivors), 1)
        reduce_rounds = max(len(survivors) - 1, 0).bit_length()
        result.merge_time = (
            float(spec.n_q_seg)
            * spec.d
            * covering
            * MERGE_TIME_PER_ELEMENT
            / n_mergers
            + result.tiles_total * TILE_DISPATCH_OVERHEAD / n_mergers
            + reduce_rounds * float(spec.n_q_seg) * spec.d * MERGE_TIME_PER_ELEMENT
        )
        result.merge_elements = accumulator.merge_elements
        result.costs = dict(accumulator.costs)
        if numeric:
            result.profile = accumulator.host_profile()
            result.index = accumulator.host_index()
        self.last_run = result
        return result

    # ------------------------------------------------------------------

    def run_journaled(
        self,
        spec: JobSpec,
        path,
        n_tiles: int | None = None,
        **kwargs,
    ) -> ClusterRunResult:
        """Run with a fresh journal at ``path`` (cluster spec stashed in
        the journal's ``extra`` metadata for :func:`resume_cluster`)."""
        n_tiles = (
            n_tiles if n_tiles is not None else 4 * self.cluster.total_gpus
        )
        plan = spec.plan(n_tiles=n_tiles)
        journal = RunJournal.create(
            path, spec, plan, extra={"cluster": self.cluster.to_dict()}
        )
        return self.run(spec, n_tiles, plan=plan, journal=journal, **kwargs)


def resume_cluster(
    path,
    *,
    cluster: ClusterSpec | None = None,
    node_faults: NodeFaultPlan | None = None,
    **dispatcher_kwargs,
) -> ClusterRunResult:
    """Continue a journaled cluster run after a coordinator crash.

    Rebuilds the spec/plan from the journal, re-creates the
    :class:`ClusterSpec` from the journal's ``extra`` metadata (unless
    overridden — survivors of the original storm may be a smaller
    fleet), restores the accumulator snapshot, and re-executes only the
    tiles the journal does not hold.  Bit-identical to an uninterrupted
    run: the journal is always an ascending-tile-id prefix, so the
    resumed merge continues in exactly the serial order.
    """
    journal = RunJournal.open(path)
    spec, plan = journal.rebuild()
    if cluster is None:
        stored = journal.extra().get("cluster")
        if stored is None:
            raise ValueError(
                f"journal at {path} was not created by a cluster run "
                f"(no cluster spec in extra metadata)"
            )
        cluster = ClusterSpec.from_dict(stored)
    dispatcher = ClusterDispatcher(
        cluster, node_faults=node_faults, **dispatcher_kwargs
    )
    return dispatcher.run(spec, plan=plan, journal=journal)
