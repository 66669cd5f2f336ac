"""The four benchmark workloads: batch, service, stream and cluster.

Each workload builds its inputs from the workload seed, sets itself up
(inputs, services, an untimed warm-up on unrelated tiny data), runs a
closed loop of operations for a time budget, and checks every output
after the timed region.  A traced pass replays exactly the operations of
an untraced pass (``replay=``), so the two can be compared bit for bit.

All library calls go through module attributes looked up at call time
(``repro.matrix_profile``, ``service.submit_and_wait``...), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.cluster import ClusterDispatcher, ClusterSpec, NodeFaultPlan
from repro.core.config import RunConfig
from repro.core.tiling import assign_tiles
from repro.engine.accumulate import ProfileAccumulator
from repro.engine.backends import NumericBackend
from repro.engine.dispatch import execute_plan
from repro.engine.plan import JobSpec
from repro.gpu.simulator import GPUSimulator
from repro.service import JobRequest, JobStatus, MatrixProfileService
from repro.streams import StreamIngestService, TenantPolicy

from checks import bit_equal, check_reduced_profile
from spans import ROOT


@dataclass
class Op:
    """One timed operation and what the correctness gate needs of it."""

    request: str
    kind: str
    wall_s: float
    cells: int
    samples: int
    output: object = None
    error: str | None = None
    #: Workload-specific bookkeeping (source op of a cache hit, ...).
    info: dict = field(default_factory=dict)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _random_walk(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return np.cumsum(rng.standard_normal((n, d)), axis=0)


class _Timed:
    """Context manager that opens the root span of one operation when a
    tracer is active and measures its wall time either way."""

    def __init__(self, tracer, request: str):
        self.tracer, self.request = tracer, request

    def __enter__(self):
        self.span = None if self.tracer is None else self.tracer.begin(
            ROOT, self.request)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall_s = time.perf_counter() - self.start
        if self.span is not None:
            self.tracer.end(self.span)
        return False


class Workload:
    name = ""
    #: Per-layer counters this workload reports (the rest read 0).
    counters: dict

    def __init__(self, seed: int, size: str = "full",
                 workdir: Path = Path(".perfbench")):
        self.seed = seed
        self.size = size
        #: The only directory the workload writes to.
        self.workdir = workdir
        self.counters = {}

    def setup(self) -> None:
        """Build inputs and long-lived objects and warm every path up."""

    def run(self, seconds: float | None = None, replay: list | None = None,
            tracer=None) -> tuple[list[Op], float]:
        """Run until ``seconds`` pass or ``replay``'s operations are done;
        returns the operations and the timed wall seconds."""
        raise NotImplementedError

    def latencies(self, ops: list[Op]) -> list[float]:
        return [op.wall_s for op in ops if op.error is None]

    def check(self, ops: list[Op]) -> dict[str, str]:
        """Request id -> reason, for every operation that failed."""
        return {op.request: op.error for op in ops if op.error is not None}

    def comparable(self, op: Op) -> list:
        """The outputs of ``op`` a traced replay must reproduce bit for bit."""
        return [] if op.output is None else [op.output]

    def modelled_costs(self, ops: list[Op]) -> list:
        """``MatrixProfileResult`` objects whose modelled kernel costs
        the traced run reports."""
        return []

    def close(self) -> None:
        pass


# -- batch -----------------------------------------------------------------

#: (kind, mode, backend) of the four reference jobs of one batch round.
BATCH_JOBS = (
    ("fp32", "FP32", None),
    ("fp16", "FP16", None),
    ("mixed", "Mixed", None),
    ("mixed_tc", "Mixed", "tensor_core"),
)


class Batch(Workload):
    """The paper's reference job in four precision configurations.

    One round runs one self-join per configuration, each on its own
    random walk, so no two jobs share work.  Latency is per round: the
    four jobs' times differ by mode, and a percentile over single jobs
    would fall between modes.
    """

    name = "batch"

    def __init__(self, seed, size="full", workdir=Path(".perfbench")):
        super().__init__(seed, size, workdir)
        full = size == "full"
        self.n_seg, self.d, self.m = (2048, 8, 32) if full else (160, 3, 16)
        self.n_tiles = 16 if full else 4
        self.rel_err: dict[str, list[float]] = {}

    def _series(self, round_no: int, job_no: int) -> np.ndarray:
        return _random_walk(_rng(self.seed, 1, round_no, job_no),
                            self.n_seg + self.m - 1, self.d)

    def setup(self):
        warm = _random_walk(_rng(self.seed, 0), 4 * self.m, self.d)
        for _, mode, backend in BATCH_JOBS:
            repro.matrix_profile(warm, m=self.m, mode=mode, backend=backend,
                                 n_tiles=4)
        # The tensor-core path pays a one-off cost on its first call at
        # the reference size (over a second); tiny series do not trigger it.
        warm = _random_walk(_rng(self.seed, 0), self.n_seg + self.m - 1, self.d)
        repro.matrix_profile(warm, m=self.m, mode="Mixed", backend="tensor_core",
                             n_tiles=self.n_tiles)

    def run(self, seconds=None, replay=None, tracer=None):
        rounds = None if replay is None else 1 + max(
            op.info["round"] for op in replay)
        ops, wall, round_no = [], 0.0, 0
        while (round_no < rounds) if rounds is not None else (
                round_no == 0 or wall < seconds):
            for job_no, (kind, mode, backend) in enumerate(BATCH_JOBS):
                series = self._series(round_no, job_no)
                op = Op(f"{kind}#{round_no}", kind, 0.0,
                        cells=self.n_seg * self.n_seg * self.d,
                        samples=series.shape[0],
                        info={"round": round_no, "job": job_no})
                try:
                    with _Timed(tracer, op.request) as timer:
                        op.output = repro.matrix_profile(
                            series, m=self.m, mode=mode, backend=backend,
                            n_tiles=self.n_tiles)
                    op.wall_s = timer.wall_s
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    op.error = f"{type(exc).__name__}: {exc}"
                wall += op.wall_s
                ops.append(op)
            round_no += 1
        return ops, wall

    def latencies(self, ops):
        per_round: dict[int, float] = {}
        for op in ops:
            per_round[op.info["round"]] = per_round.get(op.info["round"], 0.0) + op.wall_s
        return list(per_round.values())

    def check(self, ops):
        failures = super().check(ops)
        self.rel_err = {kind: [] for kind, _, _ in BATCH_JOBS}
        for op in ops:
            if op.request in failures:
                continue
            series = self._series(op.info["round"], op.info["job"])
            oracle = repro.matrix_profile(series, m=self.m, mode="FP64",
                                          n_tiles=self.n_tiles,
                                          parallel_workers=2)
            _, mode, backend = BATCH_JOBS[op.info["job"]]
            rel_err, problem = check_reduced_profile(
                op.output, oracle, series, self.m, mode, backend,
                rows=math.ceil(self.n_seg / math.isqrt(self.n_tiles)))
            self.rel_err[op.kind].append(rel_err)
            if problem is not None:
                failures[op.request] = problem
            if op.output.backend != (backend or "numeric"):
                failures[op.request] = (
                    f"ran on {op.output.backend}: "
                    f"{op.output.backend_fallback_reason}")
        return failures

    def modelled_costs(self, ops):
        return [op.output for op in ops if op.error is None]


# -- service ---------------------------------------------------------------

SERVICE_MODES = ("FP64", "FP32", "Mixed", "FP16")


class Service(Workload):
    """Two closed-loop clients against one ``MatrixProfileService``.

    Each client walks its own deterministic schedule of five-job cycles:
    three new series (modes cycling FP64/FP32/Mixed/FP16, m 32/48), one
    re-submission of an earlier job as it was (a result-cache hit) and
    one re-submission of an earlier series with four tiles instead of
    the planner's one (a result-cache miss whose window statistics hit
    the stats cache, whose key holds the series, m and mode but not the
    tiling).  Repeats name only the client's own completed jobs, so the
    hit count does not depend on how the clients interleave.
    """

    name = "service"
    CLIENTS = 2

    def __init__(self, seed, size="full", workdir=Path(".perfbench")):
        super().__init__(seed, size, workdir)
        full = size == "full"
        self.n_range = (512, 768) if full else (96, 128)
        self.d_range = (2, 4) if full else (2, 2)
        self.ms = (32, 48) if full else (16, 24)
        self.service = None
        self._snapshot = None

    def request(self, client: int, k: int, history: list) -> tuple[str, JobRequest, int | None]:
        """The k-th job of ``client``: (kind, request, source job index)."""
        slot = k % 5
        if slot == 3 and k >= 5:
            source = k - 5  # a new-series job of the previous cycle
            return "hit", history[source], source
        if slot == 4 and k >= 5:
            source = k - 4
            base = history[source]
            return "stats", JobRequest(reference=base.reference, m=base.m,
                                       mode=base.mode, n_tiles=4), source
        # Shapes and modes follow a fixed cycle, so every seed runs the
        # same job mix; only the data comes from the seed.
        new_index = (k // 5) * 3 + min(slot, 3)
        n_lo, n_hi = self.n_range
        n = n_lo + (n_hi - n_lo) * (new_index % 5) // 4
        d = self.d_range[0] + new_index % (self.d_range[1] - self.d_range[0] + 1)
        series = _random_walk(_rng(self.seed, 2, client, k), n, d)
        return "miss", JobRequest(reference=series, m=self.ms[new_index % 2],
                                  mode=SERVICE_MODES[new_index % 4]), None

    def setup(self):
        if self.service is not None:
            self.service.stop()
        self.service = MatrixProfileService(n_gpus=2, n_workers=2).start()
        warm = _random_walk(_rng(self.seed, 0), 4 * self.ms[0], 2)
        for mode in SERVICE_MODES:
            self.service.submit_and_wait(
                JobRequest(reference=warm, m=self.ms[0], mode=mode))
        self._snapshot = self.service.metrics.snapshot()

    def _client(self, client, deadline, count, tracer, out):
        history: list[JobRequest] = []
        k = 0
        while (k < count) if count is not None else time.perf_counter() < deadline:
            kind, request, source = self.request(client, k, history)
            history.append(request)
            op = Op(f"c{client}/{k}", kind, 0.0,
                    cells=(request.reference.shape[0] - request.m + 1) ** 2
                    * request.reference.shape[1],
                    samples=request.reference.shape[0],
                    info={"client": client, "k": k, "source": source,
                          "mode": request.mode.value})
            try:
                with _Timed(tracer, op.request) as timer:
                    outcome = self.service.submit_and_wait(request, timeout=60)
                op.wall_s = timer.wall_s
                op.output = outcome
                if outcome.status is not JobStatus.COMPLETED:
                    op.error = f"status {outcome.status.value}: {outcome.error}"
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                op.error = f"{type(exc).__name__}: {exc}"
            out.append(op)
            k += 1

    def run(self, seconds=None, replay=None, tracer=None):
        counts = [None] * self.CLIENTS
        if replay is not None:
            counts = [sum(op.info["client"] == c for op in replay)
                      for c in range(self.CLIENTS)]
        results = [[] for _ in range(self.CLIENTS)]
        start = time.perf_counter()
        deadline = start + (seconds or 0.0)
        threads = [
            threading.Thread(target=self._client,
                             args=(c, deadline, counts[c], tracer, results[c]))
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        after = self.service.metrics.snapshot()
        before = self._snapshot
        hits = after.cache_hits - before.cache_hits
        lookups = hits + after.cache_misses - before.cache_misses
        s_hits = after.stats_cache_hits - before.stats_cache_hits
        s_lookups = s_hits + after.stats_cache_misses - before.stats_cache_misses
        self.counters = {
            "service.cache_hit_ratio": hits / max(lookups, 1),
            "service.stats_cache_hit_ratio": s_hits / max(s_lookups, 1),
            "service.downgrades": after.precision_downgrades
            - before.precision_downgrades,
            "service.tile_retries": after.tile_retries - before.tile_retries,
        }
        ops = [op for client_ops in results for op in client_ops]
        return ops, wall

    def check(self, ops):
        failures = super().check(ops)
        by_request = {op.request: op for op in ops}
        spot_checked: set[str] = set()
        for op in ops:
            if op.request in failures:
                continue
            outcome = op.output
            if outcome.downgrade_steps or outcome.effective_mode.value != op.info["mode"]:
                failures[op.request] = (
                    f"downgraded {op.info['mode']} -> {outcome.effective_mode.value}")
            elif (op.kind == "hit") != outcome.cache_hit:
                failures[op.request] = f"{op.kind} job reported cache_hit={outcome.cache_hit}"
            elif op.kind == "hit":
                source = by_request.get(f"c{op.info['client']}/{op.info['source']}")
                if source is None or source.error is not None or not bit_equal(
                        outcome.result, source.output.result):
                    failures[op.request] = "cache hit differs from the miss that filled it"
            elif op.kind == "miss" and op.info["mode"] not in spot_checked:
                # One miss per mode against a direct library call with
                # the tiling the service chose.
                spot_checked.add(op.info["mode"])
                request = self.request(op.info["client"], op.info["k"], [])[1]
                direct = repro.matrix_profile(
                    request.reference, m=request.m, mode=request.mode,
                    n_tiles=outcome.tiles_total, n_gpus=2)
                if not bit_equal(outcome.result, direct):
                    failures[op.request] = "differs from repro.matrix_profile"
        return failures

    def comparable(self, op):
        return [] if op.output is None else [op.output.result]

    def modelled_costs(self, ops):
        return [op.output.result for op in ops
                if op.error is None and not op.output.cache_hit]

    def close(self):
        if self.service is not None:
            self.service.stop()
            self.service = None


# -- stream ----------------------------------------------------------------


class Stream(Workload):
    """Closed-loop ingest of fixed-size batches, round-robin over four
    tenants: one ungated exact landmark tenant (FP32) and three
    sketch-gated Mixed tenants with a planted discord each.

    One pass registers the tenants on a fresh ``StreamIngestService``
    with an initial history and ingests every tenant's stream; the loop
    repeats identical passes, so every pass does the same work.
    Registration is outside the timed operations.  The exact tenant
    starts from a longer history (``EXACT_LEAD`` more samples), so its
    appends and the gated tenants' alarm probes form one overlapping slow
    mode rather than two modes with p95 at their boundary.
    """

    name = "stream"
    #: Planted discord positions, as fractions of the ingested span.
    GATED_AT = (0.4, 0.6, 0.8)
    EXACT_LEAD = 1024

    def __init__(self, seed, size="full", workdir=Path(".perfbench")):
        super().__init__(seed, size, workdir)
        full = size == "full"
        self.m, self.d = 32, 2
        self.length, self.initial, self.batch = (1024, 256, 32) if full else (768, 256, 32)
        self.streams: dict[str, np.ndarray] = {}
        self.planted: dict[str, int] = {}
        #: Samples each tenant's stream holds before the shared schedule.
        self.lead = {"exact": self.EXACT_LEAD if full else 0}

    def setup(self):
        rng = _rng(self.seed, 3)
        self.streams = {"exact": _random_walk(rng, self.lead["exact"] + self.length, self.d)}
        t = np.linspace(0, self.length / 12, self.length)[:, None]
        for g, frac in enumerate(self.GATED_AT):
            series = np.sin(t) * np.ones((1, self.d))
            series = series + 0.05 * rng.standard_normal(series.shape)
            at = self.initial + int((self.length - self.initial) * frac)
            # A noise burst: a shape anomaly z-normalisation keeps visible.
            series[at:at + self.m] = rng.standard_normal((self.m, self.d))
            self.streams[f"gated{g}"] = series
            self.planted[f"gated{g}"] = at
            self.lead[f"gated{g}"] = 0
        self._pass(-1, None, [], stop=self.initial + 2 * self.batch)

    def _register(self) -> StreamIngestService:
        svc = StreamIngestService(n_gpus=2, n_workers=1)
        for tenant, series in self.streams.items():
            if tenant == "exact":
                policy = TenantPolicy(m=self.m, mode="FP32")
            else:
                policy = TenantPolicy(m=self.m, mode="Mixed", sketch_gate=True,
                                      sketch_warmup=24,
                                      sketch_seed=int(tenant[-1]) + 1)
            svc.register(tenant, policy,
                         initial=series[:self.lead[tenant] + self.initial])
        return svc

    def _pass(self, pass_no, tracer, ops, stop=None) -> float:
        if tracer is not None:
            tracer.recording = False
        try:
            svc = self._register()
        finally:
            if tracer is not None:
                tracer.recording = True
        wall = 0.0
        for append, start in enumerate(
                range(self.initial, stop or self.length, self.batch)):
            for tenant, series in self.streams.items():
                offset = self.lead[tenant] + start
                chunk = series[offset:offset + self.batch]
                request = f"{tenant}/{pass_no}.{append}"
                op = Op(request, "exact" if tenant == "exact" else "gated", 0.0,
                        cells=0, samples=chunk.shape[0],
                        info={"pass": pass_no, "tenant": tenant})
                try:
                    with _Timed(tracer, request) as timer:
                        report = svc.ingest(tenant, chunk)
                    op.wall_s = timer.wall_s
                    # The join the append extends: every new window
                    # against the whole history, exact or suppressed.
                    stream = svc.tenant(tenant).stream
                    op.cells = report.new_segments * stream.n_r_seg * self.d
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    op.error = f"{type(exc).__name__}: {exc}"
                wall += op.wall_s
                ops.append(op)
        final = {"service": svc}
        for tenant in self.streams:
            session = svc.tenant(tenant)
            final[tenant] = session.stream.profile()
            final[f"{tenant}.alarms"] = [s.position for s in svc.scores(tenant)
                                         if s.alarm] if session.gated else []
            final[f"{tenant}.counters"] = session.counters
        ops[-1].output = final
        return wall

    def run(self, seconds=None, replay=None, tracer=None):
        passes = None if replay is None else 1 + max(op.info["pass"] for op in replay)
        ops, wall, pass_no = [], 0.0, 0
        while (pass_no < passes) if passes is not None else (
                pass_no == 0 or wall < seconds):
            wall += self._pass(pass_no, tracer, ops)
            pass_no += 1
        finals = [op.output for op in ops if op.output is not None]
        counters = [f[f"{t}.counters"] for f in finals for t in self.streams]
        gated = [f[f"{t}.counters"] for f in finals for t in self.streams if t != "exact"]
        suppressed = sum(c.suppressed_columns for c in gated)
        self.counters = {
            "streams.suppressed_ratio": suppressed / max(
                suppressed + sum(c.exact_columns for c in gated), 1),
            "streams.exact_columns": sum(c.exact_columns for c in counters),
            "streams.alarms": sum(c.alarms for c in gated),
        }
        return ops, wall

    def check(self, ops):
        failures = super().check(ops)
        finals = [op for op in ops if op.output is not None]
        first = finals[0].output if finals else None
        reference = self._batch_exact(first["service"]) if first else None
        for op in finals:
            final, pass_no = op.output, op.info["pass"]
            problems = []
            if not (bit_equal(final["exact"], reference)):
                problems.append("exact tenant differs from the batch dispatch")
            for tenant, at in self.planted.items():
                if not any(at - self.m < p < at + self.m for p in final[f"{tenant}.alarms"]):
                    problems.append(f"{tenant} missed its discord at {at}")
            if problems:
                for other in ops:
                    if other.info["pass"] == pass_no:
                        failures.setdefault(other.request, "; ".join(problems))
        return failures

    def comparable(self, op):
        return [] if op.output is None else [op.output[t] for t in self.streams]

    def _batch_exact(self, svc):
        """The exact tenant's profile from one batch dispatch of the
        stream's equivalent tile list."""
        inc = svc.tenant("exact").stream
        cfg = RunConfig(mode="FP32")
        tiles = list(inc.equivalent_tiles())
        spec = JobSpec.from_layouts(inc._stream, inc._stream, self.m, cfg,
                                    exclusion_zone=inc.exclusion_zone)
        sim = GPUSimulator(cfg.device, cfg.n_gpus, cfg.n_streams)
        plan = spec.plan(tiles=tiles, assignment=assign_tiles(tiles, sim.n_gpus))
        acc = ProfileAccumulator(spec.d, inc.n_q_seg, cfg.policy)
        execute_plan(plan, NumericBackend(), sim, accumulator=acc)
        return acc.host_profile(), acc.host_index()


# -- cluster ---------------------------------------------------------------


class Cluster(Workload):
    """A Mixed self-join in 64 small tiles sharded over a simulated
    4-node x 2-GPU fleet, journaled, with one node crashing mid-shard.

    Operation ``i`` joins series ``i % 4`` of a small pool; the crashing
    node and the storm seed vary per operation.
    """

    name = "cluster"
    POOL = 4

    def __init__(self, seed, size="full", workdir=Path(".perfbench")):
        super().__init__(seed, size, workdir / "journals")
        full = size == "full"
        self.n_seg, self.d, self.m = (512, 4, 32) if full else (96, 2, 16)
        self.n_tiles = 64 if full else 16
        self.fleet = ClusterSpec(n_nodes=4, gpus_per_node=2)
        self.pool: list[np.ndarray] = []

    def _spec(self, series):
        return JobSpec.from_arrays(series, None, self.m,
                                   RunConfig(mode="Mixed", n_tiles=self.n_tiles))

    def setup(self):
        self.pool = [_random_walk(_rng(self.seed, 4, i), self.n_seg + self.m - 1, self.d)
                     for i in range(self.POOL)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm = _random_walk(_rng(self.seed, 0), 4 * self.m, self.d)
        ClusterDispatcher(self.fleet).run(self._spec(warm), n_tiles=8)

    def run(self, seconds=None, replay=None, tracer=None):
        count = None if replay is None else len(replay)
        ops, wall, i = [], 0.0, 0
        journal_bytes = rounds = resharded = dropped = 0
        while (i < count) if count is not None else (i == 0 or wall < seconds):
            series = self.pool[i % self.POOL]
            victim = int(_rng(self.seed, 5, i).integers(self.fleet.n_nodes))
            faults = NodeFaultPlan(seed=self.seed * 1000 + i, crash_nodes=(victim,))
            path = self.workdir / f"journal-{i}"
            op = Op(f"run{i}", "storm", 0.0,
                    cells=self.n_seg * self.n_seg * self.d,
                    samples=series.shape[0], info={"series": i % self.POOL})
            try:
                with _Timed(tracer, op.request) as timer:
                    result = ClusterDispatcher(self.fleet, node_faults=faults) \
                        .run_journaled(self._spec(series), path,
                                       n_tiles=self.n_tiles)
                op.wall_s = timer.wall_s
                op.output = result
                journal_bytes += sum(f.stat().st_size for f in path.rglob("*")
                                     if f.is_file())
                rounds += result.rounds
                resharded += result.tiles_resharded
                dropped += result.dropped_tiles
            except Exception as exc:  # noqa: BLE001 - counted as failed
                op.error = f"{type(exc).__name__}: {exc}"
            finally:
                shutil.rmtree(path, ignore_errors=True)
            wall += op.wall_s
            ops.append(op)
            i += 1
        self.counters = {
            "engine.journal_bytes": journal_bytes,
            "cluster.rounds": rounds,
            "cluster.resharded_tiles": resharded,
            "cluster.dropped_tiles": dropped,
        }
        return ops, wall

    def check(self, ops):
        failures = super().check(ops)
        clean = {}
        for op in ops:
            if op.request in failures:
                continue
            idx = op.info["series"]
            if idx not in clean:
                clean[idx] = ClusterDispatcher(self.fleet).run(
                    self._spec(self.pool[idx]), n_tiles=self.n_tiles)
            result = op.output
            if result.dropped_tiles:
                failures[op.request] = f"{result.dropped_tiles} tiles dropped"
            elif len(result.node_deaths) != 1:
                failures[op.request] = f"node deaths {result.node_deaths}, expected one"
            elif not bit_equal(result, clean[idx]):
                failures[op.request] = "differs from the fault-free run"
        return failures

    def modelled_costs(self, ops):
        return [op.output for op in ops if op.error is None]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Batch, Service, Stream, Cluster)}
