"""Row-blocked kernel execution: bit-identity, workspaces, parallel dispatch.

The row-blocked main loop (``RunConfig.row_block``) and the parallel
tile dispatcher (``execute_plan(parallel_workers=...)``) are pure
performance features: every test here pins the contract that they change
*nothing* observable — profiles, indices, per-kernel costs and the
modelled timeline are bit-for-bit those of the per-row, serial
reference execution (``tests/kernel_oracle.py``), for every precision
mode, dimensionality, block size, join type and sort strategy, including
the degenerate inputs that force the half-precision fast paths onto
their scalar fallbacks.  Tiles taller
than wide run budget-sized blocks that walk the recurrence column by
column; the same contract covers them.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import (
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    execute_plan,
)
from repro.engine.backends import WorkspacePool, run_tile
from repro.engine.dispatch import TransientDeviceError
from repro.engine.health import HealthPolicy
from repro.gpu.simulator import GPUSimulator
from repro.kernels import dist_calc
from repro.kernels._f16fast import (
    f16_keys19,
    f16_lut19,
    round_f16_inplace,
    round_f16_nonneg_inplace,
)
from repro.kernels.layout import to_device_layout
from repro.streams.incremental import IncrementalMatrixProfile
from tests.kernel_oracle import run_tile_per_row

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


def _run(tr, tq, m, cfg, row_block, strategy="bitonic", ez=None,
         col_offset=0, mirror=False):
    """``run_tile`` at ``row_block``, or the per-row oracle for ``None``."""
    kwargs = dict(col_offset=col_offset, exclusion_zone=ez,
                  sort_strategy=strategy, mirror=mirror)
    if row_block is None:
        out = run_tile_per_row(tr, tq, m, cfg.policy, cfg.launch, **kwargs)
    else:
        out = run_tile(tr, tq, m, cfg.policy, cfg.launch,
                       row_block=row_block, **kwargs)
    costs = {k: vars(v).copy() for k, v in out.costs.items()}
    return (out.profile, out.indices, costs, out.mirror_profile,
            out.mirror_indices)


def _assert_same(ref, got, label):
    p0, i0, c0, mp0, mi0 = ref
    p, i, c, mp, mi = got
    assert np.array_equal(p.view(np.uint8), p0.view(np.uint8)), f"profile {label}"
    assert np.array_equal(i, i0), f"indices {label}"
    assert c == c0, f"costs {label}"
    if mp0 is not None:
        assert np.array_equal(mp.view(np.uint8), mp0.view(np.uint8)), f"mirror {label}"
        assert np.array_equal(mi, mi0), f"mirror indices {label}"


def _tall_tiles(tr, m, rows_per_block, monkeypatch):
    """Tall tiles of ``tr``'s self-join, n_q in {1, 5}, with the column
    walk's block budget shrunk to ``rows_per_block`` rows so one tile
    spans several column-walked blocks.  Yields ``(label, query, col
    offset, mirror)``; the column strips cross the exclusion zone."""
    d = tr.shape[0]
    for n_q in (1, 5):
        monkeypatch.setattr(
            dist_calc, "TALL_BLOCK_ELEMS", rows_per_block * d * n_q
        )
        c0 = (tr.shape[1] - m) // 2
        tq = tr[:, c0 : c0 + n_q + m - 1]
        for mirror in (False, True):
            yield f"tall n_q={n_q} mirror={mirror}", tq, c0, mirror


class TestKernelBitIdentity:
    """Every block size, one-row blocks included, == the per-row oracle
    (``tests/kernel_oracle.py``) at the run_tile level."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_blocked_matches_per_row(self, rng, mode, d, monkeypatch):
        n, m = 64, 8
        ref = rng.normal(size=(n, d)).cumsum(axis=0)
        qry = rng.normal(size=(48, d)).cumsum(axis=0)
        cfg = RunConfig(mode=mode)
        tr = to_device_layout(ref, cfg.policy.storage)
        tq = to_device_layout(qry, cfg.policy.storage)
        long_tr = to_device_layout(
            rng.normal(size=(160, d)).cumsum(axis=0), cfg.policy.storage
        )
        for strategy in ("bitonic", "batch"):
            for tq_used, ez in ((tr, m // 2), (tq, None)):  # self- and AB-join
                base = _run(tr, tq_used, m, cfg, None, strategy, ez)
                for blk in (1, 7, 64, 500):  # incl. one block > n_r_seg
                    got = _run(tr, tq_used, m, cfg, blk, strategy, ez)
                    _assert_same(base, got, f"{mode} d={d} {strategy} blk={blk}")
            # 153-row tiles: one-row blocks (blk=1), 48-row column-walked
            # blocks (blk=7), the row_block floor (64) and one whole-tile
            # block (500).
            for label, tq_used, c0, mirror in _tall_tiles(
                long_tr, m, 48, monkeypatch
            ):
                base = _run(long_tr, tq_used, m, cfg, None, strategy, m // 2,
                            c0, mirror)
                for blk in (1, 7, 64, 500):
                    got = _run(long_tr, tq_used, m, cfg, blk, strategy,
                               m // 2, c0, mirror)
                    _assert_same(
                        base, got, f"{mode} d={d} {strategy} {label} blk={blk}"
                    )

    @pytest.mark.parametrize("mode", ["FP16", "FP32"])
    def test_degenerate_inputs_hit_fallbacks_identically(
        self, rng, mode, monkeypatch
    ):
        """Constant windows (inf/0 normalisers -> NaN products), huge
        amplitudes (QT overflow -> inf) and tiny amplitudes (half
        subnormals) push the blocked half fast paths onto their scalar
        fallbacks — results must still be bit-identical, on square and
        on tall (column-walked) tiles."""
        n, m, d = 72, 8, 3
        series = []
        a = rng.normal(size=(n, d)).cumsum(axis=0)
        a[20:40] = 1.5  # constant windows
        series.append(a)
        series.append((rng.normal(size=(n, d)) * 500).cumsum(axis=0))  # overflow
        series.append(rng.normal(size=(n, d)).cumsum(axis=0) * 1e-4)  # subnormal
        cfg = RunConfig(mode=mode)
        for ref in series:
            tr = to_device_layout(ref, cfg.policy.storage)
            base = _run(tr, tr, m, cfg, None, ez=m // 2)
            for blk in (1, 16, 500):
                got = _run(tr, tr, m, cfg, blk, ez=m // 2)
                _assert_same(base, got, f"degenerate {mode} blk={blk}")
            for label, tq, c0, mirror in _tall_tiles(tr, m, 24, monkeypatch):
                base = _run(tr, tq, m, cfg, None, ez=m // 2, col_offset=c0,
                            mirror=mirror)
                for blk in (1, 16, 500):
                    got = _run(tr, tq, m, cfg, blk, ez=m // 2, col_offset=c0,
                               mirror=mirror)
                    _assert_same(
                        base, got, f"degenerate {mode} {label} blk={blk}"
                    )

    def test_dist_calc_loop_rounds_are_arithmetic(self, rng):
        """The grid-stride round count is ceil(plane/threads) per logical
        row — identical for any block size (regression for the cost
        model's per-row accounting)."""
        import math

        n, d, m = 96, 4, 8
        ref = rng.normal(size=(n, d)).cumsum(axis=0)
        cfg = RunConfig(mode="FP16")
        tr = to_device_layout(ref, cfg.policy.storage)
        n_seg = n - m + 1
        expected = n_seg * math.ceil(d * n_seg / cfg.launch.total_threads)
        for blk in (1, 13, 64):
            out = run_tile(tr, tr, m, cfg.policy, cfg.launch,
                           exclusion_zone=m // 2, row_block=blk)
            assert out.costs["dist_calc"].loop_rounds == expected


class TestEngineDefaultBlocking:
    """Blocking is on by default; the engine output must equal per-row."""

    def test_default_equals_row_block_1_including_timeline(self, rng):
        ref = rng.normal(size=(300, 3)).cumsum(axis=0)
        m = 16
        assert RunConfig().row_block > 1  # blocking is the default
        r_blocked = compute_multi_tile(ref, None, m, RunConfig(mode="FP16", n_tiles=4))
        r_perrow = compute_multi_tile(
            ref, None, m, RunConfig(mode="FP16", n_tiles=4, row_block=1)
        )
        assert np.array_equal(
            r_blocked.profile.view(np.uint8), r_perrow.profile.view(np.uint8)
        )
        assert np.array_equal(r_blocked.index, r_perrow.index)
        assert r_blocked.timeline.makespan == r_perrow.timeline.makespan
        assert vars(r_blocked.costs["dist_calc"]) == vars(r_perrow.costs["dist_calc"])

    def test_row_block_excluded_from_cache_key(self):
        a = RunConfig(row_block=1)
        b = RunConfig(row_block=64)
        assert a.cache_key() == b.cache_key()
        assert a.to_dict()["row_block"] == 1
        assert b.to_dict()["row_block"] == 64

    def test_row_block_validation(self):
        with pytest.raises(ValueError):
            RunConfig(row_block=0)


class _DelayingBackend(NumericBackend):
    """Numeric backend that delays early tiles so completion order is the
    reverse of submission order — the merge must not care."""

    def run(self, plan, tile, gpu):
        time.sleep(0.03 if tile.tile_id < 2 else 0.0)
        return super().run(plan, tile, gpu)


class TestParallelDispatch:
    def _dispatch(self, spec, plan, backend, **kwargs):
        sim = GPUSimulator(spec.config.device, spec.config.n_gpus,
                          spec.config.n_streams)
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(plan, backend, sim, accumulator=acc, **kwargs)
        costs = {name: vars(cost) for name, cost in acc.costs.items()}
        return (acc.host_profile(), acc.host_index(), sim.timeline.makespan,
                report, costs)

    @pytest.fixture
    def spec_plan(self, rng):
        ref = rng.normal(size=(230, 3)).cumsum(axis=0)
        config = RunConfig(mode="FP16", n_tiles=9, n_gpus=3, row_block=32)
        spec = JobSpec.from_arrays(ref, None, 16, config)
        return spec, spec.plan()

    def test_workers_deterministic_vs_serial(self, spec_plan):
        spec, plan = spec_plan
        base = self._dispatch(spec, plan, NumericBackend())
        for workers in (1, 2, 4):
            got = self._dispatch(
                spec, plan, NumericBackend(), parallel_workers=workers
            )
            assert np.array_equal(got[0], base[0]), f"profile workers={workers}"
            assert np.array_equal(got[1], base[1]), f"index workers={workers}"
            assert got[2] == base[2], f"timeline workers={workers}"
            assert got[3].tiles_completed == base[3].tiles_completed

    def test_shuffled_completion_order_is_invisible(self, spec_plan):
        """Tiles finishing out of order must merge in tile-id order."""
        spec, plan = spec_plan
        base = self._dispatch(spec, plan, NumericBackend())
        got = self._dispatch(
            spec, plan, _DelayingBackend(), parallel_workers=4
        )
        assert np.array_equal(got[0], base[0])
        assert np.array_equal(got[1], base[1])
        assert got[2] == base[2]

    def test_parallel_composes_with_retry_and_escalation(self, spec_plan):
        """A deterministic transient failure plus a health escalation must
        recover under parallel dispatch exactly as under serial dispatch:
        both commit tiles in tile-id order, so profile, indices (fp16
        argmin tie-breaks included), costs and timeline all match."""
        spec, _ = spec_plan

        def injector(label, tile, gpu_id, attempt):
            if tile.tile_id == 3 and attempt == 0:
                raise TransientDeviceError("injected")

        def corruptor(label, tile, gpu_id, attempt, output):
            if tile.tile_id == 5 and attempt == 0:
                output.profile[...] = np.float16(np.nan)

        kwargs = dict(
            max_retries=2,
            failure_injector=injector,
            corruptor=corruptor,
            health=HealthPolicy(),
        )
        # Fresh plans: a reused plan's warm precalc cache would discount
        # the later runs' precalculation costs.
        base = self._dispatch(spec, spec.plan(), NumericBackend(), **kwargs)
        got = self._dispatch(
            spec, spec.plan(), NumericBackend(), parallel_workers=3, **kwargs
        )
        again = self._dispatch(
            spec, spec.plan(), NumericBackend(), parallel_workers=3, **kwargs
        )
        for run in (got, again):
            assert np.array_equal(run[0], base[0])
            assert np.array_equal(run[1], base[1])
            assert run[2] == base[2]
            assert run[4] == base[4]
        assert got[3].tile_retries == base[3].tile_retries == 1
        assert got[3].escalations.keys() == base[3].escalations.keys() == {5}

    def test_parallel_workers_validation(self, spec_plan):
        spec, plan = spec_plan
        sim = GPUSimulator(spec.config.device, 1, None)
        with pytest.raises(ValueError):
            execute_plan(plan, NumericBackend(), sim, parallel_workers=0)

    def test_api_parallel_workers(self, rng):
        from repro import matrix_profile

        ref = rng.normal(size=(180, 2)).cumsum(axis=0)
        r1 = matrix_profile(ref, m=12, mode="FP16", n_tiles=4)
        r2 = matrix_profile(ref, m=12, mode="FP16", n_tiles=4, parallel_workers=3)
        assert np.array_equal(r1.profile.view(np.uint8), r2.profile.view(np.uint8))
        assert np.array_equal(r1.index, r2.index)


class TestWorkspacePool:
    def test_lease_reuses_buffer(self):
        pool = WorkspacePool()
        with pool.lease((2, 3), np.float16) as a:
            first = a
        with pool.lease((2, 3), np.float16) as b:
            assert b is first  # same buffer back
        with pool.lease((2, 3), np.float32) as c:
            assert c is not first  # dtype keys differ

    def test_lease_returns_buffer_on_exception(self):
        pool = WorkspacePool()
        try:
            with pool.lease((4, 4), np.float32) as a:
                leaked = a
                raise RuntimeError("mid-tile fault")
        except RuntimeError:
            pass
        with pool.lease((4, 4), np.float32) as b:
            assert b is leaked  # returned to the pool despite the raise

    def test_changing_shapes_keep_one_buffer_per_dtype(self, rng):
        """A stream keeps one backend for life and its wide band tile asks
        for a new block shape on every append: the pool must grow one
        buffer per dtype, not retain one per shape."""
        pool = WorkspacePool()
        with pool.lease((2, 8, 40), np.float32) as big:
            pass
        with pool.lease((2, 4, 10), np.float32) as small:
            assert np.shares_memory(small, big)  # prefix of the grown buffer
        stream = IncrementalMatrixProfile(16, RunConfig(mode="FP32"))
        series = rng.normal(size=(640, 2)).cumsum(axis=0)
        for start in range(0, len(series), 32):
            stream.append(series[start : start + 32])
        assert len(stream._backend._workspace_pool()._free) == 1

    def test_backend_pools_are_per_thread(self):
        backend = NumericBackend()
        pools = {}

        def grab(name):
            pools[name] = backend._workspace_pool()

        t = threading.Thread(target=grab, args=("worker",))
        t.start()
        t.join()
        grab("main")
        assert pools["main"] is not pools["worker"]
        assert pools["main"] is backend._workspace_pool()  # stable per thread


class TestHalfRoundingPrimitives:
    """The float32-domain half rounding that powers the blocked fast
    paths must agree with ``astype(float16)`` everywhere it is used."""

    def _reference(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x.astype(np.float16).astype(np.float32)

    def test_boundaries_and_special_values(self):
        cases = np.array([
            0.0, -0.0, 1.0, -1.0,
            65504.0, 65519.9, 65520.0, 65536.0, 1e30,      # overflow edge
            -65520.0, -1e30,
            2.0 ** -14, 2.0 ** -14 * (1 + 1e-4),           # smallest normal
            2.0 ** -24, 2.0 ** -25, 2.0 ** -26, 1e-7,      # subnormals
            6.0e-5, 6.104e-5, 6.1e-8,
            np.inf, -np.inf, np.nan,
        ], dtype=np.float32)
        got = cases.copy()
        round_f16_inplace(got)
        ref = self._reference(cases)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_random_full_range_bits(self, rng):
        bits = rng.integers(0, 1 << 32, size=200_000, dtype=np.uint64)
        x = bits.astype(np.uint32).view(np.float32)
        got = x.copy()
        round_f16_inplace(got)
        ref = self._reference(x)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_nonneg_variant_on_half_pair_sums(self, rng):
        """The scan-stage domain: float32 sums of two non-negative half
        values (numpy's half add is exactly this sum plus one rounding)."""
        a = rng.integers(0, 0x7C01, size=100_000, dtype=np.uint16).view(np.float16)
        b = rng.integers(0, 0x7C01, size=100_000, dtype=np.uint16).view(np.float16)
        with np.errstate(over="ignore"):
            ref = (a + b).astype(np.float32)  # half add, widened
        got = a.astype(np.float32) + b.astype(np.float32)
        round_f16_nonneg_inplace(got)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_lut19_keys_are_unique_per_half_value(self):
        vals = np.arange(65536, dtype=np.uint16).view(np.float16)
        keys = f16_keys19(vals.astype(np.float32))
        assert len(np.unique(keys)) == 65536

    def test_lut19_gather_matches_u16_table(self, rng):
        table16 = rng.normal(size=65536).astype(np.float16)
        table19 = f16_lut19(table16)
        sample = rng.integers(0, 1 << 16, size=4096, dtype=np.uint16)
        x32 = sample.view(np.float16).astype(np.float32)
        assert np.array_equal(
            np.take(table19, f16_keys19(x32)), np.take(table16, sample)
        )
