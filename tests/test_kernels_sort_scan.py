"""Unit tests for the sort_&_incl_scan kernel (bitonic sort + fan-in scan).

``bitonic_sort`` is the stage-by-stage network of the per-row oracle
(``tests/kernel_oracle.py``); its stage count is what the kernel's cost
record charges."""

import numpy as np
import pytest

from repro.gpu.kernel import LaunchConfig
from repro.gpu.perfmodel import sort_stage_count
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.layout import to_device_layout
from repro.kernels.precalc import PrecalcKernel
from repro.kernels.sort_scan import SortScanKernel, fanin_inclusive_scan
from repro.kernels.tc_gemm import TcGemmKernel
from repro.precision.modes import TENSOR_CORE_MODES, policy_for
from tests.kernel_oracle import bitonic_sort

CFG = LaunchConfig(grid=4, block=64)


class TestBitonicSort:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64])
    def test_sorts_every_width(self, rng, d):
        x = rng.normal(size=(d, 9))
        out = bitonic_sort(x)
        np.testing.assert_array_equal(out, np.sort(x, axis=0))

    def test_stage_count_matches_model(self, rng):
        for d in (2, 4, 8, 16, 64, 5, 9):
            _, stages = bitonic_sort(rng.normal(size=(d, 3)), count_stages=True)
            assert stages == sort_stage_count(d)[0]

    def test_input_not_mutated(self, rng):
        x = rng.normal(size=(8, 4))
        copy = x.copy()
        bitonic_sort(x)
        np.testing.assert_array_equal(x, copy)

    def test_fp16_padding_uses_max(self, rng):
        # d=3 padded to 4 with the largest finite half; padding must never
        # leak into the first d sorted outputs.
        x = rng.normal(size=(3, 5)).astype(np.float16)
        out = bitonic_sort(x)
        assert out.shape == (3, 5)
        np.testing.assert_array_equal(out, np.sort(x, axis=0))

    def test_duplicates(self):
        x = np.array([[2.0], [1.0], [2.0], [1.0]])
        np.testing.assert_array_equal(bitonic_sort(x)[:, 0], [1, 1, 2, 2])


class TestFaninScan:
    @pytest.mark.parametrize("d", [1, 2, 4, 7, 16])
    def test_matches_cumsum_fp64(self, rng, d):
        x = rng.normal(size=(d, 6))
        out = fanin_inclusive_scan(x, np.dtype(np.float64))
        np.testing.assert_allclose(out, np.cumsum(x, axis=0), rtol=1e-12)

    def test_stage_count(self, rng):
        _, stages = fanin_inclusive_scan(
            rng.normal(size=(16, 2)), np.dtype(np.float64), count_stages=True
        )
        assert stages == 4

    def test_fanin_order_rounding_differs_from_sequential(self):
        # In fp16 the tree summation order produces different (generally
        # better) rounding than a sequential cumsum — this asserts we do
        # model the fan-in order, not a sequential scan.
        x = np.full((64, 1), 0.1, dtype=np.float16)
        fan = fanin_inclusive_scan(x, np.dtype(np.float16))[-1, 0]
        seq = np.cumsum(x, axis=0)[-1, 0]
        exact = 6.4
        assert abs(float(fan) - exact) <= abs(float(seq) - exact)


class TestSortScanKernel:
    def test_inclusive_average_semantics(self, rng):
        plane = rng.normal(size=(5, 7)) ** 2
        k = SortScanKernel(config=CFG, policy=policy_for("FP64"))
        out = k.run(plane)
        s = np.sort(plane, axis=0)
        expected = np.cumsum(s, axis=0) / np.arange(1, 6)[:, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_first_row_is_min(self, rng):
        plane = rng.normal(size=(6, 9)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out[0], plane.min(axis=0), rtol=1e-12)

    def test_last_row_is_mean(self, rng):
        plane = rng.normal(size=(6, 9)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out[-1], plane.mean(axis=0), rtol=1e-12)

    def test_rows_monotone_in_k_is_false_in_general(self, rng):
        # The inclusive average over *sorted* values is non-decreasing in k.
        plane = rng.normal(size=(8, 20)) ** 2
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        assert np.all(np.diff(out, axis=0) >= -1e-12)

    def test_cost_syncs(self, rng):
        plane = rng.normal(size=(8, 5))
        k = SortScanKernel(config=CFG, policy=policy_for("FP64"))
        k.run(plane)
        k.run(plane)
        sort_stages, scan_stages = sort_stage_count(8)
        assert k.cost.syncs == 2 * (sort_stages + scan_stages)
        assert k.cost.launches == 2

    def test_d1_passthrough(self, rng):
        plane = np.abs(rng.normal(size=(1, 11)))
        out = SortScanKernel(config=CFG, policy=policy_for("FP64")).run(plane)
        np.testing.assert_allclose(out, plane, rtol=1e-12)


class TestDistancePlanesHoldNoNegativeZero:
    """:func:`sort_columns` equals ``np.sort`` bitwise only on planes
    without ``-0.0`` (min/max networks and ``np.sort`` may order signed
    zeros differently).  Pin that no main loop emits one, on inputs that
    produce many exact zeros: an exactly repeated pattern, constant
    windows and FP16 overflow."""

    @staticmethod
    def _series(rng, n=160, d=3):
        base = rng.normal(size=(n, d)).cumsum(axis=0)
        base[100:124] = base[20:44]  # exact matches
        base[60:80] = 2.5  # constant windows
        overflow = (rng.normal(size=(n, d)) * 500).cumsum(axis=0)
        return base, overflow

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "main_loop, mode",
        [("vector", mode) for mode in ("FP64", "FP32", "Mixed", "FP16", "FP16C")]
        + [("tensor_core", mode.value) for mode in TENSOR_CORE_MODES],
    )
    def test_no_negative_zero(self, rng, main_loop, mode):
        policy = policy_for(mode)
        zeros = negative = 0
        for series in self._series(rng):
            dev = to_device_layout(series, policy.storage)
            m = 16
            pre = PrecalcKernel(config=CFG, policy=policy).run(dev, dev, m)
            kernel_cls = TcGemmKernel if main_loop == "tensor_core" else DistCalcKernel
            dist = kernel_cls(config=CFG, policy=policy)
            dist.bind(pre)
            sort_scan = SortScanKernel(
                config=CFG, policy=policy, mma_scan=main_loop == "tensor_core"
            )
            for i0, b in ((0, 1), (1, 16), (17, 1), (18, pre.n_r_seg - 18)):
                ws = np.empty((pre.d, b, pre.n_q_seg), dtype=policy.compute)
                block = dist.run_block(i0, b, ws).copy()
                averaged = sort_scan.run(block.reshape(pre.d, -1).copy(), rows=b)
                for plane in (block, averaged):
                    is_zero = plane == 0
                    zeros += int(is_zero.sum())
                    negative += int((is_zero & np.signbit(plane)).sum())
        assert zeros > 0
        assert negative == 0
