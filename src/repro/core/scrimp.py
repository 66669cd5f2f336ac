"""SCRIMP-style diagonal-order evaluation (related work, Section II-A).

The paper's row-wise GPU algorithm inherits from STOMP; the SCRIMP++
lineage it cites instead walks the distance matrix **diagonal by
diagonal**, because Eq. (1)'s recurrence is cheapest along a diagonal
(QT[i+1, j+1] from QT[i, j]): one diagonal costs one seed dot product
plus O(L) updates, and diagonals are mutually independent — which makes
*random diagonal order* an anytime algorithm with even better convergence
behaviour than row sampling (each diagonal spreads its contribution over
the whole profile).

This module implements that traversal for the multi-dimensional profile:
each diagonal yields, per step, the full d-vector of one matrix cell, so
the mSTAMP sort + inclusive-average connection applies cell-wise along
the diagonal (vectorised).  With every diagonal processed the result is
exact and matches the row-order implementations; with a subset it is a
progressively refining upper bound.
"""

from __future__ import annotations

import numpy as np

from ..engine.plan import JobSpec
from ..gpu.kernel import LaunchConfig
from ..kernels.precalc import PrecalcKernel
from ..kernels.sort_scan import inclusive_average
from ..kernels.update import INDEX_DTYPE
from ..precision.arithmetic import rp_fma
from ..precision.modes import DTYPE_MAX, PrecisionPolicy
from .config import RunConfig
from .result import MatrixProfileResult

__all__ = ["diagonal_matrix_profile", "diagonal_count"]


def diagonal_count(n_r_seg: int, n_q_seg: int) -> int:
    """Number of diagonals of the (n_r_seg x n_q_seg) distance matrix."""
    return n_r_seg + n_q_seg - 1


def _diagonal_cells(k: int, n_r_seg: int, n_q_seg: int) -> tuple[int, int, int]:
    """Start cell (i0, j0) and length of diagonal ``k``.

    Diagonals are indexed k = j - i + (n_r_seg - 1) in [0, n_r+n_q-2]:
    k < n_r_seg starts at (n_r_seg-1-k, 0), otherwise at
    (0, k - n_r_seg + 1).
    """
    if not 0 <= k < diagonal_count(n_r_seg, n_q_seg):
        raise ValueError(f"diagonal {k} out of range")
    if k < n_r_seg:
        i0, j0 = n_r_seg - 1 - k, 0
    else:
        i0, j0 = 0, k - n_r_seg + 1
    length = min(n_r_seg - i0, n_q_seg - j0)
    return i0, j0, length


def diagonal_matrix_profile(
    reference: np.ndarray,
    query: np.ndarray | None,
    m: int,
    config: RunConfig | None = None,
    fraction: float = 1.0,
    seed: int = 0,
) -> MatrixProfileResult:
    """Multi-dimensional matrix profile by (optionally sampled) diagonals.

    ``fraction`` < 1 processes a random subset of diagonals (the SCRIMP
    anytime mode); 1.0 is exact and agrees with the row-order pipeline.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    config = config or RunConfig()
    policy: PrecisionPolicy = config.policy
    dtype = policy.compute

    # Shared engine-level validation: the same d-mismatch / window-too-long
    # ValueErrors as every other entry point (previously a bespoke message).
    spec = JobSpec.from_arrays(reference, query, m, config)
    zone = spec.exclusion_zone
    tr, tq = spec.layouts()
    launch: LaunchConfig = config.launch
    pre = PrecalcKernel(config=launch, policy=policy).run(tr, tq, m)
    d, n_r_seg, n_q_seg = pre.d, pre.n_r_seg, pre.n_q_seg

    df_r = pre.df_r.astype(dtype, copy=False)
    dg_r = pre.dg_r.astype(dtype, copy=False)
    inv_r = pre.inv_r.astype(dtype, copy=False)
    df_q = pre.df_q.astype(dtype, copy=False)
    dg_q = pre.dg_q.astype(dtype, copy=False)
    inv_q = pre.inv_q.astype(dtype, copy=False)
    qt_row0 = pre.qt_row0.astype(dtype, copy=False)
    qt_col0 = pre.qt_col0.astype(dtype, copy=False)

    limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
    profile = np.full((d, n_q_seg), limit, dtype=policy.storage)
    index = np.full((d, n_q_seg), -1, dtype=INDEX_DTYPE)
    two_m = dtype.type(2 * m)
    one = dtype.type(1)

    total = diagonal_count(n_r_seg, n_q_seg)
    rng = np.random.default_rng(seed)
    order = rng.permutation(total) if fraction < 1.0 else np.arange(total)
    todo = order[: max(1, int(round(fraction * total)))]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in todo:
            i0, j0, length = _diagonal_cells(int(k), n_r_seg, n_q_seg)
            rows = np.arange(i0, i0 + length)
            cols = np.arange(j0, j0 + length)

            # Streaming QT along the diagonal from its seed cell:
            # QT[i0, j0] comes from the precalculated first row/column.
            seed_qt = qt_row0[:, j0] if i0 == 0 else qt_col0[:, i0]
            qt = np.empty((d, length), dtype=dtype)
            qt[:, 0] = seed_qt
            # Vectorising the diagonal recurrence exactly (it is a scan)
            # needs a prefix structure; we emulate the device behaviour by
            # stepping the recurrence with rounded FMAs — each step is a
            # (d,) vector op, matching one thread-block step per cell.
            for t in range(1, length):
                step = rp_fma(
                    df_r[:, rows[t]], dg_q[:, cols[t]], qt[:, t - 1], dtype
                )
                qt[:, t] = rp_fma(df_q[:, cols[t]], dg_r[:, rows[t]], step, dtype)

            corr = ((qt * inv_r[:, rows]).astype(dtype) * inv_q[:, cols]).astype(dtype)
            gap = np.maximum((one - corr).astype(dtype), dtype.type(0))
            dist = np.sqrt((two_m * gap).astype(dtype)).astype(dtype)
            dist = np.where(np.isfinite(dist), dist, limit).astype(dtype)

            averaged = inclusive_average(dist, dtype)

            if zone is not None:
                excluded = np.abs(cols - rows) <= zone
                averaged = np.where(excluded[None, :], limit, averaged)

            target_p = profile[:, cols]
            improved = averaged.astype(policy.storage) < target_p
            target_i = index[:, cols]
            np.copyto(target_p, averaged.astype(policy.storage), where=improved)
            np.copyto(
                target_i,
                np.broadcast_to(rows[None, :], improved.shape),
                where=improved,
            )
            profile[:, cols] = target_p
            index[:, cols] = target_i

    return MatrixProfileResult(
        profile=np.ascontiguousarray(profile.T.astype(np.float64)),
        index=np.ascontiguousarray(index.T),
        mode=policy.mode,
        m=m,
        n_tiles=1,
        n_gpus=1,
    )
