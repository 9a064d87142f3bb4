"""Local-linear smoothing helpers: binning, bandwidth selection, NaN widening.

The kernels do the per-window arithmetic; this module prepares weighted
inputs (large inputs are pre-binned), picks bandwidths by 5-fold
cross-validation with a deterministic fold assignment, and widens the
bandwidth where a window has no support.
"""

from __future__ import annotations

import numpy as np

from twophase import kernels

CV_FOLDS = 5
CV_SEED = 1203981  # fixed: smoothing must be deterministic per inputs
BIN_LIMIT = 2000   # above this many points, smooth a binned summary


def _prepare_1d(x, y, w=None, n_bins=401):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=np.float64)
    if x.size > BIN_LIMIT:
        edges = np.linspace(x.min(), x.max() + 1e-9, n_bins + 1)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
        bw = np.bincount(idx, weights=w, minlength=n_bins)
        bs = np.bincount(idx, weights=w * y, minlength=n_bins)
        keep = bw > 0
        centers = 0.5 * (edges[:-1] + edges[1:])
        x, y, w = centers[keep], bs[keep] / bw[keep], bw[keep]
    order = np.argsort(x, kind="stable")
    return x[order], y[order], w[order]


def _cv_error_1d(x, y, w, bandwidth, folds=CV_FOLDS):
    rng = np.random.default_rng(CV_SEED)
    assign = rng.permutation(x.size) % folds
    err = 0.0
    used = 0.0
    for f in range(folds):
        hold = assign == f
        if not hold.any() or hold.all():
            continue
        pred = kernels.local_linear_1d(x[~hold], y[~hold], w[~hold], x[hold],
                                       bandwidth)
        ok = np.isfinite(pred)
        err += float(np.sum(w[hold][ok] * (pred[ok] - y[hold][ok]) ** 2))
        err += float(np.sum(w[hold][~ok] * np.var(y)))  # penalize empty windows
        used += float(np.sum(w[hold]))
    return err / used if used else np.inf


def select_bandwidth_1d(x, y, w, span):
    """5-fold CV over a geometric candidate ladder; span/10 fallback."""
    if x.size < 20:
        return span / 10.0
    gaps = np.diff(np.unique(x))
    lo = max(2.5 * (gaps.max() if gaps.size else span / 10), span / 100)
    hi = span / 2.0
    if not lo < hi:
        return span / 10.0
    cands = np.geomspace(lo, hi, 8)
    errs = [_cv_error_1d(x, y, w, b) for b in cands]
    best = int(np.argmin(errs))
    if not np.isfinite(errs[best]):
        return span / 10.0
    return float(cands[best])


def smooth_1d(x, y, w, grid, bandwidth, max_widenings=8):
    """Local-linear fit on ``grid``; widens the bandwidth on empty windows."""
    x, y, w = _prepare_1d(x, y, w)
    bw = float(bandwidth)
    for _ in range(max_widenings):
        out = kernels.local_linear_1d(x, y, w, grid, bw)
        if np.all(np.isfinite(out)):
            return out, bw
        bw *= 1.5
    raise ValueError("smoothing window empty even after widening; data too sparse")


def _cv_error_2d(x1, x2, y, w, bandwidth, grid, folds=CV_FOLDS):
    rng = np.random.default_rng(CV_SEED + 1)
    assign = rng.permutation(x1.size) % folds
    err = 0.0
    used = 0.0
    for f in range(folds):
        hold = assign == f
        if not hold.any() or hold.all():
            continue
        tr = ~hold
        order = np.argsort(x1[tr], kind="stable")
        surf = kernels.local_linear_2d(x1[tr][order], x2[tr][order],
                                       y[tr][order], w[tr][order], grid, bandwidth)
        step = grid[1] - grid[0]
        i1 = np.clip(np.rint((x1[hold] - grid[0]) / step).astype(np.intp),
                     0, grid.size - 1)
        i2 = np.clip(np.rint((x2[hold] - grid[0]) / step).astype(np.intp),
                     0, grid.size - 1)
        pred = surf[i1, i2]
        ok = np.isfinite(pred)
        err += float(np.sum(w[hold][ok] * (pred[ok] - y[hold][ok]) ** 2))
        err += float(np.sum(w[hold][~ok] * np.var(y)))
        used += float(np.sum(w[hold]))
    return err / used if used else np.inf


def select_bandwidth_2d(x1, x2, y, w, grid):
    span = float(grid[-1] - grid[0])
    if x1.size < 30:
        return span / 10.0
    lo = max(2.5 * float(grid[1] - grid[0]), span / 50)
    hi = span / 2.5
    cands = np.geomspace(lo, hi, 6)
    errs = [_cv_error_2d(x1, x2, y, w, b, grid) for b in cands]
    best = int(np.argmin(errs))
    if not np.isfinite(errs[best]):
        return span / 10.0
    return float(cands[best])


def smooth_2d(x1, x2, y, w, grid, bandwidth, max_widenings=8):
    order = np.argsort(x1, kind="stable")
    x1, x2, y, w = x1[order], x2[order], y[order], w[order]
    bw = float(bandwidth)
    for _ in range(max_widenings):
        out = kernels.local_linear_2d(x1, x2, y, w, grid, bw)
        if np.all(np.isfinite(out)):
            return out, bw
        bw *= 1.5
    raise ValueError("2-d smoothing window empty even after widening")


def trapezoid_weights(grid):
    grid = np.asarray(grid, dtype=np.float64)
    w = np.empty_like(grid)
    w[0] = (grid[1] - grid[0]) / 2
    w[-1] = (grid[-1] - grid[-2]) / 2
    w[1:-1] = (grid[2:] - grid[:-2]) / 2
    return w
