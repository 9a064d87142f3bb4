"""The hot numerical kernels, in numpy.

``cox_breslow`` and ``cox_score_residuals`` are the Breslow partial
likelihood behind every Cox fit: the first is evaluated at each Newton and
step-halving point, the second once at the solution.  Everything that does
not depend on beta is built once per fit by :func:`risk_sets`: the event
weights, the tie groups that hold an event, ``we @ x`` and a feature-major
(p x n) copy of the covariates.  Each evaluation then computes only the
per-row risk ``w e^eta``, its two reversed cumulative sums and the
information product, and returns its sums for the residuals.  The
residuals are computed feature-major too, so every elementwise pass runs
along n, and are copied back to row-major (n x p) once at the end.

When every row is its own event group (no tied times, every event weight
positive, as in the multiply-imputed Cox refits, whose event indicators
are probabilities), the running sums are already in row order: both
kernels then read them as views, with no gather by event group.  The
values are the gathered ones, bit for bit.  The local-linear smoothers
serve ``smoothing``.

:func:`group_rows` is the one way rows are visited by group (strata in
``models.sandwich_variance``, ``allocation.influence_sd`` and
``allocation.draw_within_strata``): rows enter a group in row order and
groups are visited in label order, so each group's values, and every sum
over them, come in the order that a boolean mask per group would give.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def local_linear_1d(x, y, w, grid, bandwidth):
    """Local linear smoother with an Epanechnikov kernel.

    Parameters
    ----------
    x, y, w : 1-d arrays of observation locations, values, and
        nonnegative case weights.  ``x`` must be sorted ascending.
    grid : evaluation points.
    bandwidth : kernel half-width (> 0).

    Returns
    -------
    Array of fitted values on ``grid``.  Points whose kernel window is
    degenerate fall back to a locally-constant fit; windows with no
    support yield NaN (callers widen the bandwidth on NaN).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    out = np.full(grid.shape, np.nan)
    lo = np.searchsorted(x, grid - bandwidth, side="left")
    hi = np.searchsorted(x, grid + bandwidth, side="right")
    for j in range(grid.size):
        sl = slice(lo[j], hi[j])
        if sl.start >= sl.stop:
            continue
        dx = x[sl] - grid[j]
        u = dx / bandwidth
        k = w[sl] * np.maximum(0.75 * (1.0 - u * u), 0.0)
        s0 = k.sum()
        if s0 <= 0.0:
            continue
        s1 = k @ dx
        s2 = k @ (dx * dx)
        t0 = k @ y[sl]
        t1 = k @ (y[sl] * dx)
        det = s0 * s2 - s1 * s1
        if det > 1e-12 * s0 * s2:
            out[j] = (s2 * t0 - s1 * t1) / det
        else:
            out[j] = t0 / s0
    return out


def local_linear_2d(x1, x2, y, w, grid, bandwidth):
    """Local planar smoother on scattered 2-d data, Epanechnikov product kernel.

    ``x1`` must be sorted ascending (ties in any order).  Returns a
    ``len(grid) x len(grid)`` surface; degenerate windows fall back to a
    locally-constant fit and empty windows to NaN.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    g = grid.size
    out = np.full((g, g), np.nan)
    lo = np.searchsorted(x1, grid - bandwidth, side="left")
    hi = np.searchsorted(x1, grid + bandwidth, side="right")
    for a in range(g):
        sl = slice(lo[a], hi[a])
        if sl.start >= sl.stop:
            continue
        d1 = x1[sl] - grid[a]
        u1 = d1 / bandwidth
        k1 = w[sl] * np.maximum(0.75 * (1.0 - u1 * u1), 0.0)
        order = np.argsort(x2[sl], kind="stable")
        x2s = x2[sl][order]
        d1s = d1[order]
        k1s = k1[order]
        ys = y[sl][order]
        lo2 = np.searchsorted(x2s, grid - bandwidth, side="left")
        hi2 = np.searchsorted(x2s, grid + bandwidth, side="right")
        for b in range(g):
            s2w = slice(lo2[b], hi2[b])
            if s2w.start >= s2w.stop:
                continue
            d2 = x2s[s2w] - grid[b]
            u2 = d2 / bandwidth
            k = k1s[s2w] * np.maximum(0.75 * (1.0 - u2 * u2), 0.0)
            s00 = k.sum()
            if s00 <= 0.0:
                continue
            dd1 = d1s[s2w]
            s10 = k @ dd1
            s01 = k @ d2
            s20 = k @ (dd1 * dd1)
            s11 = k @ (dd1 * d2)
            s02 = k @ (d2 * d2)
            t0 = k @ ys[s2w]
            t1 = k @ (ys[s2w] * dd1)
            t2 = k @ (ys[s2w] * d2)
            det = (
                s00 * (s20 * s02 - s11 * s11)
                - s10 * (s10 * s02 - s11 * s01)
                + s01 * (s10 * s11 - s20 * s01)
            )
            if abs(det) > 1e-12 * max(s00 * s20 * s02, 1e-300):
                det1 = (
                    t0 * (s20 * s02 - s11 * s11)
                    - s10 * (t1 * s02 - s11 * t2)
                    + s01 * (t1 * s11 - s20 * t2)
                )
                out[a, b] = det1 / det
            else:
                out[a, b] = t0 / s00
    return out


def group_rows(labels, n_groups):
    """Rows grouped by label: ``(order, bounds)``.

    ``labels`` holds each row's group, an integer in ``[0, n_groups)``;
    another value raises ValueError.  Group ``g``'s rows are
    ``order[bounds[g]:bounds[g + 1]]``, ascending: one stable argsort and
    one ``bincount``.  The labels are sorted as the narrowest unsigned
    integer type that holds them, for which numpy's stable sort is a
    radix sort.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_groups)
    if counts.size > n_groups:
        raise ValueError(f"group label {labels.max()} outside [0, {n_groups})")
    narrow = np.uint8 if n_groups <= 1 << 8 else np.uint16 if n_groups <= 1 << 16 else None
    keys = labels if narrow is None else labels.astype(narrow)
    bounds = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return np.argsort(keys, kind="stable"), bounds


class RiskSets(NamedTuple):
    """The Breslow quantities of one Cox fit that do not depend on beta.

    Built once per fit by :func:`risk_sets`; every evaluation of
    :func:`cox_breslow` and :func:`cox_score_residuals` reads it.
    """

    event: np.ndarray      # event indicator in [0, 1], time-sorted
    w: np.ndarray          # case weights, time-sorted
    we: np.ndarray         # w * event
    ew: np.ndarray         # summed event weight at each tie group holding an event
    tail_rows: np.ndarray  # those groups' first rows, counted from the last row
    k: np.ndarray          # event groups up to and including each row's group
    we_x: np.ndarray       # we @ x, the score's first term
    x: np.ndarray          # n x p covariates, time-sorted
    xt: np.ndarray         # the same covariates feature-major: p x n, C-contiguous
    each_row_an_event: bool  # no tied times and every we > 0: each row is an event group


def risk_sets(event, w, x, starts, group_index) -> RiskSets:
    """The per-fit risk-set structure of time-sorted data.

    All arrays are sorted by observed time ascending; tied times form
    groups.  ``starts`` holds each tie group's first row (ascending) and
    ``group_index[i]`` is row i's group number.  ``k[i] - 1`` indexes row
    i's latest event group (-1 before the first).  Groups without an event
    add nothing to the likelihood or its derivatives.
    """
    we = w * event
    ew = np.bincount(group_index, weights=we, minlength=starts.size)
    has_event = ew > 0.0
    return RiskSets(event=event, w=w, we=we, ew=ew[has_event],
                    tail_rows=event.size - 1 - starts[has_event],
                    k=np.cumsum(has_event).take(group_index), we_x=we @ x, x=x,
                    xt=np.ascontiguousarray(x.T),
                    each_row_an_event=starts.size == event.size and bool(has_event.all()))


class BreslowSums(NamedTuple):
    """The risk-set sums of one :func:`cox_breslow` evaluation.

    :func:`cox_score_residuals` reads them at the accepted beta, so the
    residuals cost no second pass over the risk sets.
    """

    eta: np.ndarray        # the linear predictor evaluated, time-sorted
    exp_eta: np.ndarray    # e^eta
    m: np.ndarray          # risk-set weighted covariate mean at each event group
    haz: np.ndarray        # Breslow hazard increment ew / s0 at each event group
    a: np.ndarray          # cumulative hazard at each row's latest event group


def _running_sum(values, risk: RiskSets):
    """Running sums of ``values`` along the last axis, read at ``risk.k - 1``; 0
    where k is 0.  When each row is an event, ``k - 1`` is the row itself."""
    total = np.cumsum(values, axis=-1)
    if risk.each_row_an_event:
        return total
    zero = np.zeros(total.shape[:-1] + (1,))
    return np.concatenate([zero, total], axis=-1).take(risk.k, axis=-1)


def cox_breslow(risk: RiskSets, eta):
    """Breslow partial-likelihood value, score and information at ``eta``.

    ``risk`` comes from :func:`risk_sets`; ``eta`` is the linear predictor
    in the same (time-sorted) row order.  Returns
    ``(loglik, score, information, sums)``, ``sums`` the
    :class:`BreslowSums` at ``eta``.

    The risk-set sums are forward cumulative sums over the reversed rows,
    read at the tie groups that hold an event: per-row risk ``r = w e^eta``,
    ``s0`` the total of ``r`` from each event group's first row on, and
    the risk-set weighted covariate mean ``m`` (groups x p), whose sum runs
    along the contiguous axis of ``xt``.  When each row is an event, the
    event groups are the rows and the sums are read reversed, in place.
    """
    exp_eta = np.exp(eta)
    r = risk.w * exp_eta
    s0 = np.cumsum(r[::-1])
    m = np.cumsum((risk.xt * r)[:, ::-1], axis=1)
    if risk.each_row_an_event:
        s0 = s0[::-1]
        m = np.divide(m[:, ::-1].T, s0[:, None], order="C")
    else:
        s0 = s0.take(risk.tail_rows)
        m = m.T.take(risk.tail_rows, axis=0)
        m /= s0[:, None]
    ew = risk.ew
    loglik = float(risk.we @ eta) - float(ew @ np.log(s0))
    score = risk.we_x - ew @ m
    # info = sum_i r_i a_i x_i x_i' - sum_g ew_g m_g m_g', with a_i the
    # Breslow cumulative hazard at row i.
    haz = ew / s0
    a = _running_sum(haz, risk)
    info = (risk.xt * (r * a)) @ risk.xt.T - (ew[:, None] * m).T @ m
    info = 0.5 * (info + info.T)
    return loglik, score, info, BreslowSums(eta, exp_eta, m, haz, a)


def cox_score_residuals(risk: RiskSets, sums: BreslowSums):
    """Per-record (unweighted) score residuals at ``sums.eta``.

    ``risk`` comes from :func:`risk_sets` and ``sums`` from the
    :func:`cox_breslow` evaluation at that ``eta``; ``sum_i w_i *
    residuals[i]`` equals its score.  Computed feature-major (p x n);
    returns the ``n x p`` row-major copy.
    """
    mt = sums.m.T
    b = _running_sum(sums.haz * mt, risk)
    # m at row i's latest event group: only event rows use it, and an
    # event row's own group is that group.
    xt = risk.xt
    if risk.each_row_an_event:
        m_i = mt
    else:
        m_i = np.concatenate([np.zeros((xt.shape[0], 1)), mt], axis=1).take(risk.k, axis=1)
    resid = risk.event * (xt - m_i) - sums.exp_eta * (xt * sums.a - b)
    return np.ascontiguousarray(resid.T)
