"""Sparse-longitudinal functional PCA through conditional expectation.

Fits the mean curve and covariance surface of pooled irregular
measurements as one model: a B-spline mixed-effects model (James, Hastie
& Sugar 2000) fitted by maximum likelihood with SQUAREM-accelerated EM.
The covariance surface is eigendecomposed under trapezoid quadrature, and
each subject gets best-linear-predictor component scores (PACE, Yao,
Muller & Wang 2005).  Downstream consumers derive the weekly weight-gain
exposure from reconstructed trajectories and flag observations that fall
outside the prediction band from the subject's other observations.

The fit holds each subject's spline Gram matrix as its lower band, the
only part cubic B-splines make nonzero, and builds its statistics a block
of subjects at a time, so its peak memory is the pooled least-squares
start's whole-population basis rather than an L x L stack per subject.

Each EM step's E-step takes the subjects E_STEP_CHUNK at a time.  On a
host where this process may run on more than one CPU, the chunks are
split into contiguous runs, one per CPU and at most one per chunk: this
process computes the first run and a worker forked for the fit computes
each other run.  Every chunk's terms are added here in chunk order, so
E_STEP_CHUNK sets the rounding of the EM sums and the worker count does
not: each fitted value is the same, bit for bit, on any host.  The fit
runs in this process alone with one CPU or one chunk, where the ``fork``
start method does not exist, and inside a daemonic multiprocessing
worker (``forking.process_count``).

Every eigensystem with components has measurement noise (see
:class:`EigenSystem`), so scoring and flagging solve one positive-definite
system per subject; a zero-variation fit has neither and is banded by its
mean curve alone.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from twophase import forking
from twophase.errors import (
    ConvergenceError,
    DomainError,
    IllConditionedError,
    UnidentifiedModelError,
)

TIME_DOMAIN = (-365.0, 272.0)
FULL_TERM_DAYS = 273  # assumed gestation length behind the phase-1 exposure
DEFAULT_GRID_SIZE = 101
DEFAULT_FVE = 0.999
MAX_COMPONENTS = 20
N_BASIS = 12                 # cubic B-splines spanning the fitting domain
SPLINE_DEGREE = 3
EM_TOL = 1e-5                # largest EM change, relative to each block's size
EM_MAX_CYCLES = 500          # SQUAREM cycles (three EM steps each) before giving up
INIT_NOISE_SHARE = 0.01      # starting noise variance, as a share of the pooled variance
E_STEP_CHUNK = 2500          # subjects per block of fit statistics and per batched
                             # E-step, points per block of bspline_basis (bounds peak memory)


# The rule every series keeps, checked in this order (see _first_fault).
_SERIES_RULES = ("needs at least one observation",
                 "times/values length mismatch",
                 "times must be finite and strictly increasing",
                 "weights must be finite and positive")


class SeriesError(ValueError):
    """A series that breaks the rule of :class:`LongitudinalSeries`.

    The message is ``series <id>: <rule broken>``; ``subject_id`` is the
    id.  Both are the exception's arguments, so it pickles.
    """

    def __init__(self, subject_id, rule: str):
        super().__init__(subject_id, rule)
        self.subject_id = subject_id

    def __str__(self):
        return f"series {self.args[0]}: {self.args[1]}"


def _first_fault(times: np.ndarray, values: np.ndarray, offsets: np.ndarray):
    """``(i, rule)`` for the first segment that breaks the series rule, or None.

    Segment i is ``times[a:b]`` with ``values[a:b]``, where ``a, b =
    offsets[i], offsets[i + 1]`` (non-decreasing from 0); a slice that
    runs past the end of its array is cut short, as slicing does, so
    ``offsets = [0, max(len(times), len(values))]`` is one series as
    given.  Each segment is checked in this order: not empty, equal
    lengths, times finite and strictly increasing, weights finite and
    positive; each check is one pass over the flat arrays.
    """
    ends_t, ends_v = np.minimum(offsets, times.size), np.minimum(offsets, values.size)
    n_times, n_values = ends_t[1:] - ends_t[:-1], ends_v[1:] - ends_v[:-1]
    falls = times[1:] <= times[:-1]     # False at a NaN, which is not finite
    cuts = offsets[1:-1]
    falls[cuts[(cuts > 0) & (cuts < times.size)] - 1] = False   # into the next segment
    bad_time = ~np.isfinite(times)
    bad_time[:-1] |= falls
    bad_weight = ~((values > 0.0) & (values < math.inf))     # True at a NaN
    # The first segment that fails each check, n when none does; a point
    # belongs to the last segment starting at or before it.
    n = n_times.size
    firsts = []
    for mask, of_points in ((n_times == 0, False), (n_times != n_values, False),
                            (bad_time, True), (bad_weight, True)):
        hit = np.flatnonzero(mask)
        if hit.size == 0:
            firsts.append(n)
        else:
            firsts.append(int(offsets.searchsorted(hit[0], "right")) - 1 if of_points
                          else int(hit[0]))
    first = min(firsts)
    return None if first == n else (first, _SERIES_RULES[firsts.index(first)])


@dataclass(frozen=True, slots=True, eq=False)
class LongitudinalSeries:
    """One subject's sparse weight history on the common gestational clock.

    The rule every series keeps: at least one observation, as many
    weights as times, times finite and strictly increasing, weights
    finite and positive.  A series that breaks it raises
    :class:`SeriesError` (a ValueError) for the first broken part, in that
    order; :func:`series_from_flat` applies the same check, by the same
    code, to many series at once.  Times and values are stored as
    float64 arrays.

    The class is slotted (no per-instance ``__dict__``), so series built
    by the constructor and by :func:`series_from_flat` have one layout.
    Series pickle, compare equal when their ids and their times and
    values are equal, and are not hashable.
    """

    subject_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        fault = _first_fault(t, v, np.array([0, max(t.size, v.size)]))
        if fault is not None:
            raise SeriesError(self.subject_id, fault[1])
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, LongitudinalSeries):
            return NotImplemented
        return (self.subject_id == other.subject_id
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.values, other.values))


def series_from_flat(subject_ids: Sequence[str], times, values,
                     offsets) -> list[LongitudinalSeries]:
    """One series per id: series i has ``times[a:b]`` and ``values[a:b]``,
    where ``a, b = offsets[i], offsets[i + 1]``.

    Every subject's points are checked against the rule of
    :class:`LongitudinalSeries` in one pass over the flat arrays, and the
    first subject that breaks it raises the SeriesError that its own
    constructor would.  The series are then built without a second
    check.  Their times and values are views of the two arrays (of
    float64 copies, when the arrays are not float64), one slice per
    subject.  ``offsets`` holds ``len(subject_ids) + 1`` non-decreasing
    integers from 0 to the common length of the 1-D arrays; any other
    layout raises ValueError.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    bounds = np.asarray(offsets)
    if not (times.ndim == values.ndim == bounds.ndim == 1
            and bounds.size == len(subject_ids) + 1 and bounds.dtype.kind in "iu"
            and bounds[0] == 0 and bounds[-1] == times.size == values.size
            and (bounds[1:] >= bounds[:-1]).all()):
        raise ValueError("offsets must run, non-decreasing, from 0 to the common length "
                         "of times and values, one more entry than there are subjects")
    fault = _first_fault(times, values, bounds)
    if fault is not None:
        raise SeriesError(subject_ids[fault[0]], fault[1])
    new, put = object.__new__, object.__setattr__
    out = []
    ends = bounds.tolist()
    for sid, a, b in zip(subject_ids, ends, ends[1:]):
        s = new(LongitudinalSeries)
        put(s, "subject_id", sid)
        put(s, "times", times[a:b])
        put(s, "values", values[a:b])
        out.append(s)
    return out


def trapezoid_weights(grid) -> np.ndarray:
    """Trapezoid-rule quadrature weights on the increasing ``grid``."""
    grid = np.asarray(grid, dtype=np.float64)
    w = np.empty_like(grid)
    w[0] = (grid[1] - grid[0]) / 2
    w[-1] = (grid[-1] - grid[-2]) / 2
    w[1:-1] = (grid[2:] - grid[:-2]) / 2
    return w


@dataclass(frozen=True)
class EigenSystem:
    """Estimated mean curve, eigenpairs, and noise variance on a fixed grid.

    The mean curve and the eigenfunctions are linearly interpolated
    between grid points from one table built at construction.

    Invariant: a system with K >= 1 components has ``noise_var > 1e-12
    lambda_1``, so every subject's prior covariance ``Phi^T Lambda Phi +
    noise_var I`` is positive definite.  Construction (``dataclasses.replace``
    included) raises IllConditionedError otherwise.  A system with no
    components may have no noise: that is a zero-variation fit.  The
    system is frozen, so assigning a field raises FrozenInstanceError and
    the invariant and the table hold for its whole life.
    """

    grid: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray        # descending, > 0; empty when zero variation
    eigenfunctions: np.ndarray     # K x G, orthonormal under trapezoid quadrature
    noise_var: float
    fve: np.ndarray                # cumulative fraction of variance for k = 1..K
    zero_variation: bool = False
    # EM steps (``_em_step`` evaluations) of the fit that made it: 0 for a
    # zero-variation fit, None when it was not fitted (built directly, or
    # read from an ``es.json`` that does not store it).
    em_steps: int | None = None
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eigenvalues.size and not self.noise_var > 1e-12 * self.eigenvalues[0]:
            raise IllConditionedError(
                f"an eigensystem with {self.eigenvalues.size} components needs a noise "
                f"variance above 1e-12 of its leading eigenvalue, got {self.noise_var:g}")
        # _table[0, g] holds the mean and the K eigenfunctions at grid point
        # g, and _table[1, g] their slopes to the next grid point; the last
        # point's slopes are 0, so the right end of the grid reads its own
        # values.  One take along the grid reads both.
        values = np.vstack([self.mean, self.eigenfunctions]).T
        table = np.zeros((2, *values.shape))
        table[0] = values
        table[1, :-1] = np.diff(values, axis=0) / np.diff(self.grid)[:, None]
        object.__setattr__(self, "_table", table)

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)

    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def _check_domain(self, t):
        lo, hi = self.domain()
        t = np.asarray(t, dtype=np.float64)
        if not np.all((t >= lo) & (t <= hi)):   # NaN is outside
            raise DomainError(
                f"time outside the fitted domain [{lo:g}, {hi:g}]")
        return t

    def _values_at(self, t: np.ndarray) -> np.ndarray:
        """Mean (row 0) and eigenfunctions (rows 1..K) at the 1-D in-domain ``t``.

        One search serves every row, and each value is ``np.interp``'s
        ``f[j] + slope[j] (t - grid[j])``.  The result is the transpose of
        a len(t) x (K + 1) array, a layout the scoring products depend on
        for their rounding.
        """
        j = self.grid.searchsorted(t, "right") - 1
        values, slopes = self._table.take(j, axis=1)
        return (values + slopes * (t - self.grid[j])[:, None]).T

    def mean_at(self, t):
        t = self._check_domain(t)
        values = self._values_at(np.atleast_1d(t))[0]
        return values if t.ndim else values[0]

    def eigen_at(self, t):
        """Eigenfunction values at ``t``, shaped K x len(t)."""
        return self._values_at(self._check_domain(np.atleast_1d(t)))[1:]


def _pool(series: Sequence[LongitudinalSeries], lo: float, hi: float):
    """Times, values and subject index of every observation inside ``[lo, hi]``."""
    times = np.concatenate([s.times for s in series])
    values = np.concatenate([s.values for s in series])
    subj = np.repeat(np.arange(len(series)), [s.times.size for s in series])
    keep = (times >= lo) & (times <= hi)
    return times[keep], values[keep], subj[keep]


def bspline_basis(t, lo: float, hi: float) -> np.ndarray:
    """Clamped cubic B-splines on [lo, hi] at ``t``, shaped len(t) x N_BASIS.

    The interior knots are equally spaced.  Each point's SPLINE_DEGREE + 1
    nonzero values come from the Cox-de Boor recursion on its knot span
    (Piegl & Tiller, algorithm A2.2); ``t = hi`` falls in the last span.
    A row depends on its own point alone.  The recursion runs over
    E_STEP_CHUNK points at a time and fills the result block by block,
    so its temporaries stay small beside the result, and a row's values
    do not depend on the block it falls in.
    """
    t = np.asarray(t, dtype=np.float64)
    k = SPLINE_DEGREE
    knots = np.r_[np.full(k, lo), np.linspace(lo, hi, N_BASIS - k + 1), np.full(k, hi)]
    out = np.zeros((t.size, N_BASIS))
    for first in range(0, t.size, E_STEP_CHUNK):
        block = t[first:first + E_STEP_CHUNK]
        span = np.clip(np.searchsorted(knots, block, side="right") - 1, k, N_BASIS - 1)
        local = np.zeros((block.size, k + 1))
        local[:, 0] = 1.0
        for d in range(1, k + 1):
            saved = np.zeros(block.size)
            for r in range(d):
                left = block - knots[span + 1 - d + r]
                right = knots[span + 1 + r] - block
                temp = local[:, r] / (right + left)
                local[:, r] = saved + right * temp
                saved = left * temp
            local[:, d] = saved
        rows = np.arange(block.size)
        filled = out[first:first + block.size]
        for r in range(k + 1):
            filled[rows, span - k + r] = local[:, r]
    return out


def _subject_stats(t, y, subj, n, lo: float, hi: float):
    """Per-subject sufficient statistics ``(band, cross, sq)`` of the spline model.

    Point p is at time ``t[p]`` with value ``y[p]`` and belongs to subject
    ``subj[p]``, non-decreasing over 0..n-1; ``B_i`` is :func:`bspline_basis`
    on [lo, hi] at subject i's times.  With the subject index last,
    ``band[d, a, i] = (B_i^T B_i)[a + d, a]`` for ``d <= SPLINE_DEGREE``
    ((SPLINE_DEGREE + 1) x L x n, 0 where ``a + d >= L``) is the lower band
    of the Gram matrix: cubic B-splines overlap only within SPLINE_DEGREE
    of each other, so every entry outside it is 0.  ``cross[:, i] = B_i^T
    y_i`` (L x n) and ``sq[i] = y_i^T y_i``.

    Subjects are taken E_STEP_CHUNK at a time: the basis is evaluated at
    the block's points only, and each entry is one bincount over them.  A
    bincount adds each subject's points in order, so the statistics do
    not depend on the block size, and no per-point outer product or
    whole-population basis is held.
    """
    width = SPLINE_DEGREE + 1
    band = np.zeros((width, N_BASIS, n))
    cross = np.empty((N_BASIS, n))
    sq = np.empty(n)
    firsts = range(0, n, E_STEP_CHUNK)
    bounds = [*subj.searchsorted(firsts), subj.size]
    for first, a, b in zip(firsts, bounds, bounds[1:]):
        basis = bspline_basis(t[a:b], lo, hi)
        block, who, yb = slice(first, first + E_STEP_CHUNK), subj[a:b] - first, y[a:b]
        m = min(E_STEP_CHUNK, n - first)
        for d in range(width):
            for col in range(N_BASIS - d):
                band[d, col, block] = np.bincount(who, basis[:, col] * basis[:, col + d],
                                                  minlength=m)
        for col in range(N_BASIS):
            cross[col, block] = np.bincount(who, basis[:, col] * yb, minlength=m)
        sq[block] = np.bincount(who, yb * yb, minlength=m)
        del basis   # before the next block's basis is built beside it
    return band, cross, sq


def _inverse_cholesky(band, prior, out):
    """Inverse lower Cholesky factors of ``G_i + prior`` over a subject-last stack.

    ``band`` is the lower band of the G_i, as :func:`_subject_stats` returns
    it ((SPLINE_DEGREE + 1) x L x c, ``band[d, a, i] = G_i[a + d, a]``,
    every entry further below the diagonal 0), and ``prior`` is L x L.  ``out`` (L x L
    x c) is overwritten with ``C_i^-1`` (zero above the diagonal), where
    ``C_i C_i^T = G_i + prior``, and returned.  Each entry of the sum is
    computed once, inside the factor loop that reads it, so the sum is
    never written out as a stack; outside the band it is ``prior`` alone,
    which is exactly the dense sum, as adding 0 is exact.  Every entry of
    the factor and of its inverse is one vector operation over the c
    matrices, so the Python loop runs L(L + 1) times per stack however
    many matrices it holds.  A pivot that is not positive (or is NaN)
    raises LinAlgError.
    """
    width, size = band.shape[:2]
    for j in range(size):
        row = out[j, :j]
        pivot = (band[0, j] + prior[j, j]) - np.einsum("kn,kn->n", row, row)
        if not np.all(pivot > 0.0):
            raise np.linalg.LinAlgError("a matrix of the stack is not positive definite")
        out[j, j] = np.sqrt(pivot)
        for i in range(j + 1, size):
            entry = band[i - j, j] + prior[i, j] if i - j < width else prior[i, j]
            out[i, j] = (entry - np.einsum("kn,kn->n", out[i, :j], row)) / out[j, j]
    out[np.triu_indices(size, 1)] = 0.0
    # Row i of C C^-1 = I gives C^-1[i, j] from C[i, j..i] and rows j..i-1
    # of C^-1, so each row of C is replaced left to right as it is used.
    for i in range(size):
        recip = 1.0 / out[i, i]
        for j in range(i):
            out[i, j] = -np.einsum("kn,kn->n", out[i, j:i], out[j:i, j]) * recip
        out[i, i] = recip
    return out


def _chunk_terms(stats, first, mean, prior, work):
    """E-step terms ``(minv, d_sum, dd, rss)`` of the chunk of subjects from ``first``.

    The chunk is subjects ``first`` to ``first + E_STEP_CHUNK - 1`` (fewer
    at the end) of the ``_subject_stats`` in ``stats``.  With ``X_i`` the
    inverse Cholesky factor of ``M_i = prior + G_i`` (see
    :func:`_em_step`), held subject-last as the c-column stack ``X``,
    ``minv[a] = X[a] @ X[a].T`` (L x L x L: row a's share of the chunk's
    sum of ``M_i^-1``), ``d_sum`` and ``dd`` are ``d.sum(axis=1)`` and
    ``d @ d.T`` for the posterior mean shifts ``d`` (L x c), and ``rss``
    is the chunk's part of the residual sum of squares before the prior
    term.  ``work`` is an L x L x min(n, E_STEP_CHUNK) buffer
    (:func:`_factor_buffer`), overwritten with ``X``.
    """
    all_band, all_cross, all_sq = stats
    width = all_band.shape[0]
    size = all_cross.shape[0]
    rows = slice(first, first + E_STEP_CHUNK)
    band, cross = all_band[:, :, rows], all_cross[:, rows]
    g_mean = np.zeros_like(cross)
    for e in range(1 - width, width):                       # column b = row a + e
        if e < 0:
            g_mean[-e:] += mean[:e, None] * band[-e, :e]
        else:
            g_mean[:size - e] += mean[e:, None] * band[e, :size - e]
    u = cross - g_mean                                      # B_i^T (y_i - B_i mean)
    chol_inv = _inverse_cholesky(band, prior, work[:, :, :cross.shape[1]])
    w = np.einsum("abn,bn->an", chol_inv, u)
    d = np.einsum("abn,an->bn", chol_inv, w)                # posterior mean - mean
    minv = np.empty((size, size, size))
    for a, row in enumerate(chol_inv):
        minv[a] = row @ row.T
    # |y_i - B_i (mean + d_i)|^2 = |y_i - B_i mean|^2 - d_i^T u_i
    # - d_i^T prior d_i, because M_i d_i = u_i; the last term is summed
    # over every chunk by the M-step.
    rss = float(np.sum(all_sq[rows] - 2.0 * mean @ cross + mean @ g_mean) - np.sum(w * w))
    return minv, d.sum(axis=1), d @ d.T, rss


def _factor_buffer(stats) -> np.ndarray:
    """The L x L x min(n, E_STEP_CHUNK) stack that holds one chunk's ``X_i``."""
    size, n = stats[1].shape
    return np.empty((size, size, min(n, E_STEP_CHUNK)))


def _em_step(stats, n_obs, mean, cov, noise_var, e_step=None):
    """One EM update of (mean, cov, noise_var) from ``_subject_stats`` of n_obs points.

    With ``G_i = B_i^T B_i``, ``r_i = B_i^T y_i`` and ``M_i = noise_var
    cov^-1 + G_i``, the posterior of subject i's coefficients has mean
    ``mean + M_i^-1 (r_i - G_i mean)`` and covariance ``V_i = noise_var
    M_i^-1``.  The M-step needs only sums over the n subjects, and with L
    basis functions ``sum_i tr(G_i V_i) = noise_var (n L - noise_var
    tr(cov^-1 sum_i M_i^-1))``, so the inverse Cholesky factor ``X_i`` of
    each ``M_i`` serves the whole step: ``M_i^-1 = X_i^T X_i``.

    The statistics keep the subject index last, so the L x L factor and
    its inverse take one vector operation per entry across subjects
    (:func:`_inverse_cholesky`) rather than one LAPACK call per subject;
    the sum of the ``M_i^-1`` is one L x c by c x L product per row of
    ``X``.  ``G_i`` is held as its lower band (see :func:`_subject_stats`),
    and ``G_i mean`` is one strided product per diagonal of the band, 2
    SPLINE_DEGREE + 1 in all, added for each row in ascending column
    order, the order in which a dense row product adds them; the columns
    outside the band would add 0, which is exact.  Subjects are taken
    E_STEP_CHUNK at a time: the factor costs the same per subject, and
    the stack temporaries stay a few megabytes instead of growing with n.

    ``e_step(mean, prior)`` returns every chunk's :func:`_chunk_terms` in
    chunk order; a fit passes the one its :func:`_chunk_team` made, and
    by default a team is made for this step alone.  The chunks may be
    computed in several processes, but their terms are added here, one
    chunk after another in chunk order and, within a chunk, row by row,
    so the sums' rounding depends on E_STEP_CHUNK and not on which
    process computed a chunk.
    """
    if e_step is None:
        with _chunk_team(stats) as e_step:
            return _em_step(stats, n_obs, mean, cov, noise_var, e_step)
    size, n = stats[1].shape
    cov_inv = np.linalg.inv(cov)
    prior = noise_var * cov_inv
    sum_d = np.zeros(size)
    sum_dd = np.zeros((size, size))
    sum_minv = np.zeros((size, size))
    rss = 0.0
    for minv, d_sum, dd, chunk_rss in e_step(mean, prior):
        for row_minv in minv:
            sum_minv += row_minv
        sum_d += d_sum
        sum_dd += dd
        rss += chunk_rss
    rss -= float(np.sum(prior * sum_dd))
    shift = sum_d / n
    new_cov = sum_dd / n - np.outer(shift, shift) + noise_var * sum_minv / n
    new_noise = (rss + noise_var * (n * size - noise_var * float(np.sum(cov_inv * sum_minv)))
                 ) / n_obs
    return mean + shift, 0.5 * (new_cov + new_cov.T), new_noise


def _chunk_server(stats, firsts):
    """Started in an E-step worker: the function that answers each
    ``(mean, prior)`` with the :func:`_chunk_terms` of the chunks starting
    at ``firsts``, on a factor buffer of the worker's own."""
    work = _factor_buffer(stats)
    return lambda request: [_chunk_terms(stats, first, *request, work) for first in firsts]


@contextlib.contextmanager
def _chunk_team(stats):
    """The E-step of one fit, over its chunks of E_STEP_CHUNK subjects.

    Yields ``e_step(mean, prior)``, which returns every chunk's
    :func:`_chunk_terms` in chunk order (see :func:`_em_step`).  With p
    processes, p the ``forking.process_count`` of the number of chunks,
    the chunks are cut into p contiguous runs, sizes differing by at most
    one and the larger last: this process computes the first run, and
    one worker of a ``forking.team`` (:func:`_chunk_server`) computes
    each other run, all at once.  At n = 10,000 with 2 CPUs this process
    takes chunks 0-1 and the worker chunks 2-3.  The workers share the
    statistics with this process by the fork, so nothing is copied to
    them; each step sends ``(mean, prior)`` down a pipe to each worker,
    and each worker sends back its chunks' terms, or the exception that
    computing them raised, which is raised here.  A worker that dies
    raises RuntimeError at the step that waits on it.  Every process
    allocates its factor buffer once per team.  Everything runs in this
    process when p is 1: one CPU or one chunk, no ``fork`` start method,
    or a daemonic caller.
    """
    firsts = range(0, stats[1].shape[1], E_STEP_CHUNK)
    processes = forking.process_count(len(firsts))
    cuts = [len(firsts) * k // processes for k in range(processes + 1)]
    own = firsts[:cuts[1]]
    work = _factor_buffer(stats)
    starts = [functools.partial(_chunk_server, stats, firsts[a:b])
              for a, b in zip(cuts[1:], cuts[2:])]
    with forking.team("E-step", starts) as workers:
        def e_step(mean, prior):
            for worker in workers:
                worker.send((mean, prior))
            terms = [_chunk_terms(stats, first, mean, prior, work) for first in own]
            for worker in workers:
                terms += worker.recv()
            return terms

        yield e_step


def _pack(theta):
    mean, cov, noise_var = theta
    return np.r_[mean, cov.ravel(), noise_var]


def _unpack(vec, size):
    return vec[:size], vec[size:size + size * size].reshape(size, size), float(vec[-1])


def _em_change(old, new, mean_offset) -> float:
    """Largest change of one EM update, scaled by the size of each block."""
    return max(float(np.max(np.abs(new[0] - old[0])) / np.max(np.abs(mean_offset + new[0]))),
               float(np.max(np.abs(new[1] - old[1])) / np.max(np.abs(new[1]))),
               abs(new[2] - old[2]) / new[2])


def _positive_definite(a) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _fit_spline_model(stats, n_obs, mean_offset, cov, noise_var):
    """Maximum-likelihood (mean, cov, noise_var) by EM accelerated with SQUAREM.

    Each cycle takes two EM steps from the current point, extrapolates
    along them (Varadhan & Roland 2008, scheme S3) and takes one EM step
    from the extrapolated point.  When the extrapolated covariance is not
    positive definite or its noise variance is not positive, the cycle
    keeps the plain second EM step instead.  Returns the fitted
    ``(mean, cov, noise_var)`` and the number of EM steps taken.

    Every step's E-step runs on one :func:`_chunk_team`, made once for
    the fit from the built statistics: with p CPUs in this process's
    affinity and at least p chunks, p - 1 forked workers each own a
    contiguous run of chunks and this process owns the first run.  The
    workers are joined however the fit ends: a return,
    ConvergenceError, an exception from a step (a worker's included) or
    an interrupt.
    """
    size = cov.shape[0]
    theta = (np.zeros(size), cov, noise_var)
    steps = 0
    with _chunk_team(stats) as e_step:
        for _ in range(EM_MAX_CYCLES):
            theta1 = _em_step(stats, n_obs, *theta, e_step)
            steps += 1
            if _em_change(theta, theta1, mean_offset) < EM_TOL:
                return theta1, steps
            theta2 = _em_step(stats, n_obs, *theta1, e_step)
            steps += 1
            p0, p1, p2 = _pack(theta), _pack(theta1), _pack(theta2)
            r, v = p1 - p0, p2 - 2.0 * p1 + p0
            alpha = min(-1.0, -float(np.sqrt((r @ r) / (v @ v)))) if v @ v > 0 else -1.0
            jump = _unpack(p0 - 2.0 * alpha * r + alpha * alpha * v, size)
            if alpha < -1.0 and jump[2] > 0.0 and _positive_definite(jump[1]):
                theta = _em_step(stats, n_obs, *jump, e_step)
                steps += 1
            else:
                theta = theta2
    raise ConvergenceError(
        f"spline mixed-effects EM did not converge in {EM_MAX_CYCLES} SQUAREM cycles",
        iterations=EM_MAX_CYCLES)


def check_fit_options(grid_size: int, fve_threshold: float) -> None:
    """Raise ValueError unless ``grid_size`` is at least 2 and ``fve_threshold``
    lies in (0, 1]; a NaN threshold lies outside."""
    if not grid_size >= 2:
        raise ValueError(f"grid size must be at least 2, got {grid_size}")
    if not 0.0 < fve_threshold <= 1.0:
        raise ValueError(f"fve threshold must lie in (0, 1], got {fve_threshold}")


def fit_eigensystem(series: Sequence[LongitudinalSeries], *,
                    grid_size: int = DEFAULT_GRID_SIZE,
                    fve_threshold: float = DEFAULT_FVE) -> EigenSystem:
    """Estimate the eigensystem from pooled sparse observations.

    The model is the reduced-basis mixed-effects model of James, Hastie &
    Sugar (2000): subject i's observations are ``y_i = B_i c_i + e_i`` with
    ``c_i ~ N(m, S)`` and ``e_i ~ N(0, noise_var I)``, where ``B_i`` holds
    ``N_BASIS`` clamped cubic B-splines (:func:`bspline_basis`) on
    ``TIME_DOMAIN`` at the subject's times.  ``(m, S, noise_var)`` are fitted
    by maximum likelihood with EM accelerated by SQUAREM, started from
    the pooled least-squares mean curve.  EM stops when one update moves
    no block (mean coefficients, ``S``, ``noise_var``) by more than
    ``EM_TOL`` of that block's largest entry.  The mean curve is ``B m``
    on the grid, and the eigenpairs are those of the covariance surface
    ``B S B^T`` under trapezoid quadrature.  The number of EM steps taken
    is returned as ``em_steps``.

    Memory: the least-squares start solves on the whole-population basis
    (len(t) x N_BASIS), which is then freed; the per-subject statistics
    are built E_STEP_CHUNK subjects at a time, each Gram matrix kept as
    its lower band (:func:`_subject_stats`).  So the basis sets the fit's
    peak, or at a few thousand subjects the E-step's factor stack does.
    With more than one CPU and more than one chunk, the E-step's chunks
    are split between this process and forked workers (:func:`_chunk_team`),
    which read the statistics through the fork without a copy.  Each
    worker holds its own factor stack and temporaries: at n = 10,000 a
    worker has about 11 MB of private memory beside the pages it shares
    with this process, and this process's ``RUSAGE_SELF`` peak does not
    count it.  Blocking changes no rounding in the per-subject
    statistics: the bands of :func:`_subject_stats` are the same, bit for
    bit, whatever E_STEP_CHUNK is.  The EM sums over subjects are not:
    :func:`_em_step` adds them one chunk at a time in chunk order,
    whichever process computed each chunk, so E_STEP_CHUNK sets their
    rounding and the worker count does not, and the EM path carries it
    into every fitted value.  At n = 3,000
    (``generate`` seed 5) ``noise_var`` is 0.2424753 with chunks of 2,500,
    0.2426634 with 1,000 and 0.2427749 with 700, each after 84 steps.

    The component count is the smallest K whose cumulative fraction of
    variance reaches ``fve_threshold``, at most ``MAX_COMPONENTS``.
    Eigenfunction signs are fixed so each integrates to a nonnegative
    value.

    ``grid_size`` below 2, or ``fve_threshold`` outside (0, 1] (NaN
    included), raises ValueError before any work (:func:`check_fit_options`).
    Degenerate inputs: fewer than two subjects, no observation inside
    ``TIME_DOMAIN``, or no subject with two observations there raise
    UnidentifiedModelError, an IllConditionedError that is also a
    ValueError.  A population with no variation about the pooled mean
    curve returns ``zero_variation=True`` with no components and no
    noise.  IllConditionedError is raised when the observations leave a
    basis function without support, when the data vary but the fitted
    covariance has no positive spectrum, or when the fitted noise
    variance breaks the invariant of :class:`EigenSystem`;
    ConvergenceError when EM reaches ``EM_MAX_CYCLES`` cycles.
    """
    check_fit_options(grid_size, fve_threshold)
    if len(series) < 2:
        raise UnidentifiedModelError(
            "at least two subjects are required to fit an eigensystem")
    lo, hi = TIME_DOMAIN
    grid = np.linspace(lo, hi, grid_size)
    t, v, subj = _pool(series, lo, hi)
    if t.size == 0:
        raise UnidentifiedModelError("no observations fall inside the fitting domain")
    if np.bincount(subj).max() < 2:
        raise UnidentifiedModelError(
            "no subject has two observations; covariance is unidentified")
    _, subj = np.unique(subj, return_inverse=True)

    basis = bspline_basis(t, lo, hi)
    grid_basis = bspline_basis(grid, lo, hi)
    gram = basis.T @ basis
    if not _positive_definite(gram):
        raise IllConditionedError("the observations leave part of the domain without support")
    offset = np.linalg.solve(gram, basis.T @ v)
    resid = np.subtract(v, basis @ offset, out=v)      # the values are not read again
    del basis, v   # _subject_stats evaluates the basis again, a block at a time
    pooled_var = float(np.mean(resid ** 2))
    mean = grid_basis @ offset
    if pooled_var <= 1e-10:
        # Zero-variation population: mean curve explains everything.
        return EigenSystem(grid=grid, mean=mean, eigenvalues=np.empty(0),
                           eigenfunctions=np.empty((0, grid_size)),
                           noise_var=0.0, fve=np.empty(0), zero_variation=True,
                           em_steps=0)

    stats = _subject_stats(t, resid, subj, int(subj.max()) + 1, lo, hi)
    n_obs = t.size
    del t, resid, subj  # free the per-point arrays before EM's batched work
    try:
        (shift, cov, noise_var), em_steps = _fit_spline_model(
            stats, n_obs, offset, pooled_var * np.eye(N_BASIS), INIT_NOISE_SHARE * pooled_var)
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            "fitted coefficient covariance lost positive definiteness") from None
    mean = grid_basis @ (offset + shift)
    surface = grid_basis @ cov @ grid_basis.T

    qw = trapezoid_weights(grid)
    d = np.sqrt(qw)
    sym = surface * np.outer(d, d)
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    positive = evals > max(1e-12, 1e-10 * abs(evals[0]))
    total_pos = float(evals[positive].sum()) if positive.any() else 0.0
    if total_pos <= max(1e-10, 1e-8 * pooled_var):
        raise IllConditionedError(
            "fitted covariance has no positive spectrum although the data vary")

    lam_all = evals[positive]
    phi_all = (evecs[:, positive] / d[:, None]).T
    cum = np.cumsum(lam_all) / total_pos
    k = min(int(np.searchsorted(cum, fve_threshold) + 1), lam_all.size, MAX_COMPONENTS)
    lam = lam_all[:k]
    phi = phi_all[:k]
    for i in range(k):
        integral = float(qw @ phi[i])
        if integral < 0 or (integral == 0 and phi[i][int(np.argmax(np.abs(phi[i])))] < 0):
            phi[i] = -phi[i]
        norm = float(np.sqrt(qw @ (phi[i] * phi[i])))
        phi[i] /= norm
    return EigenSystem(grid=grid, mean=mean, eigenvalues=lam, eigenfunctions=phi,
                       noise_var=float(noise_var), fve=cum[:k], zero_variation=False,
                       em_steps=em_steps)


def _inside(times, lo: float, hi: float) -> tuple[int, int]:
    """``(first, last)``: ``times[first:last]`` are the points inside ``[lo, hi]``.

    ``times`` is non-decreasing (a series' times, perhaps shifted), so
    those points are one run, and every point is inside when both ends
    are.
    """
    if lo <= times[0] and times[-1] <= hi:
        return 0, times.size
    return (int(np.searchsorted(times, lo, side="left")),
            int(np.searchsorted(times, hi, side="right")))


def _no_observations(subject_id, lo: float, hi: float) -> DomainError:
    return DomainError(f"series {subject_id}: no observations inside [{lo:g}, {hi:g}]")


def _subject_prior(times, values, system: EigenSystem, tail=None):
    """One subject's residuals from the mean curve and their prior covariance.

    ``times``/``values`` are the subject's m in-domain observations.  One
    ``_values_at`` lookup serves them and, when given, the 1-D in-domain
    ``tail`` after them.  Returns ``(resid, lam_phi, cov, tail_values)``:
    ``lam_phi`` is ``Lambda Phi`` (K x m); ``cov`` is ``Phi^T Lambda Phi
    + noise_var I`` (m x m), positive definite whenever K >= 1;
    ``tail_values`` holds the mean (row 0) and the eigenfunctions (rows
    1..K) at ``tail``.
    """
    m = times.size
    table = system._values_at(times if tail is None else np.concatenate((times, tail)))
    phi = table[1:, :m]
    lam_phi = phi * system.eigenvalues[:, None]
    cov = lam_phi.T @ phi
    # A fresh C-ordered product, so the reshape is a view.
    cov.reshape(-1)[::m + 1] += system.noise_var
    return values - table[0, :m], lam_phi, cov, table[:, m:]


def pace_scores(series: LongitudinalSeries, system: EigenSystem,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Best-linear-predictor component scores and conditional covariance.

    Uses only observations inside the fitted domain; DomainError when
    there is none.  The scores and the covariance take one solve against
    the subject's prior covariance, which the noise term of
    :class:`EigenSystem` keeps positive definite.  A system with no
    components (a zero-variation fit) gives empty scores.
    """
    lo, hi = system.domain()
    first, last = _inside(series.times, lo, hi)
    if first == last:
        raise _no_observations(series.subject_id, lo, hi)
    if system.n_components == 0:
        return np.empty(0), np.empty((0, 0))
    resid, lam_phi, cov, _ = _subject_prior(series.times[first:last],
                                            series.values[first:last], system)
    solved = np.linalg.solve(cov, np.column_stack([resid, lam_phi.T]))
    omega = np.diag(system.eigenvalues) - lam_phi @ solved[:, 1:]
    return lam_phi @ solved[:, 0], 0.5 * (omega + omega.T)


def weight_change(series: LongitudinalSeries, system: EigenSystem,
                  gestation_days: float = FULL_TERM_DAYS) -> float:
    """Average weekly weight gain over a pregnancy of ``gestation_days``.

    Measurement times are re-anchored to the conception date implied by
    the validated gestation length; with the default full-term length
    this is the phase-1 exposure definition.
    """
    return gain_and_scores(series, system, gestation_days)[0]


def gain_and_scores(series: LongitudinalSeries, system: EigenSystem,
                    gestation_days: float = FULL_TERM_DAYS) -> tuple[float, np.ndarray]:
    """:func:`weight_change` and the PACE scores of the re-anchored series.

    The gain is ``(W(g - 1) - W(0)) / (g / 7)`` for the reconstructed
    trajectory ``W`` of the series shifted by ``g - FULL_TERM_DAYS``.  One
    table lookup covers the shifted in-domain times and both endpoints,
    and the scores take one solve with ``noise_var`` added to the prior
    covariance's diagonal in place.  With no components (a zero-variation
    fit) the trajectory is the mean curve.  A gestation length outside
    ``[14, hi + 1]`` (NaN included), a domain that starts after day 0, or
    a series with no shifted time inside the domain raises DomainError.
    """
    g = float(gestation_days)
    lo, hi = system.domain()
    if not (14 <= g and g - 1 <= hi):
        raise DomainError(
            f"gestation length {g:g} outside the supported range [14, {hi + 1:g}]")
    if lo > 0.0:    # the endpoint 0 (g - 1 >= 13 is inside whenever 0 is)
        raise DomainError(f"time outside the fitted domain [{lo:g}, {hi:g}]")
    # A shift keeps the times non-decreasing, so they need no re-validation.
    times = series.times + (g - FULL_TERM_DAYS)
    first, last = _inside(times, lo, hi)
    if first == last:
        raise _no_observations(series.subject_id, lo, hi)
    resid, lam_phi, cov, ends = _subject_prior(
        times[first:last], series.values[first:last], system, np.array([g - 1.0, 0.0]))
    if system.n_components == 0:
        xi, mu = np.empty(0), ends[0]
    else:
        xi = lam_phi @ np.linalg.solve(cov, resid)
        mu = ends[0] + xi @ ends[1:]
    return float((mu[0] - mu[1]) / (g / 7.0)), xi


@functools.lru_cache(maxsize=8)
def _two_sided_quantile(level: float) -> float:
    """Standard normal quantile that leaves ``(1 - level) / 2`` in each tail."""
    return NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)


def flag_outliers(series: LongitudinalSeries, system: EigenSystem,
                  level: float = 0.95) -> list[int]:
    """Indices of observations outside the pointwise prediction band.

    Each point is banded from the subject's other points, by backward
    deletion.  Over the points still kept, with ``P = (Phi Lambda Phi^T +
    noise_var I)^-1`` the standardized leave-one-out residual of point j
    is ``[P e]_j / sqrt(P_jj)``, where ``e`` is the residual from the mean
    curve (Rasmussen & Williams 2006, eq. 5.12): the point's distance from
    its prediction from the other kept points, in units of that
    prediction's standard error including the measurement noise.  While
    the largest absolute residual exceeds the normal quantile for
    ``level``, that point is dropped and the residuals are recomputed.
    Returns the dropped indices in ascending order; points outside the
    fitted domain are never flagged.  The residuals and covariance come
    from one table lookup, and the subject's one matrix inverse is ``P``
    over every point: dropping point j downdates it to the kept points'
    precision, ``P - p p^T / P_jj`` with ``p`` its column j, the
    Schur-complement identity for the inverse of a submatrix.

    A system without noise is a zero-variation fit with no components (see
    :class:`EigenSystem`): its band about the mean curve has zero width,
    so a point is outside when it misses the mean by more than rounding
    (square root of machine epsilon times the largest value), and every
    such point is flagged at once.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    lo, hi = system.domain()
    first, last = _inside(series.times, lo, hi)
    if first == last:
        return []
    values = series.values[first:last]
    resid, _, cov, _ = _subject_prior(series.times[first:last], values, system)
    if not system.noise_var > 0.0:
        tol = np.sqrt(np.finfo(float).eps) * np.max(np.abs(values))
        return [first + int(j) for j in np.flatnonzero(np.abs(resid) > tol)]
    z = _two_sided_quantile(level)
    prec = np.linalg.inv(cov)
    dropped = []
    while True:
        score = np.abs(prec @ resid) / np.sqrt(prec.diagonal())
        worst = int(score.argmax())
        if not score[worst] > z:
            break
        dropped.append(worst)
        col = prec[:, worst].copy()
        prec -= np.outer(col, col) / col[worst]
        # A dropped point keeps a unit diagonal and a zero residual: its
        # score is 0, and its zero row and column leave the others' alone.
        prec[worst, :] = 0.0
        prec[:, worst] = 0.0
        prec[worst, worst] = 1.0
        resid[worst] = 0.0
    return [first + j for j in sorted(dropped)]
