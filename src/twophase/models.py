"""Weighted Cox proportional-hazards and logistic regression.

Both fits solve a weighted estimating equation ``sum_i w_i U_i(theta) = 0``
with one Newton-Raphson driver, :func:`_newton`, and return per-record
influence vectors (dfbeta): the inverse information applied to each
weighted score residual.  Design-based variance for stratified samples
comes from :func:`sandwich_variance`.

What does not depend on beta is built once per fit: the time order, tie
groups and risk-set structure of a Cox fit (``kernels.risk_sets``), and
the feature-major (p x n) copy of the covariates that both fits form
their information from.  Each Newton evaluation computes the linear
predictor and what depends on it, and hands both on: the separation check
reads the accepted evaluation's linear predictor, and the Cox score
residuals its risk-set sums.  Every input is checked to be finite before
the first evaluation.

:class:`AnalysisSpec` describes an endpoint's working model; its ``arrays`` build the
design matrix of every fit (phase-1, validated or imputed) in the harness and the CLI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from twophase import kernels
from twophase.errors import ConvergenceError
from twophase.records import phase1_name

MAX_ITER = 50
GRAD_TOL = 1e-8
# A linear-predictor spread this large means relative risks beyond e^60:
# the likelihood is monotone (separation) and the solution is at infinity.
ETA_SPREAD_LIMIT = 60.0


@dataclass
class FitResult:
    """Coefficients, variance, and per-record influence of a weighted fit."""

    coefficients: np.ndarray
    variance: np.ndarray
    influence: np.ndarray  # n x p, rows sum to zero at the solution
    converged: bool
    iterations: int
    loglik: float = float("nan")
    gradient_norm: float = float("nan")  # max |score| at the coefficients

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.variance))


def _prepare_cox(time, event, x):
    """Time order and tie groups of Cox data: ``(order, event, x, starts, group_index)``.

    ``order`` sorts the rows by time ascending, tied times in row order:
    the permutation a stable sort gives.  numpy's default (unstable)
    argsort finds it, and the rows of each tie group (times equal under
    ``==``, so -0.0 ties 0.0) are put back in row order by sorting the
    key ``group * n + row``.  ``event`` and ``x`` come back in that
    order; ``starts`` holds each tie group's first sorted row and
    ``group_index`` each sorted row's group.
    """
    time = np.asarray(time, dtype=np.float64)
    event = np.asarray(event, dtype=np.float64)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != time.shape[0]:
        x = x.T
    n = time.shape[0]
    order = np.argsort(time)
    ts = time[order]
    new_group = np.empty(ts.shape, dtype=bool)
    new_group[0] = True
    new_group[1:] = ts[1:] != ts[:-1]
    group_index = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    if starts.size < n:
        tied = (np.diff(starts, append=n) > 1).take(group_index)
        key = group_index[tied] * n + order[tied]
        key.sort()
        order[tied] = key % n
    return order, event[order], x[order], starts, group_index


def _require_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _case_weights(weights, n):
    """``weights`` as floats (1 for every record when None), checked."""
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.all((weights > 0) & np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    return weights


def _newton(evaluate, linear_predictor, p, model, cause, start=None):
    """Newton-Raphson with step-halving from ``start`` (``beta = 0`` when None).

    ``start`` is a warm start, such as the coefficients of a fit to
    similar data; it must hold ``p`` finite values.  ``evaluate(beta)``
    gives ``(loglik, score, information, extra)``;
    ``linear_predictor(extra)`` the linear predictor that an accepted
    step's evaluation formed.  Returns ``(beta, loglik, information,
    extra, iterations, gradient_norm)``, the last being ``max |score|`` at
    ``beta``.
    Raises ConvergenceError, worded by ``model`` and ``cause``, when 30
    halvings do not raise the log-likelihood, the linear-predictor spread
    passes ``ETA_SPREAD_LIMIT``, or ``MAX_ITER`` steps leave
    ``max |score| >= GRAD_TOL``.  A singular information matrix makes the
    step a least-squares solution, with one warning per fit naming
    ``model``.
    """
    if start is None:
        beta = np.zeros(p)
    else:
        beta = np.array(start, dtype=np.float64)
        if beta.shape != (p,):
            raise ValueError(f"start must hold {p} coefficients, got shape {beta.shape}")
        _require_finite("start", beta)
    ll, score, info, extra = evaluate(beta)
    gradient_norm = float(np.max(np.abs(score)))
    iterations = 0
    warned = False

    def failure(message):
        return ConvergenceError(f"{model} {message}; {cause}", iterations=iterations,
                                gradient_norm=gradient_norm)

    while not gradient_norm < GRAD_TOL:
        if iterations == MAX_ITER:
            raise failure(f"Newton-Raphson did not converge in {MAX_ITER} iterations "
                          f"(max |score| = {gradient_norm:.3g}, "
                          f"max |beta| = {np.abs(beta).max():.3g})")
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            if not warned:
                warnings.warn(f"{model} information matrix is singular; Newton steps "
                              "use a least-squares solution", stacklevel=3)
                warned = True
            step = np.linalg.lstsq(info, score, rcond=None)[0]
        for _ in range(31):  # the full step, then up to 30 halvings
            new_beta = beta + step
            new = evaluate(new_beta)
            if np.isfinite(new[0]) and new[0] >= ll - 1e-10:
                break
            step *= 0.5
        else:
            raise failure(f"step-halving exhausted (|beta| up to {np.abs(beta).max():.3g})")
        beta = new_beta
        ll, score, info, extra = new
        gradient_norm = float(np.max(np.abs(score)))
        iterations += 1
        eta = linear_predictor(extra)
        if eta.max() - eta.min() > ETA_SPREAD_LIMIT:
            raise failure(f"linear predictor spread {eta.max() - eta.min():.1f}")
    return beta, ll, info, extra, iterations, gradient_norm


def fit_cox(time, event, x, weights=None, start=None):
    """Fit a weighted Cox model (Breslow ties).

    Parameters
    ----------
    time, event : observed follow-up time (> 0) and 0/1 event indicator.
    x : covariate matrix, one row per record (no intercept).
    weights : positive case weights; defaults to 1.
    start : coefficients Newton starts from; defaults to 0.

    Raises
    ------
    ValueError
        On a non-finite time, event, covariate, weight or start, a weight
        <= 0, or a start of the wrong length.
    ConvergenceError
        On zero events, or when Newton fails (e.g. monotone-likelihood
        separation), with iteration diagnostics attached.
    """
    time = np.asarray(time, dtype=np.float64)
    event = np.asarray(event, dtype=np.float64)
    _require_finite("time", time)
    _require_finite("event", event)
    weights = _case_weights(weights, time.shape[0])
    if event.sum() < 1:
        raise ConvergenceError("no events in the data; hazard model undefined")
    order, ev, xs, starts, group_index = _prepare_cox(time, event, x)
    _require_finite("x", xs)
    risk = kernels.risk_sets(ev, weights[order], xs, starts, group_index)

    beta, ll, info, sums, iterations, gradient_norm = _newton(
        lambda beta: kernels.cox_breslow(risk, xs @ beta), lambda sums: sums.eta,
        xs.shape[1], "Cox",
        "the likelihood may be monotone (a covariate separates the event order)", start)
    variance = _invert_info(info, "Cox")
    resid = kernels.cox_score_residuals(risk, sums)
    influence_sorted = (risk.w[:, None] * resid) @ variance.T
    influence = np.empty_like(influence_sorted)
    influence[order] = influence_sorted
    return FitResult(beta, variance, influence, True, iterations, float(ll), gradient_norm)


def logistic_loglik_score_info(beta, y, x, xt, weights):
    """Bernoulli log-likelihood value, score, information and ``(eta, prob)``.

    ``xt`` is ``x`` feature-major (p x n, C-contiguous), made once per fit;
    the information is formed from it.  ``eta = x @ beta`` is the linear
    predictor and ``prob`` the fitted probability.
    """
    eta = x @ beta
    # log(1 + e^eta), stable on both tails, from one exp and one log1p pass.
    log1p_exp = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    ll = float(weights @ (y * eta - log1p_exp))
    prob = 1.0 / (1.0 + np.exp(-eta))
    score = (weights * (y - prob)) @ x
    v = weights * prob * (1.0 - prob)
    info = (xt * v) @ xt.T
    return ll, score, info, (eta, prob)


def fit_logistic(y, x, weights=None, start=None):
    """Fit a weighted logistic regression by Newton-Raphson.

    ``x`` should include an intercept column if one is wanted; Newton
    starts from ``start`` (0 when None).  Raises ValueError on a
    non-finite outcome, covariate, weight or start, a weight <= 0 or a
    start of the wrong length; ConvergenceError on perfect separation
    (detected as non-convergence with diverging coefficients) or when
    only one outcome class is present.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _require_finite("y", y)
    _require_finite("x", x)
    weights = _case_weights(weights, y.shape[0])
    if y.min() == y.max():
        raise ConvergenceError("outcome takes a single value; both classes required")
    xt = np.ascontiguousarray(x.T)
    beta, ll, info, (_, prob), iterations, gradient_norm = _newton(
        lambda beta: logistic_loglik_score_info(beta, y, x, xt, weights),
        lambda extra: extra[0], x.shape[1], "logistic",
        "the data may be separated", start)
    variance = _invert_info(info, "logistic")
    resid = (y - prob)[:, None] * x
    influence = (weights[:, None] * resid) @ variance.T
    return FitResult(beta, variance, influence, True, iterations, float(ll), gradient_norm)


def fit(kind, time_or_y, event, x, weights=None, start=None) -> FitResult:
    """Dispatch to :func:`fit_cox` (time, event, x) or :func:`fit_logistic` (y, x)."""
    if kind == "cox":
        return fit_cox(time_or_y, event, x, weights, start)
    if kind == "logistic":
        return fit_logistic(time_or_y, x, weights, start)
    raise ValueError(f"unknown model kind {kind!r}; expected 'cox' or 'logistic'")


@dataclass(frozen=True)
class AnalysisSpec:
    """An endpoint's working model: the ``records.DyadTable`` columns it reads (the
    validated ones; :meth:`phase1` reads their stand-ins) and the coefficient it reports."""

    kind: str                    # "cox" | "logistic"
    outcome: str                 # time (cox) or 0/1 outcome (logistic) column
    event: str | None            # event column (cox)
    covariates: tuple[str, ...]  # design order
    target: int                  # index into covariates of the reported coefficient
    intercept: bool = False      # prepend a constant column
    frame: str | None = None     # flag column marking the analysis population; None = all

    @property
    def coefficient(self) -> int:
        """Index of the target's coefficient, past the intercept if there is one."""
        return self.target + self.intercept

    def phase1(self) -> AnalysisSpec:
        """The same model on the phase-1 columns (``records.phase1_name``)."""
        return replace(self, outcome=phase1_name(self.outcome),
                       event=None if self.event is None else phase1_name(self.event),
                       covariates=tuple(map(phase1_name, self.covariates)))

    def members(self, columns) -> np.ndarray:
        """Boolean mask of the analysis population: the ``frame`` flag, or every row."""
        flag = np.ones(len(columns[self.outcome])) if self.frame is None else columns[self.frame]
        return np.asarray(flag, dtype=bool)

    def arrays(self, columns, rows=slice(None)):
        """``(time or outcome, event or None, design)`` on ``rows``; logistic outcomes in [0, 1]."""
        y = columns[self.outcome][rows]
        event = None if self.event is None else columns[self.event][rows]
        x = [np.ones(len(y))] * self.intercept + [columns[c][rows] for c in self.covariates]
        return np.clip(y, 0, 1) if self.kind == "logistic" else y, event, np.column_stack(x)

    def fit(self, columns, rows=slice(None), weights=None) -> FitResult:
        """The working model fit to ``rows`` of ``columns``."""
        return fit(self.kind, *self.arrays(columns, rows), weights)


def _invert_info(info, model):
    """Symmetrised inverse of the information matrix of a ``model`` fit.

    A singular matrix gets a pseudoinverse and a warning naming ``model``.
    """
    try:
        inv = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        warnings.warn(f"{model} information matrix is singular; the variance "
                      "uses a pseudoinverse", stacklevel=3)
        inv = np.linalg.pinv(info)
    return 0.5 * (inv + inv.T)


def influence_for_target(fit: FitResult, target: int) -> np.ndarray:
    """Extract the influence column for one coefficient."""
    p = fit.influence.shape[1]
    if not -p <= target < p:
        raise IndexError(f"target coefficient {target} out of range for p={p}")
    return fit.influence[:, target].copy()


def sandwich_variance(fit: FitResult, strata=None, clusters=None) -> np.ndarray:
    """Stratified with-replacement linearization variance.

    Influence rows are summed within ``clusters`` (if given) and then the
    between-record variance is accumulated within each stratum with an
    ``n_s / (n_s - 1)`` correction.  Any stratum that ends up with a
    single record triggers a pooled (single-stratum) fallback with a
    warning.

    The result is fixed bit for bit by these order rules: a cluster's
    total adds its rows in row order (one ``bincount`` per column) and
    takes the stratum of its first row; clusters are ordered by key.
    Strata are visited in sorted label order, and the rows (or clusters)
    of each enter its mean and cross-product in row order
    (``kernels.group_rows``).
    """
    h = np.asarray(fit.influence, dtype=np.float64)
    strata = np.zeros(h.shape[0], dtype=np.intp) if strata is None else np.asarray(strata)
    if clusters is not None:
        clusters = np.asarray(clusters)
        keys, idx = np.unique(clusters, return_inverse=True)
        h = np.stack([np.bincount(idx, weights=col, minlength=keys.size) for col in h.T],
                     axis=1)
        cl_str = np.empty(keys.size, dtype=strata.dtype)
        cl_str[idx[::-1]] = strata[::-1]  # first row of each cluster wins
        strata = cl_str
    labels, inv = np.unique(strata, return_inverse=True)
    order, bounds = kernels.group_rows(inv, labels.size)
    if labels.size > 1 and np.any(np.diff(bounds) == 1):
        warnings.warn("stratum with a single record: falling back to pooled variance",
                      stacklevel=2)
        order, bounds = np.arange(h.shape[0]), np.array([0, h.shape[0]])
    p = h.shape[1]
    v = np.zeros((p, p))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        n_s = hi - lo
        if n_s == 1:
            continue
        rows = h[order[lo:hi]]
        centered = rows - rows.mean(axis=0)
        v += (n_s / (n_s - 1.0)) * centered.T @ centered
    return 0.5 * (v + v.T)
