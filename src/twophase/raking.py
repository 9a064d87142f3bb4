"""Inverse-probability weighting and generalized raking (calibration).

Calibration tilts design weights ``1/pi_i`` by factors ``g_i`` so the
weighted auxiliary totals over the sampled records match their known
population totals, minimizing the exponential-tilting distance
``d(a, b) = a log(a/b) - a + b``.  The optimal factors are
``g_i = exp(h_i . lambda)`` with the multiplier solved from the convex
dual by Newton with line search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from twophase import models
from twophase.errors import CalibrationError

MAX_ITER = 100
CONSTRAINT_TOL = 1e-8   # the contract: relative residual on aux totals
SOLVER_TOL = 1e-11      # Newton runs tighter so the duality gap vanishes too


@dataclass
class CalibrationResult:
    """Calibration factors and diagnostics for one raking solve."""

    g: np.ndarray                # per sampled record, > 0
    lam: np.ndarray              # multiplier for the retained aux columns
    constraint_residual: float   # relative max-norm over aux totals
    iterations: int
    kept_columns: np.ndarray     # indices into the original aux matrix

    @property
    def converged(self) -> bool:
        return self.constraint_residual < CONSTRAINT_TOL


def _drop_collinear(aux: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent column subset."""
    n, p = aux.shape
    kept: list[int] = []
    basis = np.zeros((n, 0))
    for j in range(p):
        col = aux[:, j]
        if basis.shape[1]:
            proj = basis @ np.linalg.lstsq(basis, col, rcond=None)[0]
            resid = col - proj
        else:
            resid = col
        scale = np.linalg.norm(col)
        if np.linalg.norm(resid) > 1e-10 * max(scale, 1.0):
            kept.append(j)
            q = resid / np.linalg.norm(resid)
            basis = np.column_stack([basis, q])
    return np.array(kept, dtype=np.intp)


def calibrate_weights(design_weights, sample_aux, population_totals, *,
                      max_iter: int = MAX_ITER, tol: float = SOLVER_TOL) -> CalibrationResult:
    """Solve for calibration factors given explicit base weights and totals.

    ``design_weights`` are the base weights of the sampled records (for a
    single frame, ``1/pi``); ``sample_aux`` their auxiliary rows; and
    ``population_totals`` the full-population column sums the calibrated
    weights must reproduce.
    """
    d = np.asarray(design_weights, dtype=np.float64)
    aux = np.atleast_2d(np.asarray(sample_aux, dtype=np.float64))
    if aux.shape[0] != d.shape[0]:
        aux = aux.T
    totals = np.asarray(population_totals, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("design weights must be positive")
    if aux.shape[1] != totals.shape[0]:
        raise ValueError("aux columns and totals disagree")

    kept = _drop_collinear(aux)
    if kept.size < aux.shape[1]:
        warnings.warn(
            f"dropping {aux.shape[1] - kept.size} collinear auxiliary column(s)",
            stacklevel=2,
        )
    a = aux[:, kept]
    t = totals[kept]
    scale = max(float(np.max(np.abs(t))), 1.0)

    lam = np.zeros(a.shape[1])
    for it in range(max_iter + 1):
        u = a @ lam
        if np.max(u) > 700:
            raise CalibrationError(
                "calibration factors overflow; totals likely unreachable")
        g = np.exp(u)
        wg = d * g
        grad = wg @ a - t
        resid = float(np.max(np.abs(grad))) / scale
        if resid < tol or (it == max_iter and resid < CONSTRAINT_TOL):
            full_lam = np.zeros(aux.shape[1])
            full_lam[kept] = lam
            return CalibrationResult(g=g, lam=full_lam, constraint_residual=resid,
                                     iterations=it, kept_columns=kept)
        if it == max_iter:
            break
        hess = (a * wg[:, None]).T @ a
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise CalibrationError(
                "singular calibration system; reduce the auxiliary set") from None
        # Backtracking line search on the dual objective.
        obj = float(wg.sum() - lam @ t)
        alpha = 1.0
        for _ in range(40):
            trial = lam - alpha * step
            ut = a @ trial
            if np.max(ut) < 700:
                trial_obj = float(d @ np.exp(ut) - trial @ t)
                if trial_obj <= obj + 1e-12 * abs(obj):
                    break
            alpha *= 0.5
        else:
            raise CalibrationError(
                "calibration line search failed; totals may lie outside the "
                "achievable hull — reduce the auxiliary set")
        lam = lam - alpha * step
    raise CalibrationError(
        f"calibration did not converge in {max_iter} iterations "
        f"(relative residual {resid:.3g}); totals may be unreachable")


def raking_fit(kind, time_or_y, event, x, base_weights, sample_aux,
               population_totals, strata=None, clusters=None,
               ) -> tuple[models.FitResult, CalibrationResult]:
    """Generalized raking estimator: calibrate, refit, two-phase variance.

    The auxiliary is typically ``[1, H_i]`` with ``H_i`` the naive or
    multiply-imputed influence function for the target coefficient.
    Variance is the two-phase total: a complete-data (phase 1) component
    from the weighted second moment of the per-record influence, plus the
    design (phase 2) component in which each record's influence is
    replaced by its residual from a weighted regression on the
    auxiliaries before the stratified between-record step.
    """
    base_weights = np.asarray(base_weights, dtype=np.float64)
    cal = calibrate_weights(base_weights, sample_aux, population_totals)
    w = base_weights * cal.g
    fit = models.fit(kind, time_or_y, event, x, w)

    aux = np.atleast_2d(np.asarray(sample_aux, dtype=np.float64))
    if aux.shape[0] != w.shape[0]:
        aux = aux.T
    per_record = fit.influence / w[:, None]
    wa = aux * w[:, None]
    coef, *_ = np.linalg.lstsq(wa.T @ aux, wa.T @ per_record, rcond=None)
    residual_influence = (per_record - aux @ coef) * w[:, None]
    phase2 = models.sandwich_variance(replace(fit, influence=residual_influence),
                                      strata, clusters)
    # Phase-1 component: the census estimator's own variance around the
    # model parameter, estimated by the calibrated-weighted second moment
    # of the per-record influence.
    phase1 = (per_record * w[:, None]).T @ per_record
    fit.variance = phase2 + 0.5 * (phase1 + phase1.T)
    return fit, cal


def weighted_fit(kind, time_or_y, event, x, sample, h=None):
    """IPW fit on a ``multiframe.WeightedSample``, or generalized raking on ``[1, h]``.

    ``time_or_y, event, x`` are the working model's inputs on
    ``sample.rows``.  Without ``h`` the fit takes the sample's weights and
    the stratified sandwich variance clustered by row.  With ``h`` (the
    auxiliary influence of each row in ``sample.analysis_rows``) it is
    :func:`raking_fit` calibrated to the analysis frame's ``[1, h]`` totals.
    Returns the fit, the weights it used and the calibration (None for IPW).
    """
    if h is None:
        fit = models.fit(kind, time_or_y, event, x, sample.weights)
        fit.variance = models.sandwich_variance(fit, sample.strata, sample.rows)
        return fit, sample.weights, None
    totals = np.column_stack([np.ones(h.size), h]).sum(axis=0)
    h_sample = h[np.searchsorted(sample.analysis_rows, sample.rows)]
    aux = np.column_stack([np.ones(sample.rows.size), h_sample])
    fit, cal = raking_fit(kind, time_or_y, event, x, sample.weights, aux, totals,
                          strata=sample.strata, clusters=sample.rows)
    return fit, sample.weights * cal.g, cal
