"""Parametric imputation of validated variables and MI influence auxiliaries.

Imputation models are fit on the validated subsample only, one target at
a time in a declared sequence (later targets may condition on earlier
imputed ones, e.g. gestation length before a recomputed exposure).  Each
imputation replicate draws model coefficients from their asymptotic
normal law plus residual noise, so the auxiliary influence functions
average over parameter uncertainty as well.  Every record given to
:func:`impute` is imputed, validated ones included.  :func:`impute`
yields the replicates, replicate ``j`` seeded by ``SeedSequence([seed,
j])`` alone; :func:`mi_influence` averages over them the influence of the
working model, a ``models.AnalysisSpec`` read from each completed
dataset.  It imputes and refits only the working model's own population
(``AnalysisSpec.members``), so the auxiliary is that model's influence on
its own population, whether the caller passes every record or that
population alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from twophase import models
from twophase.errors import ConvergenceError

Columns = dict[str, np.ndarray]

DEFAULT_REPLICATES = 100
MIN_VALIDATED = 30


@dataclass(frozen=True)
class VariableSpec:
    """How to impute one target variable.

    ``kind`` is "continuous" (linear model plus Gaussian residual),
    "binary" (logistic model, Bernoulli draw), or "derived"
    (deterministic function of previously imputed columns; no model).
    Predictors may name phase-1 columns or earlier targets in the
    sequence, whose imputed values are used.
    """

    name: str
    kind: str
    predictors: tuple[str, ...] = ()
    derive: Callable[[Columns], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "binary", "derived"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "derived" and self.derive is None:
            raise ValueError(f"derived target {self.name!r} needs a derive function")


@dataclass
class _SubModel:
    coef: np.ndarray
    coef_chol: np.ndarray | None   # None for degenerate targets
    resid_sd: float                # 0.0 for binary/degenerate
    constant: float | None = None  # set when the target was constant in phase 2


@dataclass
class ImputationModel:
    specs: tuple[VariableSpec, ...]
    fits: dict[str, _SubModel] = field(default_factory=dict)


def _design(data: Columns, predictors: Sequence[str], n: int,
            rows=slice(None)) -> np.ndarray:
    """``[1, predictors...]`` on the ``n`` rows ``rows`` of ``data`` (default: all)."""
    return np.column_stack([np.ones(n)] + [np.asarray(data[p], dtype=np.float64)[rows]
                                           for p in predictors])


def fit_imputation(data: Columns, validated: np.ndarray,
                   specs: Sequence[VariableSpec]) -> ImputationModel:
    """Fit the imputation sub-models on the validated records.

    ``data`` maps column names to full-population arrays; targets hold
    their validated values on the rows where ``validated`` is True.
    """
    rows = np.flatnonzero(np.asarray(validated, dtype=bool))
    if rows.size < MIN_VALIDATED:
        raise ValueError(
            f"{rows.size} validated records; at least {MIN_VALIDATED} required")
    model = ImputationModel(specs=tuple(specs))
    for spec in specs:
        if spec.kind == "derived":
            continue
        y = np.asarray(data[spec.name], dtype=np.float64)[rows]
        x = _design(data, spec.predictors, rows.size, rows)
        if np.unique(y).size == 1:
            warnings.warn(
                f"target {spec.name!r} is constant in the validated data; "
                "imputing the constant", stacklevel=2)
            model.fits[spec.name] = _SubModel(
                coef=np.zeros(x.shape[1]), coef_chol=None, resid_sd=0.0,
                constant=float(y[0]))
            continue
        if spec.kind == "binary":
            # Light data augmentation: both outcomes at the predictor mean
            # and one step along each predictor axis.  Keeps separated
            # models (e.g. perfect surrogates) finite with full-rank
            # curvature while barely perturbing healthy fits.
            xbar = x.mean(axis=0)
            sd = np.maximum(x.std(axis=0), 1e-8)
            sd[0] = 0.0  # intercept column
            pseudo = [xbar]
            for j in range(1, x.shape[1]):
                step = np.zeros(x.shape[1])
                step[j] = sd[j]
                pseudo.extend([xbar + step, xbar - step])
            pseudo = np.asarray(pseudo)
            x_aug = np.vstack([x, pseudo, pseudo])
            y_aug = np.concatenate([y, np.ones(len(pseudo)), np.zeros(len(pseudo))])
            w_aug = np.concatenate([np.ones(y.size),
                                    np.full(2 * len(pseudo), 0.25)])
            fit = models.fit_logistic(y_aug, x_aug, w_aug)
            coef, cov, resid_sd = fit.coefficients, fit.variance, 0.0
        else:
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            dof = max(len(y) - x.shape[1], 1)
            s2 = float(resid @ resid) / dof
            cov = s2 * np.linalg.pinv(x.T @ x)
            resid_sd = float(np.sqrt(s2))
        try:
            chol = np.linalg.cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            chol = None
        model.fits[spec.name] = _SubModel(coef=coef, coef_chol=chol,
                                          resid_sd=resid_sd)
    return model


def impute_once(data: Columns, model: ImputationModel,
                rng: np.random.Generator) -> Columns:
    """One completed dataset: every record imputed, in sequence order."""
    n = len(next(iter(data.values())))
    work: Columns = dict(data)
    out: Columns = {}
    for spec in model.specs:
        if spec.kind == "derived":
            imputed = np.asarray(spec.derive(work), dtype=np.float64)
        else:
            sub = model.fits[spec.name]
            if sub.constant is not None:
                imputed = np.full(n, sub.constant)
            else:
                coef = sub.coef
                if sub.coef_chol is not None:
                    coef = coef + sub.coef_chol @ rng.standard_normal(coef.size)
                x = _design(work, spec.predictors, n)
                eta = x @ coef
                if spec.kind == "binary":
                    p = 1.0 / (1.0 + np.exp(-eta))
                    imputed = (rng.uniform(size=n) < p).astype(np.float64)
                else:
                    imputed = eta + sub.resid_sd * rng.standard_normal(n)
        out[spec.name] = imputed
        work[spec.name] = imputed  # later targets condition on this draw
    return out


def impute(data: Columns, model: ImputationModel, m: int,
           seed: int) -> Iterator[Columns]:
    """Yield M completed datasets; replicate ``j`` depends only on ``(seed, j)``."""
    if m < 2:
        raise ValueError("at least two imputation replicates are required")
    for j in range(m):
        yield impute_once(data, model,
                          np.random.default_rng(np.random.SeedSequence([seed, j])))


def _analysis_influence(completed: Columns, base: Columns, spec: models.AnalysisSpec,
                        start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The target's influence and the coefficients of ``spec`` refitted to one
    completed dataset, Newton starting from ``start``."""
    y, event, x = spec.arrays({**base, **completed})
    if spec.kind == "cox":  # imputed times stay positive, imputed indicators in [0, 1]
        y, event = np.maximum(y, 1e-6), np.clip(event, 0, 1)
    fit = models.fit(spec.kind, y, event, x, start=start)
    return fit.influence[:, spec.coefficient], fit.coefficients


def mi_influence(data: Columns, model: ImputationModel, m: int,
                 analysis: models.AnalysisSpec, seed: int) -> np.ndarray:
    """Average per-record influence over M imputation replicates.

    Only the rows of ``analysis.members(data)`` are imputed and refitted,
    and the result has one value per such row, in row order.  When
    ``analysis.frame`` is None, or the frame holds every row, ``data``
    is used as it is, without a copy; otherwise every column is sliced
    once to the members.  Passing the frame's rows alone, as the CLI
    does, gives the same result bit for bit.  The first refit that
    converges starts Newton from 0; every later one starts from that
    refit's coefficients, which moves the result only within Newton's
    stopping tolerance.

    Replicates whose working fit fails to converge are dropped with a
    warning; if half or more fail the auxiliary is unusable and an error
    is raised.
    """
    if analysis.frame is not None:
        rows = np.flatnonzero(analysis.members(data))
        if rows.size < len(data[analysis.outcome]):
            data = {name: values[rows] for name, values in data.items()}
    total = np.zeros(len(data[analysis.outcome]))
    start = None
    failures = []
    for completed in impute(data, model, m, seed):
        try:
            h, coefficients = _analysis_influence(completed, data, analysis, start)
        except ConvergenceError as exc:
            failures.append(str(exc))
            continue
        total += h
        if start is None:
            start = coefficients
    kept = m - len(failures)
    if failures:
        warnings.warn(
            f"{len(failures)} of {m} imputation replicates dropped "
            f"(first: {failures[0]})", stacklevel=2)
    if kept < (m + 1) // 2:
        raise ConvergenceError(
            f"only {kept} of {m} imputation replicates converged; "
            "the multiply-imputed auxiliary is unreliable")
    return total / kept
