"""Parametric imputation of validated variables and MI influence auxiliaries.

Imputation models are fit on the validated subsample only, one target at
a time in a declared sequence (later targets may condition on earlier
imputed ones, e.g. gestation length before a recomputed exposure).  Every
replicate imputes at the fitted coefficients: the auxiliary is a
predictor of the true influence (Han, Shaw & Lumley 2021) and the raking
variance is design-based, so a coefficient draw adds only noise, and on
a quasi-separated binary model (every validated record with a surrogate
of 1 has a target of 1) its Wald covariance made whole replicates
collapse.  A binary target is imputed by its conditional probability
(Rao-Blackwellization), and a continuous one by its fitted mean plus
``resid_sd`` times a normal score that :func:`impute` stratifies across
the replicates.  Every record given to :func:`impute` is imputed,
validated ones included.  :func:`mi_influence` averages over the
replicates the influence of the working model, a ``models.AnalysisSpec``
read from each completed dataset.  It imputes and refits only the
working model's own population (``AnalysisSpec.members``), so the
auxiliary is that model's influence on its own population, whether the
caller passes every record or that population alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from twophase import models
from twophase.errors import ConvergenceError, UnidentifiedModelError

Columns = dict[str, np.ndarray]

DEFAULT_REPLICATES = 100
MIN_VALIDATED = 30


@dataclass(frozen=True)
class VariableSpec:
    """How to impute one target variable.

    ``kind`` is "continuous" (linear model plus Gaussian residual),
    "binary" (logistic model, imputed by its probability), or "derived"
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
    Fewer than ``MIN_VALIDATED`` validated records raise
    UnidentifiedModelError (an IllConditionedError and a ValueError).
    """
    rows = np.flatnonzero(np.asarray(validated, dtype=bool))
    if rows.size < MIN_VALIDATED:
        raise UnidentifiedModelError(
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
                coef=np.zeros(x.shape[1]), resid_sd=0.0, constant=float(y[0]))
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
            coef, resid_sd = models.fit_logistic(y_aug, x_aug, w_aug).coefficients, 0.0
        else:
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            dof = max(len(y) - x.shape[1], 1)
            resid_sd = float(np.sqrt(float(resid @ resid) / dof))
        model.fits[spec.name] = _SubModel(coef=coef, resid_sd=resid_sd)
    return model


def impute_once(data: Columns, model: ImputationModel,
                scores: Mapping[str, np.ndarray]) -> Columns:
    """One completed dataset: every record imputed, in sequence order.

    Each target is imputed at its fitted coefficients.  A continuous target
    is its fitted mean plus ``resid_sd`` times ``scores[name]``, one
    standard-normal score per record; a binary target is its fitted
    probability; a constant target is its constant.  ``scores`` needs an
    entry for each continuous target that is not constant.
    """
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
                eta = _design(work, spec.predictors, n) @ sub.coef
                if spec.kind == "binary":
                    imputed = 1.0 / (1.0 + np.exp(-eta))
                else:
                    imputed = eta + sub.resid_sd * scores[spec.name]
        out[spec.name] = imputed
        work[spec.name] = imputed  # later targets condition on this imputation
    return out


def impute(data: Columns, model: ImputationModel, m: int,
           seed: int) -> Iterator[Columns]:
    """Yield M completed datasets (:func:`impute_once`), one at a time.

    Each record's normal scores are stratified across the M replicates:
    the scores are the standard normal quantiles at the midpoints of M
    equal-probability bins, and for each record and each scored target
    replicate j takes the bin that a random permutation of the M bins puts
    at j.  So every record's M scores for a target are the same M
    quantiles, in an order of its own, and their mean is 0.  The
    permutations come from ``seed`` alone, drawn target by target in
    sequence order; replicate j depends on the whole draw, not on
    ``(seed, j)`` alone.
    """
    if m < 2:
        raise ValueError("at least two imputation replicates are required")
    n = len(next(iter(data.values())))
    quantiles = np.array([NormalDist().inv_cdf((k + 0.5) / m) for k in range(m)])
    rng = np.random.default_rng(seed)
    # Permuted as intp, numpy's fastest here, and held in the smallest type.
    bins = {spec.name: rng.permuted(np.broadcast_to(np.arange(m)[:, None], (m, n)), axis=0
                                    ).astype(np.min_scalar_type(m - 1))
            for spec in model.specs
            if spec.kind == "continuous" and model.fits[spec.name].constant is None}
    for j in range(m):
        yield impute_once(data, model, {name: quantiles.take(b[j]) for name, b in bins.items()})


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
