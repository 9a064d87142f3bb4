"""Synthetic populations with known truth, and the experiment harness.

This module is the verification backbone: estimators and design routines
are checked against Monte Carlo truth from the generator (the exhaustive
allocation oracle for small instances lives with the tests).  The
generator draws smooth weight trajectories from a low-rank
eigendecomposition, event times from the configured hazard model, and
pushes the truth through per-variable error models to produce the
error-prone phase-1 columns.

The experiment harness (:func:`run_design`, :func:`estimate_obesity`,
:func:`estimate_asthma`) is array I/O around the same design core the
CLI uses: ``allocation.influence_sd`` / ``multiwave`` (the one wave
rule, the first wave included) / ``draw_within_strata`` for each wave,
``records.inclusion_probabilities`` for pi, and
``multiframe.weighted_sample`` / ``raking.weighted_fit`` for the IPW and
raking fits.  Both endpoints run one estimation routine in two pieces,
``_head`` (the four estimators without imputation) and ``_tail`` (the MI
auxiliary and raking_mi), on one ``_Endpoint``; per endpoint only the
working model differs, a ``models.AnalysisSpec`` (``COX_ANALYSIS``,
``ASTHMA_ANALYSIS``) read from ``_population_columns`` under the CLI's
``records.DyadTable`` names, with its own frame and imputation model
(``_cox_imputation_specs``, ``_asthma_imputation_specs``).  The pairs sit
in one table, ``WORKING_MODELS``, which is also what ``estimate --model``
fits: each endpoint is defined once, for the harness and the CLI.
:func:`estimate_all` splits the ten estimates between two processes by
cost: the obesity tail here, the obesity head and the asthma endpoint in
a forked worker (``forking.team``), with the rows, warnings and errors
of the serial calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from twophase import forking, imputation, models, multiframe, raking
from twophase.allocation import draw_within_strata, influence_sd, multiwave
from twophase.errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateDesignError,
    IllConditionedError,
    InfeasibleError,
)
from twophase.fpca import (
    FULL_TERM_DAYS,
    TIME_DOMAIN,
    EigenSystem,
    LongitudinalSeries,
    series_from_flat,
    trapezoid_weights,
)
from twophase.records import Stratum, assign_strata_arrays, inclusion_probabilities


# ---------------------------------------------------------------------------
# Trajectory model (low-rank smooth curves on the gestational clock)


@dataclass(frozen=True)
class TrajectoryModel:
    """Three-component weight-curve model on the phase-1 time domain,
    ``fpca.TIME_DOMAIN``, where the weight series are drawn.

    The mean is a smooth logistic ramp gaining ``pregnancy_gain_kg``
    between conception and delivery; components are orthonormal shifted
    Legendre polynomials, so the dominant one shifts a subject's overall
    weight level and the others tilt and bend the curve.  There are 1 to
    3 components, one per finite positive entry of ``eigenvalues``.
    """

    baseline_kg: float = 65.0
    pregnancy_gain_kg: float = 12.0
    ramp_center: float = 120.0
    ramp_scale: float = 55.0
    eigenvalues: tuple[float, ...] = (144000.0, 3600.0, 400.0)
    noise_sd: float = 0.5

    def __post_init__(self):
        # Plain Python: every SimConfig() builds one, and numpy calls here
        # would cost several times the rest of the constructor.
        if not (1 <= len(self.eigenvalues) <= 3
                and all(0.0 < v < math.inf for v in self.eigenvalues)):
            raise ValueError("eigenvalues must be 1 to 3 finite positive values "
                             f"(one per basis component), got {list(self.eigenvalues)}")

    def _ramp(self, t):
        return 1.0 / (1.0 + np.exp(-(np.asarray(t, dtype=np.float64)
                                     - self.ramp_center) / self.ramp_scale))

    def mean(self, t):
        lo, hi = 0.0, 272.0
        scale = self.pregnancy_gain_kg / float(self._ramp(hi) - self._ramp(lo))
        return self.baseline_kg + scale * (self._ramp(t) - float(self._ramp(-365.0)))

    def basis(self, t) -> np.ndarray:
        """Orthonormal component functions evaluated at ``t`` (K x len(t))."""
        lo, hi = TIME_DOMAIN
        length = hi - lo
        u = (np.asarray(t, dtype=np.float64) - lo) / length
        rows = [
            np.full_like(u, np.sqrt(1.0 / length)),
            np.sqrt(3.0 / length) * (2.0 * u - 1.0),
            np.sqrt(5.0 / length) * (6.0 * u * u - 6.0 * u + 1.0),
        ]
        return np.vstack(rows[: len(self.eigenvalues)])

    def curve(self, scores, t):
        return self.mean(t) + np.asarray(scores) @ self.basis(t)

    def draw_scores(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sds = np.sqrt(np.asarray(self.eigenvalues))
        return rng.standard_normal((n, len(self.eigenvalues))) * sds

    def true_eigensystem(self, grid_size: int = 101) -> EigenSystem:
        """The exact eigensystem on a grid (the oracle for FPCA tests)."""
        grid = np.linspace(*TIME_DOMAIN, grid_size)
        phi = self.basis(grid)
        qw = trapezoid_weights(grid)
        phi = phi / np.sqrt((phi * phi) @ qw)[:, None]
        return EigenSystem(grid=grid, mean=self.mean(grid),
                           eigenvalues=np.asarray(self.eigenvalues, dtype=float),
                           eigenfunctions=phi, noise_var=self.noise_sd ** 2,
                           fve=np.cumsum(self.eigenvalues) / np.sum(self.eigenvalues))


# ---------------------------------------------------------------------------
# Population generator


@dataclass(frozen=True)
class ErrorModel:
    """Per-variable error pushing truth into the phase-1 columns.

    Binary flips are (P[star=1 | truth=0], P[star=0 | truth=1]);
    continuous errors are additive Gaussian with an optional bias.

    Setting every rate, bias and SD to 0 turns this error off, but not
    the phase-1 exposure's own definition: like the EHR, it dates every
    pregnancy at ``FULL_TERM_DAYS`` (``fpca.weight_change`` with its
    default length), and only phase-2 validation recovers the true
    gestation.  That dating is exact when every gestation is
    ``FULL_TERM_DAYS`` long, so x* = x needs a zero ``ErrorModel`` and
    ``SimConfig(gestation_mean=273, gestation_sd=0,
    gestation_range=(273, 273))``.
    """

    event_fp: float = 0.0012
    event_fn: float = 0.028
    time_jitter_prob: float = 0.04
    time_jitter_sd: float = 0.5
    exposure_bias: float = 0.02
    exposure_sd: float = 0.05
    z1_sd: float = 0.4
    z2_fp: float = 0.015
    z2_fn: float = 0.10
    asthma_fp: float = 0.084
    asthma_fn: float = 0.30

    def __post_init__(self):
        for name in ("event_fp", "event_fn", "time_jitter_prob",
                     "z2_fp", "z2_fn", "asthma_fp", "asthma_fn"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")


@dataclass(frozen=True)
class SimConfig:
    """Everything the generator needs, with paper-like defaults.

    The default hazard scale is calibrated so roughly 18% of children
    meet the endpoint inside the (2, 6] follow-up window; the default
    error rates land near the published misclassification table.
    """

    n: int = 10000
    trajectory: TrajectoryModel = field(default_factory=TrajectoryModel)
    error: ErrorModel = field(default_factory=ErrorModel)
    beta_x: float = 0.87
    beta_z: tuple[float, float] = (0.35, -0.4)
    weibull_shape: float = 1.3
    weibull_scale: float = 12.0
    censor_mix: float = 0.55          # probability of early (uniform) censoring
    censor_range: tuple[float, float] = (2.2, 6.0)
    followup_end: float = 6.0
    gestation_mean: float = 270.0
    gestation_sd: float = 9.0
    gestation_range: tuple[float, float] = (238.0, 273.0)
    obs_rate: float = 8.0             # observations per subject ~ 1 + Poisson
    asthma_frame_prob: float = 0.68
    asthma_intercept: float = -2.46
    asthma_beta_x: float = 0.25
    asthma_beta_z1: float = 0.3
    asthma_beta_event: float = 0.9    # obesity-asthma comorbidity (log odds)
    x_center: float = 0.175
    z2_prob: float = 0.17
    seed: int = 20240901

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.seed < 0:  # numpy's SeedSequence takes non-negative integers only
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class Population:
    """Arrays of truth, error-prone phase-1 values, and frame memberships."""

    config: SimConfig
    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    z: np.ndarray            # n x 2 (continuous, binary)
    asthma: np.ndarray
    gestation: np.ndarray
    y_star: np.ndarray
    delta_star: np.ndarray
    x_star: np.ndarray
    z_star: np.ndarray
    asthma_star: np.ndarray
    in_asthma_frame: np.ndarray
    aux: np.ndarray
    scores: np.ndarray
    series: list[LongitudinalSeries] = field(default_factory=list)

    @property
    def n(self) -> int:
        return int(self.y.size)

    def ids(self) -> list[str]:
        return [f"d{i:06d}" for i in range(self.n)]


def _flip(rng, truth, fp, fn):
    u = rng.uniform(size=truth.size)
    flip = np.where(truth > 0.5, u < fn, u < fp)
    return np.where(flip, 1.0 - truth, truth)


def _draw_series(rng, traj: TrajectoryModel, scores, gestation,
                 m_obs) -> list[LongitudinalSeries]:
    """Each subject's sparse, noisy weight series, in subject order.

    Subject i's draws, in this order, are ``rng.uniform(start_i, 272,
    m_i)`` for its times, from ``start_i`` (a year before its conception,
    inside the time domain) to day 272, and then ``k_i`` standard normals
    for its measurement errors, one per distinct time after rounding to
    0.001 day; scaled by ``noise_sd`` they are the numbers
    ``rng.normal(0, noise_sd, k_i)`` gives.  Only the draws run per
    subject; they fill two flat buffers.  Sorting within a subject aside,
    rounding, merging tied times, the curve ``traj.mean(t) + scores_i @
    traj.basis(t)`` and the 1 kg floor are each one pass over every
    subject's points.  The product ``scores_i @ basis`` stays per subject:
    batched forms round some points differently.  Each series' times and
    values are views of two shared arrays, one slice per subject, and
    :func:`fpca.series_from_flat` checks every series in one pass over
    them.
    """
    if not traj.noise_sd >= 0.0:
        raise ValueError(f"noise_sd must be non-negative, got {traj.noise_sd}")
    n = scores.shape[0]
    starts = np.maximum(TIME_DOMAIN[0], FULL_TERM_DAYS - gestation - 365.0)
    bounds = np.concatenate(([0], np.cumsum(m_obs))).tolist()
    draws = np.empty(bounds[-1])
    noise = np.empty(bounds[-1])
    offsets = [0] * (n + 1)
    for i, start in enumerate(starts.tolist()):
        t = rng.uniform(start, 272.0, bounds[i + 1] - bounds[i])
        t.sort()
        draws[bounds[i]:bounds[i + 1]] = t
        # The distinct values of np.round(t, 3), which rints t * 1000 and
        # divides by 1000; Python's round also rounds half to even.
        k = len({round(v * 1000.0) for v in t.tolist()})
        offsets[i + 1] = offsets[i] + k
        rng.standard_normal(out=noise[offsets[i]:offsets[i + 1]])

    # Each buffer is freed once used: the series keep only times and values.
    rounded = np.round(draws, 3)
    del draws
    keep = np.ones(rounded.size, dtype=bool)
    keep[1:] = rounded[1:] != rounded[:-1]
    keep[bounds[:-1]] = True
    times = rounded[keep]
    del rounded, keep
    values = np.empty(times.size)
    basis = traj.basis(times)
    for i in range(n):
        a, b = offsets[i], offsets[i + 1]
        np.matmul(scores[i], basis[:, a:b], out=values[a:b])
    del basis
    values += traj.mean(times)
    noise = noise[:times.size]
    noise *= traj.noise_sd
    values += noise
    del noise
    np.maximum(values, 1.0, out=values)
    return series_from_flat([f"d{i:06d}" for i in range(n)], times, values, offsets)


def generate(config: SimConfig, seed: int | None = None, *,
             include_series: bool = False) -> Population:
    """Draw one synthetic population; deterministic per (config, seed).

    The random stream is part of that reproducibility.  Every population
    column is drawn first, in the order of this function's body: scores,
    gestation, covariates, event and censoring times, asthma, the error
    columns, the asthma-frame membership and the observation counts.
    With ``include_series`` the weight series come last, subject by
    subject (:func:`_draw_series`): its times, then its noise.  So the
    non-series arrays are the same with and without the series.
    """
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    n = config.n
    traj = config.trajectory

    scores = traj.draw_scores(n, rng)
    gestation = np.clip(rng.normal(config.gestation_mean, config.gestation_sd, n),
                        *config.gestation_range)

    # True exposure: average weekly gain between the true conception date
    # (phase-1 clock time 273 - g) and delivery, from the noiseless curve.
    t_conception = FULL_TERM_DAYS - gestation
    basis_end = traj.basis(np.array([272.0]))[:, 0]
    w_end = traj.mean(272.0) + scores @ basis_end
    w_start = traj.mean(t_conception) + np.einsum(
        "ik,ki->i", scores, traj.basis(t_conception))
    x = (w_end - w_start) / (gestation / 7.0)

    # Phase-1 exposure: the uniform-gestation formula plus estimation error.
    w_zero = traj.mean(0.0) + scores @ traj.basis(np.array([0.0]))[:, 0]
    x_star_clean = (w_end - w_zero) / (FULL_TERM_DAYS / 7.0)

    z1 = rng.standard_normal(n)
    z2 = (rng.uniform(size=n) < config.z2_prob).astype(np.float64)
    z = np.column_stack([z1, z2])

    lp = (config.beta_x * (x - config.x_center)
          + config.beta_z[0] * z1 + config.beta_z[1] * (z2 - config.z2_prob))
    t_event = 2.0 + config.weibull_scale * (
        -np.log(rng.uniform(size=n)) / np.exp(lp)) ** (1.0 / config.weibull_shape)
    censor = np.where(rng.uniform(size=n) < config.censor_mix,
                      rng.uniform(*config.censor_range, size=n),
                      config.followup_end)
    censor = np.minimum(censor, config.followup_end)
    y = np.minimum(t_event, censor)
    delta = (t_event <= censor).astype(np.float64)

    a_lp = (config.asthma_intercept + config.asthma_beta_x * (x - config.x_center)
            + config.asthma_beta_z1 * z1 + config.asthma_beta_event * delta)
    asthma = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-a_lp))).astype(np.float64)

    err = config.error
    delta_star = _flip(rng, delta, err.event_fp, err.event_fn)
    y_star = y.copy()
    flipped_to_event = (delta_star > 0.5) & (delta < 0.5)
    y_star[flipped_to_event] = rng.uniform(2.0, y[flipped_to_event])
    flipped_to_censor = (delta_star < 0.5) & (delta > 0.5)
    y_star[flipped_to_censor] = rng.uniform(y[flipped_to_censor],
                                            config.followup_end)
    jitter = (delta_star == delta) & (rng.uniform(size=n) < err.time_jitter_prob)
    y_star[jitter] = np.clip(y_star[jitter]
                             + rng.normal(0.0, err.time_jitter_sd, int(jitter.sum())),
                             2.01, config.followup_end)

    x_star = x_star_clean + err.exposure_bias + rng.normal(0.0, err.exposure_sd, n)
    z_star = np.column_stack([
        z1 + rng.normal(0.0, err.z1_sd, n),
        _flip(rng, z2, err.z2_fp, err.z2_fn),
    ])
    asthma_star = _flip(rng, asthma, err.asthma_fp, err.asthma_fn)
    in_frame = rng.uniform(size=n) < config.asthma_frame_prob

    m_obs = 1 + rng.poisson(config.obs_rate, size=n)
    aux = ((m_obs - 1 - config.obs_rate) / np.sqrt(config.obs_rate))[:, None]

    series = (_draw_series(rng, traj, scores, gestation, m_obs) if include_series
              else [])

    return Population(
        config=config, y=y, delta=delta, x=x, z=z, asthma=asthma,
        gestation=gestation, y_star=y_star, delta_star=delta_star,
        x_star=x_star, z_star=z_star, asthma_star=asthma_star,
        in_asthma_frame=in_frame, aux=aux, scores=scores, series=series,
    )


# ---------------------------------------------------------------------------
# Experiment harness: the full multi-wave, dual-frame pipeline on arrays


@dataclass(frozen=True)
class DesignSpec:
    """Waves, budgets, and stratification for the scripted experiment.

    The constructor takes what an experiment varies: each frame's wave
    budgets and the MI replicate counts.  The strata and the allocation
    rule are the published design's, which no experiment changes, so they
    are class constants: exposure bands at the 10th, 50th and 90th
    percentiles, follow-up bands by event status, the asthma frame's
    exposure bands, the SD shrinkage (a pseudo-count toward the pooled SD)
    and the per-stratum floor of every wave.  Wave 1 is allocated by
    Neyman on the phase-1 influence, and later waves by multi-wave Neyman
    allocation on validated influence.

    Construction raises a ValueError naming the field unless both wave
    tuples are non-empty and hold positive ints, and each
    ``mi_replicates_*`` is an int of at least 2.
    """

    obesity_waves: tuple[int, ...] = (252, 248, 125, 125)
    asthma_waves: tuple[int, ...] = (125, 159)
    mi_replicates_allocation: int = 4
    mi_replicates_estimator: int = 10
    exposure_quantiles: ClassVar[tuple[float, ...]] = (0.10, 0.5, 0.90)
    asthma_quantiles: ClassVar[tuple[float, ...]] = (0.05, 0.3, 0.5, 0.7, 0.95)
    followup_cuts_censored: ClassVar[tuple[float, ...]] = (4.0, 5.0)
    followup_cuts_event: ClassVar[tuple[float, ...]] = (3.0, 4.5)
    sd_shrinkage: ClassVar[float] = 15.0
    min_per_stratum: ClassVar[int] = 2

    def __post_init__(self):
        # Plain Python, as in TrajectoryModel: numpy calls here would cost
        # several times the rest of the constructor.
        def count(value, least):
            return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                    and value >= least)

        for name in ("obesity_waves", "asthma_waves"):
            waves = getattr(self, name)
            if not waves or not all(count(b, 1) for b in waves):
                raise ValueError(f"{name} must be a non-empty tuple of positive ints, "
                                 f"got {waves!r}")
        for name in ("mi_replicates_allocation", "mi_replicates_estimator"):
            if not count(getattr(self, name), 2):
                raise ValueError(f"{name} must be an int of at least 2, "
                                 f"got {getattr(self, name)!r}")


def _quantile_edges(values, quantiles):
    qs = np.quantile(values, quantiles)
    edges = [-np.inf, *np.unique(qs), np.inf]
    return edges


def _grid_strata(frame: str, delta_edges, y_edges_by_delta, x_edges):
    strata = []
    for d_idx, (dlo, dhi) in enumerate(delta_edges):
        for ylo, yhi in y_edges_by_delta[d_idx]:
            for j in range(len(x_edges) - 1):
                sid = f"{frame}:d{d_idx}y{ylo:g}x{j}"
                strata.append(Stratum(
                    id=sid, frame=frame,
                    bounds={"delta_star": (dlo, dhi),
                            "y_star": (ylo, yhi),
                            "x_star": (x_edges[j], x_edges[j + 1])},
                ))
    return strata


def obesity_strata(pop: Population, spec: DesignSpec) -> tuple[list[Stratum], np.ndarray]:
    x_edges = _quantile_edges(pop.x_star, spec.exposure_quantiles)

    def bands(cuts):
        edges = [-np.inf, *cuts, np.inf]
        return list(zip(edges[:-1], edges[1:]))

    y_edges = {0: bands(spec.followup_cuts_censored),
               1: bands(spec.followup_cuts_event)}
    strata = _grid_strata("O", [(-np.inf, 0.5), (0.5, np.inf)], y_edges, x_edges)
    values = {"delta_star": pop.delta_star, "y_star": pop.y_star,
              "x_star": pop.x_star}
    assignment = assign_strata_arrays(values, strata)
    return _drop_empty(strata, assignment)


def _drop_empty(strata, assignment):
    for s, count in zip(strata, np.bincount(assignment, minlength=len(strata)).tolist()):
        s.population_size = count
    keep = [j for j, s in enumerate(strata) if s.population_size > 0]
    lookup = np.full(len(strata), -1, dtype=np.intp)
    lookup[keep] = np.arange(len(keep))
    return [strata[j] for j in keep], lookup[assignment]


def asthma_strata(pop: Population, spec: DesignSpec,
                  members: np.ndarray) -> tuple[list[Stratum], np.ndarray]:
    x_edges = _quantile_edges(pop.x_star[members], spec.asthma_quantiles)
    strata = []
    for a_idx, (alo, ahi) in enumerate([(-np.inf, 0.5), (0.5, np.inf)]):
        for j in range(len(x_edges) - 1):
            strata.append(Stratum(
                id=f"A:a{a_idx}x{j}", frame="A",
                bounds={"asthma_star": (alo, ahi),
                        "x_star": (x_edges[j], x_edges[j + 1])},
            ))
    values = {"asthma_star": pop.asthma_star[members], "x_star": pop.x_star[members]}
    assignment = assign_strata_arrays(values, strata)
    return _drop_empty(strata, assignment)


@dataclass
class WaveDesign:
    """One frame's realized multi-wave design."""

    strata: list[Stratum]
    assignment: np.ndarray     # stratum index per frame member row
    member_index: np.ndarray   # population row per frame member row
    sampled: np.ndarray        # bool per frame member row
    counts: np.ndarray         # draws per stratum
    wave_of: np.ndarray        # wave number per member row (0 = not drawn)
    # The working model's phase-1 fit on every member, when the design
    # allocated on it; the estimators reuse it instead of refitting.
    phase1: models.FitResult | None = None

    def pi(self) -> np.ndarray:
        """Final-design inclusion probability per frame member row."""
        sizes = [s.population_size for s in self.strata]
        return inclusion_probabilities(self.counts, sizes, self.assignment)

    def frame_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``records.frame_arrays`` over ``n`` population rows; leaf -1 outside."""
        pi = np.full(n, np.nan)
        pi[self.member_index] = self.pi()
        leaf = np.full(n, -1, dtype=np.intp)
        leaf[self.member_index] = self.assignment
        sampled = np.zeros(n, dtype=bool)
        sampled[self.member_index[self.sampled]] = True
        return pi, leaf, sampled


def _run_waves(strata, assignment, member_index, budgets, spec, rng, validated,
               influence) -> WaveDesign:
    """Run one frame's waves on the shared allocation core.

    Each wave asks ``influence(wave, sampled, counts)`` for the member
    rows' influence, the rows whose values count and the SD shrinkage,
    then allocates the cumulative budget with ``multiwave`` and draws.  Stratum ids are the
    stratum indices as strings.  Drawn records are marked in the
    population-length ``validated`` as they are drawn.
    """
    ids = [str(j) for j in range(len(strata))]
    sizes = [s.population_size for s in strata]
    sampled = np.zeros(assignment.size, dtype=bool)
    counts = np.zeros(len(strata), dtype=np.intp)
    wave_of = np.zeros(assignment.size, dtype=np.intp)
    cumulative = 0
    for wave, budget in enumerate(budgets, start=1):
        cumulative += budget
        h, rows, shrink = influence(wave, sampled, counts)
        stats = influence_sd(h, assignment, ids, sizes, counts, validated=rows,
                             shrink=shrink)
        draws = multiwave(stats, cumulative, min_per_stratum=spec.min_per_stratum).draws
        chosen = draw_within_strata(rng, assignment, ids, draws, ~sampled)
        idx = np.concatenate(chosen)
        sampled[idx] = True
        wave_of[idx] = wave
        validated[member_index[idx]] = True
        counts += [c.size for c in chosen]
    return WaveDesign(strata, assignment, member_index, sampled, counts, wave_of)


def run_design(pop: Population, spec: DesignSpec, seed: int) -> tuple[WaveDesign, WaveDesign]:
    """Execute the full multi-wave two-frame design on one population.

    Returns the obesity-frame and asthma-frame designs.  A drawn record is
    validated at once, for every later wave of either frame.  Both frames
    draw from one ``SeedSequence([seed, 101])`` stream, obesity waves first.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    validated = np.zeros(pop.n, dtype=bool)

    # Obesity frame (everyone): wave 1 allocates on the phase-1 influence,
    # later waves on the validated records' IPW influence.
    o_strata, o_assign = obesity_strata(pop, spec)
    sizes = [s.population_size for s in o_strata]
    cols = _population_columns(pop)
    p1_fit = COX_ANALYSIS.phase1().fit(cols)
    h_naive = models.influence_for_target(p1_fit, COX_ANALYSIS.coefficient)

    def obesity_influence(wave, sampled, counts):
        if wave == 1:
            return h_naive, None, 0.0
        pis = inclusion_probabilities(counts, sizes, o_assign[sampled])
        fit = COX_ANALYSIS.fit(cols, sampled, weights=1.0 / pis)
        h_val = np.zeros(pop.n)
        # Per-record influence: strip the design weight back off.
        h_val[sampled] = fit.influence[:, COX_ANALYSIS.coefficient] * pis
        return h_val, sampled, spec.sd_shrinkage

    obesity = _run_waves(o_strata, o_assign, np.arange(pop.n), spec.obesity_waves,
                         spec, rng, validated, obesity_influence)
    obesity.phase1 = p1_fit

    # Asthma frame (subset; already-validated records stay drawable): every
    # wave allocates on the MI influence given everything validated so far.
    # The imputation model learns from every validated record, in either
    # frame; the imputed refits, and so the influence, cover the frame's
    # members only, in population order (the member rows).
    members = np.flatnonzero(pop.in_asthma_frame)
    a_strata, a_assign = asthma_strata(pop, spec, pop.in_asthma_frame)

    def asthma_influence(wave, sampled, counts):
        h_mi = _mi_influence(cols, validated, _asthma_imputation_specs(), ASTHMA_ANALYSIS,
                             spec.mi_replicates_allocation, seed + wave)
        return h_mi, None, spec.sd_shrinkage

    asthma = _run_waves(a_strata, a_assign, members, spec.asthma_waves, spec, rng,
                        validated, asthma_influence)
    return obesity, asthma


def _cox_imputation_specs() -> list[imputation.VariableSpec]:
    # Later targets condition on earlier imputed values so the completed
    # data carry the joint dependence the influence function needs.
    V = imputation.VariableSpec
    return [
        V("z_0", "continuous", ("z_star_0",)),
        V("z_1", "binary", ("z_star_1",)),
        V("x", "continuous", ("x_star", "z_0")),
        V("delta", "binary", ("delta_star", "x", "y_star")),
        V("y", "continuous", ("y_star", "delta")),
    ]


def _asthma_imputation_specs() -> list[imputation.VariableSpec]:
    V = imputation.VariableSpec
    return [
        V("z_0", "continuous", ("z_star_0",)),
        V("x", "continuous", ("x_star", "z_0")),
        V("delta", "binary", ("delta_star", "x", "y_star")),
        V("asthma", "binary", ("asthma_star", "x", "z_0", "delta")),
    ]


# The endpoints' working models: the generating ones.
COX_ANALYSIS = models.AnalysisSpec(
    kind="cox", outcome="y", event="delta", covariates=("x", "z_0", "z_1"), target=0)
ASTHMA_ANALYSIS = models.AnalysisSpec(
    kind="logistic", outcome="asthma", event=None, covariates=("x", "z_0", "delta"),
    target=0, intercept=True, frame="in_asthma_frame")
# The one definition of each endpoint, by its ``estimate --model`` name: the
# working model and its imputation specs, which the harness and the CLI read.
WORKING_MODELS = {"cox": (COX_ANALYSIS, _cox_imputation_specs),
                  "logistic": (ASTHMA_ANALYSIS, _asthma_imputation_specs)}


def _population_columns(pop: Population) -> imputation.Columns:
    """The population's arrays under ``records.DyadTable`` names, and the asthma outcome."""
    return {
        "y": pop.y, "delta": pop.delta, "x": pop.x, "z_0": pop.z[:, 0], "z_1": pop.z[:, 1],
        "asthma": pop.asthma, "y_star": pop.y_star, "delta_star": pop.delta_star,
        "x_star": pop.x_star, "z_star_0": pop.z_star[:, 0], "z_star_1": pop.z_star[:, 1],
        "asthma_star": pop.asthma_star, "in_asthma_frame": pop.in_asthma_frame,
    }


def _mi_influence(cols, validated, specs, analysis, m, seed):
    """MI influence of ``analysis`` on its frame's rows of ``cols``, imputing ``specs``
    from every ``validated`` row (``imputation.mi_influence``)."""
    model = imputation.fit_imputation(cols, validated, specs)
    return imputation.mi_influence(cols, model, m, analysis, seed)


@dataclass
class EstimateRow:
    endpoint: str
    estimator: str
    beta: float
    se: float


@dataclass
class _Endpoint:
    """One endpoint's estimation problem: what its :func:`_head` and
    :func:`_tail` share.

    ``own`` indexes the endpoint's own frame in ``designs`` (for ipw_sf,
    and its phase-1 fit when it has one).  ``single`` and ``sample`` are
    the single-frame and multi-frame weighted samples of the analysis
    frame ``frame``, ``data`` the working model's arrays on ``sample``'s
    rows, and ``validated`` marks every multi-frame draw.  The MI
    influence imputes ``mi_specs`` with ``m`` replicates seeded by
    ``mi_seed``.
    """

    name: str
    analysis: models.AnalysisSpec
    designs: tuple[WaveDesign, WaveDesign]
    own: int
    cols: imputation.Columns
    frame: np.ndarray
    single: multiframe.WeightedSample
    sample: multiframe.WeightedSample
    data: tuple
    validated: np.ndarray
    mi_specs: list[imputation.VariableSpec]
    m: int
    mi_seed: int


def _endpoint(pop: Population, designs: tuple[WaveDesign, WaveDesign], name: str,
              model: str, own: int, m: int, mi_seed: int) -> _Endpoint:
    analysis, mi_specs = WORKING_MODELS[model]
    cols = _population_columns(pop)
    frame = analysis.members(cols)
    frames = [multiframe.FrameDesign(f, *d.frame_arrays(pop.n))
              for f, d in zip("OA", designs)]
    _, single = multiframe.weighted_sample([frames[own]], frame)
    draws, sample = multiframe.weighted_sample(frames, frame)
    validated = np.zeros(pop.n, dtype=bool)
    validated[draws.rows] = True
    return _Endpoint(name, analysis, designs, own, cols, frame, single, sample,
                     analysis.arrays(cols, sample.rows), validated, mi_specs(), m, mi_seed)


def _rows(e: _Endpoint, fits: dict) -> list[EstimateRow]:
    target = e.analysis.coefficient
    return [EstimateRow(e.name, name, float(fit.coefficients[target]),
                        float(fit.se[target])) for name, fit in fits.items()]


def _head(e: _Endpoint) -> list[EstimateRow]:
    """The rows of the four estimators that need no imputation: phase1 (with
    its sandwich variance), ipw_sf, ipw_mf and raking_nv, which rakes on the
    phase-1 influence on the analysis frame's rows."""
    kind = e.analysis.kind
    p1 = e.designs[e.own].phase1
    if p1 is None:
        p1 = e.analysis.phase1().fit(e.cols, e.frame)
    p1 = replace(p1, variance=models.sandwich_variance(p1))
    h_naive = models.influence_for_target(p1, e.analysis.coefficient)
    fits = {"phase1": p1}
    fits["ipw_sf"], _, _ = raking.weighted_fit(
        kind, *e.analysis.arrays(e.cols, e.single.rows), e.single)
    for name, h in (("ipw_mf", None), ("raking_nv", h_naive)):
        fits[name], _, _ = raking.weighted_fit(kind, *e.data, e.sample, h)
    return _rows(e, fits)


def _tail(e: _Endpoint) -> list[EstimateRow]:
    """The raking_mi row: raking on the MI influence, which imputes from
    every validated record (``_mi_influence``)."""
    h_mi = _mi_influence(e.cols, e.validated, e.mi_specs, e.analysis, e.m, e.mi_seed)
    fit, _, _ = raking.weighted_fit(e.analysis.kind, *e.data, e.sample, h_mi)
    return _rows(e, {"raking_mi": fit})


def _obesity(pop, obesity, asthma, spec, seed) -> _Endpoint:
    return _endpoint(pop, (obesity, asthma), "obesity", "cox", 0,
                     spec.mi_replicates_estimator, seed + 7919)


def estimate_obesity(pop: Population, obesity: "WaveDesign", asthma: "WaveDesign",
                     spec: DesignSpec, seed: int) -> list[EstimateRow]:
    """The five comparison estimators for the primary (hazard) endpoint."""
    e = _obesity(pop, obesity, asthma, spec, seed)
    return _head(e) + _tail(e)


def estimate_asthma(pop: Population, obesity: "WaveDesign", asthma: "WaveDesign",
                    spec: DesignSpec, seed: int) -> list[EstimateRow]:
    """The five comparison estimators for the secondary (odds) endpoint.

    Analysis population is the asthma frame; the working model is the
    generating one (exposure, continuous covariate, obesity indicator).
    """
    e = _endpoint(pop, (obesity, asthma), "asthma", "logistic", 1,
                  spec.mi_replicates_estimator, seed + 104729)
    return _head(e) + _tail(e)


def estimate_all(pop: Population, obesity: "WaveDesign", asthma: "WaveDesign",
                 spec: DesignSpec, seed: int) -> list[EstimateRow]:
    """Both endpoints' estimates: :func:`estimate_obesity`'s rows, then
    :func:`estimate_asthma`'s.

    The serial run computes the obesity head (:func:`_head`: phase1,
    ipw_sf, ipw_mf, raking_nv), the obesity tail (:func:`_tail`: the MI
    auxiliary and raking_mi), then the asthma endpoint.  The tail costs
    about as much as the other two together, so with two processes it
    runs here while one forked worker (``forking.team``) computes the
    head and then the asthma endpoint, and exits (``Worker.finish``);
    the inputs head and tail share are built once, before the fork.
    Every piece's arithmetic and seeds are the serial ones, so every row
    is the same, bit for bit, whichever process made it.  The warnings
    come in the serial order: the head's, the tail's (recorded here,
    ``forking.recorded_warnings``), then the asthma ones.  So do the
    errors: a head error wins over a tail error, and either over an
    asthma error, which is raised with its class, message and
    attributes and the worker's traceback attached.  Any error
    terminates and joins the worker.  Everything runs in this
    process, one piece after the other, with one CPU, without the
    ``fork`` start method, or inside a daemonic multiprocessing worker.
    """
    args = pop, obesity, asthma, spec, seed
    if forking.process_count(2) == 1:
        return estimate_obesity(*args) + estimate_asthma(*args)
    e = _obesity(*args)
    pieces = {"head": lambda: _head(e), "asthma": lambda: estimate_asthma(*args)}
    with forking.team("estimates", [lambda: lambda piece: pieces[piece]()]) as (worker,):
        worker.send("head")
        worker.send("asthma")
        worker.finish()
        failed = None
        with forking.recorded_warnings() as caught:
            try:
                tail = _tail(e)
            except Exception as exc:  # noqa: BLE001 - raised below, unless the head failed
                failed = exc
        head = worker.recv()
        forking.replay_warnings(caught)
        if failed is not None:
            raise failed
        return head + tail + worker.recv()


ESTIMATORS = ("phase1", "ipw_sf", "ipw_mf", "raking_nv", "raking_mi")
ENDPOINTS = ("obesity", "asthma")


@dataclass
class ExperimentReport:
    """Per-endpoint, per-estimator summary over Monte Carlo replicates."""

    true_beta: dict[str, float]
    replicates: int
    estimators: dict[str, dict[str, float]]  # "endpoint/estimator" -> stats
    failures: int = 0
    failure_reasons: dict[str, dict] = field(default_factory=dict)  # "count", "first" by class


def run_replicate(config: SimConfig, spec: DesignSpec, seed: int) -> list[EstimateRow]:
    """One Monte Carlo replicate: generate, run the design and estimate.

    Generation and the design run in this process.  The ten estimates
    run at once (:func:`estimate_all`): the obesity MI auxiliary and
    raking_mi here, the other four obesity estimates and the asthma
    endpoint in a forked worker; or all of them here where this process
    cannot fork or has one CPU.  The rows, the warnings' order and the
    error raised are those of a serial run.
    """
    pop = generate(config, seed)
    obesity, asthma = run_design(pop, spec, seed)
    return estimate_all(pop, obesity, asthma, spec, seed)


def run_experiment(config: SimConfig, spec: DesignSpec, replicates: int, *,
                   master_seed: int = 7, progress: bool = False) -> ExperimentReport:
    """Monte Carlo comparison of the five estimators on both endpoints.

    Replicate ``r`` derives its seed from ``(master_seed, r)`` alone, so
    results are reproducible and order-independent.  Replicates run one
    after another in this process, each splitting its ten estimates with
    one forked worker (:func:`run_replicate`, :func:`estimate_all`);
    inside a daemonic multiprocessing worker, or with one CPU, everything
    stays in this process.  A replicate that raises one of the
    unlucky-data errors, ConvergenceError, InfeasibleError,
    DegenerateDesignError, CalibrationError or IllConditionedError, in
    either endpoint, is skipped and counted in ``failures`` and, by error
    class, in ``failure_reasons``; any other exception ends the run.
    """
    z95 = 1.959963984540054
    keys = [f"{ep}/{name}" for ep in ENDPOINTS for name in ESTIMATORS]
    betas = {k: [] for k in keys}
    ses = {k: [] for k in keys}
    reasons: dict[str, dict] = {}
    for r in range(replicates):
        seed = int(np.random.SeedSequence([master_seed, r]).generate_state(1)[0])
        try:
            rows = run_replicate(config, spec, seed)
        except (ConvergenceError, InfeasibleError, DegenerateDesignError, CalibrationError,
                IllConditionedError) as exc:
            reason = reasons.setdefault(type(exc).__name__, {"count": 0, "first": str(exc)})
            reason["count"] += 1
            continue
        for row in rows:
            betas[f"{row.endpoint}/{row.estimator}"].append(row.beta)
            ses[f"{row.endpoint}/{row.estimator}"].append(row.se)
        if progress and (r + 1) % 25 == 0:
            print(f"  replicate {r + 1}/{replicates}", flush=True)
    true_beta = {"obesity": config.beta_x, "asthma": config.asthma_beta_x}
    summary = {}
    for key in keys:
        b = np.asarray(betas[key])
        se = np.asarray(ses[key])
        if b.size == 0:
            continue
        target = true_beta[key.split("/", 1)[0]]
        cover = np.mean(np.abs(b - target) <= z95 * se)
        summary[key] = {
            "mean_beta": float(b.mean()),
            "bias": float(b.mean() - target),
            "sd": float(b.std(ddof=1)) if b.size > 1 else float("nan"),
            "var": float(b.var(ddof=1)) if b.size > 1 else float("nan"),
            "mean_se": float(se.mean()),
            "coverage": float(cover),
            "mcse": float(b.std(ddof=1) / np.sqrt(b.size)) if b.size > 1 else float("nan"),
            "n": int(b.size),
        }
    return ExperimentReport(true_beta=true_beta, replicates=replicates,
                            estimators=summary, failure_reasons=reasons,
                            failures=sum(reason["count"] for reason in reasons.values()))
