from statistics import NormalDist

import numpy as np
import pytest

from twophase import fpca
from twophase.errors import ConvergenceError, DomainError, IllConditionedError
from twophase.simulate import TrajectoryModel


def reconstruct(scores: np.ndarray, system: fpca.EigenSystem, t) -> np.ndarray:
    """Predicted trajectory value(s) at ``t`` from component scores."""
    t_arr = system._check_domain(np.atleast_1d(np.asarray(t, dtype=np.float64)))
    values = system._values_at(t_arr)
    mu = values[0]
    if system.n_components:
        mu = mu + np.asarray(scores) @ values[1:]
    return mu if np.ndim(t) else float(mu[0])


def make_population(n=250, m_range=(15, 30), noise=0.5, seed=0,
                    model=None):
    model = model or TrajectoryModel(noise_sd=noise)
    rng = np.random.default_rng(seed)
    scores = model.draw_scores(n, rng)
    series = []
    lo, hi = model.domain
    for i in range(n):
        m = int(rng.integers(*m_range))
        t = np.unique(np.round(np.sort(rng.uniform(lo, hi, size=m)), 3))
        vals = model.curve(scores[i], t)
        if noise > 0:
            vals = vals + rng.normal(0, noise, t.size)
        series.append(fpca.LongitudinalSeries(f"s{i}", t, np.maximum(vals, 1.0)))
    return model, scores, series


@pytest.fixture(scope="module")
def fitted():
    model, scores, series = make_population(seed=11)
    system = fpca.fit_eigensystem(series)
    return model, scores, series, system


class TestLongitudinalSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            fpca.LongitudinalSeries("a", np.array([]), np.array([]))
        with pytest.raises(ValueError):
            fpca.LongitudinalSeries("a", np.array([1.0, 1.0]), np.array([60.0, 61.0]))
        with pytest.raises(ValueError):
            fpca.LongitudinalSeries("a", np.array([1.0, 2.0]), np.array([60.0, -1.0]))


    @pytest.mark.parametrize("times", [[0.0, np.nan, 10.0], [np.nan, 1.0, 2.0],
                                       [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            fpca.LongitudinalSeries("a", np.array(times), np.array([60.0, 61.0, 62.0]))


class TestFitEigensystem:
    def test_recovers_three_components(self, fitted):
        model, scores, series, system = fitted
        assert system.n_components == 3
        assert system.fve[-1] >= 0.999
        assert system.fve[1] < 0.999
        # SQUAREM-accelerated EM takes about 70 steps on this population.
        assert isinstance(system.em_steps, int) and 20 <= system.em_steps <= 150

    def test_eigenfunctions_match_truth(self, fitted):
        model, scores, series, system = fitted
        truth = model.true_eigensystem(grid_size=system.grid.size)
        from twophase.smoothing import trapezoid_weights
        qw = trapezoid_weights(system.grid)
        for k in range(3):
            est = system.eigenfunctions[k]
            ref = truth.eigenfunctions[k]
            err = min(float(qw @ (est - ref) ** 2), float(qw @ (est + ref) ** 2))
            assert np.sqrt(err) < 0.1, f"component {k} L2 error {np.sqrt(err):.3f}"

    def test_eigenvalues_close(self, fitted):
        model, scores, series, system = fitted
        ratio = system.eigenvalues / np.asarray(model.eigenvalues)
        assert np.all((ratio > 0.6) & (ratio < 1.6))

    def test_orthonormal_under_quadrature(self, fitted):
        _, _, _, system = fitted
        from twophase.smoothing import trapezoid_weights
        qw = trapezoid_weights(system.grid)
        gram = (system.eigenfunctions * qw) @ system.eigenfunctions.T
        assert np.max(np.abs(gram - np.eye(system.n_components))) < 1e-6

    def test_eigenvalues_sorted_fve_monotone(self, fitted):
        _, _, _, system = fitted
        assert np.all(np.diff(system.eigenvalues) <= 0)
        assert np.all(np.diff(system.fve) >= 0)

    def test_sign_convention(self, fitted):
        _, _, _, system = fitted
        from twophase.smoothing import trapezoid_weights
        qw = trapezoid_weights(system.grid)
        for phi in system.eigenfunctions:
            assert qw @ phi >= -1e-9

    def test_mean_gain_matches_model(self, fitted):
        model, _, _, system = fitted
        gain = system.mean_at(272.0) - system.mean_at(0.0)
        assert gain == pytest.approx(model.pregnancy_gain_kg, abs=1.0)

    def test_constant_population_reports_zero_variation(self):
        t = np.linspace(-300.0, 250.0, 20)
        series = [fpca.LongitudinalSeries(f"c{i}", t, np.full(20, 70.0))
                  for i in range(30)]
        system = fpca.fit_eigensystem(series)
        assert system.zero_variation and system.em_steps == 0
        assert system.n_components == 0
        assert np.allclose(system.mean, 70.0, atol=1e-6)

    def test_too_few_subjects(self):
        t = np.linspace(-100, 100, 5)
        with pytest.raises(ValueError):
            fpca.fit_eigensystem([fpca.LongitudinalSeries("a", t, np.full(5, 60.0))])

    def test_em_cycle_cap_raises(self, monkeypatch):
        _, _, series = make_population(n=40, seed=3)
        monkeypatch.setattr(fpca, "EM_MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError):
            fpca.fit_eigensystem(series)

    def test_uncovered_basis_is_ill_conditioned(self):
        # Observations only before conception leave the later B-splines
        # without data.
        _, _, series = make_population(n=40, seed=4)
        early = [fpca.LongitudinalSeries(s.subject_id, s.times[s.times < -100],
                                         s.values[s.times < -100]) for s in series]
        with pytest.raises(IllConditionedError):
            fpca.fit_eigensystem(early)


def random_spd_stack(rng, size, n):
    """L x L x n stack of SPD matrices, the subject index last."""
    a = rng.standard_normal((n, size, size + 3))
    return np.ascontiguousarray((a @ a.transpose(0, 2, 1)).transpose(1, 2, 0))


class TestEStepKernel:
    def test_inverse_cholesky_matches_lapack(self):
        rng = np.random.default_rng(0)
        n = 37                                       # not a multiple of any chunk
        gram = random_spd_stack(rng, fpca.N_BASIS, n)
        prior = random_spd_stack(rng, fpca.N_BASIS, 1)[:, :, 0]
        stack = gram + prior[:, :, None]
        expected = np.linalg.inv(np.linalg.cholesky(stack.transpose(2, 0, 1)))
        got = fpca._inverse_cholesky(gram, prior, np.full_like(gram, np.nan))
        np.testing.assert_allclose(got.transpose(2, 0, 1), expected, rtol=1e-9, atol=1e-12)
        assert np.all(np.triu(got.transpose(2, 0, 1), 1) == 0.0)

    def test_non_positive_definite_member_raises(self):
        gram = random_spd_stack(np.random.default_rng(1), 5, 9)
        gram[:, :, 6] = 1.0                          # rank one: the second pivot is 0
        with pytest.raises(np.linalg.LinAlgError):
            fpca._inverse_cholesky(gram, np.zeros((5, 5)), np.empty_like(gram))

    def test_chunked_em_step_matches_per_subject_update(self, monkeypatch):
        # 37 subjects in chunks of 16: the last chunk is partial.
        rng = np.random.default_rng(2)
        lo, hi = fpca.TIME_DOMAIN
        n = 37
        counts = rng.integers(3, 12, size=n)
        subj = np.repeat(np.arange(n), counts)
        t = rng.uniform(lo, hi, subj.size)
        y = rng.normal(0.0, 2.0, subj.size)
        basis = fpca.bspline_basis(t, lo, hi)
        size = fpca.N_BASIS
        mean = rng.normal(0.0, 1.0, size)
        cov = random_spd_stack(rng, size, 1)[:, :, 0] + np.eye(size)
        noise = 0.7
        monkeypatch.setattr(fpca, "E_STEP_CHUNK", 16)
        got = fpca._em_step(fpca._subject_stats(basis, y, subj, n), subj.size, mean, cov, noise)

        prior = noise * np.linalg.inv(cov)
        ds, vs, sq_err = [], [], 0.0
        for i in range(n):
            b, yi = basis[subj == i], y[subj == i]
            m_inv = np.linalg.inv(b.T @ b + prior)
            d = m_inv @ (b.T @ (yi - b @ mean))
            v = noise * m_inv
            ds.append(d)
            vs.append(v)
            sq_err += np.sum((yi - b @ (mean + d)) ** 2) + np.trace(b.T @ b @ v)
        ds = np.array(ds)
        shift = ds.mean(axis=0)
        cov_new = (ds - shift).T @ (ds - shift) / n + np.mean(vs, axis=0)
        np.testing.assert_allclose(got[0], mean + shift, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got[1], cov_new, rtol=1e-9, atol=1e-12)
        assert got[2] == pytest.approx(sq_err / subj.size, rel=1e-9)


class TestPaceScores:
    def test_observations_on_mean_give_zero_scores(self, fitted):
        _, _, _, system = fitted
        t = system.grid[::10]
        series = fpca.LongitudinalSeries("mean", t, np.interp(t, system.grid,
                                                              system.mean))
        xi, omega = fpca.pace_scores(series, system)
        assert np.allclose(xi, 0.0, atol=1e-8)
        assert omega.shape == (3, 3)
        evals = np.linalg.eigvalsh(omega)
        assert evals.min() > -1e-8 * max(evals.max(), 1.0)

    def test_dense_noiseless_recovery_against_truth(self):
        # Score a noiseless full-grid subject against the exactly-known
        # eigensystem: conditional expectation must return the true scores.
        model = TrajectoryModel(noise_sd=0.0)
        truth = model.true_eigensystem()
        rng = np.random.default_rng(5)
        for _ in range(5):
            xi_true = model.draw_scores(1, rng)[0]
            vals = truth.mean + xi_true @ truth.eigenfunctions
            series = fpca.LongitudinalSeries("d", truth.grid, np.maximum(vals, 1.0))
            with pytest.warns(UserWarning, match="pseudoinverse"):
                xi, _ = fpca.pace_scores(series, truth)
            assert np.max(np.abs(xi - xi_true) / np.maximum(np.abs(xi_true), 1.0)) < 1e-3

    def test_degenerates_to_least_squares_on_full_grid(self):
        model = TrajectoryModel(noise_sd=0.0)
        truth = model.true_eigensystem()
        rng = np.random.default_rng(9)
        xi_true = model.draw_scores(1, rng)[0]
        vals = truth.mean + xi_true @ truth.eigenfunctions + rng.normal(0, 0.3, truth.grid.size)
        series = fpca.LongitudinalSeries("d", truth.grid, np.maximum(vals, 1.0))
        with pytest.warns(UserWarning, match="pseudoinverse"):
            xi, _ = fpca.pace_scores(series, truth)
        phi = truth.eigenfunctions.T  # G x K design
        resid = series.values - truth.mean
        ols, *_ = np.linalg.lstsq(phi, resid, rcond=None)
        assert np.max(np.abs(xi - ols)) < 1e-6

    def test_single_observation_shrinks_toward_zero(self, fitted):
        model, scores, series, system = fitted
        rng = np.random.default_rng(3)
        xi_true = model.draw_scores(1, rng)[0]
        t_dense = system.grid
        dense_vals = model.curve(xi_true, t_dense)
        dense = fpca.LongitudinalSeries("dense", t_dense, np.maximum(dense_vals, 1.0))
        xi_dense, _ = fpca.pace_scores(dense, system)
        single = fpca.LongitudinalSeries("one", np.array([50.0]),
                                         np.array([float(model.curve(xi_true, np.array([50.0]))[0])]))
        xi_one, omega_one = fpca.pace_scores(single, system)
        assert np.all(np.isfinite(xi_one))
        assert np.linalg.norm(xi_one) < np.linalg.norm(xi_dense)

    def test_no_observations_in_domain(self, fitted):
        _, _, _, system = fitted
        series = fpca.LongitudinalSeries("out", np.array([500.0]), np.array([70.0]))
        with pytest.raises(DomainError):
            fpca.pace_scores(series, system)


class TestInterpolationTable:
    def test_values_at_matches_np_interp(self, fitted):
        _, _, _, system = fitted
        grid = system.grid
        between = 0.5 * (grid[:-1] + grid[1:]) + 0.1
        for t in (grid, between, np.array([grid[0], grid[-1]]),
                  np.array([grid[-1], grid[0], grid[50]])):
            values = system._values_at(t)
            expected = [np.interp(t, grid, row)
                        for row in (system.mean, *system.eigenfunctions)]
            np.testing.assert_allclose(values, np.array(expected), rtol=1e-14, atol=1e-12)
        np.testing.assert_array_equal(system._values_at(grid)[0], system.mean)

    def test_nan_time_is_outside_the_domain(self, fitted):
        _, _, _, system = fitted
        for f in (system.mean_at, system.eigen_at,
                  lambda t: reconstruct(np.zeros(3), system, t)):
            with pytest.raises(DomainError):
                f(np.nan)
            with pytest.raises(DomainError):
                f(np.array([0.0, np.nan]))

    def test_views_keep_domain_checks(self, fitted):
        _, _, _, system = fitted
        assert system.eigen_at(np.array([0.0, 10.0])).shape == (3, 2)
        assert np.ndim(system.mean_at(0.0)) == 0
        for f in (system.mean_at, system.eigen_at):
            with pytest.raises(DomainError):
                f(np.array([0.0, system.grid[-1] + 1.0]))


class TestReconstruct:
    def test_zero_scores_give_mean(self, fitted):
        _, _, _, system = fitted
        t = np.array([-100.0, 0.0, 150.0])
        np.testing.assert_allclose(reconstruct(np.zeros(3), system, t),
                                   system.mean_at(t))

    def test_known_subject_reconstruction_error(self, fitted):
        model, scores, series, system = fitted
        rng = np.random.default_rng(8)
        xi_true = model.draw_scores(1, rng)[0]
        t = np.linspace(-360, 270, 40)
        obs = fpca.LongitudinalSeries("k", t, np.maximum(model.curve(xi_true, t), 1.0))
        xi, _ = fpca.pace_scores(obs, system)
        pred = reconstruct(xi, system, t)
        assert np.max(np.abs(pred - model.curve(xi_true, t))) < 0.5

    def test_out_of_domain_raises(self, fitted):
        _, _, _, system = fitted
        with pytest.raises(DomainError):
            reconstruct(np.zeros(3), system, 300.0)


def dense_gain_and_scores(series, system, g):
    """Gain and scores from a dense solve and a reconstruction at both endpoints."""
    lo, hi = system.domain()
    t = series.times + (g - fpca.FULL_TERM_DAYS)
    keep = (t >= lo) & (t <= hi)
    t = t[keep]
    resid = series.values[keep] - system.mean_at(t)
    xi = np.empty(0)
    if system.n_components:
        phi = system.eigen_at(t)
        lam_phi = phi * system.eigenvalues[:, None]
        cov = lam_phi.T @ phi
        if system.noise_var > 0:
            xi = lam_phi @ np.linalg.solve(cov + system.noise_var * np.eye(t.size), resid)
        else:
            xi = lam_phi @ (np.linalg.pinv(cov, rcond=1e-10) @ resid)
    ends = reconstruct(xi, system, np.array([g - 1.0, 0.0]))
    return (ends[0] - ends[1]) / (g / 7.0), xi, bool(keep.all())


def brute_force_flags(series, system, level):
    """Backward deletion that re-inverts the kept points' covariance each round."""
    lo, hi = system.domain()
    inside = np.flatnonzero((series.times >= lo) & (series.times <= hi))
    t = series.times[inside]
    phi = system.eigen_at(t)
    cov = (phi.T * system.eigenvalues) @ phi + system.noise_var * np.eye(t.size)
    resid = series.values[inside] - system.mean_at(t)
    z = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
    kept = list(range(t.size))
    while kept:
        prec = np.linalg.inv(cov[np.ix_(kept, kept)])
        score = np.abs(prec @ resid[kept]) / np.sqrt(np.diag(prec))
        worst = int(np.argmax(score))
        if not score[worst] > z:
            break
        del kept[worst]
    return sorted(set(inside.tolist()) - set(inside[kept].tolist()))


class TestWeightChange:
    def test_flat_trajectory_zero_gain(self):
        grid = np.linspace(*fpca.TIME_DOMAIN, 101)
        system = fpca.EigenSystem(
            grid=grid, mean=np.full(101, 70.0),
            eigenvalues=np.array([1.0]),
            eigenfunctions=np.full((1, 101), 1.0 / np.sqrt(grid[-1] - grid[0])),
            noise_var=0.04, fve=np.array([1.0]))
        t = np.linspace(-300, 250, 12)
        series = fpca.LongitudinalSeries("flat", t, np.full(12, 70.0))
        assert fpca.weight_change(series, system) == pytest.approx(0.0, abs=1e-8)

    def test_linear_gain_recovered(self):
        # A linear 0.35 kg/week ramp: the full-term average weekly change
        # lands within the stated tolerance of the slope.
        grid = np.linspace(*fpca.TIME_DOMAIN, 101)
        slope = 0.35 / 7.0
        system = fpca.EigenSystem(
            grid=grid, mean=60.0 + slope * (grid + 365.0),
            eigenvalues=np.array([1e-6]),
            eigenfunctions=np.full((1, 101), 1.0 / np.sqrt(grid[-1] - grid[0])),
            noise_var=1e-6, fve=np.array([1.0]))
        t = np.linspace(-350, 260, 25)
        series = fpca.LongitudinalSeries("lin", t, 60.0 + slope * (t + 365.0))
        assert fpca.weight_change(series, system, 273) == pytest.approx(0.35, abs=0.02)

    def test_reanchoring_uses_validated_gestation(self, fitted):
        model, _, _, system = fitted
        rng = np.random.default_rng(21)
        xi_true = model.draw_scores(1, rng)[0]
        t = np.linspace(-300, 265, 30)
        series = fpca.LongitudinalSeries("g", t, np.maximum(model.curve(xi_true, t), 1.0))
        # g = 259: endpoints W(258) and W(0) on the re-anchored clock, with a
        # 37-week divisor.  Compare against direct evaluation of the truth.
        got = fpca.weight_change(series, system, 259)
        shift = 259 - 273
        w_hi = float(model.curve(xi_true, np.array([258.0 - shift]))[0])
        w_lo = float(model.curve(xi_true, np.array([0.0 - shift]))[0])
        assert got == pytest.approx((w_hi - w_lo) / (259 / 7), abs=0.05)

    def test_deterministic(self, fitted):
        _, _, series, system = fitted
        a = fpca.weight_change(series[0], system, 266)
        b = fpca.weight_change(series[0], system, 266)
        assert a == b

    def test_scores_are_those_of_the_shifted_series(self, fitted):
        _, _, series, system = fitted
        for s, g in zip(series[:20], (259, 266, 273, 270, 245) * 4):
            _, xi = fpca.gain_and_scores(s, system, g)
            shifted = fpca.LongitudinalSeries(s.subject_id, s.times + (g - 273), s.values)
            expected, _ = fpca.pace_scores(shifted, system)
            np.testing.assert_allclose(xi, expected, rtol=0, atol=1e-10)

    def test_matches_the_dense_reference_exactly(self, fitted):
        model, _, series, system = fitted
        one_point = fpca.LongitudinalSeries("one", np.array([50.0]), np.array([70.0]))
        flat = fpca.EigenSystem(grid=system.grid, mean=system.mean, eigenvalues=np.empty(0),
                                eigenfunctions=np.empty((0, system.grid.size)),
                                noise_var=0.25, fve=np.empty(0))
        cases = [(s, system, g) for s, g in zip(series[:30], (14, 100, 245, 266, 273) * 6)]
        cases += [(one_point, system, 273), (one_point, system, 150),
                  (series[0], flat, 273), (series[1], flat, 40), (one_point, flat, 273)]
        left_domain = 0
        for s, sys_, g in cases:
            gain, xi = fpca.gain_and_scores(s, sys_, g)
            want_gain, want_xi, all_inside = dense_gain_and_scores(s, sys_, g)
            assert gain == want_gain
            assert xi.shape == want_xi.shape and np.all(xi == want_xi)
            left_domain += not all_inside
        assert left_domain >= 10

    def test_noise_free_system_matches_the_pseudoinverse_reference(self):
        truth = TrajectoryModel(noise_sd=0.0).true_eigensystem()
        _, _, series = make_population(n=5, noise=0.5, seed=4)
        for s, g in zip(series, (14, 150, 259, 266, 273)):
            with pytest.warns(UserWarning, match="pseudoinverse"):
                gain, xi = fpca.gain_and_scores(s, truth, g)
            want_gain, want_xi, _ = dense_gain_and_scores(s, truth, g)
            assert gain == want_gain and np.all(xi == want_xi)

    def test_nan_gestation_raises(self, fitted):
        _, _, series, system = fitted
        with pytest.raises(DomainError, match="gestation length nan"):
            fpca.weight_change(series[0], system, float("nan"))

    def test_domain_after_day_zero_raises(self):
        grid = np.linspace(10.0, 300.0, 30)
        system = fpca.EigenSystem(grid=grid, mean=np.full(30, 70.0), eigenvalues=np.empty(0),
                                  eigenfunctions=np.empty((0, 30)), noise_var=0.25,
                                  fve=np.empty(0))
        series = fpca.LongitudinalSeries("late", np.array([20.0, 200.0]), np.array([70.0, 71.0]))
        with pytest.raises(DomainError, match="fitted domain"):
            fpca.weight_change(series, system)

    def test_gestation_out_of_range(self, fitted):
        _, _, series, system = fitted
        with pytest.raises(DomainError):
            fpca.weight_change(series[0], system, 280)
        with pytest.raises(DomainError):
            fpca.weight_change(series[0], system, 10)


class TestFlagOutliers:
    def _clean_subject(self, model, system, seed=13, m=12):
        rng = np.random.default_rng(seed)
        xi = model.draw_scores(1, rng)[0]
        t = np.sort(rng.uniform(-350, 265, m))
        vals = np.maximum(model.curve(xi, t), 1.0)
        return fpca.LongitudinalSeries("o", t, vals)

    def test_noiseless_subject_not_flagged(self, fitted):
        model, _, _, system = fitted
        series = self._clean_subject(model, system)
        assert fpca.flag_outliers(series, system) == []

    def test_single_large_contamination_flagged(self, fitted):
        model, _, _, system = fitted
        series = self._clean_subject(model, system)
        vals = series.values.copy()
        vals[4] += 30.0
        bad = fpca.LongitudinalSeries("o", series.times, vals)
        assert fpca.flag_outliers(bad, system) == [4]

    def test_five_point_scenario(self, fitted):
        # One erroneous high value and four verified-but-unusual low values
        # all sit outside the band: exactly those five flags.
        model, _, _, system = fitted
        series = self._clean_subject(model, system, seed=29, m=14)
        vals = series.values.copy()
        vals[2] += 30.0
        for j in (5, 7, 9, 11):
            vals[j] -= 8.0
        bad = fpca.LongitudinalSeries("o", series.times, vals)
        assert fpca.flag_outliers(bad, system) == [2, 5, 7, 9, 11]

    def test_noise_free_system_flags_only_the_contamination(self):
        # Without a noise term each point is pinned by the others: a subject
        # in the span of the components is clean, and one gross error is
        # the only point that misses its prediction.
        truth = TrajectoryModel(noise_sd=0.0).true_eigensystem()
        t = np.sort(np.random.default_rng(13).uniform(-350, 265, 12))
        vals = truth.mean_at(t) + np.array([8.0, -3.0, 1.5]) @ truth.eigen_at(t)
        assert fpca.flag_outliers(fpca.LongitudinalSeries("o", t, vals), truth) == []
        vals[4] += 30.0
        assert fpca.flag_outliers(fpca.LongitudinalSeries("o", t, vals), truth) == [4]

    def test_zero_variation_fit_flags_only_off_mean_points(self):
        t = np.linspace(-300.0, 250.0, 20)
        system = fpca.fit_eigensystem(
            [fpca.LongitudinalSeries(f"c{i}", t, np.full(20, 70.0)) for i in range(30)])
        assert system.zero_variation and system.noise_var == 0.0
        on_mean = fpca.LongitudinalSeries("c0", t[::3], np.full(7, 70.0))
        assert fpca.flag_outliers(on_mean, system) == []
        vals = np.full(7, 70.0)
        vals[[2, 5]] += [0.5, -4.0]
        assert fpca.flag_outliers(fpca.LongitudinalSeries("d", t[::3], vals),
                                  system) == [2, 5]

    def test_matches_brute_force_backward_deletion(self, fitted):
        model, _, _, system = fitted
        rng = np.random.default_rng(41)
        subjects = []
        for seed in range(20):
            clean = self._clean_subject(model, system, seed=100 + seed, m=6 + seed % 15)
            vals = clean.values.copy()
            bad = rng.choice(vals.size, size=1 + seed % 3, replace=False)
            vals[bad] += rng.choice([-1.0, 1.0], bad.size) * rng.uniform(4.0, 30.0, bad.size)
            subjects.append(fpca.LongitudinalSeries(f"c{seed}", clean.times, vals))
        # Points outside the domain at both ends, one of them far off the
        # curve: never flagged, and the flags index the whole series.
        clean = self._clean_subject(model, system, seed=7, m=10)
        times = np.r_[-400.0, clean.times, 300.0]
        vals = np.r_[150.0, clean.values, 71.0]
        vals[[3, 8]] += 30.0
        outside = fpca.LongitudinalSeries("out", times, vals)
        assert fpca.flag_outliers(outside, system) == [3, 8]
        subjects.append(outside)
        flagged = 0
        for s in subjects:
            for level in (0.95, 0.8):
                got = fpca.flag_outliers(s, system, level)
                assert got == brute_force_flags(s, system, level)
                flagged += len(got)
        assert flagged >= 30

    def test_level_validation(self, fitted):
        _, _, series, system = fitted
        with pytest.raises(ValueError):
            fpca.flag_outliers(series[0], system, level=1.5)
