import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import models, multiframe, raking
from twophase.errors import CalibrationError


def raking_distance(g, base_weights) -> float:
    """Primal objective ``sum_i d(g_i w_i, w_i)`` with the exponential distance."""
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(base_weights, dtype=np.float64)
    return float(np.sum(w * (g * np.log(g) - g + 1.0)))


def dual_objective(lam, design_weights, sample_aux, population_totals) -> float:
    """Value of the concave dual at ``lam`` (equals the primal at the optimum)."""
    a = np.atleast_2d(np.asarray(sample_aux, dtype=np.float64))
    d = np.asarray(design_weights, dtype=np.float64)
    if a.shape[0] != d.shape[0]:
        a = a.T
    t = np.asarray(population_totals, dtype=np.float64)
    return float(lam @ t - d @ (np.exp(a @ lam) - 1.0))


def calibrate(pi, aux, sampled, **kwargs):
    """Calibrate ``1/pi`` of the ``sampled`` rows to the population totals of ``aux``."""
    aux = np.asarray(aux, dtype=np.float64)
    return raking.calibrate_weights(1.0 / pi, aux[sampled], aux.sum(axis=0), **kwargs)


def bisection_lambda(pi, h, total, lo=-50.0, hi=50.0, tol=1e-12):
    """1-d root of sum_sampled (1/pi) exp(h lam) h = total, by bisection."""
    def f(lam):
        return float(np.sum((1 / pi) * np.exp(h * lam) * h) - total)
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


class TestCalibrate:
    def test_presatisfied_constraint_gives_unit_g(self):
        # Two records with pi = 1/2 each: sum_sampled 1/pi == N == 4 already.
        pi = np.array([0.5, 0.5])
        aux = np.ones((4, 1))
        sampled = np.array([True, True, False, False])
        res = calibrate(pi, aux, sampled)
        np.testing.assert_allclose(res.g, 1.0, atol=1e-12)
        np.testing.assert_allclose(res.lam, 0.0, atol=1e-12)

    def test_constant_only_rescales_uniformly(self):
        pi = np.array([0.25, 0.5])
        aux = np.ones((5, 1))
        sampled = np.array([True, True, False, False, False])
        res = calibrate(pi, aux, sampled)
        assert res.g[0] == pytest.approx(res.g[1])
        assert np.sum(res.g / pi) == pytest.approx(5.0, abs=1e-7)

    def test_two_record_scalar_aux_matches_bisection(self):
        pi = np.array([0.4, 0.8])
        h = np.array([1.0, -2.0])
        # Population of 5: the two sampled plus three unsampled values.
        h_pop = np.array([1.0, -2.0, 0.3, 0.3, -0.5])
        total = h_pop.sum()
        lam = bisection_lambda(pi, h, total)
        aux = h_pop.reshape(-1, 1)
        sampled = np.array([True, True, False, False, False])
        res = calibrate(pi, aux, sampled, tol=1e-13)
        assert res.lam[0] == pytest.approx(lam, abs=1e-10)

    def test_constraint_holds_to_tolerance(self):
        rng = np.random.default_rng(0)
        n, n2 = 400, 80
        aux = np.column_stack([np.ones(n), rng.normal(size=n)])
        sampled = np.zeros(n, dtype=bool)
        sampled[rng.choice(n, n2, replace=False)] = True
        pi = np.full(n2, n2 / n) * rng.uniform(0.8, 1.2, n2)
        pi = np.clip(pi, 0.01, 1.0)
        res = calibrate(pi, aux, sampled)
        tot = (res.g / pi)[:, None] * aux[sampled]
        np.testing.assert_allclose(tot.sum(axis=0), aux.sum(axis=0),
                                   rtol=1e-8, atol=1e-8)
        assert res.constraint_residual < 1e-8

    def test_primal_dual_gap_vanishes(self):
        rng = np.random.default_rng(5)
        n, n2 = 300, 60
        aux = np.column_stack([np.ones(n), rng.normal(size=n),
                               rng.uniform(size=n)])
        sampled = np.zeros(n, dtype=bool)
        sampled[rng.choice(n, n2, replace=False)] = True
        pi = np.clip(rng.uniform(0.1, 0.4, n2), 0.01, 1)
        res = calibrate(pi, aux, sampled)
        w = 1 / pi
        primal = raking_distance(res.g, w)
        dual = dual_objective(res.lam, w, aux[sampled], aux.sum(axis=0))
        # Strong duality: primal == dual at the optimum, up to the
        # constant shift sum(d(w,w)) == 0.
        assert abs(primal - dual) < 1e-8 * max(1.0, abs(dual))

    def test_collinear_column_dropped_without_changing_g(self):
        rng = np.random.default_rng(9)
        n, n2 = 200, 50
        base = np.column_stack([np.ones(n), rng.normal(size=n)])
        sampled = np.zeros(n, dtype=bool)
        sampled[rng.choice(n, n2, replace=False)] = True
        pi = np.full(n2, 0.25)
        res1 = calibrate(pi, base, sampled)
        dup = np.column_stack([base, base[:, 1] * 2.0])
        with pytest.warns(UserWarning, match="collinear"):
            res2 = calibrate(pi, dup, sampled)
        np.testing.assert_allclose(res2.g, res1.g, atol=1e-9)
        assert list(res2.kept_columns) == [0, 1]

    def test_unreachable_totals_raise(self):
        # All sampled aux values are negative but the population total is
        # positive: no exponential tilt can bridge the gap.
        aux = np.concatenate([-np.ones(5), np.full(45, 10.0)]).reshape(-1, 1)
        sampled = np.zeros(50, dtype=bool)
        sampled[:5] = True
        pi = np.full(5, 0.1)
        with pytest.raises(CalibrationError):
            calibrate(pi, aux, sampled)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_constraint_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        n = 150
        n2 = 40
        aux = np.column_stack([np.ones(n), rng.normal(size=n)])
        sampled = np.zeros(n, dtype=bool)
        sampled[rng.choice(n, n2, replace=False)] = True
        pi = np.clip(rng.uniform(0.15, 0.6, n2), 0.01, 1)
        res = calibrate(pi, aux, sampled)
        assert res.constraint_residual < 1e-8
        assert np.all(res.g > 0)


def two_phase_survival(seed, n=600, n2=150):
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.normal(size=n), rng.integers(0, 2, n).astype(float)])
    t = rng.exponential(scale=np.exp(-(0.5 * x[:, 0] - 0.3 * x[:, 1])))
    c = rng.exponential(scale=2.0, size=n)
    time, event = np.minimum(t, c), (t <= c).astype(float)
    # Stratify phase 2 on the event indicator.
    strata = event.astype(int)
    pi = np.where(event == 1, 0.5, n2 / n)
    sampled = rng.uniform(size=n) < pi
    return time, event, x, pi, sampled, strata


def one_frame_ipw(time, event, x, pi, sampled, strata):
    """IPW through the weighted-estimation core on a one-frame design."""
    design = multiframe.FrameDesign("P", pi, strata, sampled)
    _, sample = multiframe.weighted_sample([design], np.ones(time.size, dtype=bool))
    rows = sample.rows
    fit, _, _ = raking.weighted_fit("cox", time[rows], event[rows], x[rows], sample)
    return fit


class TestIpwAndRakingFits:
    def test_census_equals_mle(self):
        time, event, x, *_ = two_phase_survival(3, n=200)
        mle = models.fit_cox(time, event, x)
        ipw = one_frame_ipw(time, event, x, np.ones(200), np.ones(200, dtype=bool),
                            np.zeros(200, dtype=int))
        np.testing.assert_allclose(ipw.coefficients, mle.coefficients, atol=1e-9)

    def test_census_raking_equals_mle_any_aux(self):
        rng = np.random.default_rng(8)
        time, event, x, *_ = two_phase_survival(4, n=150)
        aux = np.column_stack([np.ones(150), rng.normal(size=150)])
        fit, cal = raking.raking_fit("cox", time, event, x, np.ones(150), aux,
                                     aux.sum(axis=0))
        mle = models.fit_cox(time, event, x)
        np.testing.assert_allclose(fit.coefficients, mle.coefficients, atol=1e-7)
        np.testing.assert_allclose(cal.g, 1.0, atol=1e-9)

    def test_ipw_rejects_bad_pi(self):
        time, event, x, *_ = two_phase_survival(6, n=50)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            one_frame_ipw(time, event, x, np.full(50, 1.5), np.ones(50, dtype=bool),
                          np.zeros(50, dtype=int))

    def test_ipw_unbiased_over_replicates(self):
        # Known truth beta = 0.5 for the first covariate.
        reps = 120
        est = np.empty(reps)
        for r in range(reps):
            time, event, x, pi, sampled, strata = two_phase_survival(1000 + r)
            fit = one_frame_ipw(time, event, x, pi, sampled, strata)
            est[r] = fit.coefficients[0]
        mcse = est.std(ddof=1) / np.sqrt(reps)
        assert abs(est.mean() - 0.5) < 3 * mcse

    def test_raking_with_informative_aux_beats_ipw(self):
        reps = 80
        ipw_est = np.empty(reps)
        rak_est = np.empty(reps)
        for r in range(reps):
            time, event, x, pi, sampled, strata = two_phase_survival(7000 + r)
            # Auxiliary: influence from the (error-free here) full-data fit,
            # strongly correlated with the target influence.
            full = models.fit_cox(time, event, x)
            h = models.influence_for_target(full, 0)
            aux = np.column_stack([np.ones(len(time)), h])
            ipw = one_frame_ipw(time, event, x, pi, sampled, strata)
            fit, _ = raking.raking_fit("cox", time[sampled], event[sampled],
                                       x[sampled], 1 / pi[sampled], aux[sampled],
                                       aux.sum(axis=0), strata=strata[sampled])
            ipw_est[r] = ipw.coefficients[0]
            rak_est[r] = fit.coefficients[0]
        assert rak_est.var(ddof=1) < ipw_est.var(ddof=1)

    def test_noise_aux_does_not_blow_up_variance(self):
        reps = 60
        ipw_est = np.empty(reps)
        rak_est = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(9000 + r)
            time, event, x, pi, sampled, strata = two_phase_survival(9000 + r)
            aux = np.column_stack([np.ones(len(time)), rng.normal(size=len(time))])
            ipw = one_frame_ipw(time, event, x, pi, sampled, strata)
            fit, _ = raking.raking_fit("cox", time[sampled], event[sampled],
                                       x[sampled], 1 / pi[sampled], aux[sampled],
                                       aux.sum(axis=0), strata=strata[sampled])
            ipw_est[r] = ipw.coefficients[0]
            rak_est[r] = fit.coefficients[0]
        # Pure-noise calibration is asymptotically a no-op: allow MC slack.
        assert rak_est.var(ddof=1) < 1.35 * ipw_est.var(ddof=1)


def two_frame_designs(seed, n=600):
    """A primary frame over everyone and a secondary frame over a subset."""
    time, event, x, pi, sampled, strata = two_phase_survival(seed, n=n)
    rng = np.random.default_rng(seed + 1)
    member = rng.uniform(size=n) < 0.5
    pi_s = np.where(member, 0.3, np.nan)
    sampled_s = member & (rng.uniform(size=n) < 0.3)
    frames = [multiframe.FrameDesign("O", pi, strata, sampled),
              multiframe.FrameDesign("A", pi_s, np.where(member, strata, -1), sampled_s)]
    return time, event, x, frames


class TestWeightedCore:
    @pytest.mark.parametrize("aux", [False, True])
    def test_draw_order_is_data(self, aux):
        time, event, x, frames = two_frame_designs(31)
        h = models.influence_for_target(models.fit_cox(time, event, x), 0) if aux else None
        analysis = np.ones(time.size, dtype=bool)
        order = np.random.default_rng(2).permutation(time.size)
        results = []
        for o in (None, order):
            _, sample = multiframe.weighted_sample(frames, analysis, order=o)
            rows = sample.rows
            fit, _, _ = raking.weighted_fit("cox", time[rows], event[rows], x[rows],
                                            sample, h)
            results.append(fit)
        assert results[0].coefficients.size == 2
        np.testing.assert_allclose(results[1].coefficients, results[0].coefficients,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(results[1].se, results[0].se, rtol=1e-12, atol=1e-12)

    def test_raking_returns_the_calibrated_weights(self):
        time, event, x, frames = two_frame_designs(32)
        h = models.influence_for_target(models.fit_cox(time, event, x), 0)
        _, sample = multiframe.weighted_sample(frames, np.ones(time.size, dtype=bool))
        rows = sample.rows
        fit, weights, cal = raking.weighted_fit("cox", time[rows], event[rows], x[rows],
                                                sample, h)
        np.testing.assert_array_equal(weights, sample.weights * cal.g)
        # The calibrated weights reproduce the population totals of [1, h].
        np.testing.assert_allclose(weights @ np.column_stack([np.ones(rows.size), h[rows]]),
                                   [time.size, h.sum()], rtol=1e-8, atol=1e-8)
        refit = models.fit_cox(time[rows], event[rows], x[rows], weights)
        np.testing.assert_allclose(fit.coefficients, refit.coefficients, rtol=1e-12)
