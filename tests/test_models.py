import warnings

import numpy as np
import pytest

from twophase import kernels, models
from twophase.errors import ConvergenceError


def cox_loglik_score_info(beta, time, event, x, weights):
    """Breslow partial-likelihood value, score, and information at ``beta``."""
    order, ev, xs, starts, group_index = models._prepare_cox(time, event, x)
    w = np.asarray(weights, dtype=np.float64)[order]
    eta = xs @ np.asarray(beta, dtype=np.float64)
    return kernels.cox_breslow(kernels.risk_sets(ev, w, xs, starts, group_index), eta)[:3]


def hazard_ratio(beta: float, delta: float = 1.0) -> float:
    """Effect size on the ratio scale for a covariate change of ``delta``."""
    return float(np.exp(beta * delta))


def breslow_loglik_direct(beta, time, event, x, w):
    """O(n^2) Breslow partial likelihood, independent of the package path."""
    beta = np.atleast_1d(beta)
    eta = x @ beta
    ll = 0.0
    for i in range(len(time)):
        if event[i]:
            risk = time >= time[i]
            ll += w[i] * (eta[i] - np.log(np.sum(w[risk] * np.exp(eta[risk]))))
    return ll


def logistic_loglik_direct(beta, y, x, w):
    eta = x @ np.atleast_1d(beta)
    return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))


def small_survival_data(seed=5, n=20):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    t = rng.exponential(scale=np.exp(-0.6 * x[:, 0]))
    c = rng.exponential(scale=1.5, size=n)
    time = np.minimum(t, c)
    event = (t <= c).astype(float)
    if event.sum() == 0:
        event[0] = 1.0
    return time, event, x


class TestCox:
    def test_matches_grid_search_oracle(self):
        time, event, x = small_survival_data()
        w = np.ones(len(time))
        fit = models.fit_cox(time, event, x, w)
        # Two-stage grid maximization of the same likelihood, independent path.
        grid = np.arange(-4.0, 4.0, 1e-3)
        vals = [breslow_loglik_direct(np.array([b]), time, event, x, w) for b in grid]
        best = grid[int(np.argmax(vals))]
        fine = np.arange(best - 2e-3, best + 2e-3, 2e-5)
        vals = [breslow_loglik_direct(np.array([b]), time, event, x, w) for b in fine]
        best = fine[int(np.argmax(vals))]
        assert abs(fit.coefficients[0] - best) < 1e-4

    def test_loglik_matches_direct(self):
        time, event, x = small_survival_data(seed=11)
        w = np.ones(len(time)) + 0.5
        beta = np.array([0.3])
        ll, _, _ = cox_loglik_score_info(beta, time, event, x, w)
        assert ll == pytest.approx(breslow_loglik_direct(beta, time, event, x, w))

    def test_ties_use_breslow(self):
        time = np.array([1.0, 1.0, 2.0, 3.0])
        event = np.array([1.0, 1.0, 1.0, 0.0])
        x = np.array([[0.5], [-0.2], [0.1], [0.9]])
        w = np.array([1.0, 2.0, 1.0, 1.0])
        beta = np.array([0.4])
        ll, _, _ = cox_loglik_score_info(beta, time, event, x, w)
        assert ll == pytest.approx(breslow_loglik_direct(beta, time, event, x, w))

    def test_score_matches_finite_differences(self):
        time, event, x = small_survival_data(seed=3, n=40)
        x = np.column_stack([x, np.random.default_rng(1).normal(size=len(time))])
        w = np.random.default_rng(2).uniform(0.5, 2.0, size=len(time))
        rng = np.random.default_rng(9)
        eps = 1e-6
        for _ in range(10):
            beta = rng.uniform(-1, 1, size=2)
            _, score, _ = cox_loglik_score_info(beta, time, event, x, w)
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                up, *_ = cox_loglik_score_info(beta + e, time, event, x, w)
                dn, *_ = cox_loglik_score_info(beta - e, time, event, x, w)
                fd = (up - dn) / (2 * eps)
                assert abs(score[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_information_matches_finite_differences(self):
        # Weighted data with tied times: info is minus the Jacobian of the score.
        time, event, x = small_survival_data(seed=4, n=60)
        time = np.round(time, 1) + 0.05
        assert np.unique(time).size < time.size
        x = np.column_stack([x, np.random.default_rng(6).normal(size=len(time))])
        w = np.random.default_rng(7).uniform(0.5, 2.0, size=len(time))
        rng = np.random.default_rng(8)
        eps = 1e-6
        for _ in range(10):
            beta = rng.uniform(-1, 1, size=2)
            _, _, info = cox_loglik_score_info(beta, time, event, x, w)
            jac = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                _, up, _ = cox_loglik_score_info(beta + e, time, event, x, w)
                _, dn, _ = cox_loglik_score_info(beta - e, time, event, x, w)
                jac[:, j] = (up - dn) / (2 * eps)
            np.testing.assert_allclose(info, -jac, rtol=1e-6, atol=1e-6)

    def test_null_covariate_near_zero(self):
        rng = np.random.default_rng(42)
        n = 4000
        x = rng.normal(size=(n, 1))
        t = rng.exponential(size=n)
        c = rng.exponential(scale=2.0, size=n)
        fit = models.fit_cox(np.minimum(t, c), (t <= c).astype(float), x)
        assert abs(fit.coefficients[0]) < 3 * fit.se[0]

    def test_influence_sums_to_zero(self):
        time, event, x = small_survival_data(seed=8, n=60)
        fit = models.fit_cox(time, event, x)
        h = fit.influence[:, 0]
        assert abs(h.sum()) < 1e-8 * np.abs(h).sum()

    def test_duplicated_half_weight_rows_halve_influence(self):
        time, event, x = small_survival_data(seed=13, n=25)
        fit = models.fit_cox(time, event, x)
        time2 = np.concatenate([time, time])
        event2 = np.concatenate([event, event])
        x2 = np.vstack([x, x])
        w2 = np.full(2 * len(time), 0.5)
        fit2 = models.fit_cox(time2, event2, x2, w2)
        np.testing.assert_allclose(fit2.coefficients, fit.coefficients, atol=1e-8)
        np.testing.assert_allclose(fit2.influence[:len(time)], fit.influence / 2,
                                   atol=1e-9)

    def test_integer_weights_equal_row_replication(self):
        time, event, x = small_survival_data(seed=21, n=15)
        w = np.array([1, 2, 3] * 5, dtype=float)
        fit_w = models.fit_cox(time, event, x, w)
        reps = np.repeat(np.arange(15), w.astype(int))
        fit_r = models.fit_cox(time[reps], event[reps], x[reps])
        np.testing.assert_allclose(fit_w.coefficients, fit_r.coefficients, atol=1e-8)

    def test_covariate_rescaling(self):
        time, event, x = small_survival_data(seed=2, n=50)
        x2 = np.column_stack([x, np.random.default_rng(5).normal(size=50)])
        fit = models.fit_cox(time, event, x2)
        fit.variance = models.sandwich_variance(fit)
        scaled = x2.copy()
        scaled[:, 0] *= 4.0
        fit_s = models.fit_cox(time, event, scaled)
        fit_s.variance = models.sandwich_variance(fit_s)
        assert fit_s.coefficients[0] == pytest.approx(fit.coefficients[0] / 4.0, abs=1e-7)
        assert fit_s.coefficients[1] == pytest.approx(fit.coefficients[1], abs=1e-7)
        assert fit_s.se[0] == pytest.approx(fit.se[0] / 4.0, rel=1e-6)

    def test_zero_events_raises(self):
        with pytest.raises(ConvergenceError):
            models.fit_cox(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                           np.array([[1.0], [2.0]]))

    def test_monotone_likelihood_raises(self):
        # Covariate perfectly ordered with event times: likelihood is monotone.
        time = np.arange(1.0, 13.0)
        event = np.ones(12)
        x = np.arange(12.0).reshape(-1, 1)
        with pytest.raises(ConvergenceError, match="Cox linear predictor spread") as exc:
            models.fit_cox(time, event, x)
        assert exc.value.iterations >= 1
        assert exc.value.gradient_norm is not None and np.isfinite(exc.value.gradient_norm)


    def test_converged_fit_reports_gradient_norm(self):
        time, event, x = small_survival_data(seed=3, n=40)
        w = np.random.default_rng(2).uniform(0.5, 2.0, size=40)
        fit = models.fit_cox(time, event, x, w)
        _, score, _ = cox_loglik_score_info(fit.coefficients, time, event, x, w)
        assert fit.gradient_norm == np.max(np.abs(score))
        assert 0.0 <= fit.gradient_norm < models.GRAD_TOL


class TestNonFiniteInputs:
    """Every fit input is checked before Newton starts, and named."""

    @staticmethod
    def _cox_data():
        time, event, x = small_survival_data(seed=6, n=30)
        return {"time": time, "event": event, "x": x, "weights": np.ones(30)}

    @pytest.mark.parametrize("name,bad,match", [
        ("time", np.nan, "time must be finite"),
        ("time", np.inf, "time must be finite"),
        ("event", np.nan, "event must be finite"),
        ("x", np.nan, "x must be finite"),
        ("x", -np.inf, "x must be finite"),
        ("weights", np.nan, "weights must be positive and finite"),
        ("weights", np.inf, "weights must be positive and finite"),
    ])
    def test_cox(self, name, bad, match):
        data = self._cox_data()
        data[name] = np.array(data[name], dtype=np.float64)
        data[name].flat[2] = bad
        with pytest.raises(ValueError, match=match):
            models.fit("cox", data["time"], data["event"], data["x"], data["weights"])

    @pytest.mark.parametrize("name,bad,match", [
        ("y", np.nan, "y must be finite"),
        ("x", np.nan, "x must be finite"),
        ("x", np.inf, "x must be finite"),
        ("weights", np.nan, "weights must be positive and finite"),
        ("weights", np.inf, "weights must be positive and finite"),
    ])
    def test_logistic(self, name, bad, match):
        rng = np.random.default_rng(8)
        data = {"y": (np.arange(30) % 2).astype(float),
                "x": np.column_stack([np.ones(30), rng.normal(size=30)]),
                "weights": np.ones(30)}
        data[name].flat[3] = bad
        with pytest.raises(ValueError, match=match):
            models.fit_logistic(data["y"], data["x"], data["weights"])


def _fit_newton_model(model, x):
    """Fit ``model`` on 50 records with covariate column ``x``."""
    rng = np.random.default_rng(3)
    n = x.shape[0]
    if model == "cox":
        return models.fit_cox(rng.exponential(size=n), np.ones(n), x)
    y = (np.arange(n) % 2).astype(float)
    return models.fit_logistic(y, np.column_stack([np.ones(n), x]))


@pytest.mark.parametrize("model,word", [("cox", "Cox"), ("logistic", "logistic")])
class TestNewtonFailure:
    """The shared Newton driver's failures carry their diagnostics."""

    def test_exhausted_step_halving(self, model, word):
        # Covariates near 1e200 overflow the information matrix, so no
        # step from beta = 0 gives a finite log-likelihood.
        x = np.random.default_rng(4).normal(size=(50, 1)) * 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(ConvergenceError,
                               match=f"{word} step-halving exhausted") as exc:
                _fit_newton_model(model, x)
        assert exc.value.iterations == 0
        assert exc.value.gradient_norm > 1e100

    def test_iteration_limit(self, model, word, monkeypatch):
        x = np.random.default_rng(5).normal(size=(50, 1))
        converged = _fit_newton_model(model, x)
        assert converged.iterations > 1
        monkeypatch.setattr(models, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match=f"{word} Newton-Raphson did not converge in 1 ") as exc:
            _fit_newton_model(model, x)
        assert exc.value.iterations == 1
        assert exc.value.gradient_norm >= models.GRAD_TOL


@pytest.mark.parametrize("model,word", [("cox", "Cox"), ("logistic", "logistic")])
class TestSingularInformation:
    """An all-zero covariate column makes the information matrix singular.

    Each fallback warns once per fit, names the model and points at the
    fit's caller.
    """

    @staticmethod
    def _fit(model):
        x = np.random.default_rng(6).normal(size=50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = _fit_newton_model(model, np.column_stack([x, np.zeros(50)]))
        assert all(w.filename == __file__ for w in caught)
        return fit, [str(w.message) for w in caught]

    def test_least_squares_step_warns_once_per_fit(self, model, word):
        fit, messages = self._fit(model)
        assert fit.iterations > 1
        assert [m for m in messages if "Newton" in m] == [
            f"{word} information matrix is singular; Newton steps use a "
            "least-squares solution"]
        assert fit.coefficients[-1] == 0.0

    def test_pseudoinverse_variance_warns_naming_the_model(self, model, word):
        fit, messages = self._fit(model)
        assert [m for m in messages if "variance" in m] == [
            f"{word} information matrix is singular; the variance uses a pseudoinverse"]
        assert fit.variance[-1, -1] == 0.0
        assert np.all(np.isfinite(fit.se))


@pytest.mark.parametrize("kind", ["cox", "logistic"])
class TestWarmStart:
    """``start`` moves where Newton begins, not where it ends."""

    @staticmethod
    def _data(kind):
        rng = np.random.default_rng(8)
        n = 400
        x = rng.normal(size=(n, 2))
        if kind == "cox":
            t = rng.exponential(scale=np.exp(-(0.5 * x[:, 0] - 0.3 * x[:, 1])))
            c = rng.exponential(scale=1.5, size=n)
            return np.minimum(t, c), (t <= c).astype(float), x
        p = 1.0 / (1.0 + np.exp(-(0.2 + x @ np.array([0.8, -0.5]))))
        return (rng.uniform(size=n) < p).astype(float), None, np.column_stack([np.ones(n), x])

    def test_start_at_the_optimum_takes_at_most_one_step(self, kind):
        data = self._data(kind)
        cold = models.fit(kind, *data)
        warm = models.fit(kind, *data, start=cold.coefficients)
        assert cold.iterations > 1
        assert warm.iterations <= 1
        assert warm.gradient_norm < models.GRAD_TOL
        np.testing.assert_allclose(warm.coefficients, cold.coefficients,
                                   rtol=0, atol=models.GRAD_TOL)
        np.testing.assert_allclose(warm.influence, cold.influence, rtol=1e-9)

    def test_nearby_start_reaches_the_cold_optimum(self, kind):
        data = self._data(kind)
        cold = models.fit(kind, *data)
        start = cold.coefficients + 0.3
        warm = models.fit(kind, *data, start=start)
        assert warm.iterations >= 1
        assert warm.gradient_norm < models.GRAD_TOL
        np.testing.assert_allclose(warm.coefficients, cold.coefficients,
                                   rtol=0, atol=models.GRAD_TOL)
        assert np.array_equal(start, cold.coefficients + 0.3)  # not changed in place

    def test_bad_start_rejected(self, kind):
        time_or_y, event, x = self._data(kind)
        p = x.shape[1]
        for start, match in ((np.zeros(p - 1), "start must hold"),
                             (np.zeros((1, p)), "start must hold"),
                             (np.r_[np.nan, np.zeros(p - 1)], "start must be finite")):
            with pytest.raises(ValueError, match=match):
                models.fit(kind, time_or_y, event, x, start=start)


class TestLogistic:
    def test_intercept_only_weighted_prevalence(self):
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        w = np.array([2.0, 1.0, 1.0, 0.5, 3.0])
        fit = models.fit_logistic(y, np.ones((5, 1)), w)
        prev = np.sum(w * y) / np.sum(w)
        assert fit.coefficients[0] == pytest.approx(np.log(prev / (1 - prev)), abs=1e-8)

    def test_matches_nested_grid_oracle(self):
        rng = np.random.default_rng(17)
        n = 30
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(0.2 + 0.8 * x[:, 1])))).astype(float)
        w = rng.uniform(0.5, 1.5, size=n)
        fit = models.fit_logistic(y, x, w)
        # Nested grid search, coarse to fine, on the same likelihood.
        b_range = [(-3.0, 3.0), (-3.0, 3.0)]
        center = np.zeros(2)
        width = 3.0
        for _ in range(6):
            g0 = np.linspace(center[0] - width, center[0] + width, 41)
            g1 = np.linspace(center[1] - width, center[1] + width, 41)
            vals = np.array([[logistic_loglik_direct(np.array([a, b]), y, x, w)
                              for b in g1] for a in g0])
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            center = np.array([g0[i], g1[j]])
            width /= 8.0
        del b_range
        np.testing.assert_allclose(fit.coefficients, center, atol=1e-4)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n = 50
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 0.4).astype(float)
        w = rng.uniform(0.5, 2.0, size=n)
        xt = np.ascontiguousarray(x.T)
        eps = 1e-6
        for _ in range(10):
            beta = rng.uniform(-1, 1, size=2)
            _, score, _, _ = models.logistic_loglik_score_info(beta, y, x, xt, w)
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                up = models.logistic_loglik_score_info(beta + e, y, x, xt, w)[0]
                dn = models.logistic_loglik_score_info(beta - e, y, x, xt, w)[0]
                fd = (up - dn) / (2 * eps)
                assert abs(score[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("eta", [-800.0, -40.0, -0.0, 0.0, 40.0, 800.0])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_loglik_and_prob_exact_on_both_tails(self, eta, y):
        # One record with x = eta and beta = 1, so eta reaches the formula as is.
        x = np.array([[eta]])
        w = np.array([1.5])
        e = x @ np.array([1.0])
        with np.errstate(over="ignore"):  # prob's e^800 at eta = -800
            ll, _, _, (_, prob) = models.logistic_loglik_score_info(
                np.array([1.0]), np.array([y]), x, np.ascontiguousarray(x.T), w)
            log1p_exp = np.where(e > 0, e + np.log1p(np.exp(-np.abs(e))),
                                 np.log1p(np.exp(e)))
            ref_prob = 1.0 / (1.0 + np.exp(-e))
        assert ll == float(w @ (y * e - log1p_exp))
        assert np.array_equal(prob, ref_prob)

    def test_information_matches_dense_sum(self):
        rng = np.random.default_rng(12)
        n = 300
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = (rng.uniform(size=n) < 0.4).astype(float)
        w = rng.uniform(0.5, 3.0, size=n)
        beta = np.array([-0.3, 0.8, -0.5])
        _, _, info, (_, prob) = models.logistic_loglik_score_info(
            beta, y, x, np.ascontiguousarray(x.T), w)
        ref = sum(w[i] * prob[i] * (1 - prob[i]) * np.outer(x[i], x[i]) for i in range(n))
        np.testing.assert_allclose(info, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_perfect_separation_raises(self):
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        x = np.column_stack([np.ones(6), np.array([-3.0, -2, -1, 1, 2, 3])])
        with pytest.raises(ConvergenceError, match="logistic linear predictor spread") as exc:
            models.fit_logistic(y, x)
        assert exc.value.iterations >= 1
        assert exc.value.gradient_norm is not None and np.isfinite(exc.value.gradient_norm)

    def test_single_class_raises(self):
        # Rejected before Newton starts, so no iteration diagnostics.
        with pytest.raises(ConvergenceError, match="single value") as exc:
            models.fit_logistic(np.ones(4), np.ones((4, 1)))
        assert exc.value.iterations is None and exc.value.gradient_norm is None

    def test_converged_fit_reports_gradient_norm(self):
        rng = np.random.default_rng(31)
        n = 80
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = models.fit_logistic(y, x)
        _, score, _, _ = models.logistic_loglik_score_info(
            fit.coefficients, y, x, np.ascontiguousarray(x.T), np.ones(n))
        assert fit.gradient_norm == np.max(np.abs(score))
        assert 0.0 <= fit.gradient_norm < models.GRAD_TOL

    def test_influence_sums_to_zero(self):
        rng = np.random.default_rng(31)
        n = 80
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = models.fit_logistic(y, x)
        for j in range(2):
            h = models.influence_for_target(fit, j)
            assert abs(h.sum()) < 1e-8 * max(np.abs(h).sum(), 1e-12)


class TestSandwich:
    def test_single_stratum_equals_classic_sandwich(self):
        rng = np.random.default_rng(7)
        n = 120
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = models.fit_logistic(y, x)
        v = models.sandwich_variance(fit)
        _, _, info, (_, prob) = models.logistic_loglik_score_info(
            fit.coefficients, y, x, np.ascontiguousarray(x.T), np.ones(n))
        u = (y - prob)[:, None] * x
        a_inv = np.linalg.inv(info)
        classic = a_inv @ (u.T @ u) @ a_inv
        np.testing.assert_allclose(v, classic * n / (n - 1), rtol=1e-8)

    def test_doubling_weights_leaves_fit_and_se_unchanged(self):
        time, event, x = small_survival_data(seed=19, n=40)
        w = np.random.default_rng(3).uniform(1, 4, size=40)
        strata = np.repeat([0, 1], 20)
        f1 = models.fit_cox(time, event, x, w)
        f1.variance = models.sandwich_variance(f1, strata)
        f2 = models.fit_cox(time, event, x, 2 * w)
        f2.variance = models.sandwich_variance(f2, strata)
        np.testing.assert_allclose(f1.coefficients, f2.coefficients, atol=1e-9)
        np.testing.assert_allclose(f1.se, f2.se, rtol=1e-7)

    def test_single_record_stratum_pools_with_warning(self):
        rng = np.random.default_rng(23)
        n = 30
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = models.fit_logistic(y, x)
        strata = np.zeros(n, dtype=int)
        strata[0] = 9
        with pytest.warns(UserWarning, match="pooled"):
            v = models.sandwich_variance(fit, strata)
        np.testing.assert_allclose(v, models.sandwich_variance(fit))

    def test_monte_carlo_se_calibration(self):
        rng = np.random.default_rng(1234)
        n = 300
        reps = 500
        betas = np.empty(reps)
        ses = np.empty(reps)
        for r in range(reps):
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            p = 1 / (1 + np.exp(-(0.3 + 0.7 * x[:, 1])))
            y = (rng.uniform(size=n) < p).astype(float)
            fit = models.fit_logistic(y, x)
            fit.variance = models.sandwich_variance(fit)
            betas[r] = fit.coefficients[1]
            ses[r] = fit.se[1]
        assert abs(betas.std(ddof=1) - ses.mean()) < 0.15 * ses.mean()


def test_target_index_out_of_range():
    fit = models.fit_logistic(np.array([0.0, 1.0, 0, 1]), np.ones((4, 1)))
    with pytest.raises(IndexError):
        models.influence_for_target(fit, 3)


def test_reporting_transforms_match_published_effects():
    assert round(hazard_ratio(0.87, 0.25), 2) == 1.24
    assert round(hazard_ratio(1.06, 0.25), 2) == 1.30
    assert round(hazard_ratio(-0.54, 0.25), 2) == 0.87


class TestAnalysisSpec:
    COLUMNS = {"y": np.array([3.0, 4.0, 5.0]), "y_star": np.array([3.5, 4.5, 5.5]),
               "delta": np.array([1.0, 0.0, 1.0]), "delta_star": np.array([1.0, 1.0, 0.0]),
               "x": np.array([0.1, 0.2, 0.3]), "x_star": np.array([0.15, 0.25, 0.35]),
               "z_0": np.array([1.0, 2.0, 3.0]), "z_star_0": np.array([1.5, 2.5, 3.5]),
               "z_1": np.array([0.0, 1.0, 1.0]), "z_star_1": np.array([-0.5, 1.0, 2.0]),
               "in_frame": np.array([True, False, True])}

    def test_phase1_reads_the_star_columns(self):
        cox = models.AnalysisSpec("cox", "y", "delta", ("x", "z_0"), target=0)
        assert cox.phase1() == models.AnalysisSpec("cox", "y_star", "delta_star",
                                                   ("x_star", "z_star_0"), target=0)
        y, event, x = cox.phase1().arrays(self.COLUMNS, [2, 0])
        np.testing.assert_array_equal(y, [5.5, 3.5])
        np.testing.assert_array_equal(event, [0.0, 1.0])
        np.testing.assert_array_equal(x, [[0.35, 3.5], [0.15, 1.5]])
        assert cox.coefficient == 0
        np.testing.assert_array_equal(cox.members(self.COLUMNS), [True] * 3)

    def test_logistic_design_has_intercept_and_clipped_outcome(self):
        spec = models.AnalysisSpec("logistic", "z_1", None, ("x", "z_0"), target=0,
                                   intercept=True, frame="in_frame")
        y, event, x = spec.phase1().arrays(self.COLUMNS)
        np.testing.assert_array_equal(y, [0.0, 1.0, 1.0])
        assert event is None
        np.testing.assert_array_equal(x, [[1.0, 0.15, 1.5], [1.0, 0.25, 2.5],
                                          [1.0, 0.35, 3.5]])
        assert spec.coefficient == 1
        np.testing.assert_array_equal(spec.members(self.COLUMNS), [True, False, True])
