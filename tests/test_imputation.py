from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from twophase import imputation as imp
from twophase import models
from twophase.errors import ConvergenceError


def toy_population(n=2000, seed=0, error_sd=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x_star = x + rng.normal(0, error_sd, n)
    b = (rng.uniform(size=n) < 1 / (1 + np.exp(-(0.5 + 1.2 * x)))).astype(float)
    b_star = np.where(rng.uniform(size=n) < 0.9, b, 1 - b)
    validated = np.zeros(n, dtype=bool)
    validated[rng.choice(n, 400, replace=False)] = True
    data = {"x": x, "x_star": x_star, "b": b, "b_star": b_star}
    return data, validated


# Each target conditions on all phase-1 columns plus earlier imputed draws.
SPECS = [
    imp.VariableSpec("x", "continuous", ("x_star", "b_star")),
    imp.VariableSpec("b", "binary", ("b_star", "x")),
]


class TestFitImputation:
    def test_recovers_conditional_law(self):
        data, validated = toy_population(n=6000, seed=3)
        model = imp.fit_imputation(data, validated, SPECS)
        fit = model.fits["x"]
        # True conditional: E[x | x*] = x* * 1/(1+sd^2); with sd=0.3, slope ~0.917.
        slope_true = 1 / (1 + 0.3 ** 2)
        se = fit.resid_sd / np.sqrt(validated.sum())
        assert abs(fit.coef[1] - slope_true) < 4 * se

    def test_surrogate_identical_to_target(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        data = {"x": x, "x_star": x.copy()}
        validated = np.zeros(500, dtype=bool)
        validated[:200] = True
        model = imp.fit_imputation(data, validated,
                                   [imp.VariableSpec("x", "continuous", ("x_star",))])
        one = imp.impute_once(data, model, {"x": np.random.default_rng(0).standard_normal(500)})
        np.testing.assert_allclose(one["x"], x, atol=1e-6)

    def test_constant_target_warns_and_imputes_constant(self):
        data = {"c": np.full(100, 2.0), "z": np.arange(100.0)}
        validated = np.zeros(100, dtype=bool)
        validated[:40] = True
        with pytest.warns(UserWarning, match="constant"):
            model = imp.fit_imputation(
                data, validated, [imp.VariableSpec("c", "continuous", ("z",))])
        out = imp.impute_once(data, model, {})
        assert np.all(out["c"] == 2.0)

    def test_too_few_validated(self):
        data, validated = toy_population(n=2000)
        validated[:] = False
        validated[:10] = True
        with pytest.raises(ValueError, match="validated"):
            imp.fit_imputation(data, validated, SPECS)


class TestImpute:
    def test_deterministic_per_seed(self):
        data, validated = toy_population(seed=5)
        model = imp.fit_imputation(data, validated, SPECS)
        a = imp.impute(data, model, 2, seed=42)
        b = imp.impute(data, model, 2, seed=42)
        for da, db in zip(a, b):
            for k in da:
                np.testing.assert_array_equal(da[k], db[k])

    def test_replicates_differ(self):
        data, validated = toy_population(seed=5)
        model = imp.fit_imputation(data, validated, SPECS)
        a, b = imp.impute(data, model, 2, seed=42)
        assert not np.allclose(a["x"], b["x"])

    def test_replicates_are_yielded_one_at_a_time(self):
        data, validated = toy_population(seed=5)
        model = imp.fit_imputation(data, validated, SPECS)
        replicates = imp.impute(data, model, 3, seed=42)
        first = next(replicates)
        np.testing.assert_array_equal(first["x"], next(imp.impute(data, model, 3, seed=42))["x"])
        assert len(list(replicates)) == 2

    def test_fewer_than_two_replicates_rejected(self):
        data, validated = toy_population(seed=5)
        model = imp.fit_imputation(data, validated, SPECS)
        with pytest.raises(ValueError, match="two imputation replicates"):
            next(imp.impute(data, model, 1, seed=42))

    def test_scores_are_stratified_across_replicates(self):
        # Each record's m scores are the m midpoint quantiles, in an order
        # of its own; a binary target is its fitted probability.
        data, validated = toy_population(seed=5)
        model = imp.fit_imputation(data, validated, SPECS)
        m = 5
        outs = list(imp.impute(data, model, m, seed=42))
        fit = model.fits["x"]
        eta = np.column_stack([np.ones(validated.size), data["x_star"], data["b_star"]]) @ fit.coef
        scores = np.sort(np.array([(o["x"] - eta) / fit.resid_sd for o in outs]), axis=0)
        quantiles = [NormalDist().inv_cdf((k + 0.5) / m) for k in range(m)]
        np.testing.assert_allclose(scores, np.repeat(np.array(quantiles)[:, None],
                                                     validated.size, axis=1), atol=1e-9)
        orders = {tuple(np.argsort([(o["x"][i] - eta[i]) for o in outs])) for i in range(50)}
        assert len(orders) > 20
        b = model.fits["b"]
        for o in outs:
            p = 1.0 / (1.0 + np.exp(-np.column_stack([np.ones(validated.size), data["b_star"],
                                                      o["x"]]) @ b.coef))
            np.testing.assert_allclose(o["b"], p, rtol=1e-12)

    def test_degenerate_binary_probability(self):
        rng = np.random.default_rng(2)
        data = {"b": np.zeros(200), "z": rng.normal(size=200)}
        validated = np.zeros(200, dtype=bool)
        validated[:80] = True
        with pytest.warns(UserWarning, match="constant"):
            model = imp.fit_imputation(
                data, validated, [imp.VariableSpec("b", "binary", ("z",))])
        out = imp.impute_once(data, model, {})
        assert np.all(out["b"] == 0.0)

    def test_validated_reimputed_by_default_passthrough_optional(self):
        # Validated records are re-imputed like everyone else; there is no
        # pass-through of their observed values.
        data, validated = toy_population(seed=9)
        model = imp.fit_imputation(data, validated, SPECS)
        scores = {"x": np.random.default_rng(0).standard_normal(validated.size)}
        default = imp.impute_once(data, model, scores)
        assert not np.allclose(default["x"][validated], data["x"][validated])

    def test_imputed_mean_matches_weighted_phase2_mean(self):
        data, validated = toy_population(n=4000, seed=13)
        model = imp.fit_imputation(data, validated, SPECS)
        outs = imp.impute(data, model, 30, seed=17)
        imputed_mean = np.mean([o["x"].mean() for o in outs])
        # Phase-2 records were an SRS here: their mean is the oracle.
        target = data["x"][validated].mean()
        se = data["x"][validated].std(ddof=1) / np.sqrt(validated.sum())
        assert abs(imputed_mean - target) < 3 * se

    def test_derived_target(self):
        data, validated = toy_population(seed=21)
        specs = SPECS + [imp.VariableSpec(
            "x2", "derived", derive=lambda cols: cols["x"] ** 2)]
        model = imp.fit_imputation(data, validated, specs)
        out = imp.impute_once(data, model,
                              {"x": np.random.default_rng(4).standard_normal(validated.size)})
        np.testing.assert_allclose(out["x2"], out["x"] ** 2)


class TestMiInfluence:
    def _analysis(self):
        return models.AnalysisSpec(kind="logistic", outcome="b", event=None,
                                   covariates=("x",), target=0, intercept=True)

    def test_streaming_equals_batch_average(self):
        data, validated = toy_population(seed=31)
        model = imp.fit_imputation(data, validated, SPECS)
        m = 6
        h = imp.mi_influence(data, model, m, self._analysis(), seed=3)
        parts = []
        for completed in imp.impute(data, model, m, seed=3):
            fit = models.fit_logistic(completed["b"],
                                      np.column_stack([np.ones(len(completed["x"])),
                                                       completed["x"]]))
            parts.append(models.influence_for_target(fit, 1))
        np.testing.assert_allclose(h, np.mean(parts, axis=0), atol=1e-12)

    def test_perfect_surrogates_match_naive_influence(self):
        rng = np.random.default_rng(7)
        n = 3000
        x = rng.normal(size=n)
        b = (rng.uniform(size=n) < 1 / (1 + np.exp(-(0.2 + 0.9 * x)))).astype(float)
        data = {"x": x, "x_star": x.copy(), "b": b, "b_star": b.copy()}
        validated = np.zeros(n, dtype=bool)
        validated[rng.choice(n, 500, replace=False)] = True
        model = imp.fit_imputation(data, validated, SPECS)
        h_mi = imp.mi_influence(data, model, 20, self._analysis(), seed=5)
        fit = models.fit_logistic(b, np.column_stack([np.ones(n), x]))
        h_naive = models.influence_for_target(fit, 1)
        corr = np.corrcoef(h_mi, h_naive)[0, 1]
        assert corr > 0.95

    def test_mi_beats_naive_when_error_heavy(self):
        # With heavy phase-1 error, the multiply-imputed influence tracks
        # the true-data influence better than the naive one.
        rng = np.random.default_rng(11)
        n = 4000
        x = rng.normal(size=n)
        x_star = x + rng.normal(0, 1.2, n)
        b = (rng.uniform(size=n) < 1 / (1 + np.exp(-(0.3 + 1.1 * x)))).astype(float)
        b_star = np.where(rng.uniform(size=n) < 0.75, b, 1 - b)
        data = {"x": x, "x_star": x_star, "b": b, "b_star": b_star}
        validated = np.zeros(n, dtype=bool)
        validated[rng.choice(n, 800, replace=False)] = True
        model = imp.fit_imputation(data, validated, SPECS)
        h_mi = imp.mi_influence(data, model, 20, self._analysis(), seed=5)
        star_fit = models.fit_logistic(b_star, np.column_stack([np.ones(n), x_star]))
        h_star = models.influence_for_target(star_fit, 1)
        true_fit = models.fit_logistic(b, np.column_stack([np.ones(n), x]))
        h_true = models.influence_for_target(true_fit, 1)
        assert np.corrcoef(h_mi, h_true)[0, 1] > np.corrcoef(h_star, h_true)[0, 1]

    def test_quasi_separated_target_keeps_every_replicate_correlated(self):
        # Every record with delta_star = 1 has delta = 1, so the logistic
        # imputation model of delta is quasi-separated.  Each replicate's
        # influence still tracks the census influence about as well as the
        # naive one; a coefficient draw from the Wald covariance took some
        # replicates to 0.73 of it.
        rng = np.random.default_rng(61)
        n = 3000
        x = rng.normal(size=n)
        x_star = x + rng.normal(0, 0.2, n)
        delta = (rng.uniform(size=n) < 1 / (1 + np.exp(-(-0.5 + x)))).astype(float)
        delta_star = np.where(rng.uniform(size=n) < 0.8, delta, 0.0)
        validated = np.zeros(n, dtype=bool)
        validated[rng.choice(n, 300, replace=False)] = True
        assert np.all(delta[validated & (delta_star == 1)] == 1)
        data = {"x": x, "x_star": x_star, "delta": delta, "delta_star": delta_star}
        model = imp.fit_imputation(data, validated, [
            imp.VariableSpec("x", "continuous", ("x_star",)),
            imp.VariableSpec("delta", "binary", ("delta_star", "x"))])

        def influence(outcome, covariate):
            fit = models.fit_logistic(outcome, np.column_stack([np.ones(n), covariate]))
            return models.influence_for_target(fit, 1)
        h_true = influence(delta, x)
        naive = np.corrcoef(influence(delta_star, x_star), h_true)[0, 1]
        for completed in imp.impute(data, model, 20, seed=5):
            h = influence(completed["delta"], completed["x"])
            assert np.corrcoef(h, h_true)[0, 1] > 0.9 * naive

    def test_failed_replicates_dropped_with_flag(self):
        data, validated = toy_population(seed=41)
        model = imp.fit_imputation(data, validated, SPECS)
        calls = {"n": 0}
        orig = imp._analysis_influence

        def flaky(completed, base, spec, start):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("boom")
            return orig(completed, base, spec, start)

        imp._analysis_influence = flaky
        try:
            with pytest.warns(UserWarning, match="dropped"):
                h = imp.mi_influence(data, model, 5, self._analysis(), seed=9)
        finally:
            imp._analysis_influence = orig
        assert np.all(np.isfinite(h))

    def test_majority_failure_aborts(self):
        data, validated = toy_population(seed=43)
        model = imp.fit_imputation(data, validated, SPECS)
        orig = imp._analysis_influence
        imp._analysis_influence = lambda *a: (_ for _ in ()).throw(
            ConvergenceError("boom"))
        try:
            with pytest.raises(ConvergenceError):
                with pytest.warns(UserWarning, match="dropped"):
                    imp.mi_influence(data, model, 4, self._analysis(), seed=9)
        finally:
            imp._analysis_influence = orig


def framed_population(seed=51, n=2000):
    """``toy_population`` plus a frame flag ``f`` and a follow-up time ``t``."""
    data, validated = toy_population(n=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    data["f"] = rng.uniform(size=n) < 0.7
    data["t"] = rng.exponential(scale=np.exp(-0.6 * data["x"]))
    return data, validated


class TestFramedWarmStartedMi:
    """MI refits cover the analysis frame only, warm-started from the first one."""

    FRAMED = models.AnalysisSpec(kind="logistic", outcome="b", event=None, covariates=("x",),
                                 target=0, intercept=True, frame="f")
    COX = models.AnalysisSpec(kind="cox", outcome="t", event="b", covariates=("x",), target=0)

    def test_full_columns_equal_the_frame_slice(self):
        data, validated = framed_population()
        model = imp.fit_imputation(data, validated, SPECS)
        full = imp.mi_influence(data, model, 6, self.FRAMED, seed=3)
        frame = data["f"]
        sliced = imp.mi_influence({k: v[frame] for k, v in data.items()}, model, 6,
                                  self.FRAMED, seed=3)
        assert full.shape == (int(frame.sum()),)
        np.testing.assert_array_equal(full, sliced)

    def test_all_member_frame_refits_read_the_callers_arrays(self, monkeypatch):
        # The CLI passes the frame's rows alone, so every row is a member:
        # the refits read the caller's columns, not a copy of them.
        data, validated = framed_population()
        model = imp.fit_imputation(data, validated, SPECS)
        frame = data["f"]
        sliced = {k: v[frame] for k, v in data.items()}
        orig = imp._analysis_influence
        bases = []

        def recording(completed, base, spec, start):
            bases.append(base)
            return orig(completed, base, spec, start)

        monkeypatch.setattr(imp, "_analysis_influence", recording)
        h = imp.mi_influence(sliced, model, 6, self.FRAMED, seed=3)
        assert len(bases) == 6
        for base in bases:
            assert base.keys() == sliced.keys()
            assert all(base[k] is sliced[k] for k in sliced)
        # The same result as refits on an all-True mask's copy of the columns.
        monkeypatch.setattr(imp, "_analysis_influence", orig)
        copied = {k: v[np.ones(v.size, dtype=bool)] for k, v in sliced.items()}
        unframed = replace(self.FRAMED, frame=None)
        np.testing.assert_array_equal(h, imp.mi_influence(copied, model, 6, unframed, seed=3))

    @pytest.mark.parametrize("spec", [FRAMED, COX], ids=["framed-logistic", "cox"])
    def test_warm_start_matches_cold_fits(self, spec):
        data, validated = framed_population()
        model = imp.fit_imputation(data, validated, SPECS)
        m = 6
        h = imp.mi_influence(data, model, m, spec, seed=3)
        rows = spec.members(data)
        base = {k: v[rows] for k, v in data.items()}
        parts = []
        for completed in imp.impute(base, model, m, seed=3):
            fit = models.fit(spec.kind, *spec.arrays({**base, **completed}))
            parts.append(fit.influence[:, spec.coefficient])
        cold = np.mean(parts, axis=0)
        assert np.max(np.abs(h - cold)) <= 1e-9 * np.max(np.abs(cold))

    def test_first_converged_refit_is_the_start(self, monkeypatch):
        data, validated = framed_population()
        model = imp.fit_imputation(data, validated, SPECS)
        orig = imp._analysis_influence
        starts, coefficients = [], []

        def first_fails(completed, base, spec, start):
            starts.append(start)
            if len(starts) == 1:
                raise ConvergenceError("boom")
            h, beta = orig(completed, base, spec, start)
            coefficients.append(beta)
            return h, beta

        monkeypatch.setattr(imp, "_analysis_influence", first_fails)
        with pytest.warns(UserWarning, match="1 of 5 imputation replicates dropped"):
            imp.mi_influence(data, model, 5, self.FRAMED, seed=9)
        assert starts[:2] == [None, None]
        assert len(starts) == 5
        for start in starts[2:]:
            np.testing.assert_array_equal(start, coefficients[0])

