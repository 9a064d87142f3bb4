import dataclasses
import multiprocessing
import os
import pickle
import signal
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import forking, fpca, simulate
from twophase.errors import (
    ConvergenceError,
    DomainError,
    IllConditionedError,
    UnidentifiedModelError,
)
from twophase.simulate import TrajectoryModel

from alarm import deadline


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

    def test_rules_checked_in_order(self):
        cases = [([], [np.nan], "needs at least one observation"),
                 ([1.0, 1.0], [-1.0], "times/values length mismatch"),
                 ([2.0, 1.0], [0.0, np.nan], "finite and strictly increasing"),
                 ([1.0, 2.0], [60.0, np.inf], "weights must be finite and positive")]
        for times, values, rule in cases:
            with pytest.raises(fpca.SeriesError, match=rule) as caught:
                fpca.LongitudinalSeries("a", np.array(times), np.array(values))
            assert caught.value.subject_id == "a"


def flat_buffer(n_points, times_seed):
    """Valid flat arrays for subjects with ``n_points`` points each: times
    strictly increasing within a subject, drawn afresh for every subject
    (so they fall at most subject boundaries), and positive weights."""
    rng = np.random.default_rng(times_seed)
    times = np.concatenate([np.sort(rng.choice(np.arange(-365.0, 273.0), m, replace=False))
                            for m in n_points] + [np.empty(0)])
    values = rng.uniform(40.0, 120.0, times.size)
    return times, values, np.concatenate(([0], np.cumsum(n_points))).astype(np.intp)


# (where, value): a time or a weight replaced at a random point of a subject.
FAULTS = [("time", np.nan), ("time", np.inf), ("time", -np.inf), ("time", "tie"),
          ("time", "fall"), ("weight", 0.0), ("weight", -2.0), ("weight", np.nan),
          ("weight", np.inf), ("weight", -np.inf)]


def per_subject(ids, times, values, offsets):
    """The constructor applied to one subject at a time: the reference.
    Returns the series, or ``(subject, message)`` of the first rejected one."""
    out = []
    for sid, a, b in zip(ids, offsets[:-1].tolist(), offsets[1:].tolist()):
        try:
            out.append(fpca.LongitudinalSeries(sid, times[a:b].copy(), values[a:b].copy()))
        except ValueError as exc:
            return sid, str(exc)
    return out


class TestSeriesFromFlat:
    @settings(max_examples=300, deadline=None)
    @given(n_points=st.lists(st.integers(1, 12), min_size=1, max_size=30),
           times_seed=st.integers(0, 2 ** 32 - 1),
           faults=st.lists(st.tuples(st.sampled_from(range(len(FAULTS) + 1)),
                                     st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                           max_size=3))
    def test_bulk_and_per_subject_agree(self, n_points, times_seed, faults):
        times, values, _ = flat_buffer(n_points, times_seed)
        for kind, subject, point in faults:
            i = subject % len(n_points)
            if kind == len(FAULTS):          # empty the subject's segment: 0 points
                a = sum(n_points[:i])
                times = np.delete(times, np.s_[a:a + n_points[i]])
                values = np.delete(values, np.s_[a:a + n_points[i]])
                n_points[i] = 0
                continue
            if n_points[i] == 0:
                continue
            where, value = FAULTS[kind]
            p = sum(n_points[:i]) + point % n_points[i]
            if where == "weight":
                values[p] = value
            elif value in ("tie", "fall"):
                if n_points[i] < 2:
                    continue
                p = max(p, sum(n_points[:i]) + 1)
                times[p] = times[p - 1] - (1.0 if value == "fall" else 0.0)
            else:
                times[p] = value
        offsets = np.concatenate(([0], np.cumsum(n_points))).astype(np.intp)
        ids = [f"s{i}" for i in range(len(n_points))]
        want = per_subject(ids, times, values, offsets)
        if isinstance(want, tuple):
            with pytest.raises(fpca.SeriesError) as caught:
                fpca.series_from_flat(ids, times, values, offsets)
            assert (caught.value.subject_id, str(caught.value)) == want
            return
        got = fpca.series_from_flat(ids, times, values, offsets)
        assert [s.subject_id for s in got] == ids
        for s, w in zip(got, want):
            assert s.times.tobytes() == w.times.tobytes()
            assert s.values.tobytes() == w.values.tobytes()

    def test_times_may_fall_across_a_subject_boundary(self):
        times = np.array([10.0, 20.0, 5.0, 15.0, 15.0, 1.0])
        values = np.full(6, 60.0)
        got = fpca.series_from_flat(["a", "b", "c"], times[:5], values[:5], [0, 2, 4, 5])
        assert [s.times.tolist() for s in got] == [[10.0, 20.0], [5.0, 15.0], [15.0]]
        with pytest.raises(fpca.SeriesError, match="series b: times must be finite"):
            fpca.series_from_flat(["a", "b"], times[2:6], values[2:6], [0, 1, 4])

    def test_series_are_views_of_the_buffers(self):
        times, values, offsets = flat_buffer([3, 1, 4], 5)
        got = fpca.series_from_flat(["a", "b", "c"], times, values, offsets)
        assert all(s.times.base is times and s.values.base is values for s in got)

    @pytest.mark.parametrize("offsets", [[0, 2], [0, 2, 3, 4], [1, 2, 4], [0, 3, 2],
                                         [0.0, 2.0, 4.0], [[0, 2, 4]]])
    def test_malformed_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="offsets must run"):
            fpca.series_from_flat(["a", "b"], np.arange(4.0), np.full(4, 60.0), offsets)

    def test_no_subjects(self):
        assert fpca.series_from_flat([], np.empty(0), np.empty(0), [0]) == []


class TestSlottedSeries:
    """What a worker pool relies on: series pickle, copy by replace, compare
    and print the same way however they were built."""

    @pytest.fixture
    def pair(self):
        times, values, offsets = flat_buffer([4, 2, 5], 9)
        bulk = fpca.series_from_flat(["a", "b", "c"], times, values, offsets)[1]
        return bulk, fpca.LongitudinalSeries("b", times[4:6].copy(), values[4:6].copy())

    def test_one_layout(self, pair):
        bulk, built = pair
        assert type(bulk) is type(built) is fpca.LongitudinalSeries
        assert fpca.LongitudinalSeries.__slots__ == ("subject_id", "times", "values")
        assert not hasattr(bulk, "__dict__") and not hasattr(built, "__dict__")
        with pytest.raises(AttributeError):
            bulk.times = np.zeros(2)

    def test_pickle(self, pair):
        for s in pair:
            back = pickle.loads(pickle.dumps(s))
            assert back == s and repr(back) == repr(s)
            assert back.times.tobytes() == s.times.tobytes()
            assert back.values.tobytes() == s.values.tobytes()

    def test_error_pickles(self):
        with pytest.raises(fpca.SeriesError) as caught:
            fpca.LongitudinalSeries("a", np.array([1.0]), np.array([0.0]))
        back = pickle.loads(pickle.dumps(caught.value))
        assert str(back) == str(caught.value) == "series a: weights must be finite and positive"
        assert back.subject_id == "a" and isinstance(back, ValueError)

    def test_replace(self, pair):
        bulk, built = pair
        renamed = dataclasses.replace(bulk, subject_id="z")
        assert renamed.subject_id == "z" and renamed.times is bulk.times
        assert dataclasses.replace(bulk) == built
        with pytest.raises(fpca.SeriesError, match="series b: weights"):
            dataclasses.replace(bulk, values=-bulk.values)

    def test_equality_and_repr(self, pair):
        bulk, built = pair
        assert bulk == built and not bulk != built and repr(bulk) == repr(built)
        assert repr(bulk).startswith("LongitudinalSeries(subject_id='b', times=array([")
        assert bulk != dataclasses.replace(built, subject_id="c")
        assert bulk != dataclasses.replace(built, values=built.values + 1.0)
        assert bulk != dataclasses.replace(built, times=built.times[:1],
                                           values=built.values[:1])
        assert bulk != ("b", bulk.times, bulk.values)
        with pytest.raises(TypeError):
            hash(bulk)


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
        from twophase.fpca import trapezoid_weights
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
        from twophase.fpca import trapezoid_weights
        qw = trapezoid_weights(system.grid)
        gram = (system.eigenfunctions * qw) @ system.eigenfunctions.T
        assert np.max(np.abs(gram - np.eye(system.n_components))) < 1e-6

    def test_eigenvalues_sorted_fve_monotone(self, fitted):
        _, _, _, system = fitted
        assert np.all(np.diff(system.eigenvalues) <= 0)
        assert np.all(np.diff(system.fve) >= 0)

    def test_sign_convention(self, fitted):
        _, _, _, system = fitted
        from twophase.fpca import trapezoid_weights
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

    @pytest.mark.parametrize("times, match", [
        ([[-100.0, 100.0]], "two subjects"),
        ([[-400.0, 300.0], [-380.0, 280.0]], "inside the fitting domain"),
        ([[-100.0], [50.0], [-400.0, 100.0]], "no subject has two observations"),
    ])
    def test_unidentified_models_raise_a_typed_error(self, times, match):
        series = [fpca.LongitudinalSeries(f"s{i}", t, np.full(len(t), 60.0))
                  for i, t in enumerate(times)]
        with pytest.raises(UnidentifiedModelError, match=match) as caught:
            fpca.fit_eigensystem(series)
        assert isinstance(caught.value, IllConditionedError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("options", [{"grid_size": 1}, {"grid_size": 0},
                                         {"fve_threshold": 0.0}, {"fve_threshold": 1.5},
                                         {"fve_threshold": float("nan")}])
    def test_bad_options_raise_before_any_work(self, options):
        with pytest.raises(ValueError, match="grid size|fve threshold"):
            fpca.fit_eigensystem([], **options)

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


class TestNoiseInvariant:
    """An eigensystem with components has noise; construction enforces it."""

    @pytest.mark.parametrize("noise_var", [0.0, 1e-12, -0.25, float("nan")])
    def test_components_without_noise_are_ill_conditioned(self, noise_var):
        grid = np.linspace(*fpca.TIME_DOMAIN, 11)
        with pytest.raises(IllConditionedError, match="1 components needs a noise"):
            fpca.EigenSystem(grid=grid, mean=np.full(11, 70.0), eigenvalues=np.array([1.0]),
                             eigenfunctions=np.full((1, 11), 0.04), noise_var=noise_var,
                             fve=np.array([1.0]))

    def test_replace_keeps_the_invariant(self, fitted):
        with pytest.raises(IllConditionedError):
            dataclasses.replace(fitted[3], noise_var=0.0)

    def test_fields_cannot_be_assigned(self):
        grid = np.linspace(*fpca.TIME_DOMAIN, 11)
        system = fpca.EigenSystem(grid=grid, mean=np.full(11, 70.0),
                                  eigenvalues=np.array([1.0]),
                                  eigenfunctions=np.full((1, 11), 0.04), noise_var=0.25,
                                  fve=np.array([1.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.noise_var = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.mean = np.zeros(11)
        assert system.noise_var == 0.25 and np.all(system.mean_at(grid) == 70.0)
        with pytest.raises(IllConditionedError):
            dataclasses.replace(system, noise_var=0.0)

    def test_noiseless_true_eigensystem_is_ill_conditioned(self):
        with pytest.raises(IllConditionedError):
            TrajectoryModel(noise_sd=0.0).true_eigensystem()


def random_spd_stack(rng, size, n):
    """L x L x n stack of SPD matrices, the subject index last."""
    a = rng.standard_normal((n, size, size + 3))
    return np.ascontiguousarray((a @ a.transpose(0, 2, 1)).transpose(1, 2, 0))


def lower_band(dense, width=fpca.SPLINE_DEGREE + 1):
    """``band[d, a, i] = dense[a + d, a, i]`` for d < width, 0 past the last row."""
    size = dense.shape[0]
    band = np.zeros((width, size, dense.shape[2]))
    for d in range(width):
        for a in range(size - d):
            band[d, a] = dense[a + d, a]
    return band


def random_band_stack(rng, size, n, width=fpca.SPLINE_DEGREE + 1):
    """Lower band and dense form of n banded PSD matrices ``C C^T``, C lower banded."""
    c = np.tril(rng.standard_normal((n, size, size)))
    c = np.triu(c, 1 - width)
    dense = np.ascontiguousarray((c @ c.transpose(0, 2, 1)).transpose(1, 2, 0))
    return lower_band(dense, width), dense


def block_points(rng, n):
    """Times, values and a non-decreasing subject index for n subjects."""
    subj = np.repeat(np.arange(n), rng.integers(1, 12, size=n))
    return (rng.uniform(*fpca.TIME_DOMAIN, subj.size), rng.normal(0.0, 2.0, subj.size), subj)


class TestEStepKernel:
    def test_inverse_cholesky_matches_lapack(self):
        rng = np.random.default_rng(0)
        n = 37                                       # not a multiple of any chunk
        band, dense = random_band_stack(rng, fpca.N_BASIS, n)
        prior = random_spd_stack(rng, fpca.N_BASIS, 1)[:, :, 0]
        stack = dense + prior[:, :, None]
        expected = np.linalg.inv(np.linalg.cholesky(stack.transpose(2, 0, 1)))
        got = fpca._inverse_cholesky(band, prior, np.full_like(dense, np.nan))
        np.testing.assert_allclose(got.transpose(2, 0, 1), expected, rtol=1e-9, atol=1e-12)
        assert np.all(np.triu(got.transpose(2, 0, 1), 1) == 0.0)

    def test_non_positive_definite_member_raises(self):
        band, dense = random_band_stack(np.random.default_rng(1), 5, 9)
        band[:, :, 6] = 1.0                          # the second pivot is 1 - 1 = 0
        with pytest.raises(np.linalg.LinAlgError):
            fpca._inverse_cholesky(band, np.zeros((5, 5)), np.empty_like(dense))

    def test_band_is_the_lower_band_of_each_gram_matrix(self):
        rng = np.random.default_rng(3)
        lo, hi = fpca.TIME_DOMAIN
        n = 23
        t, y, subj = block_points(rng, n)
        band, cross, sq = fpca._subject_stats(t, y, subj, n, lo, hi)
        dense = np.zeros((fpca.N_BASIS, fpca.N_BASIS, n))
        products, squares = np.zeros((fpca.N_BASIS, n)), np.zeros(n)
        for i in range(n):
            # Point by point, in order, as the statistics add them.
            for row, yp in zip(fpca.bspline_basis(t[subj == i], lo, hi), y[subj == i]):
                dense[:, :, i] += np.outer(row, row)
                products[:, i] += row * yp
                squares[i] += yp * yp
        assert band.shape == (fpca.SPLINE_DEGREE + 1, fpca.N_BASIS, n)
        assert np.array_equal(band, lower_band(dense))
        assert np.array_equal(cross, products) and np.array_equal(sq, squares)
        # Cubic B-splines overlap only within SPLINE_DEGREE: the band is all of G_i.
        lag = np.abs(np.subtract.outer(np.arange(fpca.N_BASIS), np.arange(fpca.N_BASIS)))
        assert np.all(dense[lag > fpca.SPLINE_DEGREE] == 0.0)

    def test_statistics_do_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(4)
        lo, hi = fpca.TIME_DOMAIN
        n = 40                                       # blocks of 7: the last is partial
        t, y, subj = block_points(rng, n)
        whole = fpca._subject_stats(t, y, subj, n, lo, hi)
        monkeypatch.setattr(fpca, "E_STEP_CHUNK", 7)
        blocks = fpca._subject_stats(t, y, subj, n, lo, hi)
        for a, b in zip(whole, blocks):
            assert np.array_equal(a, b)

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
        got = fpca._em_step(fpca._subject_stats(t, y, subj, n, lo, hi), subj.size, mean, cov,
                            noise)

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


def fit_hex(system):
    """Every fitted value of ``system`` as float.hex text."""
    return ([float(v).hex() for a in (system.mean, system.eigenvalues, system.eigenfunctions,
                                      system.fve) for v in a.ravel()],
            float(system.noise_var).hex(), system.em_steps)


def step_hex(theta):
    mean, cov, noise_var = theta
    return [float(v).hex() for v in (*mean, *cov.ravel(), noise_var)]


@pytest.fixture
def split_fit(monkeypatch):
    """A population of 200 subjects in 13 chunks of 16, and a CPU-count setter."""
    _, _, series = make_population(n=200, m_range=(4, 12), seed=7)
    monkeypatch.setattr(fpca, "E_STEP_CHUNK", 16)

    def with_cpus(count):
        monkeypatch.setattr(forking, "_cpu_count", lambda: count)
    return series, with_cpus


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the E-step forks its workers")
class TestSplitEStep:
    """The E-step's chunks split over forked workers, summed in chunk order."""

    def test_every_step_and_the_fit_are_the_same_for_any_worker_count(
            self, split_fit, monkeypatch):
        series, with_cpus = split_fit
        lo, hi = fpca.TIME_DOMAIN
        t, y, subj = fpca._pool(series, lo, hi)
        stats = fpca._subject_stats(t, y - y.mean(), subj, len(series), lo, hi)
        rng = np.random.default_rng(5)
        thetas = [(rng.normal(0.0, 1.0, fpca.N_BASIS),
                   random_spd_stack(rng, fpca.N_BASIS, 1)[:, :, 0] + np.eye(fpca.N_BASIS),
                   noise) for noise in (0.3, 2.0)]
        original_step = fpca._em_step
        results = {}
        for cpus in (1, 2, 3, 5):
            with_cpus(cpus)
            direct = [step_hex(original_step(stats, t.size, *theta)) for theta in thetas]
            path = []

            def recording_step(*args, path=path):
                theta = original_step(*args)
                path.append(step_hex(theta))
                return theta
            monkeypatch.setattr(fpca, "_em_step", recording_step)
            system = fpca.fit_eigensystem(series)
            monkeypatch.setattr(fpca, "_em_step", original_step)
            assert multiprocessing.active_children() == []
            results[cpus] = direct, path, fit_hex(system)
        assert len(results[1][1]) == system.em_steps > 3
        for cpus in (2, 3, 5):
            assert results[cpus] == results[1], f"{cpus} processes"

    def test_a_pivot_in_a_workers_chunk_is_ill_conditioned(self, split_fit, monkeypatch):
        series, with_cpus = split_fit
        build = fpca._subject_stats

        def broken_last_subject(*args):
            band, cross, sq = build(*args)
            band[0, :, -1] = -1.0       # the last chunk's, which the last worker owns
            return band, cross, sq
        monkeypatch.setattr(fpca, "_subject_stats", broken_last_subject)
        for cpus in (1, 3):
            with_cpus(cpus)
            with deadline(60), pytest.raises(IllConditionedError):
                fpca.fit_eigensystem(series)
            assert multiprocessing.active_children() == []

    def test_a_workers_exception_carries_its_traceback(self, split_fit, monkeypatch):
        series, with_cpus = split_fit
        with_cpus(2)
        parent, compute = os.getpid(), fpca._chunk_terms

        def failing_in_the_worker(*args):
            if os.getpid() != parent:
                raise ArithmeticError("chunk terms failed")
            return compute(*args)
        monkeypatch.setattr(fpca, "_chunk_terms", failing_in_the_worker)
        with deadline(60), pytest.raises(ArithmeticError, match="chunk terms failed") as caught:
            fpca.fit_eigensystem(series)
        [note] = caught.value.__notes__
        assert note.startswith("in E-step worker ")
        assert "in failing_in_the_worker" in note and "ArithmeticError" in note
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("death", ["exit", "sigkill"])
    def test_a_dead_worker_raises_instead_of_hanging(self, split_fit, monkeypatch, death):
        series, with_cpus = split_fit
        with_cpus(2)
        parent, compute = os.getpid(), fpca._chunk_terms
        calls = []

        def dying(*args):
            calls.append(None)
            if os.getpid() != parent and len(calls) > 20:  # a few steps in
                if death == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return compute(*args)
        monkeypatch.setattr(fpca, "_chunk_terms", dying)
        with deadline(60), pytest.raises(RuntimeError, match="E-step worker .* died"):
            fpca.fit_eigensystem(series)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_fit(self, split_fit, monkeypatch):
        series, with_cpus = split_fit
        with_cpus(3)
        fpca.fit_eigensystem(series)
        assert multiprocessing.active_children() == []
        with monkeypatch.context() as patch:
            patch.setattr(fpca, "EM_MAX_CYCLES", 1)
            with pytest.raises(ConvergenceError):
                fpca.fit_eigensystem(series)
        assert multiprocessing.active_children() == []
        parent, compute = os.getpid(), fpca._chunk_terms
        calls = []

        def interrupted(*args):
            calls.append(None)
            if os.getpid() == parent and len(calls) > 10:
                raise KeyboardInterrupt
            return compute(*args)
        monkeypatch.setattr(fpca, "_chunk_terms", interrupted)
        with deadline(60), pytest.raises(KeyboardInterrupt):
            fpca.fit_eigensystem(series)
        assert multiprocessing.active_children() == []

    def test_one_chunk_or_one_cpu_forks_nothing(self, split_fit, monkeypatch):
        series, with_cpus = split_fit
        monkeypatch.setattr(os, "fork", None)      # any fork would fail
        with_cpus(1)
        fpca.fit_eigensystem(series)
        with_cpus(4)
        monkeypatch.setattr(fpca, "E_STEP_CHUNK", 2500)
        fpca.fit_eigensystem(series)


class TestFitMemory:
    def test_traced_peak_of_the_fit(self):
        # n = 3,000, about 27k points.  Held as a dense L x L x n stack
        # beside the whole-population basis, the Gram matrices took the
        # fit's traced peak to 8.6 MB; held as their band and built a block
        # of subjects at a time, it is 5.6 MB, set by the E-step.
        pop = simulate.generate(simulate.SimConfig(n=3000), 5, include_series=True)
        tracemalloc.start()
        try:
            system = fpca.fit_eigensystem(pop.series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.n_components >= 1
        assert peak < 7.0e6, f"traced peak {peak / 1e6:.2f} MB"


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
        xi = lam_phi @ np.linalg.solve(cov + system.noise_var * np.eye(t.size), resid)
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
