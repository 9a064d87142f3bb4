import copy
import dataclasses
import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from twophase import fileio, forking, models, simulate as sim
from twophase.allocation import StratumStats
from twophase.errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateDesignError,
    IllConditionedError,
    InfeasibleError,
)
from twophase.fpca import FULL_TERM_DAYS, TIME_DOMAIN

from alarm import deadline
from allocation_oracle import oracle_allocation

FORKS = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                           reason="the asthma endpoint forks its worker")
SMALL_SPEC = sim.DesignSpec(obesity_waves=(80, 60), asthma_waves=(40, 30),
                            mi_replicates_allocation=2, mi_replicates_estimator=2)


def per_subject_series(rng, traj, scores, gestation, m_obs):
    """The series generator as one loop over subjects: the reference.

    Same draws in the same order as ``simulate._draw_series``, with every
    step (sort, rounding, merging tied times, the curve) done per subject.
    """
    out = []
    for i in range(scores.shape[0]):
        earliest = FULL_TERM_DAYS - gestation[i] - 365.0
        t = np.sort(rng.uniform(max(TIME_DOMAIN[0], earliest), 272.0, size=m_obs[i]))
        t = np.unique(np.round(t, 3))
        vals = traj.curve(scores[i], t) + rng.normal(0, traj.noise_sd, t.size)
        out.append((f"d{i:06d}", t, np.maximum(vals, 1.0)))
    return out


def generated_and_reference(monkeypatch, config, seed):
    """``generate(config, seed, include_series=True)``, the reference series
    drawn from the same stream position, and each subject's draw count."""
    seen = {}
    draw_series = sim._draw_series

    def spy(rng, *args):
        seen["state"], seen["args"] = copy.deepcopy(rng.bit_generator.state), args
        return draw_series(rng, *args)

    monkeypatch.setattr(sim, "_draw_series", spy)
    pop = sim.generate(config, seed, include_series=True)
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    return pop, per_subject_series(rng, *seen["args"]), seen["args"][-1]


def hexes(values):
    return [v.hex() for v in values.tolist()]


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = sim.SimConfig(n=400)
        a = sim.generate(cfg, seed=5)
        b = sim.generate(cfg, seed=5)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x_star, b.x_star)
        c = sim.generate(cfg, seed=6)
        assert not np.array_equal(a.y, c.y)

    def test_zero_error_config_matches_truth(self):
        err = sim.ErrorModel(event_fp=0, event_fn=0, time_jitter_prob=0,
                             exposure_bias=0, exposure_sd=0, z1_sd=0,
                             z2_fp=0, z2_fn=0, asthma_fp=0, asthma_fn=0)
        pop = sim.generate(sim.SimConfig(n=500, error=err,
                                         gestation_sd=0.0,
                                         gestation_mean=273.0,
                                         gestation_range=(273.0, 273.0)), seed=2)
        np.testing.assert_array_equal(pop.delta, pop.delta_star)
        np.testing.assert_array_equal(pop.y, pop.y_star)
        np.testing.assert_allclose(pop.x, pop.x_star, atol=1e-10)
        np.testing.assert_allclose(pop.z, pop.z_star, atol=1e-10)

    def test_error_rates_match_published_calibration(self):
        pop = sim.generate(sim.SimConfig(n=10335), seed=11)
        # Published anchors: 17.9% obesity, 0.6% / 10.4% misclassification,
        # 68% of dyads in the asthma sub-study.
        assert abs(pop.delta.mean() - 0.179) < 0.015
        assert abs(np.mean(pop.delta != pop.delta_star) - 0.006) < 0.004
        assert abs(np.mean(pop.asthma != pop.asthma_star) - 0.104) < 0.012
        assert abs(pop.in_asthma_frame.mean() - 0.68) < 0.02
        assert abs(int(pop.in_asthma_frame.sum()) - 7053) < 250

    def test_exposure_discrepancy_calibration(self):
        pop = sim.generate(sim.SimConfig(n=10335), seed=13)
        disc = pop.x_star - pop.x
        assert 0.005 < disc.mean() < 0.035
        assert np.mean(np.abs(disc) < 0.1) > 0.88

    def test_series_match_domain_and_count(self):
        cfg = sim.SimConfig(n=60)
        pop = sim.generate(cfg, seed=3, include_series=True)
        assert len(pop.series) == 60
        for s in pop.series:
            assert s.times[0] >= -365.0 and s.times[-1] <= 272.0
            assert np.all(np.diff(s.times) > 0)

    @pytest.mark.parametrize("config,seed", [
        (sim.SimConfig(n=500), 1),
        (sim.SimConfig(n=500), 4242),
        (sim.SimConfig(n=20, obs_rate=2000), 5),
    ])
    def test_series_match_per_subject_reference(self, monkeypatch, config, seed):
        pop, want, m_obs = generated_and_reference(monkeypatch, config, seed)
        assert [s.subject_id for s in pop.series] == [sid for sid, _, _ in want]
        for s, (_, times, values) in zip(pop.series, want):
            assert hexes(s.times) == hexes(times)
            assert hexes(s.values) == hexes(values)
        merged = sum(s.times.size < m for s, m in zip(pop.series, m_obs.tolist()))
        if config.obs_rate > 1000:
            assert merged >= config.n // 2  # rounded times really collide

    def test_series_leave_population_columns_unchanged(self):
        cfg = sim.SimConfig(n=300)
        plain = sim.generate(cfg, seed=9)
        full = sim.generate(cfg, seed=9, include_series=True)
        assert plain.series == [] and len(full.series) == 300
        for name in ("y", "delta", "x", "z", "asthma", "gestation", "y_star",
                     "delta_star", "x_star", "z_star", "asthma_star",
                     "in_asthma_frame", "aux", "scores"):
            a, b = getattr(plain, name), getattr(full, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("eigenvalues", [(), (100.0, 9.0, 4.0, 1.0), (100.0, 0.0),
                                             (100.0, -1.0), (100.0, float("nan")),
                                             (float("inf"),)])
    def test_eigenvalues_outside_the_basis_rejected(self, eigenvalues):
        with pytest.raises(ValueError, match="1 to 3 finite positive values"):
            sim.TrajectoryModel(eigenvalues=eigenvalues)

    @pytest.mark.parametrize("eigenvalues", [(100.0,), (100.0, 9.0), (100.0, 9.0, 4.0)])
    def test_one_to_three_eigenvalues_generate(self, eigenvalues):
        traj = sim.TrajectoryModel(eigenvalues=eigenvalues)
        pop = sim.generate(sim.SimConfig(n=20, trajectory=traj), seed=1, include_series=True)
        assert pop.scores.shape == (20, len(eigenvalues))
        assert len(pop.series) == 20

    def test_negative_noise_sd_rejected(self):
        traj = sim.TrajectoryModel(noise_sd=-0.5)
        sim.generate(sim.SimConfig(n=5, trajectory=traj), seed=1)
        with pytest.raises(ValueError, match="noise_sd"):
            sim.generate(sim.SimConfig(n=5, trajectory=traj), seed=1, include_series=True)

    def test_cox_model_holds_in_large_sample(self):
        pop = sim.generate(sim.SimConfig(n=60000), seed=17)
        fit = models.fit_cox(pop.y, pop.delta, np.column_stack([pop.x, pop.z]))
        fit.variance = models.sandwich_variance(fit)
        assert abs(fit.coefficients[0] - 0.87) < 3.5 * fit.se[0]
        assert abs(fit.coefficients[1] - 0.35) < 3.5 * fit.se[1]


class TestOracleAllocation:
    def test_equal_strata_tie_set(self):
        stats = [StratumStats(str(j), 20, 1.0) for j in range(3)]
        best, minimizers = oracle_allocation(stats, 7)
        assert len(minimizers) == 3  # the unit remainder can land anywhere
        totals = {tuple(sorted(m.values())) for m in minimizers}
        assert totals == {(2, 2, 3)}

    def test_zero_sd_stratum_gets_minimum_only(self):
        stats = [StratumStats("a", 30, 1.0), StratumStats("b", 30, 0.0)]
        best, minimizers = oracle_allocation(stats, 10)
        assert all(m["b"] == 1 for m in minimizers)
        assert minimizers[0]["a"] == 9

    def test_instance_size_guard(self):
        stats = [StratumStats(str(j), 50, 1.0) for j in range(6)]
        with pytest.raises(InfeasibleError):
            oracle_allocation(stats, 10)


class TestDesignPipeline:
    @pytest.fixture(scope="class")
    def small_run(self):
        cfg = sim.SimConfig(n=2500)
        spec = sim.DesignSpec(obesity_waves=(120, 80), asthma_waves=(50, 40),
                              mi_replicates_allocation=2,
                              mi_replicates_estimator=2)
        pop = sim.generate(cfg, seed=77)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            obesity, asthma = sim.run_design(pop, spec, seed=77)
        return pop, spec, obesity, asthma

    def test_budget_identity_per_frame(self, small_run):
        pop, spec, obesity, asthma = small_run
        assert obesity.counts.sum() == sum(spec.obesity_waves)
        assert asthma.counts.sum() == sum(spec.asthma_waves)
        assert obesity.sampled.sum() == sum(spec.obesity_waves)

    def test_draws_never_exceed_population(self, small_run):
        pop, spec, obesity, asthma = small_run
        for d, s in zip(obesity.counts, obesity.strata):
            assert 0 <= d <= s.population_size
        for d, s in zip(asthma.counts, asthma.strata):
            assert 0 <= d <= s.population_size

    def test_sampling_probabilities_well_defined(self, small_run):
        pop, spec, obesity, asthma = small_run
        pi_o = obesity.pi()
        assert np.all((pi_o > 0) & (pi_o <= 1))
        pi_a = asthma.pi()
        assert np.all((pi_a > 0) & (pi_a <= 1))

    def test_overlap_mechanism(self, small_run):
        pop, spec, obesity, asthma = small_run
        overlap = obesity.sampled[asthma.member_index] & asthma.sampled
        # Some asthma draws typically hit already-validated records; they
        # are drawn (independent frames) without re-validation.
        assert overlap.sum() >= 0
        unique = obesity.sampled.sum() + asthma.sampled.sum() - overlap.sum()
        validated = np.zeros(pop.n, dtype=bool)
        validated[np.flatnonzero(obesity.sampled)] = True
        validated[asthma.member_index[asthma.sampled]] = True
        assert validated.sum() == unique

    def test_counts_pinned(self, small_run):
        # Reference draws per stratum for this design and seed: any change
        # to the SDs, the wave rule or the draw order shows up here.
        pop, spec, obesity, asthma = small_run
        assert obesity.counts.tolist() == [4, 20, 19, 5, 2, 11, 9, 3, 10, 28, 28, 7,
                                           2, 5, 5, 2, 4, 8, 9, 3, 2, 6, 6, 2]
        assert asthma.counts.tolist() == [5, 14, 10, 10, 15, 6, 2, 7, 4, 5, 10, 2]
        for design, waves in ((obesity, spec.obesity_waves), (asthma, spec.asthma_waves)):
            per_wave = [int(np.sum(design.wave_of == w)) for w in (1, 2)]
            assert per_wave == list(waves)
            np.testing.assert_array_equal(design.sampled, design.wave_of > 0)

    def test_phase1_fit_is_shared_with_the_estimators(self, small_run, monkeypatch):
        # The obesity design allocates wave 1 on the phase-1 Cox fit to
        # everyone; the phase1 estimate is that fit, not a second one.
        pop, spec, obesity, asthma = small_run
        fit_cox = models.fit_cox
        refits = []

        def counting(time, event, x, weights=None, start=None):
            if time.size == pop.n and np.array_equal(time, pop.y_star):
                refits.append(weights)
            return fit_cox(time, event, x, weights, start)

        monkeypatch.setattr(models, "fit_cox", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sim.estimate_obesity(pop, obesity, asthma, spec, seed=77)
        assert refits == []
        phase1 = next(r for r in rows if r.estimator == "phase1")
        fresh = fit_cox(pop.y_star, pop.delta_star, np.column_stack([pop.x_star, pop.z_star]))
        assert phase1.beta == fresh.coefficients[0]

    def test_estimators_produce_finite_results(self, small_run):
        pop, spec, obesity, asthma = small_run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sim.estimate_all(pop, obesity, asthma, spec, seed=77)
        names = {(r.endpoint, r.estimator) for r in rows}
        assert len(names) == 10
        for r in rows:
            assert np.isfinite(r.beta) and r.se > 0


# TestExperiment's report (n = 1,500, waves 80 + 60 and 40 + 30, m = 2,
# 3 replicates, master seed 9): (mean_beta, sd, mean_se, coverage).
REFERENCE_REPORT = {
    "asthma/ipw_mf": (1.4483367317648066, 2.17333268929849, 2.302513791972284, 1.0),
    "asthma/ipw_sf": (0.9906165651960336, 3.2276719276964356, 3.073861282275962, 1.0),
    "asthma/phase1": (0.7473309669177013, 0.17399176150208362, 0.7549287935730477, 1.0),
    "asthma/raking_mi": (0.41958968356462667, 2.00132745437246, 2.235507748590281, 1.0),
    "asthma/raking_nv": (0.7539366772932148, 2.126036743970634, 2.2458555559979794, 1.0),
    "obesity/ipw_mf": (1.1930476456581431, 1.1732745582640904, 0.9052127401713701, 1.0),
    "obesity/ipw_sf": (1.2694375973244125, 1.6887189359173356, 0.9038185229666414, 2 / 3),
    "obesity/phase1": (1.0862305506727838, 1.1482042012268427, 0.5098315215435758, 2 / 3),
    "obesity/raking_mi": (1.4250233084975392, 1.5010917857403345, 0.8357419895158517, 2 / 3),
    "obesity/raking_nv": (1.3997091684523106, 1.5066317864954106, 0.8361900537870025, 2 / 3),
}


class TestExperiment:
    @pytest.fixture(scope="class")
    def small_report(self):
        cfg = sim.SimConfig(n=1500)
        spec = sim.DesignSpec(obesity_waves=(80, 60), asthma_waves=(40, 30),
                              mi_replicates_allocation=2,
                              mi_replicates_estimator=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [sim.run_experiment(cfg, spec, replicates=3, master_seed=9)
                    for _ in range(2)]

    def test_reproducible_report(self, small_report):
        a, b = small_report
        assert a.estimators == b.estimators

    def test_report_matches_reference(self, small_report):
        # Reference values; the tolerance admits only last-bit rounding from
        # the order in which combined-frame rows enter the fits.
        report = small_report[0]
        assert report.failures == 0
        assert sorted(report.estimators) == sorted(REFERENCE_REPORT)
        for key, expected in REFERENCE_REPORT.items():
            row = report.estimators[key]
            got = (row["mean_beta"], row["sd"], row["mean_se"], row["coverage"])
            assert got == pytest.approx(expected, rel=1e-12, abs=0), key
            assert row["n"] == 3

    def test_failed_replicates_record_their_reasons(self, monkeypatch, tmp_path):
        real = sim.run_replicate
        calls = []

        def flaky(config, spec, seed):
            calls.append(seed)
            if len(calls) in (1, 3):
                raise ConvergenceError(f"replicate {len(calls)} diverged")
            return real(config, spec, seed)

        monkeypatch.setattr(sim, "run_replicate", flaky)
        spec = sim.DesignSpec(obesity_waves=(80, 60), asthma_waves=(40, 30),
                              mi_replicates_allocation=2, mi_replicates_estimator=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sim.run_experiment(sim.SimConfig(n=1500), spec, replicates=3,
                                        master_seed=9)
        assert report.failures == 2
        assert report.failure_reasons == {
            "ConvergenceError": {"count": 2, "first": "replicate 1 diverged"}}
        assert all(row["n"] == 1 for row in report.estimators.values())
        fileio.write_report(tmp_path / "report.csv", tmp_path / "report.txt", report)
        text = (tmp_path / "report.txt").read_text()
        assert "failures (ConvergenceError): 2; first: replicate 1 diverged" in text

    def test_zero_error_estimators_agree_with_census(self):
        err = sim.ErrorModel(event_fp=0, event_fn=0, time_jitter_prob=0,
                             exposure_bias=0, exposure_sd=0, z1_sd=0,
                             z2_fp=0, z2_fn=0, asthma_fp=0, asthma_fn=0)
        # Full-term gestations make the phase-1 exposure's 273-day dating
        # exact, as in test_zero_error_config_matches_truth.
        cfg = sim.SimConfig(n=2500, error=err, gestation_sd=0.0,
                            gestation_mean=273.0,
                            gestation_range=(273.0, 273.0))
        spec = sim.DesignSpec(obesity_waves=(150, 100), asthma_waves=(60, 50),
                              mi_replicates_allocation=2,
                              mi_replicates_estimator=2)
        diffs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(8):
                seed = int(np.random.SeedSequence([3, r]).generate_state(1)[0])
                pop = sim.generate(cfg, seed)
                obesity, asthma = sim.run_design(pop, spec, seed)
                rows = {(x.endpoint, x.estimator): x
                        for x in sim.estimate_all(pop, obesity, asthma, spec, seed)}
                census = models.fit_cox(pop.y, pop.delta,
                                        np.column_stack([pop.x, pop.z]))
                phase1 = rows[("obesity", "phase1")]
                # With no injected error the phase-1 fit IS the census fit.
                assert phase1.beta == pytest.approx(census.coefficients[0], abs=1e-9)
                diffs.append(rows[("obesity", "ipw_sf")].beta
                             - census.coefficients[0])
        diffs = np.array(diffs)
        assert abs(diffs.mean()) < 3 * diffs.std(ddof=1) / np.sqrt(len(diffs)) + 0.1

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("error", [DegenerateDesignError, CalibrationError,
                                       IllConditionedError])
    def test_unlucky_data_errors_of_the_asthma_endpoint_are_counted(
            self, monkeypatch, error, cpus):
        monkeypatch.setattr(forking, "_cpu_count", lambda: cpus)
        unlucky = int(np.random.SeedSequence([9, 1]).generate_state(1)[0])  # replicate 1
        real = sim.estimate_asthma

        def flaky(pop, obesity, asthma, spec, seed):
            if seed == unlucky:
                raise error(f"{error.__name__} in replicate 1")
            return real(pop, obesity, asthma, spec, seed)

        monkeypatch.setattr(sim, "estimate_asthma", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sim.run_experiment(sim.SimConfig(n=1500), SMALL_SPEC, replicates=3,
                                        master_seed=9)
        assert report.failures == 1
        assert report.failure_reasons == {
            error.__name__: {"count": 1, "first": f"{error.__name__} in replicate 1"}}
        assert all(row["n"] == 2 for row in report.estimators.values())
        assert multiprocessing.active_children() == []


class TestDesignSpec:
    @pytest.mark.parametrize("name,value", [
        ("obesity_waves", ()), ("asthma_waves", ()), ("asthma_waves", (125, 0)),
        ("obesity_waves", (252.0, 248)), ("asthma_waves", (True,)),
        ("mi_replicates_allocation", 1), ("mi_replicates_estimator", 1),
        ("mi_replicates_estimator", 2.5),
        ("exposure_quantiles", (0.5, 0.1)), ("exposure_quantiles", (0.0, 0.5)),
        ("asthma_quantiles", (0.3, 0.3)), ("asthma_quantiles", (0.5, 1.0)),
        ("followup_cuts_censored", (5.0, 4.0)), ("followup_cuts_event", (3.0, np.inf)),
        ("followup_cuts_event", (np.nan,)),
        ("sd_shrinkage", -1.0), ("sd_shrinkage", np.nan), ("sd_shrinkage", np.inf),
        ("min_per_stratum", -1), ("min_per_stratum", 1.5),
    ])
    def test_a_bad_value_is_rejected_by_name(self, name, value):
        # asthma_waves=() died mid-replicate in a numpy reduction, and
        # mi_replicates_estimator=1 only after the whole design had run.
        # The strata and the allocation floor are constants of the class,
        # which the constructor refuses by name whatever the value.
        constant = name not in {f.name for f in dataclasses.fields(sim.DesignSpec)}
        with pytest.raises(TypeError if constant else ValueError,
                           match=f"'{name}'" if constant else f"^{name} "):
            sim.DesignSpec(**{name: value})

    def test_edge_values_are_accepted(self):
        sim.DesignSpec(obesity_waves=(1,), asthma_waves=(np.int64(3),),
                       mi_replicates_allocation=2, mi_replicates_estimator=2)

    def test_the_constructor_takes_the_waves_and_mi_counts_only(self):
        assert [f.name for f in dataclasses.fields(sim.DesignSpec)] == [
            "obesity_waves", "asthma_waves", "mi_replicates_allocation",
            "mi_replicates_estimator"]

def mark(text):
    warnings.warn(text)        # every marker from this one line


def row_hexes(rows):
    return [(r.endpoint, r.estimator, r.beta.hex(), r.se.hex()) for r in rows]


class TestEndpointsAtOnce:
    """``estimate_all`` runs the obesity tail (MI auxiliary, raking_mi) here and
    the obesity head and the asthma endpoint in one forked worker."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(count):
            monkeypatch.setattr(forking, "_cpu_count", lambda: count)
        return set_cpus

    @pytest.fixture
    def obesity(self, monkeypatch):
        """``obesity(piece, fn)`` runs ``fn(e)`` in place of the obesity
        endpoint's ``piece`` ("_head" or "_tail"); the asthma one is kept."""
        def patch(piece, fn):
            def piece_of(e, real=getattr(sim, piece)):
                return fn(e) if e.name == "obesity" else real(e)
            monkeypatch.setattr(sim, piece, piece_of)
        return patch

    def test_rows_do_not_depend_on_the_cpu_count(self, cpus):
        rows = {}
        for count in (1, 2):
            cpus(count)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows[count] = [row_hexes(sim.run_replicate(sim.SimConfig(n=1500),
                                                           sim.DesignSpec(), seed))
                               for seed in (3, 4, 5, 6)]
            assert multiprocessing.active_children() == []
        assert rows[2] == rows[1]
        assert all(len(r) == 10 for r in rows[1])
        assert [r[:2] for r in rows[1][0]] == [(ep, name) for ep in sim.ENDPOINTS
                                               for name in sim.ESTIMATORS]

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_come_in_the_serial_order(self, cpus, monkeypatch, obesity, action):
        # Each piece issues a marker that names it and then a warning of its
        # own, from one line that all of them share.  The markers show whose
        # warnings come where, the worker's pieces' included, and the shared
        # line shows that "default" issues it once: the registry the design
        # filled is kept.  Neither rests on what a seed's design warns.
        def marking(real, text):
            def marked(*args):
                mark(text)
                mark("a stage starts")
                return real(*args)
            return marked
        monkeypatch.setattr(sim, "run_design", marking(sim.run_design, "design starts"))
        obesity("_head", marking(sim._head, "obesity head starts"))
        obesity("_tail", marking(sim._tail, "obesity tail starts"))
        monkeypatch.setattr(sim, "estimate_asthma",
                            marking(sim.estimate_asthma, "asthma starts"))
        for seed in (0, 3):
            caught = {}
            for count in (1, 2):
                cpus(count)
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter(action)
                    sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, seed)
                caught[count] = [(str(w.message), w.category, w.filename, w.lineno)
                                 for w in got]
            assert caught[2] == caught[1]
            messages = [message for message, *_ in caught[1]]
            starts = [messages.index(f"{stage} starts") for stage in (
                "design", "obesity head", "obesity tail", "asthma")]
            assert starts == sorted(starts)
            shared = [i for i, m in enumerate(messages) if m == "a stage starts"]
            assert shared == ([i + 1 for i in starts] if action == "always"
                              else [starts[0] + 1])

    @FORKS
    def test_an_asthma_error_is_raised_with_its_attributes(self, cpus, monkeypatch):
        def diverging(*args):
            raise ConvergenceError("asthma diverged", iterations=7, gradient_norm=0.5)
        monkeypatch.setattr(sim, "estimate_asthma", diverging)
        raised = {}
        for count in (1, 2):
            cpus(count)
            with deadline(60), pytest.raises(ConvergenceError, match="asthma diverged") as got:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3)
            assert (got.value.iterations, got.value.gradient_norm) == (7, 0.5)
            assert multiprocessing.active_children() == []
            raised[count] = got.value
        assert not hasattr(raised[1], "__notes__")
        [note] = raised[2].__notes__
        assert note.startswith("in estimates worker ")
        assert "in diverging" in note and "ConvergenceError: asthma diverged" in note

    @FORKS
    def test_an_obesity_error_wins_and_ends_the_worker(self, cpus, monkeypatch, obesity):
        # The tail fails here while the worker sleeps in the asthma endpoint.
        cpus(2)

        def failing(e):
            raise InfeasibleError("obesity tail failed")
        obesity("_tail", failing)
        monkeypatch.setattr(sim, "estimate_asthma", lambda *args: time.sleep(60))
        with deadline(20), pytest.raises(InfeasibleError, match="obesity tail failed"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3)
        assert multiprocessing.active_children() == []

    @FORKS
    @pytest.mark.parametrize("count", [1, 2])
    def test_a_head_error_wins_over_a_tail_error(self, cpus, monkeypatch, obesity, count):
        cpus(count)

        def head_failing(e):
            time.sleep(0.5)                  # the tail fails first, in the other process
            raise DegenerateDesignError("obesity head failed")

        def tail_failing(e):
            raise InfeasibleError("obesity tail failed")
        obesity("_head", head_failing)
        obesity("_tail", tail_failing)
        monkeypatch.setattr(sim, "estimate_asthma", lambda *args: time.sleep(60))
        with deadline(20), pytest.raises(DegenerateDesignError, match="obesity head failed"):
            sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3)
        assert multiprocessing.active_children() == []

    @FORKS
    def test_a_dead_worker_raises_instead_of_hanging(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        monkeypatch.setattr(sim, "estimate_asthma",
                            lambda *args: os._exit(3) if os.getpid() != parent else None)
        with deadline(60), pytest.raises(RuntimeError, match="estimates worker .* died"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3)
        assert multiprocessing.active_children() == []

    @FORKS
    def test_a_daemonic_caller_forks_nothing(self, cpus):
        cpus(2)
        context = multiprocessing.get_context("fork")
        mine, theirs = context.Pipe()

        def in_a_daemon():
            os.fork = None             # any fork in this process would fail
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                theirs.send(row_hexes(sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3)))

        daemon = context.Process(target=in_a_daemon, daemon=True)
        with deadline(120):
            daemon.start()
            theirs.close()
            got = mine.recv()
            daemon.join()
        assert daemon.exitcode == 0
        cpus(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert got == row_hexes(sim.run_replicate(sim.SimConfig(n=1500), SMALL_SPEC, 3))
