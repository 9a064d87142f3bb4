import numpy as np
import pytest

from twophase import models, multiframe


def test_symmetric_probabilities_split_weight_evenly():
    fw = multiframe.combine_frames(
        "obesity", "asthma",
        pi_primary={"a": 0.2}, pi_secondary={"a": 0.2},
        sampled_primary={"a": "s1"}, sampled_secondary={"a": "t1"},
    )
    assert len(fw.rows) == 2
    for row in fw.rows:
        assert row.weight == pytest.approx(1 / (2 * 0.2))
        assert row.duplicated


def test_single_frame_records_get_design_weight():
    fw = multiframe.combine_frames(
        "obesity", "asthma",
        pi_primary={"only": 0.25, "both": 0.5},
        pi_secondary={"both": 0.25},
        sampled_primary={"only": "s1", "both": "s2"},
        sampled_secondary={},
    )
    rows = {r.record_id: r for r in fw.rows}
    assert rows["only"].weight == pytest.approx(4.0)
    assert not rows["only"].duplicated
    # Dual-frame member drawn only in the primary frame still carries the
    # Hansen-Hurwitz share phi / pi_O.
    phi = 0.5 / (0.5 + 0.25)
    assert rows["both"].weight == pytest.approx(phi / 0.5)
    assert rows["both"].duplicated


def test_secondary_frame_must_be_subset():
    with pytest.raises(ValueError, match="subset"):
        multiframe.combine_frames("o", "a", {"x": 0.5}, {"y": 0.5}, {}, {})


def test_bad_probability_rejected():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        multiframe.combine_frames("o", "a", {"x": 1.5}, {}, {"x": "s"}, {})


def _population(seed=0, n=400):
    rng = np.random.default_rng(seed)
    v = rng.normal(2.0, 1.0, size=n)
    dual = rng.uniform(size=n) < 0.6
    strata_o = (v > 2.0).astype(int)
    strata_a = (v > 1.5).astype(int)
    return v, dual, strata_o, strata_a


def _draw_frame(rng, members, strata, rates):
    """Stratified SRS without replacement; returns (sampled ids, pi map)."""
    sampled = {}
    pi = {}
    for s, rate in rates.items():
        ids = [i for i in members if strata[i] == s]
        n_s = max(1, int(round(rate * len(ids))))
        take = rng.choice(len(ids), size=n_s, replace=False)
        for j in take:
            sampled[ids[j]] = str(s)
        for i in ids:
            pi[i] = n_s / len(ids)
    return sampled, pi


def _estimate_total(v, fw):
    w = fw.weights()
    vals = np.array([v[int(r.record_id)] for r in fw.rows])
    return float(np.sum(w * vals))


def test_hansen_hurwitz_total_unbiased_over_draws():
    v, dual, strata_o, strata_a = _population()
    truth = v.sum()
    rng = np.random.default_rng(77)
    all_ids = [str(i) for i in range(len(v))]
    dual_ids = [str(i) for i in range(len(v)) if dual[i]]
    so = {int(i): strata_o[int(i)] for i in all_ids}
    sa = {int(i): strata_a[int(i)] for i in dual_ids}
    ests = np.empty(1000)
    vmap = {str(i): v[i] for i in range(len(v))}
    for r in range(1000):
        samp_o, pi_o = _draw_frame(rng, all_ids, {i: strata_o[int(i)] for i in all_ids},
                                   {0: 0.10, 1: 0.20})
        samp_a, pi_a = _draw_frame(rng, dual_ids, {i: strata_a[int(i)] for i in dual_ids},
                                   {0: 0.15, 1: 0.25})
        fw = multiframe.combine_frames("o", "a", pi_o, pi_a, samp_o, samp_a)
        ests[r] = float(sum(row.weight * vmap[row.record_id] for row in fw.rows))
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    assert abs(ests.mean() - truth) < 3 * se
    del so, sa


def test_variance_groups_identity_without_overlap():
    fw = multiframe.combine_frames(
        "o", "a",
        pi_primary={"x": 0.5, "y": 0.5, "z": 0.5},
        pi_secondary={"z": 0.5},
        sampled_primary={"x": "s1", "y": "s1"},
        sampled_secondary={"z": "t1"},
    )
    strata, clusters = fw.strata_keys(), fw.cluster_ids()
    assert len(set(clusters)) == len(fw.rows)
    assert set(strata) == {"o:s1", "a:t1"}


def test_double_sampled_record_forms_one_cluster():
    fw = multiframe.combine_frames(
        "o", "a",
        pi_primary={"x": 0.5, "y": 0.5},
        pi_secondary={"x": 0.4},
        sampled_primary={"x": "s1", "y": "s1"},
        sampled_secondary={"x": "t1"},
    )
    strata, clusters = fw.strata_keys(), fw.cluster_ids()
    assert list(clusters).count("x") == 2
    assert len(set(clusters)) == 2


def test_total_estimator_ci_coverage():
    v, dual, strata_o, strata_a = _population(seed=3, n=500)
    truth = v.sum()
    all_ids = [str(i) for i in range(len(v))]
    dual_ids = [str(i) for i in range(len(v)) if dual[i]]
    vmap = {str(i): v[i] for i in range(len(v))}
    rng = np.random.default_rng(123)
    covered = 0
    reps = 500
    for _ in range(reps):
        samp_o, pi_o = _draw_frame(rng, all_ids, {i: strata_o[int(i)] for i in all_ids},
                                   {0: 0.12, 1: 0.18})
        samp_a, pi_a = _draw_frame(rng, dual_ids, {i: strata_a[int(i)] for i in dual_ids},
                                   {0: 0.15, 1: 0.22})
        fw = multiframe.combine_frames("o", "a", pi_o, pi_a, samp_o, samp_a)
        w = fw.weights()
        vals = np.array([vmap[r.record_id] for r in fw.rows])
        total = float(np.sum(w * vals))
        strata, clusters = fw.strata_keys(), fw.cluster_ids()
        proxy = models.FitResult(
            coefficients=np.array([total]),
            variance=np.zeros((1, 1)),
            influence=(w * vals)[:, None],
            converged=True,
            iterations=0,
        )
        var = models.sandwich_variance(proxy, strata, clusters)[0, 0]
        half = 1.959963984540054 * np.sqrt(var)
        covered += int(abs(total - truth) <= half)
    coverage = covered / reps
    assert 0.92 <= coverage <= 0.98
