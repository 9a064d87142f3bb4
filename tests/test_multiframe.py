import numpy as np
import pytest

from twophase import models, multiframe
from twophase.errors import LedgerError


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
    # Rows x, y, z; z alone is in the secondary frame.
    frames = [multiframe.FrameDesign("o", np.full(3, 0.5), np.array(["s1"] * 3),
                                     np.array([True, True, False])),
              multiframe.FrameDesign("a", np.array([np.nan, np.nan, 0.5]),
                                     np.array(["", "", "t1"]), np.array([False, False, True]))]
    _, sample = multiframe.weighted_sample(frames, np.ones(3, dtype=bool))
    assert len(set(sample.rows.tolist())) == sample.rows.size
    assert set(sample.strata) == {"o:s1", "a:t1"}


def test_double_sampled_record_forms_one_cluster():
    # Record x (row 0) is drawn in both frames: two draws, one cluster.
    frames = [multiframe.FrameDesign("o", np.full(2, 0.5), np.array(["s1"] * 2),
                                     np.array([True, True])),
              multiframe.FrameDesign("a", np.array([0.4, np.nan]), np.array(["t1", ""]),
                                     np.array([True, False]))]
    _, sample = multiframe.weighted_sample(frames, np.ones(2, dtype=bool))
    assert sample.rows.tolist().count(0) == 2
    assert len(set(sample.rows.tolist())) == 2


def _design(name, n, pi, sampled):
    """A FrameDesign over rows ``0..n-1`` from id-keyed pi and draws (ids are row numbers)."""
    p, leaf, drawn = np.full(n, np.nan), np.full(n, "", dtype=object), np.zeros(n, bool)
    for rid, value in pi.items():
        p[int(rid)] = value
    for rid, stratum in sampled.items():
        leaf[int(rid)], drawn[int(rid)] = stratum, True
    return multiframe.FrameDesign(name, p, leaf, drawn)


def test_total_estimator_ci_coverage():
    v, dual, strata_o, strata_a = _population(seed=3, n=500)
    truth = v.sum()
    all_ids = [str(i) for i in range(len(v))]
    dual_ids = [str(i) for i in range(len(v)) if dual[i]]
    rng = np.random.default_rng(123)
    covered = 0
    reps = 500
    for _ in range(reps):
        samp_o, pi_o = _draw_frame(rng, all_ids, {i: strata_o[int(i)] for i in all_ids},
                                   {0: 0.12, 1: 0.18})
        samp_a, pi_a = _draw_frame(rng, dual_ids, {i: strata_a[int(i)] for i in dual_ids},
                                   {0: 0.15, 1: 0.22})
        _, sample = multiframe.weighted_sample(
            [_design("o", len(v), pi_o, samp_o), _design("a", len(v), pi_a, samp_a)],
            np.ones(len(v), dtype=bool))
        w = sample.weights
        vals = v[sample.rows]
        total = float(np.sum(w * vals))
        proxy = models.FitResult(
            coefficients=np.array([total]),
            variance=np.zeros((1, 1)),
            influence=(w * vals)[:, None],
            converged=True,
            iterations=0,
        )
        var = models.sandwich_variance(proxy, sample.strata, sample.rows)[0, 0]
        half = 1.959963984540054 * np.sqrt(var)
        covered += int(abs(total - truth) <= half)
    coverage = covered / reps
    assert 0.92 <= coverage <= 0.98


def _frames():
    # Rows 0-5; the secondary frame holds rows 2-5.
    pi_o = np.array([0.5, 0.5, 0.25, 0.25, 0.5, 0.5])
    pi_a = np.array([np.nan, np.nan, 0.4, 0.4, 0.2, 0.2])
    return [multiframe.FrameDesign("O", pi_o, np.array(list("ppqqrr")),
                                   np.array([1, 0, 1, 1, 0, 1], dtype=bool)),
            multiframe.FrameDesign("A", pi_a, np.array(list("--sstt")),
                                   np.array([0, 0, 1, 0, 1, 0], dtype=bool))]


def test_weighted_sample_one_frame_is_inverse_pi():
    primary = _frames()[0]
    draws, sample = multiframe.weighted_sample([primary], np.ones(6, dtype=bool))
    assert sample.rows.tolist() == [0, 2, 3, 5]
    assert np.array_equal(sample.weights, 1.0 / primary.pi[sample.rows])
    assert sample.strata.tolist() == list("pqqr")


def test_weighted_sample_two_frames_rows_weights_strata():
    frames = _frames()
    order = np.array([5, 4, 3, 2, 1, 0])
    draws, sample = multiframe.weighted_sample(
        frames, np.array([0, 1, 1, 1, 1, 1], dtype=bool), order=order)
    # Every draw in the given order, primary frame first ...
    assert draws.rows.tolist() == [5, 3, 2, 0, 4, 2]
    assert draws.frame.tolist() == ["O"] * 4 + ["A"] * 2
    assert draws.strata.tolist() == ["O:r", "O:q", "O:q", "O:p", "A:t", "A:s"]
    np.testing.assert_allclose(draws.weights,
                               [1 / 0.7, 1 / 0.65, 1 / 0.65, 2.0, 1 / 0.7, 1 / 0.65])
    # ... and the analysis frame keeps all but row 0.
    assert sample.rows.tolist() == [5, 3, 2, 4, 2]
    assert sample.strata.tolist() == ["O:r", "O:q", "O:q", "A:t", "A:s"]
    assert sample.analysis_rows.tolist() == [1, 2, 3, 4, 5]


def test_weighted_sample_rejects_unvalidated_draws_in_the_analysis_frame():
    frames = _frames()
    validated = np.array([1, 0, 1, 1, 0, 1], dtype=bool)   # row 4: secondary draw
    ids = [f"r{i}" for i in range(6)]
    with pytest.raises(LedgerError, match="'r4' drawn in frame 'A'"):
        multiframe.weighted_sample(frames, np.ones(6, dtype=bool), validated=validated,
                                   ids=ids)
    # Outside the analysis frame an unrevealed draw is not fitted.
    multiframe.weighted_sample(frames, np.array([1, 1, 1, 1, 0, 1], dtype=bool),
                               validated=validated)


def test_weighted_sample_secondary_outside_primary_is_a_ledger_error():
    frames = _frames()[::-1]
    with pytest.raises(LedgerError, match="'r0' is in frame 'O'"):
        multiframe.weighted_sample(frames, np.ones(6, dtype=bool),
                                   ids=[f"r{i}" for i in range(6)])
