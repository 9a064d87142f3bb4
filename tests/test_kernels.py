"""The Breslow kernels against a dense loop over tie groups, and the backend stamp."""

import numpy as np
import pytest

import twophase
from twophase import kernels


def cox_case(seed=1, n=500, p=3, ties=True):
    rng = np.random.default_rng(seed)
    time = rng.exponential(size=n)
    if ties:
        time = np.round(time, 1) + 0.01
    order = np.argsort(time, kind="stable")
    ts = time[order]
    event = (rng.uniform(size=n) < 0.4).astype(float)[order]
    w = rng.uniform(0.5, 5.0, n)[order]
    x = rng.normal(size=(n, p))[order]
    eta = x @ rng.normal(size=p) * 0.3
    new = np.r_[True, ts[1:] != ts[:-1]]
    return event, w, eta, x, np.flatnonzero(new), np.cumsum(new) - 1


def test_residuals_sum_to_score():
    event, w, eta, x, starts, group_index = cox_case(seed=9)
    risk = kernels.risk_sets(event, w, x, starts, group_index)
    _, score, _, sums = kernels.cox_breslow(risk, eta)
    resid = kernels.cox_score_residuals(risk, sums)
    np.testing.assert_allclose(resid.T @ w, score, rtol=1e-8, atol=1e-10)


def test_active_backend_exposed():
    assert twophase.KERNEL_BACKEND == "python"


def breslow_dense(event, w, eta, x, group_index):
    """Breslow value, score and information from a loop over the event tie groups.

    Group g's risk set is every row in group g or later; its events share
    one denominator (Breslow ties).  A row's event weight is ``w * event``,
    so a fractional event counts in part.
    """
    p = x.shape[1]
    we = w * event
    loglik, score, info = 0.0, np.zeros(p), np.zeros((p, p))
    for g in np.unique(group_index[event > 0]):
        dead = (group_index == g) & (event > 0)
        at_risk = group_index >= g
        r = w[at_risk] * np.exp(eta[at_risk])
        s0 = r.sum()
        s1 = r @ x[at_risk]
        s2 = (x[at_risk] * r[:, None]).T @ x[at_risk]
        d = we[dead].sum()
        loglik += we[dead] @ eta[dead] - d * np.log(s0)
        score += we[dead] @ x[dead] - d * s1 / s0
        info += d * (s2 / s0 - np.outer(s1, s1) / s0**2)
    return loglik, score, info


def assert_breslow_matches_dense(event, w, eta, x, starts, group_index):
    """Check both kernels against the dense loop; returns the ``RiskSets``."""
    risk = kernels.risk_sets(event, w, x, starts, group_index)
    loglik, score, info, sums = kernels.cox_breslow(risk, eta)
    ref_ll, ref_score, ref_info = breslow_dense(event, w, eta, x, group_index)
    assert loglik == pytest.approx(ref_ll, rel=1e-12)
    np.testing.assert_allclose(score, ref_score, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_score).max())
    np.testing.assert_allclose(info, ref_info, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_info).max())
    resid = kernels.cox_score_residuals(risk, sums)
    np.testing.assert_allclose(resid.T @ w, ref_score, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_score).max())
    return risk


def test_breslow_matches_dense_loop_over_tie_groups():
    event, w, eta, x, starts, group_index = cox_case(seed=4, n=400)
    assert starts.size < event.size  # tied times
    assert np.any(np.bincount(group_index, weights=event) > 1)  # tied events
    assert_breslow_matches_dense(event, w, eta, x, starts, group_index)


def test_risk_sets_hold_what_does_not_depend_on_beta():
    event, w, _, x, starts, group_index = cox_case(seed=2, n=50)
    risk = kernels.risk_sets(event, w, x, starts, group_index)
    assert risk.xt.flags.c_contiguous and np.array_equal(risk.xt, x.T)
    np.testing.assert_array_equal(risk.we_x, (w * event) @ x)
    event_groups = np.flatnonzero(np.bincount(group_index, weights=w * event) > 0)
    np.testing.assert_array_equal(risk.tail_rows, event.size - 1 - starts[event_groups])


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def breslow_hexes(risk, eta):
    loglik, score, info, sums = kernels.cox_breslow(risk, eta)
    return ([hexes(loglik), hexes(score), hexes(info), *map(hexes, sums)],
            hexes(kernels.cox_score_residuals(risk, sums)))


def mi_case(seed, n, p, weighted):
    """Distinct times and events in (0, 1], as an MI refit imputes them."""
    rng = np.random.default_rng(seed)
    time = rng.exponential(size=n)
    order = np.argsort(time, kind="stable")
    event = (1.0 - rng.uniform(size=n))[order]
    w = (rng.uniform(0.5, 5.0, n) if weighted else np.ones(n))[order]
    x = rng.normal(size=(n, p))[order]
    eta = x @ rng.normal(size=p) * 0.3
    return event, w, eta, x, np.arange(n), np.arange(n)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sums_read_in_place_equal_the_gathered_ones(p, weighted):
    event, w, eta, x, starts, group_index = mi_case(10 + p, 700, p, weighted)
    risk = kernels.risk_sets(event, w, x, starts, group_index)
    assert risk.each_row_an_event
    assert hexes(risk.ew) == hexes(risk.we)
    gathered = risk._replace(each_row_an_event=False)
    assert breslow_hexes(risk, eta) == breslow_hexes(gathered, eta)
    m = kernels.cox_breslow(risk, eta)[3].m
    assert m.flags.c_contiguous and m.shape == (700, p)


@pytest.mark.parametrize("change", ["one tie", "one zero event"])
def test_a_tie_or_a_row_without_an_event_keeps_the_gathers(change):
    event, w, eta, x, starts, group_index = mi_case(3, 200, 2, True)
    if change == "one tie":  # rows 40 and 41 share a time
        starts = np.delete(starts, 41)
        group_index = np.r_[np.arange(41), np.arange(40, 199)]
    else:
        event[57] = 0.0
    risk = assert_breslow_matches_dense(event, w, eta, x, starts, group_index)
    assert not risk.each_row_an_event
    assert risk.ew.size == 199
