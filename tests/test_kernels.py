"""The Breslow kernels: residuals against the score, and the backend stamp."""

import numpy as np

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
    args = cox_case(seed=9)
    _, score, _ = kernels.cox_breslow(*args)
    resid = kernels.cox_score_residuals(*args)
    np.testing.assert_allclose(resid.T @ args[1], score, rtol=1e-8, atol=1e-10)


def test_active_backend_exposed():
    assert twophase.KERNEL_BACKEND == "python"
