"""The sorted and grouped passes give exactly what the per-group masks gave.

Each pass below orders or groups rows once instead of scanning every row
per group.  Its reference is the mask (or stable-sort) formula it
replaced, kept here verbatim, and the two must agree bit for bit: the
same permutation, the same values in the same order, and so the same
floating-point sums.  The order rules that make this hold are: tied Cox
times keep row order, rows enter a group in row order, and groups are
visited in label order.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import allocation as al
from twophase import kernels, models, multiframe
from twophase.errors import InfeasibleError


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


# --- Cox row order ---------------------------------------------------------

def stable_prepare_cox(time, event, x):
    """``models._prepare_cox`` as a stable argsort computes it."""
    order = np.argsort(time, kind="stable")
    ts = time[order]
    new_group = np.r_[True, ts[1:] != ts[:-1]]
    return order, event[order], x[order], np.flatnonzero(new_group), np.cumsum(new_group) - 1


def assert_prepare_cox_exact(time):
    rng = np.random.default_rng(time.size)
    event = (rng.uniform(size=time.size) < 0.5).astype(float)
    x = rng.normal(size=(time.size, 2))
    got = models._prepare_cox(time, event, x)
    for a, b in zip(got, stable_prepare_cox(time, event, x)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), distinct=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       signed_zero=st.booleans())
def test_prepare_cox_order_is_the_stable_one_on_heavy_ties(n, distinct, seed, signed_zero):
    rng = np.random.default_rng(seed)
    values = np.round(rng.exponential(size=distinct), 1)
    if signed_zero:
        values[: min(2, distinct)] = [-0.0, 0.0][: min(2, distinct)]
    time = values[rng.integers(0, distinct, n)]
    assert_prepare_cox_exact(time)


@pytest.mark.parametrize("time", [
    np.array([3.0]),
    np.full(300, 2.5),
    np.array([0.0, -0.0] * 150),
    np.r_[np.arange(200.0), np.full(200, 7.0)][::-1].copy(),
], ids=["n=1", "all-equal", "signed-zeros", "one-big-tie"])
def test_prepare_cox_order_on_edge_cases(time):
    assert_prepare_cox_exact(time)


# --- the grouping helper ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 500), n_groups=st.sampled_from([1, 3, 40, 300, 70_000]),
       seed=st.integers(0, 2**32 - 1))
def test_group_rows_lists_each_groups_rows_in_row_order(n, n_groups, seed):
    labels = np.random.default_rng(seed).integers(0, n_groups, n)
    order, bounds = kernels.group_rows(labels, n_groups)
    assert bounds[0] == 0
    assert np.array_equal(np.diff(bounds), np.bincount(labels, minlength=n_groups))
    for g in np.unique(labels).tolist():
        assert np.array_equal(order[bounds[g]:bounds[g + 1]], np.flatnonzero(labels == g))


@pytest.mark.parametrize("labels", [[0, 3], [-1, 0]])
def test_group_rows_rejects_labels_outside_the_groups(labels):
    with pytest.raises(ValueError):
        kernels.group_rows(np.array(labels), 3)


# --- sandwich_variance ------------------------------------------------------

def mask_sandwich_variance(fit, strata=None, clusters=None):
    """``models.sandwich_variance`` as one boolean mask per stratum computed it."""
    h = np.asarray(fit.influence, dtype=np.float64)
    strata = np.zeros(h.shape[0], dtype=np.intp) if strata is None else np.asarray(strata)
    if clusters is not None:
        clusters = np.asarray(clusters)
        keys, idx = np.unique(clusters, return_inverse=True)
        agg = np.zeros((keys.size, h.shape[1]))
        np.add.at(agg, idx, h)
        cl_str = np.empty(keys.size, dtype=strata.dtype)
        cl_str[idx[::-1]] = strata[::-1]
        h = agg
        strata = cl_str
    labels, inv = np.unique(strata, return_inverse=True)
    counts = np.bincount(inv)
    if np.any(counts == 1) and labels.size > 1:
        warnings.warn("stratum with a single record: falling back to pooled variance",
                      stacklevel=2)
        labels, inv = np.zeros(1), np.zeros(h.shape[0], dtype=np.intp)
    p = h.shape[1]
    v = np.zeros((p, p))
    for s in range(labels.size):
        rows = h[inv == s]
        n_s = rows.shape[0]
        if n_s == 1:
            continue
        centered = rows - rows.mean(axis=0)
        v += (n_s / (n_s - 1.0)) * centered.T @ centered
    return 0.5 * (v + v.T)


def caught(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in seen]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 300), p=st.integers(1, 3), n_strata=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), label_kind=st.sampled_from(["none", "int", "str"]),
       n_clusters=st.one_of(st.none(), st.integers(1, 300)))
def test_sandwich_variance_equals_the_mask_formula(n, p, n_strata, seed, label_kind,
                                                   n_clusters):
    rng = np.random.default_rng(seed)
    fit = models.FitResult(np.zeros(p), np.eye(p), rng.normal(size=(n, p)), True, 0)
    codes = rng.integers(0, n_strata, n)
    strata = {"none": None, "int": codes * 7 - 20,
              "str": np.array([f"s{c}" for c in codes])}[label_kind]
    clusters = None if n_clusters is None else rng.integers(0, n_clusters, n)
    got, got_warnings = caught(models.sandwich_variance, fit, strata, clusters)
    want, want_warnings = caught(mask_sandwich_variance, fit, strata, clusters)
    assert hexes(got) == hexes(want)
    assert got_warnings == want_warnings


def test_sandwich_variance_single_record_fallback_is_exact():
    rng = np.random.default_rng(5)
    fit = models.FitResult(np.zeros(2), np.eye(2), rng.normal(size=(50, 2)), True, 0)
    strata = np.r_[np.zeros(49, dtype=np.intp), 1]
    with pytest.warns(UserWarning, match="single record"):
        got = models.sandwich_variance(fit, strata)
    with pytest.warns(UserWarning, match="single record"):
        want = mask_sandwich_variance(fit, strata)
    assert hexes(got) == hexes(want)


# --- influence_sd -----------------------------------------------------------

def mask_influence_sd(h, assignment, ids, sizes, already, *, validated=None, shrink=0.0,
                      ancestors=None):
    """``allocation.influence_sd`` as one boolean mask per stratum computed it."""
    mask = np.ones(h.size, dtype=bool) if validated is None else validated
    pooled = float(np.std(h[mask], ddof=1)) if mask.sum() >= 2 else 1.0
    per_stratum = [h[mask & (assignment == s)] for s in range(len(ids))]
    out = []
    for s, vals in enumerate(per_stratum):
        source = "stratum"
        if vals.size >= 2:
            v = float(np.var(vals, ddof=1))
            if shrink > 0:
                v = (vals.size * v + shrink * pooled ** 2) / (vals.size + shrink)
            sd = float(np.sqrt(v))
        else:
            sd, source = pooled, "proportional"
            for group in (ancestors[s] if ancestors else ()):
                pooled_vals = np.concatenate([per_stratum[j] for j in group])
                if pooled_vals.size >= 2:
                    sd, source = float(np.std(pooled_vals, ddof=1)), "parent"
                    break
        out.append(al.StratumStats(id=ids[s], population_size=int(sizes[s]), sd=sd,
                                   already_sampled=int(already[s]), sd_source=source))
    return out


def stats_key(stats):
    return [(s.id, s.population_size, float(s.sd).hex(), s.already_sampled, s.sd_source)
            for s in stats]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 300), n_strata=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([None, 0.05, 0.3, 1.0]), shrink=st.sampled_from([0.0, 0.5, 4.0]),
       with_ancestors=st.booleans(), strided=st.booleans())
def test_influence_sd_equals_the_mask_formula(n, n_strata, seed, share, shrink,
                                              with_ancestors, strided):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, 2))[:, 1] if strided else rng.normal(size=n)
    assignment = rng.integers(0, n_strata, n)
    ids = [f"s{j}" for j in range(n_strata)]
    sizes = rng.integers(1, 1000, n_strata)
    already = rng.integers(0, 2, n_strata)
    validated = None if share is None else rng.uniform(size=n) < share
    ancestors = None
    if with_ancestors:
        ancestors = [[rng.permutation(n_strata)[:rng.integers(1, n_strata + 1)].tolist()
                      for _ in range(rng.integers(0, 3))] for _ in range(n_strata)]
    args = (h, assignment, ids, sizes, already)
    kw = dict(validated=validated, shrink=shrink, ancestors=ancestors)
    assert stats_key(al.influence_sd(*args, **kw)) == stats_key(mask_influence_sd(*args, **kw))


# --- draw_within_strata -----------------------------------------------------

def mask_draw_within_strata(rng, assignment, ids, draws, eligible):
    """``allocation.draw_within_strata`` as one boolean mask per stratum computed it."""
    chosen = []
    for s, sid in enumerate(ids):
        want = int(draws.get(sid, 0))
        if want == 0:
            chosen.append(np.empty(0, dtype=np.intp))
            continue
        pool = np.flatnonzero(eligible & (assignment == s))
        if want > pool.size:
            raise InfeasibleError(
                f"stratum {sid!r}: allocation {want} exceeds the "
                f"{pool.size} remaining records")
        take = rng.choice(pool.size, size=want, replace=False)
        chosen.append(pool[np.sort(take)])
    return chosen


def drawn(fn, seed, *args):
    rng = np.random.default_rng(seed)
    try:
        out = fn(rng, *args)
    except InfeasibleError as exc:
        out = str(exc)
    return out, rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 400), n_strata=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       eligible_share=st.sampled_from([0.2, 0.7, 1.0]), overdraw=st.booleans())
def test_draw_within_strata_same_rows_and_generator_state(n, n_strata, seed,
                                                          eligible_share, overdraw):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_strata, n)
    eligible = rng.uniform(size=n) < eligible_share
    ids = [str(j) for j in range(n_strata)]
    room = np.bincount(assignment[eligible], minlength=n_strata)
    draws = {sid: int(rng.integers(0, room[j] + 1 + overdraw)) for j, sid in enumerate(ids)}
    got, got_state = drawn(al.draw_within_strata, seed + 1, assignment, ids, draws, eligible)
    want, want_state = drawn(mask_draw_within_strata, seed + 1, assignment, ids, draws,
                             eligible)
    assert got_state == want_state
    if isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# --- weighted_sample's two-frame labels ------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       leaf_kind=st.sampled_from(["int", "str"]), primary_share=st.sampled_from([0.0, 0.4]),
       secondary_share=st.sampled_from([0.0, 0.5]))
def test_two_frame_labels_equal_one_format_per_draw(n, seed, leaf_kind, primary_share,
                                                    secondary_share):
    rng = np.random.default_rng(seed)
    in_secondary = rng.uniform(size=n) < 0.6
    leaf_o, leaf_a = rng.integers(0, 12, n), np.where(in_secondary, rng.integers(0, 5, n), -1)
    if leaf_kind == "str":
        leaf_o, leaf_a = leaf_o.astype(str), np.char.add("leaf", leaf_a.astype(str))
    pi_a = np.where(in_secondary, 0.5, np.nan)
    frames = [multiframe.FrameDesign("O", np.full(n, 0.4), leaf_o,
                                     rng.uniform(size=n) < primary_share),
              multiframe.FrameDesign("A", pi_a, leaf_a,
                                     in_secondary & (rng.uniform(size=n) < secondary_share))]
    order = rng.permutation(n)
    draws, _ = multiframe.weighted_sample(frames, np.ones(n, dtype=bool), order=order)
    picked = [order[f.sampled[order]] for f in frames]
    frame = np.repeat([f.name for f in frames], [r.size for r in picked])
    leaves = np.concatenate([f.leaf[r] for f, r in zip(frames, picked)])
    want = np.array([f"{f}:{leaf}" for f, leaf in zip(frame, leaves)])
    assert draws.strata.dtype == want.dtype
    assert np.array_equal(draws.strata, want)


# --- cox_score_residuals ----------------------------------------------------

def row_major_residuals(risk, sums):
    """``kernels.cox_score_residuals`` as the row-major (n x p) formula computed it."""
    def running_sum(values, k):
        total = np.cumsum(values, axis=0)
        return np.concatenate([np.zeros((1,) + total.shape[1:]), total]).take(k, axis=0)

    b = running_sum(sums.haz[:, None] * sums.m, risk.k)
    x = risk.x
    m_i = np.concatenate([np.zeros((1, x.shape[1])), sums.m]).take(risk.k, axis=0)
    return (risk.event[:, None] * (x - m_i)
            - sums.exp_eta[:, None] * (x * sums.a[:, None] - b))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       digits=st.one_of(st.integers(0, 2), st.none()), fractional=st.booleans())
def test_cox_score_residuals_equal_the_row_major_formula(n, p, seed, digits, fractional):
    # Fractional events in (0, 1] on distinct (unrounded) times are the MI
    # refits' case: every row is an event group and the sums are read in place.
    rng = np.random.default_rng(seed)
    time = rng.exponential(size=n)
    if digits is not None:
        time = np.round(time, digits) + 0.01
    draw = rng.uniform(size=n)
    event = 1.0 - draw if fractional else (draw < 0.4).astype(float)
    x = rng.normal(size=(n, p))
    order, ev, xs, starts, group_index = models._prepare_cox(time, event, x)
    risk = kernels.risk_sets(ev, rng.uniform(0.5, 5.0, n), xs, starts, group_index)
    if fractional and digits is None:
        assert risk.each_row_an_event
    _, _, _, sums = kernels.cox_breslow(risk, xs @ rng.normal(size=p) * 0.3)
    got = kernels.cox_score_residuals(risk, sums)
    assert got.flags.c_contiguous and got.shape == (n, p)
    assert hexes(got) == hexes(row_major_residuals(risk, sums))
