import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase.errors import LedgerError, PartitionError, SchemaError
from twophase.records import (
    AXES,
    DyadTable,
    Stratum,
    apply_draw,
    assign_strata,
    assign_strata_arrays,
    build_ledger,
    close_stratum,
    first_invalid_row,
    id_order,
    id_rows,
    sampling_probabilities,
    split_stratum,
)


def phase1_table(y_star, delta_star, x_star, prefix="r"):
    """A table of unvalidated records ``<prefix><i>`` with the given phase-1 columns."""
    y, d, x = np.atleast_1d(*np.broadcast_arrays(y_star, delta_star, x_star))
    return DyadTable([f"{prefix}{i}" for i in range(x.size)],
                     {"y_star": y, "delta_star": d, "x_star": x})


def take_rows(table, rows):
    """The rows ``rows`` of ``table`` as a table of their own."""
    rows = np.asarray(rows, dtype=np.intp)
    return DyadTable([table.ids[i] for i in rows.tolist()],
                     {name: values[rows] for name, values in table.columns.items()})


def sampling_probability(table, row, ledger):
    """Final-design inclusion probability ``n_s / N_s`` for the leaf of one row."""
    rid = table.ids[row]
    if ledger.member_flag is not None and not table.columns[ledger.member_flag][row]:
        raise LedgerError(f"record {rid!r} is not a member of frame {ledger.frame!r}")
    # The slice keeps the records the ledger counts, which a table must hold.
    drawn = ledger.sampled_ids()
    rows = sorted({row, *(i for i, r in enumerate(table.ids) if r in drawn)})
    return sampling_probabilities(take_rows(table, rows), ledger)[rid]

# The final stratification of the primary validation design: 33 leaves on
# (event indicator, follow-up band, weight-gain band) covering 10,335 records.
FINAL_STRATA = [
    ("1", 0, (2, 5), (None, 5.14), 190),
    ("2", 0, (2, 5), (5.14, 12), 1904),
    ("3", 0, (2, 5), (12, 16), 1356),
    ("4", 0, (2, 5), (16, 20.5), 526),
    ("5", 0, (2, 5), (20.5, None), 177),
    ("6", 0, (5, 6), (None, 5.14), 208),
    ("7", 0, (5, 6), (5.14, 8.6), 429),
    ("8", 0, (5, 6), (8.6, 12), 1478),
    ("9", 0, (5, 6), (12, 14), 846),
    ("10", 0, (5, 6), (14, 16), 563),
    ("11", 0, (5, 6), (16, 20.5), 588),
    ("12", 0, (5, 6), (20.5, 24.3), 154),
    ("13", 0, (5, 6), (24.3, None), 71),
    ("14", 1, (2, 2.5), (None, 5.14), 49),
    ("15", 1, (2, 2.5), (5.14, 10), 140),
    ("16", 1, (2, 2.5), (10, 12), 126),
    ("17", 1, (2, 2.5), (12, 16), 205),
    ("18", 1, (2, 2.5), (16, 20.5), 76),
    ("19", 1, (2, 2.5), (20.5, None), 33),
    ("20", 1, (2.5, 3), (None, 5.14), 13),
    ("21", 1, (2.5, 3), (5.14, 12), 129),
    ("22", 1, (2.5, 3), (12, 20.5), 129),
    ("23", 1, (2.5, 3), (20.5, None), 19),
    ("24", 1, (3, 4), (None, 5.14), 21),
    ("25", 1, (3, 4), (5.14, 12), 175),
    ("26", 1, (3, 4), (12, 20.5), 203),
    ("27", 1, (3, 4), (20.5, None), 28),
    ("28", 1, (4, 5), (None, 5.14), 22),
    ("29", 1, (4, 5), (5.14, 20.5), 261),
    ("30", 1, (4, 5), (20.5, None), 24),
    ("31", 1, (5, 6), (None, 5.14), 14),
    ("32", 1, (5, 6), (5.14, 20.5), 167),
    ("33", 1, (5, 6), (20.5, None), 11),
]

# Total gain bands are in kg over the pregnancy; records carry kg/week, so
# convert with the 39-week convention used throughout.
WEEKS = 39.0


def final_leaf_specs():
    specs = []
    for sid, delta, (ylo, yhi), (glo, ghi), _ in FINAL_STRATA:
        dlo, dhi = (None, 0.5) if delta == 0 else (0.5, None)
        # Follow-up bands tile (2, 6]; edge strata absorb the open ends.
        ylo_b = None if ylo == 2 else ylo
        yhi_b = None if yhi == 6 else yhi
        specs.append({
            "id": sid,
            "bounds": {
                "delta_star": [dlo, dhi],
                "y_star": [ylo_b, yhi_b],
                "x_star": [None if glo is None else glo / WEEKS,
                           None if ghi is None else ghi / WEEKS],
            },
        })
    return specs


def synthesize_table_population(seed=0):
    """10,335 records whose phase-1 values land in the published strata counts."""
    rng = np.random.default_rng(seed)
    columns = {"y_star": [], "delta_star": [], "x_star": [], "in_asthma_frame": []}
    for sid, delta, (ylo, yhi), (glo, ghi), n_s in FINAL_STRATA:
        glo_w = (glo / WEEKS) if glo is not None else -0.2
        ghi_w = (ghi / WEEKS) if ghi is not None else 1.2
        for _ in range(n_s):
            columns["y_star"].append(rng.uniform(ylo + 1e-6, yhi))
            columns["delta_star"].append(delta)
            columns["x_star"].append(rng.uniform(glo_w + 1e-9, ghi_w))
            columns["in_asthma_frame"].append(rng.uniform() < 0.68)
    return DyadTable([f"d{i:05d}" for i in range(len(columns["x_star"]))], columns)


@pytest.fixture(scope="module")
def table_design():
    table = synthesize_table_population()
    ledger = build_ledger("obesity", final_leaf_specs(), table, rng_seed=42)
    return table, ledger


class TestFirstInvalidRow:
    def test_invalid_values_rejected(self):
        table = phase1_table([1.0, -1.0, 1.0], [0, 0, 2], 0.3)
        assert first_invalid_row(table.columns) == (1, "y_star must be positive")
        table.columns["y_star"][1] = 1.0
        assert first_invalid_row(table.columns) == (2, "delta_star must be 0 or 1")
        table.columns["delta_star"][2] = 1.0
        assert first_invalid_row(table.columns) is None

    def test_the_asthma_pair_follows_the_delta_rules(self):
        table = DyadTable(["a", "b"], {"y_star": [1.0, 1.0], "delta_star": [0, 1],
                                       "x_star": [0.3, 0.3], "asthma_star": [1, 0.5]})
        assert table.has_asthma and list(table.columns)[-1] == "asthma"
        assert first_invalid_row(table.columns) == (1, "asthma_star must be 0 or 1")
        table.columns["asthma_star"][1] = 0.0
        table.columns["asthma"][:] = 2.0        # not validated: not counted
        assert first_invalid_row(table.columns) is None
        table.columns["validated"][0] = True
        table.columns["y"][0] = 1.0
        assert first_invalid_row(table.columns) == (0, "asthma must be 0 or 1")
        assert not phase1_table(1.0, 0, 0.3).has_asthma


class TestAssignStrata:
    def test_published_example_record(self, table_design):
        _, ledger = table_design
        probe = phase1_table(5.5, 0, 5.0 / WEEKS, prefix="probe")
        assert assign_strata(probe, ledger) == {"probe0": "6"}
        assert ledger.strata["6"].population_size == 208

    def test_single_stratum_trivial(self):
        table = phase1_table(3.0, 1, 0.5)
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
        assert assign_strata(table, ledger) == {"r0": "all"}

    def test_counts_match_published_totals(self, table_design):
        table, ledger = table_design
        assignment = assign_strata(table, ledger)
        counts = {}
        for sid in assignment.values():
            counts[sid] = counts.get(sid, 0) + 1
        # Independent rescan: every leaf count matches the ledger and the
        # published table, and the total is the full population.
        for sid, _, _, _, n_s in FINAL_STRATA:
            assert counts[sid] == n_s == ledger.strata[sid].population_size
        assert sum(counts.values()) == 10335 == ledger.population_size()

    def test_gap_in_partition_raises(self):
        table = phase1_table(3.0, 1, 0.5, prefix="a")
        specs = [{"id": "lo", "bounds": {"x_star": [None, 0.2]}},
                 {"id": "hi", "bounds": {"x_star": [0.7, None]}}]
        with pytest.raises(PartitionError, match="a0"):
            build_ledger("f", specs, table)

    def test_overlap_raises(self):
        table = phase1_table(3.0, 1, 0.5)
        specs = [{"id": "lo", "bounds": {"x_star": [None, 0.6]}},
                 {"id": "hi", "bounds": {"x_star": [0.2, None]}}]
        with pytest.raises(PartitionError):
            build_ledger("f", specs, table)


class TestSamplingProbability:
    def test_published_rows(self, table_design):
        table, ledger = table_design
        # Wave draws matching the published per-stratum totals for rows 1 and 33.
        assignment = assign_strata(table, ledger)
        members = {}
        for rid, sid in assignment.items():
            members.setdefault(sid, []).append(rid)
        draws = {"33": members["33"][:10], "1": members["1"][:7]}
        ledger2 = apply_draw(ledger, 1, draws)
        row33 = next(i for i, rid in enumerate(table.ids) if assignment[rid] == "33")
        assert sampling_probability(table, row33, ledger2) == pytest.approx(10 / 11)
        row1 = next(i for i, rid in enumerate(table.ids) if assignment[rid] == "1")
        assert sampling_probability(table, row1, ledger2) == pytest.approx(7 / 190)

    def test_census_stratum(self):
        table = phase1_table(1.0, 0, np.full(4, 0.1))
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
        ledger = apply_draw(ledger, 1, {"all": table.ids})
        assert sampling_probability(table, 0, ledger) == 1.0

    def test_zero_draws_is_ledger_error(self):
        table = phase1_table(1.0, 0, 0.1)
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
        with pytest.raises(LedgerError):
            sampling_probability(table, 0, ledger)


class TestSplitStratum:
    def test_split_preserves_population(self):
        rng = np.random.default_rng(3)
        table = phase1_table(5.5, 0, rng.uniform(8.6, 20.5, size=1478) / WEEKS)
        ledger = build_ledger("f", [{"id": "8", "bounds": {}}], table)
        new = split_stratum(ledger, table, "8", "x_star",
                            [12 / WEEKS, 14 / WEEKS])
        leaves = {s.id: s for s in new.leaves()}
        assert set(leaves) == {"8.1", "8.2", "8.3"}
        assert sum(s.population_size for s in leaves.values()) == 1478
        # Independent rescan oracle.
        x = table.columns["x_star"].tolist()
        lo = sum(1 for v in x if v <= 12 / WEEKS)
        mid = sum(1 for v in x if 12 / WEEKS < v <= 14 / WEEKS)
        assert leaves["8.1"].population_size == lo
        assert leaves["8.2"].population_size == mid

    def test_presplit_draws_attributed_by_rescan(self):
        table = phase1_table(1.0, 0, np.arange(10) + 0.5)
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
        ledger = apply_draw(ledger, 1, {"all": ["r1", "r8"]})
        new = split_stratum(ledger, table, "all", "x_star", [5.0],
                            child_ids=["left", "right"])
        assert new.strata["left"].inherited_ids == ["r1"]
        assert new.strata["right"].inherited_ids == ["r8"]
        # Probabilities use the final (post-split) leaves.
        assert sampling_probability(table, 1, new) == pytest.approx(1 / 5)
        # Parent history is retained for audit.
        assert [len(ids) for ids in new.strata["all"].drawn] == [2]

    def test_split_errors(self):
        table = phase1_table(1.0, 0, 0.5)
        ledger = build_ledger("f", [{"id": "all", "bounds": {"x_star": [0, 1]}}],
                              table)
        with pytest.raises(SchemaError):
            split_stratum(ledger, table, "all", "x_star", [])
        with pytest.raises(SchemaError):
            split_stratum(ledger, table, "all", "x_star", [2.0])
        new = split_stratum(ledger, table, "all", "x_star", [0.6])
        with pytest.raises(LedgerError):
            split_stratum(new, table, "all", "x_star", [0.3])

    def test_leaf_counting_another_leafs_record_is_ledger_error(self):
        # The split used to succeed, and write a ledger that every later
        # command rejects.
        table = phase1_table(1.0, 0, np.arange(10) + 0.5)
        specs = [{"id": "lo", "bounds": {"x_star": [None, 5.0]}},
                 {"id": "hi", "bounds": {"x_star": [5.0, None]}}]
        ledger = apply_draw(build_ledger("f", specs, table), 1, {"lo": ["r1", "r8"]})
        with pytest.raises(LedgerError, match="'r8'"):
            split_stratum(ledger, table, "lo", "x_star", [2.0])

    def test_closed_stratum_rejects_draws(self):
        table = phase1_table(1.0, 0, np.full(5, 0.5))
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
        ledger = close_stratum(ledger, "all")
        with pytest.raises(LedgerError):
            apply_draw(ledger, 1, {"all": ["r0"]})


def test_apply_draw_leaves_the_callers_ledger_as_it_was():
    table = phase1_table(1.0, 0, np.arange(12) + 0.5)
    specs = [{"id": "lo", "bounds": {"x_star": [None, 4.0]}},
             {"id": "mid", "bounds": {"x_star": [4.0, 8.0]}},
             {"id": "hi", "bounds": {"x_star": [8.0, None]}}]
    ledger = apply_draw(build_ledger("f", specs, table), 1, {"lo": ["r0"], "hi": ["r9"]})
    ledger = split_stratum(ledger, table, "hi", "x_star", [10.0])  # hi.1 inherits r9
    ledger = close_stratum(ledger, "hi.2")
    before = copy.deepcopy(ledger)
    failing = {
        "out-of-order wave": (3, {"lo": ["r1"]}),
        "non-leaf stratum": (2, {"lo": ["r1"], "hi": ["r8"]}),
        "repeated id": (2, {"mid": ["r4"], "hi.1": ["r9"]}),
        "closed stratum": (2, {"mid": ["r4"], "hi.2": ["r10"]}),
        "N_s exceeded": (2, {"mid": ["r4"], "hi.1": ["r8", "r10"]}),
    }
    for case, (wave, draws) in failing.items():
        with pytest.raises(LedgerError):
            apply_draw(ledger, wave, draws)
        assert ledger == before, case
    new = apply_draw(ledger, 2, {"mid": ["r4"], "hi.1": ["r8"]})
    assert ledger == before
    assert new.wave_count == 2
    assert {sid: s.drawn for sid, s in new.strata.items()} == {
        "lo": [["r0"], []], "mid": [[], ["r4"]], "hi": [["r9"], []],
        "hi.1": [[], ["r8"]], "hi.2": [[], []]}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.05, 0.95), min_size=0, max_size=4, unique=True),
       st.integers(0, 10_000))
def test_partition_property_under_random_splits(cuts, seed):
    rng = np.random.default_rng(seed)
    table = phase1_table(rng.uniform(0.5, 8, size=120), rng.integers(0, 2, size=120),
                         rng.uniform(0, 1, size=120))
    ledger = build_ledger("f", [{"id": "root", "bounds": {}}], table)
    target = "root"
    for j, c in enumerate(sorted(cuts)):
        ledger = split_stratum(ledger, table, target, "x_star", [c],
                               child_ids=[f"s{j}l", f"s{j}r"])
        target = f"s{j}r"
    assert ledger.population_size() == 120
    assignment = assign_strata(table, ledger)
    assert len(assignment) == 120
    leaf_ids = set(ledger.leaf_ids())
    assert set(assignment.values()) <= leaf_ids


def test_sampling_probabilities_bulk_matches_scalar(table_design):
    table, ledger = table_design
    assignment = assign_strata(table, ledger)
    members = {}
    for rid, sid in assignment.items():
        members.setdefault(sid, []).append(rid)
    draws = {sid: ids[: min(3, len(ids))] for sid, ids in members.items()}
    ledger2 = apply_draw(ledger, 1, draws)
    drawn = ledger2.sampled_ids()
    head = take_rows(table, sorted({*range(100),
                                    *(i for i, rid in enumerate(table.ids) if rid in drawn)}))
    pis = sampling_probabilities(head, ledger2)
    for row, rid in enumerate(head.ids):
        assert pis[rid] == sampling_probability(head, row, ledger2)


def leaf_masks(values, leaves):
    """Per-row match counts and leaves by one mask per leaf, the reference
    for ``assign_strata_arrays``: the last matching leaf wins."""
    n = len(next(iter(values.values())))
    count, leaf = np.zeros(n, dtype=np.intp), np.full(n, -1, dtype=np.intp)
    for j, s in enumerate(leaves):
        mask = np.ones(n, dtype=bool)
        for axis, (lo, hi) in s.bounds.items():
            mask &= (values[axis] > lo) & (values[axis] <= hi)
        count += mask
        leaf[mask] = j
    return count, leaf


EDGES = [-np.inf, -1.0, -0.0, 0.5, 1.0, 2.0, np.inf]


@st.composite
def boxes(draw):
    """Leaves with any (lo, hi] bounds on any axes, gaps and overlaps
    included, and values on and between their edges, with nan and +-inf."""
    leaves = []
    for j in range(draw(st.integers(0, 6))):
        bounds = {}
        for axis in draw(st.lists(st.sampled_from(AXES), unique=True, max_size=3)):
            lo, hi = sorted(draw(st.lists(st.sampled_from(EDGES), min_size=2, max_size=2,
                                          unique=True)))
            bounds[axis] = (lo, hi)
        leaves.append(Stratum(id=f"s{j}", frame="f", bounds=bounds))
    n = draw(st.integers(1, 30))
    point = st.sampled_from([*EDGES, np.nan, 0.25, 1.5, 7.0, -3.0])
    values = {axis: np.array(draw(st.lists(point, min_size=n, max_size=n))) for axis in AXES}
    return values, leaves


@settings(max_examples=300, deadline=None)
@given(case=boxes())
def test_assign_strata_arrays_matches_one_mask_per_leaf(case):
    values, leaves = case
    count, leaf = leaf_masks(values, leaves)
    if np.all(count == 1):
        assert assign_strata_arrays(values, leaves).tolist() == leaf.tolist()
    else:
        bad = int(np.flatnonzero(count != 1)[0])
        with pytest.raises(PartitionError, match=f"record index {bad} matches "
                                                 f"{count[bad]} leaves"):
            assign_strata_arrays(values, leaves)


def test_assign_strata_arrays_on_a_grid_larger_than_the_table():
    # 40 x 40 x 2 leaves cut the axes into 42 x 42 x 4 = 7,056 cells, more
    # than the 50 records and 4,096: no grid is built, each leaf tests
    # every record.
    rng = np.random.default_rng(3)
    cuts = np.linspace(0, 1, 41)
    leaves = [Stratum(id=f"{i}.{j}.{d}", frame="f",
                      bounds={"x_star": (cuts[i], cuts[i + 1]), "y_star": (cuts[j], cuts[j + 1]),
                              "delta_star": ((-np.inf, 0.5), (0.5, np.inf))[d]})
              for i in range(40) for j in range(40) for d in range(2)]
    values = {"x_star": rng.uniform(0.01, 1, 50), "y_star": rng.uniform(0.01, 1, 50),
              "delta_star": rng.integers(0, 2, 50).astype(float)}
    assert assign_strata_arrays(values, leaves).tolist() == leaf_masks(values, leaves)[1].tolist()
    values["x_star"][7] = 1.5  # outside every leaf
    with pytest.raises(PartitionError, match="record index 7 matches 0 leaves"):
        assign_strata_arrays(values, leaves)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.sampled_from(list("ab\x00é")), max_size=3), max_size=12))
def test_id_order_is_a_stable_sort_on_python_strings(ids):
    assert id_order(ids).tolist() == sorted(range(len(ids)), key=ids.__getitem__)
    assert id_order(sorted(ids)).tolist() == list(range(len(ids)))


def test_id_rows_gives_the_positions_of_the_wanted_ids():
    assert id_rows(["a", "b", "c", "b"], {"b", "z"}).tolist() == [1, 3]
    assert id_rows([], {"b"}).tolist() == []
