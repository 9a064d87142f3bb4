import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import allocation as al
from twophase.errors import DegenerateDesignError, InfeasibleError
from twophase.records import DesignLedger, DyadTable, Stratum, apply_draw, build_ledger

from allocation_oracle import oracle_allocation


def stats(*triples):
    return [al.StratumStats(id=str(i + 1), population_size=n, sd=s, already_sampled=a)
            for i, (n, s, a) in enumerate(triples)]


class TestNeyman:
    """Neyman allocation as the wave rule gives it on fresh designs."""

    def test_symmetric_split(self):
        out = al.multiwave(stats((100, 1.0, 0), (100, 1.0, 0)), 50).draws
        assert out == {"1": 25, "2": 25}

    def test_scale_invariance(self):
        base = stats((190, 2.0, 0), (1904, 0.5, 0), (177, 1.5, 0))
        scaled = stats((190, 14.0, 0), (1904, 3.5, 0), (177, 10.5, 0))
        assert al.multiwave(base, 100).draws == al.multiwave(scaled, 100).draws

    def test_matches_direct_formula(self):
        # The integer draws lie within one of the continuous Neyman shares.
        out = al.multiwave(stats((190, 2.0, 0), (1904, 0.5, 0), (177, 1.5, 0)), 100).draws
        weights = [190 * 2.0, 1904 * 0.5, 177 * 1.5]
        total = sum(weights)
        for k, w in zip(("1", "2", "3"), weights):
            assert abs(out[k] - 100 * w / total) < 1
        assert sum(out.values()) == 100

    def test_zero_sd_gets_zero(self):
        out = al.multiwave(stats((50, 0.0, 0), (50, 1.0, 0)), 10, min_per_stratum=0).draws
        assert out == {"1": 0, "2": 10}

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateDesignError):
            al.multiwave(stats((50, 0.0, 0), (150, 0.0, 0)), 10)
        with pytest.raises(DegenerateDesignError):
            al.multiwave(stats((50, 0.0, 5), (150, 0.0, 5)), 30)
        # A zero budget allocates nothing and so needs no spread.
        assert al.multiwave(stats((50, 0.0, 5), (150, 0.0, 5)), 10).total == 0

    @given(st.floats(0.1, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_property(self, c):
        base = stats((190, 2.0, 0), (1904, 0.5, 0), (177, 1.5, 0))
        scaled = stats((190, 2.0 * c, 0), (1904, 0.5 * c, 0), (177, 1.5 * c, 0))
        assert al.multiwave(base, 77).draws == al.multiwave(scaled, 77).draws


class TestExactAllocation:
    def test_small_known_instance(self):
        out = al.exact_allocation(stats((10, 1.0, 0), (10, 1.0, 0), (1, 1.0, 0)), 5)
        assert out == {"1": 2, "2": 2, "3": 1}

    def test_single_stratum(self):
        assert al.exact_allocation(stats((100, 2.0, 0)), 7) == {"1": 7}

    def test_exact_total_where_rounding_overshoots(self):
        # Fractional shares that round up in every stratum still land on n.
        sts = stats((100, 1.3, 0), (100, 1.1, 0), (100, 0.9, 0), (100, 0.7, 0))
        out = al.exact_allocation(sts, 250)
        assert sum(out.values()) == 250

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k, 31))
            sts = [al.StratumStats(str(j), int(rng.integers(n, 60)),
                                   float(rng.uniform(0.0, 3.0)))
                   for j in range(k)]
            got = al.exact_allocation(sts, n)
            best, minimizers = oracle_allocation(sts, n)
            assert al.allocation_variance(sts, got) == best
            assert got in minimizers
            # A fresh design's wave is the integer stage on its own.
            assert al.multiwave(sts, n).draws == got

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            al.exact_allocation(stats((3, 1.0, 0), (2, 1.0, 0)), 10)

    def test_totals_are_cumulative_and_floored_at_already_sampled(self):
        # Stratum 1 already holds more than its share of 50; it keeps them.
        out = al.exact_allocation(stats((100, 1.0, 30), (100, 1.0, 0)), 50)
        assert out == {"1": 30, "2": 20}
        with pytest.raises(InfeasibleError):
            al.exact_allocation(stats((100, 1.0, 30), (100, 1.0, 0)), 20)


class TestMultiwave:
    def test_oversampled_stratum_closes_and_understocked_draws(self):
        # Replica of the documented wave-2 decision: one stratum already
        # holds 7 with an optimum near 6 (closes); another holds 16 with
        # an optimum of 105 (draws 89); the rest of the 248-record wave
        # goes to the large remainder stratum.
        sigma_a = (6.0 * 493.0 / 494.0) / 190.0
        sts = [
            al.StratumStats("A", 190, sigma_a, already_sampled=7),
            al.StratumStats("E", 3904, 105.0 / 3904.0, already_sampled=16),
            al.StratumStats("B", 6241, 388.0 / 6241.0, already_sampled=229),
        ]
        res = al.multiwave(sts, 500)
        assert res.closed == {"A"}
        assert res.draws == {"A": 0, "E": 89, "B": 159}
        assert res.total == 500 - (7 + 16 + 229) == 248

    def test_all_oversampled_except_one(self):
        sts = [
            al.StratumStats("1", 40, 1.0, already_sampled=30),
            al.StratumStats("2", 40, 1.0, already_sampled=30),
            al.StratumStats("3", 200, 1.0, already_sampled=0),
        ]
        res = al.multiwave(sts, 80)
        assert res.draws["1"] == 0 and res.draws["2"] == 0
        assert res.draws["3"] == 20

    def test_cap_and_spill(self):
        # The only open stratum cannot absorb the budget; overflow goes to
        # closed strata that still have members.
        sts = [
            al.StratumStats("1", 12, 1.0, already_sampled=10),
            al.StratumStats("2", 30, 0.05, already_sampled=0),
        ]
        res = al.multiwave(sts, 40)
        assert res.total == 30
        assert res.draws["2"] == 30 - res.draws["1"]
        assert res.draws["1"] <= 2

    def test_budget_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            sts = []
            for j in range(k):
                n_s = int(rng.integers(5, 200))
                a = int(rng.integers(0, n_s // 2 + 1))
                sts.append(al.StratumStats(str(j), n_s, float(rng.uniform(0, 2)), a))
            already = sum(s.already_sampled for s in sts)
            room = sum(s.population_size - s.already_sampled for s in sts)
            target = already + int(rng.integers(0, room + 1))
            res = al.multiwave(sts, target)
            assert res.total == target - already
            for s in sts:
                assert 0 <= res.draws[s.id] <= s.population_size - s.already_sampled

    def test_scale_invariance(self):
        sts = stats((100, 1.0, 10), (300, 2.0, 5), (50, 0.5, 0))
        r1 = al.multiwave(sts, 60)
        scaled = stats((100, 3.0, 10), (300, 6.0, 5), (50, 1.5, 0))
        r2 = al.multiwave(scaled, 60)
        assert r1.draws == r2.draws and r1.closed == r2.closed

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            al.multiwave(stats((5, 1.0, 5), (5, 1.0, 5)), 20)

    def test_target_below_already_sampled(self):
        with pytest.raises(InfeasibleError):
            al.multiwave(stats((50, 1.0, 30)), 20)

    @staticmethod
    def _spill_case():
        # Stratum 1 is over its share; 2 and 3 have 15 members left.
        return stats((20, 1.0, 15), (10, 4.0, 5), (10, 0.1, 0))

    def test_spilled_strata_compete_beyond_the_overflow(self):
        # A 16-draw wave overflows the open strata by 1, yet the spilled
        # stratum wins 5 draws on priority and stratum 3 keeps 4 members.
        res = al.multiwave(self._spill_case(), 36)
        assert res.closed == {"1"} and res.spilled == {"1"}
        assert res.draws == {"1": 5, "2": 5, "3": 6}

    def test_pre_closed_strata_never_spill(self):
        sts = self._spill_case()
        res = al.multiwave(sts, 35, pre_closed={"1"})
        assert res.draws == {"1": 0, "2": 5, "3": 10} and not res.spilled
        with pytest.raises(InfeasibleError, match="not closed by the user"):
            al.multiwave(sts, 36, pre_closed={"1"})


class TestAllocateWave:
    """Allocating a fresh wave, which goes through ``multiwave`` like any other."""

    def test_first_wave_gives_pre_closed_strata_nothing(self):
        sts = stats((500, 2.0, 0), (300, 5.0, 0), (800, 1.0, 0))
        res = al.multiwave(sts, 120, pre_closed={"2"})
        assert res.closed == {"2"} and not res.spilled
        assert res.draws == {"1": 0, "2": 0, "3": 0} | al.exact_allocation(
            [sts[0], sts[2]], 120)
        assert res.total == 120


def influence(table, values):
    """Id-keyed influence values aligned with the rows of ``table`` (nan: none)."""
    return np.array([values.get(rid, np.nan) for rid in table.ids])


class TestStratumSD:
    def _ledger(self):
        i = np.arange(40)
        table = DyadTable([f"r{k}" for k in i.tolist()],
                          {"y_star": 1.0 + i % 7, "delta_star": i % 2, "x_star": i})
        specs = [
            {"id": "lo", "bounds": {"x_star": [None, 19.5]}},
            {"id": "hi", "bounds": {"x_star": [19.5, None]}},
        ]
        return table, build_ledger("main", specs, table, rng_seed=1)

    def test_constant_values_give_zero(self):
        table, ledger = self._ledger()
        values = influence(table, {f"r{i}": 2.5 for i in range(10)})
        out = {s.id: s for s in al.stratum_sd(table, ledger, values)}
        assert out["lo"].sd == 0.0

    def test_two_point_sd(self):
        table, ledger = self._ledger()
        values = influence(table, {"r0": 1.0, "r1": 3.0, "r20": 0.0, "r21": 5.0})
        out = {s.id: s for s in al.stratum_sd(table, ledger, values)}
        assert out["lo"].sd == pytest.approx(math.sqrt(2.0))
        assert out["lo"].already_sampled == 0
        assert out["lo"].population_size == 20

    def test_sparse_stratum_borrows_from_parent(self):
        table = DyadTable([f"r{i}" for i in range(30)],
                          {"y_star": np.ones(30), "delta_star": np.zeros(30),
                           "x_star": np.arange(30.0)})
        ledger = build_ledger(
            "main", [{"id": "all", "bounds": {}}], table, rng_seed=0)
        from twophase.records import split_stratum
        ledger = split_stratum(ledger, table, "all", "x_star", [25.5],
                               child_ids=["big", "small"])
        values = influence(table, {"r0": 1.0, "r1": 5.0, "r2": 3.0, "r26": 9.0})
        # "small" has one value; it borrows the SD pooled over the parent.
        out = {s.id: s for s in al.stratum_sd(table, ledger, values)}
        assert out["small"].sd_source == "parent"
        assert out["small"].sd == pytest.approx(np.std([1, 5, 3, 9], ddof=1))
        assert out["big"].sd_source == "stratum"

    def test_no_data_anywhere_gets_proportional_flag(self):
        table, ledger = self._ledger()
        values = influence(table, {"r0": 1.0})
        out = {s.id: s for s in al.stratum_sd(table, ledger, values)}
        assert out["hi"].sd_source == "proportional"
        assert out["lo"].sd_source == "proportional"
        assert out["lo"].sd == out["hi"].sd


class TestDrawSample:
    def _setup(self):
        i = np.arange(60)
        table = DyadTable([f"r{k:03d}" for k in i.tolist()],
                          {"y_star": 1.0 + i % 5, "delta_star": i % 2, "x_star": i % 11,
                           "in_asthma_frame": i % 3 == 0})
        specs = [
            {"id": "ev0", "bounds": {"delta_star": [None, 0.5]}},
            {"id": "ev1", "bounds": {"delta_star": [0.5, None]}},
        ]
        ledger = build_ledger("obesity", specs, table, rng_seed=7)
        return table, ledger

    def test_zero_allocation_empty(self):
        table, ledger = self._setup()
        res = al.draw_sample(table, ledger, {"ev0": 0, "ev1": 0}, seed=3)
        assert res.all_ids() == []

    def test_deterministic_given_seed(self):
        table, ledger = self._setup()
        r1 = al.draw_sample(table, ledger, {"ev0": 5, "ev1": 4}, seed=11)
        r2 = al.draw_sample(table, ledger, {"ev0": 5, "ev1": 4}, seed=11)
        assert r1.by_stratum == r2.by_stratum
        r3 = al.draw_sample(table, ledger, {"ev0": 5, "ev1": 4}, seed=12)
        assert r1.by_stratum != r3.by_stratum

    def test_no_duplicates_within_frame_and_overlap_marked(self):
        table, ledger = self._setup()
        res1 = al.draw_sample(table, ledger, {"ev0": 10, "ev1": 10}, seed=1)
        ledger = apply_draw(ledger, 1, res1.by_stratum)
        drawn = set(res1.all_ids())
        # Validate the drawn records (phase-2 values revealed elsewhere).
        rows = np.array([rid in drawn for rid in table.ids])
        cols = table.columns
        for name, source in (("y", "y_star"), ("delta", "delta_star"), ("x", "x_star")):
            cols[name][rows] = cols[source][rows]
        cols["wave_sampled"][rows] = 1
        cols["validated"][rows] = True
        res2 = al.draw_sample(table, ledger, {"ev0": 10, "ev1": 10}, seed=2)
        assert not (set(res2.all_ids()) & drawn)
        # An independent frame may redraw already-validated records: they
        # surface as overlap instead of being re-validated.
        asthma = build_ledger("asthma", [{"id": "all", "bounds": {}}], table,
                              rng_seed=3, member_flag="in_asthma_frame")
        res3 = al.draw_sample(table, asthma, {"all": 15}, seed=5)
        expected_overlap = {rid for rid in res3.all_ids()
                            if rid in drawn}
        assert res3.overlap_ids == expected_overlap
        assert len(expected_overlap) > 0

    def test_allocation_exceeding_pool_raises(self):
        table, ledger = self._setup()
        with pytest.raises(InfeasibleError):
            al.draw_sample(table, ledger, {"ev0": 1000}, seed=1)
