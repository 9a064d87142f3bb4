import json
import time

import numpy as np
import pytest

from twophase import fileio, fpca
from twophase.errors import SchemaError
from twophase.records import DyadRecord, apply_draw, build_ledger, split_stratum
from twophase.simulate import SimConfig, generate


def sample_records():
    return [
        DyadRecord(id="a1", y_star=4.5, delta_star=0, x_star=0.31,
                   z_star=(0.2, 1.0), aux=(0.5,), in_asthma_frame=True),
        DyadRecord(id="a2", y_star=2.5, delta_star=1, x_star=0.12,
                   z_star=(-1.0, 0.0), aux=(-0.3,), validated=True,
                   wave_sampled=2, y=2.4, delta=1, x=0.13, z=(-1.1, 0.0)),
    ]


class TestDyadsRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "dyads.csv"
        records = sample_records()
        fileio.write_dyads(path, records)
        assert fileio.read_dyads(path) == records

    def test_missing_phase2_columns_allowed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y_star,delta_star,x_star\nr1,3.0,0,0.4\n")
        recs = fileio.read_dyads(path)
        assert recs[0].id == "r1" and not recs[0].validated

    def test_corrupt_row_reports_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y_star,delta_star,x_star\nr1,3.0,0,0.4\nr2,oops,0,0.1\n")
        with pytest.raises(SchemaError, match="row 3"):
            fileio.read_dyads(path)

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y_star,delta_star\nr1,3.0,0\n")
        with pytest.raises(SchemaError, match="x_star"):
            fileio.read_dyads(path)

    def test_large_population_loads_quickly(self, tmp_path):
        pop = generate(SimConfig(n=10335), seed=1)
        path = tmp_path / "big.csv"
        fileio.write_dyads(path, fileio.population_to_records(pop))
        t0 = time.time()
        records = fileio.read_dyads(path)
        elapsed = time.time() - t0
        assert len(records) == 10335
        assert elapsed < 5.0


class TestLedgerRoundTrip:
    def test_identity_through_splits_and_draws(self, tmp_path):
        records = [DyadRecord(id=f"r{i}", y_star=1.0 + i % 4, delta_star=i % 2,
                              x_star=float(i % 7)) for i in range(40)]
        ledger = build_ledger("obesity",
                              [{"id": "L", "bounds": {"x_star": [None, 3.5]}},
                               {"id": "R", "bounds": {"x_star": [3.5, None]}}],
                              records, rng_seed=9)
        ledger = apply_draw(ledger, 1, {"L": ["r0", "r7"], "R": ["r4"]})
        ledger = split_stratum(ledger, records, "R", "x_star", [5.5])
        path = tmp_path / "ledger.json"
        fileio.write_ledger(path, ledger)
        back = fileio.read_ledger(path)
        assert back == ledger

    def test_stable_key_order(self, tmp_path):
        records = [DyadRecord(id="r0", y_star=1.0, delta_star=0, x_star=0.0)]
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], records)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.write_ledger(p1, ledger)
        fileio.write_ledger(p2, ledger)
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert list(payload) == sorted(payload)


class TestMeasurements:
    def test_round_trip(self, tmp_path):
        series = [fpca.LongitudinalSeries("s1", np.array([-10.0, 3.5]),
                                          np.array([61.25, 62.0]))]
        path = tmp_path / "m.csv"
        fileio.write_measurements(path, series)
        back = fileio.read_measurements(path)
        assert back[0].subject_id == "s1"
        np.testing.assert_array_equal(back[0].times, series[0].times)
        np.testing.assert_array_equal(back[0].values, series[0].values)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\ns,0,60\n")
        with pytest.raises(SchemaError):
            fileio.read_measurements(path)


class TestEigensystem:
    def test_round_trip(self, tmp_path):
        grid = np.linspace(-365, 272, 41)
        system = fpca.EigenSystem(
            grid=grid, mean=60 + 0.01 * (grid + 365),
            eigenvalues=np.array([10.0, 2.0]),
            eigenfunctions=np.vstack([np.full(41, 0.04), np.linspace(-0.06, 0.06, 41)]),
            noise_var=0.25, fve=np.array([0.8, 1.0]))
        path = tmp_path / "es.json"
        fileio.write_eigensystem(path, system)
        back = fileio.read_eigensystem(path)
        np.testing.assert_allclose(back.grid, system.grid)
        np.testing.assert_allclose(back.eigenfunctions, system.eigenfunctions)
        assert back.noise_var == system.noise_var

    def test_zero_variation_round_trip(self, tmp_path):
        grid = np.linspace(-365, 272, 5)
        system = fpca.EigenSystem(grid=grid, mean=np.full(5, 70.0),
                                  eigenvalues=np.empty(0), eigenfunctions=np.empty((0, 5)),
                                  noise_var=0.0, fve=np.empty(0), zero_variation=True)
        fileio.write_eigensystem(tmp_path / "es.json", system)
        back = fileio.read_eigensystem(tmp_path / "es.json")
        assert back.zero_variation and back.eigenfunctions.shape == (0, 5)

    def test_reads_file_with_bandwidth_keys(self, tmp_path):
        # Files written before the spline fit also carry the smoothing
        # bandwidths; they still load.
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0],
                   "zero_variation": False, "mean_bandwidth": 40.0,
                   "cov_bandwidth": 80.0}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        back = fileio.read_eigensystem(path)
        assert back.n_components == 1 and back.noise_var == 0.25


def test_influence_round_trip(tmp_path):
    path = tmp_path / "h.csv"
    values = {"r2": 0.123456789012345, "r1": -1.5}
    fileio.write_influence(path, values)
    assert fileio.read_influence(path) == values


@pytest.mark.parametrize("reader, header", [
    (fileio.read_influence, "id,influence"),
    (fileio.read_gestation, "subject_id,gestation_days"),
])
def test_repeated_id_names_both_rows(tmp_path, reader, header):
    path = tmp_path / "keyed.csv"
    path.write_text(f"{header}\nd1,1.0\nd2,3.0\nd1,2.0\n")
    with pytest.raises(SchemaError, match=r"row 4: .*'d1' repeats the one on row 2"):
        reader(path)


def test_allocation_and_draw_round_trip(tmp_path):
    path = tmp_path / "alloc.json"
    fileio.write_allocation(path, {"s1": 5, "s2": 0}, wave=2, frame="obesity",
                            closed=["s3"])
    alloc = fileio.read_allocation(path)
    assert alloc["draws"] == {"s1": 5, "s2": 0}
    assert alloc["total"] == 5
    dpath = tmp_path / "draw.json"
    fileio.write_draw(dpath, {"s1": ["r1", "r2"]}, wave=2, overlap_ids=["r2"])
    draw = fileio.read_draw(dpath)
    assert draw["by_stratum"]["s1"] == ["r1", "r2"]
    assert draw["overlap_ids"] == ["r2"]


def test_estimates_round_trip(tmp_path):
    path = tmp_path / "est.csv"
    fileio.write_estimates(path, [("ipw", np.array([0.5, -0.2]),
                                   np.array([0.1, 0.05]))], ["x", "z_0"])
    rows = fileio.read_estimates(path)
    assert rows[0] == {"estimator": "ipw", "term": "x", "beta": 0.5, "se": 0.1}


def test_truth_round_trip(tmp_path):
    pop = generate(SimConfig(n=50), seed=3)
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, pop)
    truth = fileio.read_truth(path)
    rid = pop.ids()[7]
    assert truth[rid]["y"] == pytest.approx(pop.y[7])
    assert truth[rid]["z"] == pytest.approx(tuple(pop.z[7]))
