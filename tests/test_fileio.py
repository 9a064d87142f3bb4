import csv
import io
import json
import time

import numpy as np
import pytest

from twophase import fileio, fpca
from twophase.cli import dispatch
from twophase.errors import IllConditionedError, SchemaError
from twophase.records import (
    FLAGS,
    DyadTable,
    apply_draw,
    build_ledger,
    first_invalid_row,
    is_phase2,
    split_stratum,
)
from twophase.simulate import SimConfig, generate


def sample_table():
    """An unvalidated asthma-frame record and a record validated in wave 2."""
    return DyadTable(["a1", "a2"], {
        "y_star": [4.5, 2.5], "delta_star": [0, 1], "x_star": [0.31, 0.12],
        "z_star_0": [0.2, -1.0], "z_star_1": [1.0, 0.0], "aux_0": [0.5, -0.3],
        "in_asthma_frame": [True, False], "validated": [False, True],
        "wave_sampled": [0, 2], "y": [0, 2.4], "delta": [0, 1], "x": [0, 0.13],
        "z_0": [0, -1.1], "z_1": [0, 0.0]})


def assert_tables_equal(got, want):
    assert got.ids == want.ids
    assert list(got.columns) == list(want.columns)
    for name, values in got.columns.items():
        np.testing.assert_array_equal(values, want.columns[name], err_msg=name)
        assert values.dtype == want.columns[name].dtype, name


class TestDyadsRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "dyads.csv"
        table = sample_table()
        fileio.write_dyads(path, table)
        assert_tables_equal(fileio.read_dyads(path), table)

    def test_missing_phase2_columns_allowed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y_star,delta_star,x_star\nr1,3.0,0,0.4\n")
        table = fileio.read_dyads(path)
        assert table.ids == ["r1"] and not table.columns["validated"][0]

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
        table = fileio.read_dyads(path)
        elapsed = time.time() - t0
        assert len(table) == 10335
        assert elapsed < 5.0


class TestLedgerRoundTrip:
    def test_identity_through_splits_and_draws(self, tmp_path):
        i = np.arange(40)
        table = DyadTable([f"r{k}" for k in i.tolist()],
                          {"y_star": 1.0 + i % 4, "delta_star": i % 2, "x_star": i % 7})
        ledger = build_ledger("obesity",
                              [{"id": "L", "bounds": {"x_star": [None, 3.5]}},
                               {"id": "R", "bounds": {"x_star": [3.5, None]}}],
                              table, rng_seed=9)
        ledger = apply_draw(ledger, 1, {"L": ["r0", "r7"], "R": ["r4"]})
        ledger = split_stratum(ledger, table, "R", "x_star", [5.5])
        path = tmp_path / "ledger.json"
        fileio.write_ledger(path, ledger)
        back = fileio.read_ledger(path)
        assert back == ledger

    def test_stable_key_order(self, tmp_path):
        table = DyadTable(["r0"], {"y_star": [1.0], "delta_star": [0], "x_star": [0.0]})
        ledger = build_ledger("f", [{"id": "all", "bounds": {}}], table)
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

    def test_writer_matches_row_by_row_reference(self, tmp_path):
        def reference(path, series):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["subject_id", "t_days", "weight_kg"])
                for s in series:
                    for t, v in zip(s.times, s.values):
                        writer.writerow([s.subject_id, repr(float(t)), repr(float(v))])

        rng = np.random.default_rng(8)
        series = [fpca.LongitudinalSeries(sid, np.sort(rng.uniform(-365, 272, m)),
                                          rng.uniform(40, 120, m))
                  for sid, m in (("d000001", 9), ('a,"b" c', 3), ("-0", 1), ("e", 12))]
        series.append(fpca.LongitudinalSeries("z", np.array([-0.0, 1e-300, 271.5]),
                                              np.array([1.0, 5e-324, 1e300])))
        fileio.write_measurements(tmp_path / "got.csv", series)
        reference(tmp_path / "want.csv", series)
        got = (tmp_path / "got.csv").read_bytes()
        assert b'"a,""b"" c"' in got
        assert got == (tmp_path / "want.csv").read_bytes()
        fileio.write_measurements(tmp_path / "none.csv", iter([]))
        assert (tmp_path / "none.csv").read_bytes() == b"subject_id,t_days,weight_kg\r\n"

    def test_header_only_file_has_no_series(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("subject_id,t_days,weight_kg\n")
        assert fileio.read_measurements(path) == []

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\ns,0,60\n")
        with pytest.raises(SchemaError):
            fileio.read_measurements(path)


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_time_names_its_row(self, tmp_path, cell):
        # A nan time used to be dropped by the repeated-time rule, and inf
        # made a series whose times were not finite.
        path = tmp_path / "m.csv"
        path.write_text(f"subject_id,t_days,weight_kg\ns,0,60\ns,{cell},61\ns,10,62\n")
        with pytest.raises(SchemaError,
                           match=f"row 3: column 't_days' has non-finite value '{cell}'"):
            fileio.read_measurements(path)

    def test_non_finite_weight_names_its_row(self, tmp_path):
        # A nan weight at a repeated time used to be dropped in favour of
        # the finite one.
        path = tmp_path / "m.csv"
        path.write_text("subject_id,t_days,weight_kg\ns,0,60\ns,0,nan\ns,10,62\n")
        with pytest.raises(SchemaError,
                           match="row 3: column 'weight_kg' has non-finite value 'nan'"):
            fileio.read_measurements(path)


    def test_non_positive_weight_names_its_subject(self, tmp_path):
        # Rows out of order: the subjects in order of appearance are a, b, c.
        path = tmp_path / "m.csv"
        path.write_text("subject_id,t_days,weight_kg\na,5,60\nb,7,61\nc,1,-3\n"
                        "b,2,0\na,1,60\nc,0,62\n")
        with pytest.raises(SchemaError) as caught:
            fileio.read_measurements(path)
        assert str(caught.value) == ("subject 'b': series b: "
                                     "weights must be finite and positive")


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

    @pytest.mark.parametrize("em_steps", [None, 0, 37])
    def test_em_steps_round_trip(self, tmp_path, em_steps):
        grid = np.linspace(-365, 272, 5)
        system = fpca.EigenSystem(grid=grid, mean=np.full(5, 70.0),
                                  eigenvalues=np.array([2.0]),
                                  eigenfunctions=np.full((1, 5), 0.04), noise_var=0.25,
                                  fve=np.array([1.0]), em_steps=em_steps)
        path = tmp_path / "es.json"
        fileio.write_eigensystem(path, system)
        assert json.loads(path.read_text())["em_steps"] == em_steps
        assert fileio.read_eigensystem(path).em_steps == em_steps

    def test_file_without_em_steps_reads_as_none(self, tmp_path):
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0]}
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        assert fileio.read_eigensystem(path).em_steps is None

    @pytest.mark.parametrize("value", [-1, 2.0, 2.5, True, "12", [3], {"n": 3}])
    def test_malformed_em_steps_raise_schema_error(self, tmp_path, value):
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0],
                   "em_steps": value}
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="eigensystem em_steps must be a non-negative"):
            fileio.read_eigensystem(path)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_zero_variation_raises_schema_error(self, tmp_path, value):
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0],
                   "zero_variation": value}
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="zero_variation must be true or false"):
            fileio.read_eigensystem(path)

    def test_zero_variation_with_components_raises_schema_error(self, tmp_path):
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0],
                   "zero_variation": True}
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="zero_variation is true but it has 1 comp"):
            fileio.read_eigensystem(path)
        payload["zero_variation"] = False
        path.write_text(json.dumps(payload))
        assert not fileio.read_eigensystem(path).zero_variation

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

    @pytest.mark.parametrize("key,value,match", [
        ("mean", [60.0] * 4, r"mean has shape \(4,\); expected \(5,\)"),
        ("eigenfunctions", [[0.04] * 4], r"eigenfunctions has shape \(1, 4\)"),
        ("eigenfunctions", [0.04] * 5, r"eigenfunctions has shape \(5,\); expected \(1, 5\)"),
        ("eigenfunctions", [[0.04] * 5, [0.01] * 5], r"expected \(1, 5\)"),
        ("fve", [0.5, 1.0], r"fve has shape \(2,\); expected \(1,\)"),
        ("grid", [272.0, 100.0, 0.0, -100.0, -365.0], "strictly increasing"),
        ("grid", [-365.0, -100.0, -100.0, 100.0, 272.0], "strictly increasing"),
        ("grid", [-365.0, -100.0, float("nan"), 100.0, 272.0], "finite"),
        ("grid", [-365.0, -100.0, 0.0, 100.0, float("inf")], "finite"),
        ("eigenfunctions", [[0.04] * 5, [0.01] * 4], "eigenfunctions is not numeric"),
        ("mean", [60.0, 60.0, float("nan"), 60.0, 60.0], "eigensystem mean holds a non-finite"),
        ("eigenfunctions", [[0.04, float("inf"), 0.04, 0.04, 0.04]],
         "eigensystem eigenfunctions holds a non-finite"),
        ("fve", [float("nan")], "eigensystem fve holds a non-finite"),
        ("noise_var", float("nan"), "eigensystem noise_var holds a non-finite"),
        ("noise_var", -1.0, "eigensystem noise_var must not be negative"),
        ("eigenvalues", [-4.0], "eigensystem eigenvalues must be positive"),
        ("eigenvalues", [0.0], "eigensystem eigenvalues must be positive"),
        ("eigenvalues", [float("inf")], "eigensystem eigenvalues holds a non-finite"),
    ])
    def test_malformed_arrays_raise_schema_error(self, tmp_path, key, value, match):
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.25, "fve": [1.0]}
        payload[key] = value
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=match):
            fileio.read_eigensystem(path)

    def test_components_without_noise_are_ill_conditioned(self, tmp_path):
        # The reader leaves this rule to EigenSystem, which raises it.
        grid = np.linspace(-365, 272, 5)
        payload = {"grid": grid.tolist(), "mean": [60.0] * 5, "eigenvalues": [2.0],
                   "eigenfunctions": [[0.04] * 5], "noise_var": 0.0, "fve": [1.0]}
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(IllConditionedError, match="needs a noise variance"):
            fileio.read_eigensystem(path)


def test_influence_round_trip(tmp_path):
    path = tmp_path / "h.csv"
    values = {"r2": 0.123456789012345, "r1": -1.5}
    fileio.write_influence(path, values)
    assert fileio.read_influence(path) == values


@pytest.mark.parametrize("copy", [True, False])
def test_influence_on_rows_aligns_by_id(tmp_path, copy):
    path = tmp_path / "h.csv"
    fileio.write_influence(path, {"r1": -1.5, "r2": 0.25, "r3": 4.0})
    if not copy:
        path.with_name("h.csv.parsed").unlink()
    # The file's own ids in its order: its values as they are.
    assert fileio.read_influence_rows(path, ["r1", "r2", "r3"]).tolist() == [-1.5, 0.25, 4.0]
    # Any other ids: each one's value, nan where the file has none.
    got = fileio.read_influence_rows(path, ("r3", "r9", "r1"))
    assert got.dtype == np.float64
    assert got.tolist()[::2] == [4.0, -1.5] and np.isnan(got[1])
    assert fileio.read_influence_rows(path, []).tolist() == []


@pytest.mark.parametrize("reader, header", [
    (fileio.read_influence, "id,influence"),
    (fileio.read_gestation, "subject_id,gestation_days"),
])
def test_repeated_id_names_both_rows(tmp_path, reader, header):
    path = tmp_path / "keyed.csv"
    path.write_text(f"{header}\nd1,1.0\nd2,3.0\nd1,2.0\n")
    with pytest.raises(SchemaError, match=r"row 4: .*'d1' repeats the one on row 2"):
        reader(path)


@pytest.mark.parametrize("reader, header", [
    (fileio.read_influence, "id,influence"),
    (fileio.read_gestation, "subject_id,gestation_days"),
])
def test_non_finite_keyed_value_names_its_row(tmp_path, reader, header):
    # A nan influence value used to reach design allocate as a nan stratum SD.
    path = tmp_path / "keyed.csv"
    path.write_text(f"{header}\nd1,1.0\nd2,nan\nd3,inf\n")
    with pytest.raises(SchemaError, match=r"row 3: column '\w+' has non-finite value 'nan'"):
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


def json_dump_bytes(payload):
    """The bytes ``json.dump`` streams for a JSON artifact, final newline added."""
    out = io.StringIO()
    json.dump(payload, out, indent=1, sort_keys=True)
    return (out.getvalue() + "\n").encode("utf-8")


def test_json_files_are_the_bytes_json_dump_writes(tmp_path, monkeypatch):
    written = []
    write_json = fileio._write_json

    def recording(path, payload):
        written.append((path, payload))
        write_json(path, payload)

    monkeypatch.setattr(fileio, "_write_json", recording)
    table = DyadTable(["r\u00e9", "r\u2603", "r2"],
                      {"y_star": [1.0, 2.0, 3.0], "delta_star": [0, 1, 0],
                       "x_star": [0.1, 0.2, 0.3]})
    ledger = build_ledger("ob\u00e9sit\u00e9",
                          [{"id": "b\u00e1s", "bounds": {"x_star": [None, 0.15]}},
                           {"id": "top", "bounds": {"x_star": [0.15, None]}}], table)
    fileio.write_ledger(tmp_path / "ledger.json",
                        apply_draw(ledger, 1, {"b\u00e1s": ["r\u00e9"], "top": ["r\u2603"]}))
    fileio.write_allocation(tmp_path / "alloc.json", {"b\u00e1s": 1, "top": 0}, wave=1,
                            frame="ob\u00e9sit\u00e9", closed=["top"],
                            flags={"sd": float("nan"), "spilled": ["b\u00e1s"]})
    fileio.write_draw(tmp_path / "draw.json", {"b\u00e1s": ["r\u00e9"]}, wave=1,
                      overlap_ids=["r\u2603"])
    grid = np.linspace(-365, 272, 4)
    fileio.write_eigensystem(tmp_path / "es.json", fpca.EigenSystem(
        grid=grid, mean=np.array([60.0, np.nan, 61.5, 1e300]),
        eigenvalues=np.array([2.0]), eigenfunctions=np.full((1, 4), 0.05),
        noise_var=0.25, fve=np.array([1.0]), em_steps=3))
    assert [path.name for path, _ in written] == [
        "ledger.json", "alloc.json", "draw.json", "es.json"]
    for path, payload in written:
        assert path.read_bytes() == json_dump_bytes(payload), path.name
    assert b"\\u00e9" in (tmp_path / "ledger.json").read_bytes()
    assert b"NaN" in (tmp_path / "alloc.json").read_bytes()
    assert b"NaN" in (tmp_path / "es.json").read_bytes()


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
    ids, truth = fileio.read_truth(path)
    row = ids.index(pop.ids()[7])
    assert truth["y"][row] == pytest.approx(pop.y[7])
    assert (truth["z_0"][row], truth["z_1"][row]) == pytest.approx(tuple(pop.z[7]))


# ---------------------------------------------------------------------------
# dyads.csv as a columnar table


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """A ``simulate generate`` dyads file (with series) and the file after one reveal."""
    out = tmp_path_factory.mktemp("chain")
    assert dispatch(["simulate", "--out", str(out), "--seed", "5", "--with-series",
                     "--config", str(_config(out, n=400))]) == 0
    ids = fileio.read_dyads(out / "dyads.csv").ids
    fileio.write_draw(out / "draw.json", {"all": ids[::9]}, wave=1)
    assert dispatch(["simulate", "reveal", "--dyads", str(out / "dyads.csv"),
                     "--truth", str(out / "truth.csv"), "--draw", str(out / "draw.json"),
                     "--out", str(out / "dyads_1.csv")]) == 0
    return out


def _config(out, n):
    path = out / "sim.json"
    path.write_text(json.dumps({"n": n}))
    return path


def columns_by_row(path):
    """Reference reader: the ids and the columns in file order, parsed cell by
    cell one row at a time; phase-2 cells of unvalidated rows read as 0."""
    ids, columns = [], {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ids.append(row.pop("id"))
            validated = row["validated"] == "1"
            for name, text in row.items():
                if name in FLAGS:
                    value = text == "1"
                elif is_phase2(name) and not validated:
                    value = 0.0
                else:
                    value = float(text)
                columns.setdefault(name, []).append(value)
    return ids, {name: np.array(values, dtype=bool if name in FLAGS else np.float64)
                 for name, values in columns.items()}


@pytest.mark.parametrize("name", ["dyads.csv", "dyads_1.csv"])
def test_dyads_rewrite_is_byte_identical(chain_files, tmp_path, name):
    fileio.write_dyads(tmp_path / name, fileio.read_dyads(chain_files / name))
    assert (tmp_path / name).read_bytes() == (chain_files / name).read_bytes()


@pytest.mark.parametrize("name", ["dyads.csv", "dyads_1.csv"])
def test_table_columns_match_records_read_row_by_row(chain_files, name):
    table = fileio.read_dyads(chain_files / name)
    ids, columns = columns_by_row(chain_files / name)
    assert table.columns["validated"].any() == (name == "dyads_1.csv")
    assert_tables_equal(table, DyadTable(ids, columns))
    assert list(table.columns) == list(columns)


HEADER = "id,y_star,delta_star,x_star,z_star_0,z_star_1,validated,wave_sampled,y,delta,x,z_0,z_1"


@pytest.mark.parametrize("rows, match", [
    # Non-finite cells, which used to pass the y_star > 0 check or escape as
    # an OverflowError traceback.
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,nan,0,0.3,1.0,0,0,,,,,,"],
     r"row 3: record r2: y_star must be finite"),
    (["r1,2.0,inf,0.3,1.0,0,0,,,,,,"], r"row 2: record r1: delta_star must be finite"),
    (["r1,2.0,0,-inf,1.0,0,0,,,,,,"], r"row 2: record r1: x_star must be finite"),
    (["r1,2.0,0,0.3,1.0,0,1,1,2.0,1,0.3,inf,0"], r"row 2: record r1: z_0 must be finite"),
    # Missing z cells, which used to be dropped.
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,0,0.3,,0,0,,,,,,"],
     r"row 3: column 'z_star_0' has non-numeric value ''"),
    (["r1,2.0,0,0.3,1.0,0,1,1,2.0,1,0.3,1.0,"],
     r"row 2: column 'z_1' has non-numeric value ''"),
    # Repeated ids, which used to read silently.
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,0,0.3,1.0,0,0,,,,,,",
      "r1,3.0,1,0.3,1.0,0,0,,,,,,"], r"row 4: id 'r1' repeats the one on row 2"),
    # Value rules that only hand-built records were checked against.
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,2,0.3,1.0,0,0,,,,,,"],
     r"row 3: record r2: delta_star must be 0 or 1"),
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,0,0.3,1.0,0,1,1.5,2.0,1,0.3,1.0,0"],
     r"row 3: record r2: wave_sampled must be a whole number"),
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,0,0.3,1.0,0,1,1,0.0,1,0.3,1.0,0"],
     r"row 3: record r2: y must be positive"),
    (["r1,2.0,0,0.3,1.0,0,0,,,,,,", "r2,2.0,0,0.3,1.0,0,1,1,2.0,2,0.3,1.0,0"],
     r"row 3: record r2: delta must be 0 or 1"),
])
def test_bad_dyads_rows_are_rejected(tmp_path, rows, match):
    path = tmp_path / "d.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    with pytest.raises(SchemaError, match=match):
        fileio.read_dyads(path)


FLAG_HEADER = HEADER + ",in_asthma_frame"


def flag_rows(validated, in_frame):
    """Rows of ``FLAG_HEADER`` with these flag cells and a valid phase-2 record each."""
    return [f"r{i},2.0,0,0.3,1.0,0,{v},1,2.0,1,0.3,1.0,0,{a}"
            for i, (v, a) in enumerate(zip(validated, in_frame))]


@pytest.mark.parametrize("column", FLAGS)
@pytest.mark.parametrize("cell", ["1.0", "yes", "2", "", "-1", "01"])
def test_flag_cells_other_than_0_or_1_are_rejected(tmp_path, column, cell):
    # They used to read as False without a word: a row validated as 1.0
    # came back unvalidated, its phase-2 values dropped.
    flags = {"validated": ["1", "0", "1"], "in_asthma_frame": ["0", "1", "1"]}
    flags[column][2] = cell
    path = tmp_path / "d.csv"
    path.write_text("\n".join([FLAG_HEADER, *flag_rows(*flags.values())]) + "\n")
    with pytest.raises(SchemaError) as caught:
        fileio.read_dyads(path)
    assert str(caught.value) == f"row 4: column {column!r} must be 0 or 1, found {cell!r}"


def test_flag_cells_with_surrounding_space_read_as_their_value(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n".join([FLAG_HEADER, *flag_rows([" 1", "0 ", "1"],
                                                        ["0", " 1 ", "\t0"])]) + "\n")
    table = fileio.read_dyads(path)
    assert table.columns["validated"].tolist() == [True, False, True]
    assert table.columns["in_asthma_frame"].tolist() == [False, True, False]


def test_bad_flag_is_reported_in_row_order(tmp_path):
    rows = flag_rows(["0", "0", "yes"], ["1", "1", "1"])
    rows[1] = rows[1].replace("2.0", "oops", 1)
    path = tmp_path / "d.csv"
    path.write_text("\n".join([FLAG_HEADER, *rows]) + "\n")
    with pytest.raises(SchemaError, match=r"row 3: column 'y_star' has non-numeric"):
        fileio.read_dyads(path)
    rows = flag_rows(["0", "true", "0"], ["1", "1", "1"])
    rows[2] = rows[2].replace("2.0", "oops", 1)
    path.write_text("\n".join([FLAG_HEADER, *rows]) + "\n")
    with pytest.raises(SchemaError, match=r"row 3: column 'validated' must be 0 or 1"):
        fileio.read_dyads(path)


def test_cli_step_on_a_bad_flag_gives_parse_exit(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("\n".join([FLAG_HEADER, *flag_rows(["0", "1.0"], ["1", "1"])]) + "\n")
    (tmp_path / "strata.json").write_text('[{"id": "all", "bounds": {}}]')
    assert dispatch(["design", "init", "--frame", "O", "--dyads", str(path), "--strata",
                     str(tmp_path / "strata.json"), "--out", str(tmp_path / "l.json")]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: parse: row 3: column 'validated' must be 0 or 1, found '1.0'")
    assert not (tmp_path / "l.json").exists()


def test_first_bad_row_in_file_order_is_reported(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n".join([HEADER, "r1,2.0,0,0.3,1.0,0,0,,,,,,",
                               "r2,2.0,0,0.3,1.0,oops,0,,,,,,",
                               "r3,-1.0,0,0.3,1.0,0,0,,,,,,", "r4,2.0,0,0.3"]) + "\n")
    with pytest.raises(SchemaError, match=r"row 3: column 'z_star_1'"):
        fileio.read_dyads(path)
    path.write_text("\n".join([HEADER, "r1,2.0,0,0.3,1.0,0,0,,,,,,",
                               "r3,-1.0,0,0.3,1.0,0,0,,,,,,", "r4,2.0,0,0.3"]) + "\n")
    with pytest.raises(SchemaError, match=r"row 3: record r3: y_star must be positive"):
        fileio.read_dyads(path)


def test_hand_built_record_rejects_non_finite_values():
    table = DyadTable(["a", "b"], {"y_star": [1.0, np.nan], "delta_star": [0, 0],
                                   "x_star": [0.3, 0.3]})
    assert first_invalid_row(table.columns) == (1, "y_star must be finite")
    table = DyadTable(["a", "b"], {"y_star": [1.0, 1.0], "delta_star": [0, 0],
                                   "x_star": [0.3, 0.3], "validated": [False, True],
                                   "wave_sampled": [0, 1], "y": [0, 1.0], "delta": [0, 0],
                                   "x": [np.inf, np.inf]})
    # A phase-2 value counts on validated rows only.
    assert first_invalid_row(table.columns) == (1, "x must be finite")


def test_repeated_truth_id_names_both_rows(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("id,y,delta,x,gestation_days,asthma,z_0\n"
                    "r1,2.0,1,0.3,273,0,1.0\n r1,3.0,0,0.2,270,1,0.0\n")
    with pytest.raises(SchemaError, match=r"row 3: id 'r1' repeats the one on row 2"):
        fileio.read_truth(path)


TRUTH_TEXT = ("id,y,delta,x,gestation_days,asthma,z_0\n"
              "r1,2.0,1,0.3,273,0,1.0\n"
              "r2,oops,0,0.2,270,1,0.0\n"
              " r3,4.5,1,0.1,268,1,0.5\n")


def test_truth_read_for_wanted_ids_keeps_their_rows(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(TRUTH_TEXT)
    ids, truth = fileio.read_truth(path, ["r3", "r1", "absent"])
    assert ids == ["r1", "r3"]
    assert truth["y"].tolist() == [2.0, 4.5]
    assert truth["z_0"].tolist() == [1.0, 0.5]
    assert set(truth) == {"y", "delta", "x", "gestation_days", "asthma", "z_0"}


def test_truth_read_for_wanted_ids_checks_only_their_numbers(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(TRUTH_TEXT)
    with pytest.raises(SchemaError, match=r"row 3: column 'y' has non-numeric value 'oops'"):
        fileio.read_truth(path)
    with pytest.raises(SchemaError, match=r"row 3: column 'y' has non-numeric value 'oops'"):
        fileio.read_truth(path, ["r3", "r2"])
    ids, _ = fileio.read_truth(path, [])
    assert ids == []


def test_truth_read_for_wanted_ids_still_checks_every_id(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(TRUTH_TEXT + "r2,1.0,0,0.2,270,1,0.0\n")
    with pytest.raises(SchemaError, match=r"row 5: id 'r2' repeats the one on row 3"):
        fileio.read_truth(path, ["r1"])


def test_reveal_reads_truth_ids_with_surrounding_space(chain_files, tmp_path):
    header, *rows = (chain_files / "truth.csv").read_text().splitlines()
    (tmp_path / "truth.csv").write_text("\n".join([header, *(" " + r for r in rows)]) + "\n")
    assert dispatch(["simulate", "reveal", "--dyads", str(chain_files / "dyads.csv"),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--draw", str(chain_files / "draw.json"),
                     "--out", str(tmp_path / "dyads_1.csv")]) == 0
    assert (tmp_path / "dyads_1.csv").read_bytes() == (chain_files / "dyads_1.csv").read_bytes()


def measurements_by_subject(path):
    """Reference reader: per-subject sorted (t, value) pairs, first of each time kept."""
    by_subject: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            by_subject.setdefault(row[0].strip(), []).append((float(row[1]), float(row[2])))
    out = []
    for sid, pts in by_subject.items():
        pts = sorted(pts)
        times = np.array([p[0] for p in pts])
        values = np.array([p[1] for p in pts])
        keep = np.r_[True, np.diff(times) > 0]
        out.append((sid, times[keep], values[keep]))
    return out


def test_measurements_match_the_per_subject_reference(chain_files, tmp_path):
    with open(chain_files / "measurements.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    # Shuffle the rows and repeat some points at a tied time with another weight.
    rng = np.random.default_rng(3)
    extra = [[r[0], r[1], repr(float(r[2]) + d)] for r, d in
             zip(rows[::50], rng.choice([-0.5, 0.5], size=len(rows[::50])).tolist())]
    rows = [rows[i] for i in rng.permutation(len(rows))] + extra
    path = tmp_path / "m.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    got = fileio.read_measurements(path)
    want = measurements_by_subject(path)
    assert [s.subject_id for s in got] == [sid for sid, _, _ in want]
    for s, (_, times, values) in zip(got, want):
        np.testing.assert_array_equal(s.times, times)
        np.testing.assert_array_equal(s.values, values)
