"""The parsed copy ``<name>.parsed`` beside each table a CLI step writes.

Its contract: loading the copy gives what parsing the file's bytes gives,
bit for bit (ids, column order, dtypes, float bits), or the copy is not
used.  A copy that is missing, stale, corrupt or of another version falls
back to the parse without an error; a table the reader rejects gets no
copy; and a read never writes a file.  The reference for every table is
the parse of the same bytes in a directory of their own, without a copy.
"""

import csv
import io
import json
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twophase import fileio
from twophase.cli import dispatch
from twophase.errors import SchemaError
from twophase.records import FLAGS, DyadTable, column_names, is_phase2

# Floats whose repr takes each of its forms: signed zero, subnormals,
# 17 significant digits, exponents.
ODD_FLOATS = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e-310, 0.1 + 0.2,
              1.2345678901234567e-5, 123456789.12345679, 1e16, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(ODD_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, 0.1 + 0.2, 1e300]),
                     st.floats(min_value=5e-324, allow_infinity=False))
# Ids with space (stripped by the reader, including the Unicode kinds),
# commas, quotes and line ends (quoted by the writer), non-ASCII text and
# NUL, which a fixed-width numpy string array would drop at the end.
ID_TEXT = st.text(st.sampled_from(list("ab7 ,\"'é中ß\t") + ["\n", "\r", "\x00", " "]),
                  max_size=5)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parsed_copy")


def parse(path, reader=fileio.read_dyads):
    """``reader`` on the bytes of ``path`` in a directory of their own, without a copy."""
    with tempfile.TemporaryDirectory() as elsewhere:
        twin = Path(elsewhere) / path.name
        shutil.copyfile(path, twin)
        return reader(twin)


def copy_of(path):
    return path.with_name(path.name + ".parsed")


def loads_copy(path, kind="dyads"):
    """Whether the reader of ``path`` would load its copy rather than parse."""
    return fileio._load_copy(path, path.read_bytes(), kind) is not None


def lines_of(kept):
    """The lines, without their ends, that ``write_dyads_patch`` finds in
    the bytes ``read_dyads`` kept for it."""
    [data] = kept
    plain = fileio._plain_rows(data)
    if plain is None:
        return []
    data, starts = plain[0], plain[1].tolist()
    return [data[a:b - 2].decode("utf-8") for a, b in zip(starts, starts[1:])]


def assert_same_table(got, want):
    assert got.ids == want.ids
    assert [type(rid) for rid in got.ids] == [str] * len(want.ids)
    assert list(got.columns) == list(want.columns)
    for name, values in want.columns.items():
        assert got.columns[name].dtype == values.dtype, name
        assert got.columns[name].tobytes() == values.tobytes(), name
    assert (got.n_z, got.n_aux) == (want.n_z, want.n_aux)


def read_outcome(read, *args):
    try:
        return "value", read(*args)
    except SchemaError as exc:
        return "error", str(exc)


@st.composite
def tables(draw):
    """A table of 0-8 rows with 0-3 z and aux columns, none, all or some
    rows validated, and any values on the phase-2 cells of the others."""
    n = draw(st.integers(0, 8))
    n_z, n_aux = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    which = draw(st.sampled_from(["none", "all", "some"]))
    validated = (np.zeros(n, dtype=bool) if which == "none" else np.ones(n, dtype=bool)
                 if which == "all" else np.array(draw(st.lists(st.booleans(), min_size=n,
                                                               max_size=n)), dtype=bool))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)

    loose = st.one_of(FLOATS, st.just(float("nan")))  # on rows that are not validated
    columns = {"y_star": column(POSITIVE), "delta_star": column(st.sampled_from([0.0, 1.0])),
               "x_star": column(FLOATS), "in_asthma_frame": column(st.booleans()) == 1,
               "validated": validated}
    for name, values in (("wave_sampled", st.integers(0, 9).map(float)), ("y", POSITIVE),
                         ("delta", st.sampled_from([0.0, 1.0])), ("x", FLOATS),
                         *((f"z_{j}", FLOATS) for j in range(n_z))):
        columns[name] = np.where(validated, column(values), column(loose))
    for j in range(n_z):
        columns[f"z_star_{j}"] = column(FLOATS)
    for j in range(n_aux):
        columns[f"aux_{j}"] = column(FLOATS)
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique_by=str.strip))
    return DyadTable(ids, columns)


def reveal_rows(table, rows, rng):
    """Validate ``rows`` of ``table`` in place, as ``simulate reveal`` does."""
    cols = table.columns
    for name in ["y", "delta", "x", *(f"z_{j}" for j in range(table.n_z))]:
        cols[name][rows] = (rng.lognormal(size=rows.size) if name == "y"
                            else rng.integers(0, 2, rows.size) if name == "delta"
                            else rng.normal(size=rows.size))
    cols["wave_sampled"][rows] = 3
    cols["validated"][rows] = True


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), layout=st.sampled_from(["write", "patch crlf", "patch lf"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_copy_loads_as_the_parse_of_the_same_bytes(scratch, table, layout, seed):
    path = scratch / "dyads.csv"
    if layout == "write":
        fileio.write_dyads(path, table)
    else:
        source = scratch / "source.csv"
        fileio.write_dyads(source, table)
        if layout == "patch lf":
            source.write_bytes(source.read_bytes().replace(b"\r\n", b"\n"))
        kept = []
        read = fileio.read_dyads(source, kept)
        text = source.read_bytes().decode("utf-8")
        # The writer quotes an id that holds a quote, CR or LF; other text is plain.
        assert lines_of(kept) == ([] if '"' in text
                                  else text.replace("\r\n", "\n").split("\n")[:-1])
        rng = np.random.default_rng(seed)
        waiting = np.flatnonzero(~read.columns["validated"])
        rows = np.sort(rng.choice(waiting, rng.integers(0, waiting.size + 1), replace=False))
        reveal_rows(read, rows, rng)
        fileio.write_dyads_patch(path, read, kept, rows)
    kind, want = read_outcome(parse, path)
    assert kind == "value"  # every table drawn passes the reader's checks
    assert copy_of(path).exists() and loads_copy(path)
    assert_same_table(fileio.read_dyads(path), want)


@settings(max_examples=60, deadline=None)
@given(values=st.dictionaries(ID_TEXT, st.one_of(FLOATS, st.just(float("nan")),
                                                 st.integers(-3, 3), st.none()),
                              max_size=8))
def test_the_influence_copy_loads_as_the_parse(scratch, values):
    path = scratch / "h.csv"
    fileio.write_influence(path, values)
    kind, want = read_outcome(parse, path, fileio.read_influence)
    floats = all(type(v) is float for v in values.values())
    assert copy_of(path).exists() == (kind == "value" and floats)
    assert read_outcome(fileio.read_influence, path) == (kind, want)
    if kind == "value":
        got = fileio.read_influence(path)
        assert list(got.items()) == list(want.items())
        assert [np.float64(v).tobytes() for v in got.values()] == [
            np.float64(v).tobytes() for v in want.values()]


def sample_table(n=6, n_z=2, n_aux=1):
    rng = np.random.default_rng(7)
    validated = np.arange(n) % 2 == 1
    columns = {"y_star": rng.lognormal(size=n), "delta_star": rng.integers(0, 2, n),
               "x_star": rng.normal(size=n), "in_asthma_frame": rng.random(n) < 0.5,
               "validated": validated, "wave_sampled": np.where(validated, 2, 0),
               "y": np.where(validated, rng.lognormal(size=n), 0.0),
               "delta": np.where(validated, rng.integers(0, 2, n), 0),
               "x": np.where(validated, rng.normal(size=n), 0.0)}
    for j in range(n_z):
        columns[f"z_star_{j}"] = rng.normal(size=n)
        columns[f"z_{j}"] = np.where(validated, rng.normal(size=n), 0.0)
    for j in range(n_aux):
        columns[f"aux_{j}"] = rng.normal(size=n)
    return DyadTable([f" d{i} " for i in range(n)], columns)


def test_a_one_byte_edit_makes_the_copy_stale(tmp_path, caplog):
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    data = path.read_bytes()
    at = data.index(b"\r\n") + 4  # the digit of the first id, " d0 "
    path.write_bytes(data[:at] + b"9" + data[at + 1:])
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        got = fileio.read_dyads(path)
    assert [r.getMessage() for r in caplog.records] == [f"{path}: parsed the text: "
                                                        "stale parsed copy"]
    assert got.ids[0] == "d9"
    assert_same_table(got, parse(path))


def corrupt(copy, how):
    """Replace the bytes of a valid parsed copy by a broken one."""
    data = copy.read_bytes()
    first, head, body = data.split(b"\n", 2)
    meta = json.loads(head)
    stream = io.BytesIO(body)
    text, values = np.load(stream), np.load(stream)

    def rebuild(meta, *arrays, allow_pickle=False):
        out = io.BytesIO()
        out.write(first + b"\n" + json.dumps(meta).encode() + b"\n")
        for a in arrays:
            np.save(out, a, allow_pickle=allow_pickle)
        return out.getvalue()

    if how == "truncated":
        return data[:len(data) - 9]
    if how == "garbage":
        return bytes(range(256)) * 8
    if how == "empty":
        return b""
    if how == "wrong digest":
        return rebuild({**meta, "sha256": "0" * 64}, text, values)
    if how == "wrong version":
        return first.rpartition(b" ")[0] + b" 0" + data[len(first):]
    if how == "wrong shape":
        return rebuild(meta, text, values[:, :-1])
    if how == "wrong dtype":
        return rebuild(meta, text, values.astype(np.float32))
    if how == "wrong columns":
        return rebuild({**meta, "columns": meta["columns"][::-1]}, text, values)
    if how == "wrong row count":
        return rebuild({**meta, "rows": meta["rows"] + 1}, text, values)
    if how == "pickled":
        return rebuild(meta, text, values.astype(object), allow_pickle=True)
    if how == "trailing bytes":
        return data + b"\0"
    raise AssertionError(how)


BROKEN = ["truncated", "garbage", "empty", "wrong digest", "wrong version", "wrong shape",
          "wrong dtype", "wrong columns", "wrong row count", "pickled", "trailing bytes"]


@pytest.mark.parametrize("how", BROKEN)
def test_a_broken_copy_falls_back_to_the_parse(tmp_path, caplog, how):
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    assert loads_copy(path)
    copy_of(path).write_bytes(corrupt(copy_of(path), how))
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        got = fileio.read_dyads(path)
    assert_same_table(got, parse(path))
    [message] = [r.getMessage() for r in caplog.records]
    reason = {"wrong digest": "stale parsed copy",
              "wrong version": "parsed copy of another version (0)"}
    assert message.startswith(f"{path}: parsed the text: "
                              + reason.get(how, "unreadable parsed copy ("))


def test_a_copy_that_is_a_directory_falls_back_to_the_parse(tmp_path, caplog):
    path = tmp_path / "dyads.csv"
    copy_of(path).mkdir()
    fileio.write_dyads(path, sample_table())
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        assert_same_table(fileio.read_dyads(path), parse(path))
    assert "parsed the text: unreadable parsed copy" in caplog.records[0].getMessage()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dyads.csv", "dyads.csv.parsed"]


def test_each_read_logs_one_line_saying_how_it_read(tmp_path, caplog):
    path, h = tmp_path / "dyads.csv", tmp_path / "h.csv"
    fileio.write_dyads(path, sample_table())
    fileio.write_influence(h, {"a": 0.5, "b": -1.25})
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        fileio.read_dyads(path)
        fileio.read_influence(h)
        copy_of(path).unlink()
        fileio.read_dyads(path)
        copy_of(h).write_bytes(b"twophase parsed copy 0\n{}\n")
        fileio.read_influence(h)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: loaded the parsed copy", f"{h}: loaded the parsed copy",
        f"{path}: parsed the text: no parsed copy",
        f"{h}: parsed the text: parsed copy of another version (0)"]
    assert {(r.name, r.levelno) for r in caplog.records} == {("twophase.fileio",
                                                              logging.DEBUG)}


def test_a_copy_of_another_kind_of_table_is_not_loaded(tmp_path):
    """An influence file named as a dyads file's copy is not read as one."""
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    fileio.write_influence(tmp_path / "h.csv", {"a": 0.5})
    shutil.copyfile(copy_of(tmp_path / "h.csv"), copy_of(path))
    assert not loads_copy(path)
    assert_same_table(fileio.read_dyads(path), parse(path))


def rejected(how):
    table = sample_table()
    cols = table.columns
    if how == "nan cell":
        cols["x_star"][2] = np.nan
    elif how == "nan phase-2 cell":
        cols["x"][1] = np.nan
    elif how == "repeated id":
        table.ids[4] = " d1"
    elif how == "flag value 2":
        cols["validated"] = cols["validated"].astype(np.int64) * 2
    elif how == "delta 2":
        cols["delta"][1] = 2.0
    elif how == "delta_star -1":
        cols["delta_star"][0] = -1.0
    return table


@pytest.mark.parametrize("how", ["nan cell", "nan phase-2 cell", "repeated id",
                                 "flag value 2", "delta 2", "delta_star -1"])
def test_a_table_the_reader_rejects_gets_no_copy(tmp_path, how):
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    assert copy_of(path).exists()
    fileio.write_dyads(path, rejected(how))
    assert not copy_of(path).exists()
    with pytest.raises(SchemaError) as parsed:
        parse(path)
    with pytest.raises(SchemaError) as read:
        fileio.read_dyads(path)
    assert str(read.value) == str(parsed.value)


@pytest.mark.parametrize("name, value", [("delta", 0.5), ("wave_sampled", 2.75),
                                         ("delta_star", 1.5), ("wave_sampled", 1e300)])
def test_integer_fields_are_copied_as_printed_truncated(tmp_path, name, value):
    """``delta`` 0.5 prints as 0, which the reader accepts: the copy holds 0."""
    table = sample_table()
    table.columns[name][1] = value
    path = tmp_path / "dyads.csv"
    with np.errstate(invalid="ignore"):
        fileio.write_dyads(path, table)
    want = parse(path)
    assert loads_copy(path)
    assert_same_table(fileio.read_dyads(path), want)
    with np.errstate(invalid="ignore"):
        assert want.columns[name][1] == float(np.array(value).astype(np.int64))


def test_rows_a_patch_keeps_are_copied_as_their_text_reads(tmp_path):
    """A hand-edited row that reveal does not touch keeps its text, which no
    writer would print (``1e300`` for a whole wave, ``1.50``); its copy holds
    what that text reads as."""
    source, path = tmp_path / "source.csv", tmp_path / "dyads.csv"
    fileio.write_dyads(source, sample_table())
    lines = source.read_bytes().decode().split("\r\n")
    header = lines[0].split(",")
    cells = lines[2].split(",")  # record 1, validated
    cells[header.index("wave_sampled")] = "1e300"
    cells[header.index("x_star")] = "1.50"
    lines[2] = ",".join(cells)
    source.write_bytes("\n".join(lines).encode())
    kept = []
    table = fileio.read_dyads(source, kept)
    rows = np.array([0])
    reveal_rows(table, rows, np.random.default_rng(1))
    fileio.write_dyads_patch(path, table, kept, rows)
    assert path.read_bytes().split(b"\r\n")[2] == lines[2].encode()
    assert loads_copy(path)
    got = fileio.read_dyads(path)
    assert got.columns["wave_sampled"][1] == 1e300
    assert_same_table(got, parse(path))


@pytest.mark.parametrize("change", ["repeat", "rename", "tuple"])
def test_ids_changed_after_the_read_are_checked_in_full(tmp_path, change):
    # A read from the copy lets the patch skip the id checks only while the
    # table still holds the ids it read; any change brings the full checks.
    source, path = tmp_path / "source.csv", tmp_path / "dyads.csv"
    fileio.write_dyads(source, sample_table())
    kept = []
    table = fileio.read_dyads(source, kept)
    assert loads_copy(source)
    if change == "repeat":
        table.ids[4] = table.ids[1]
    elif change == "rename":
        table.ids[4] = "e4"
    else:
        table.ids = tuple(table.ids)
    fileio.write_dyads_patch(path, table, kept, [4])
    if change == "repeat":
        assert not copy_of(path).exists()
        assert read_outcome(parse, path)[0] == "error"  # the repeated id
        return
    assert loads_copy(path)
    assert_same_table(fileio.read_dyads(path), parse(path))
    assert fileio.read_dyads(path).ids[4] == ("e4" if change == "rename" else "d4")


@pytest.mark.parametrize("name, value", [("y_star", -1.0), ("delta", 2.0), ("x", np.nan)])
def test_a_patched_row_the_reader_rejects_leaves_no_copy(tmp_path, name, value):
    # The patch checks the rows it writes; row 3 is a validated row.
    source, path = tmp_path / "source.csv", tmp_path / "dyads.csv"
    fileio.write_dyads(source, sample_table())
    kept = []
    table = fileio.read_dyads(source, kept)
    table.columns[name][3] = value
    fileio.write_dyads_patch(path, table, kept, [3])
    assert not copy_of(path).exists()
    assert read_outcome(parse, path)[0] == "error"


def test_a_table_read_from_its_copy_shares_nothing_with_a_later_read(tmp_path):
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    want = parse(path)
    first = fileio.read_dyads(path)
    assert loads_copy(path)
    y_star = first.columns["y_star"].copy()
    first.columns["x_star"][:] = 7.5  # the other columns keep their values
    assert first.columns["y_star"].tobytes() == y_star.tobytes()
    for name, values in first.columns.items():
        values[:] = ~values if name in FLAGS else 7.5
    first.ids[0] = "changed"
    assert_same_table(fileio.read_dyads(path), want)


def test_a_table_built_by_a_caller_holds_its_own_columns():
    x_star = np.array([0.5, 1.5])
    table = DyadTable(["a", "b"], {"y_star": [1.0, 2.0], "delta_star": [0, 1],
                                   "x_star": x_star})
    x_star[:] = 9.0
    assert table.columns["x_star"].tolist() == [0.5, 1.5]


def test_a_table_that_does_not_print_its_values_as_read_gets_no_copy(tmp_path):
    """Columns of other dtypes print in other forms; the copy is left out."""
    table = sample_table()
    table.columns["x_star"] = table.columns["x_star"].astype(np.float32)
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, table)
    assert not copy_of(path).exists()
    assert_same_table(fileio.read_dyads(path), parse(path))


def test_influence_files_the_reader_rejects_get_no_copy(tmp_path):
    path = tmp_path / "h.csv"
    fileio.write_influence(path, {"a": 0.5})
    for values in ({"a": 0.5, " a": 1.0}, {"a": float("inf")}, {"a": 1}):
        fileio.write_influence(path, values)
        assert not copy_of(path).exists()
        assert read_outcome(fileio.read_influence, path) == read_outcome(
            parse, path, fileio.read_influence)


def snapshot(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in directory.iterdir()}


def test_a_read_creates_no_file(tmp_path):
    path, h = tmp_path / "dyads.csv", tmp_path / "h.csv"
    stale, plain = tmp_path / "stale.csv", tmp_path / "plain.csv"
    fileio.write_dyads(path, sample_table())
    fileio.write_dyads(stale, sample_table())
    stale.write_bytes(stale.read_bytes().replace(b"d1", b"d9"))
    shutil.copyfile(path, plain)
    fileio.write_influence(h, {"a": 0.5})
    before = snapshot(tmp_path)
    for p in (path, stale, plain):
        fileio.read_dyads(p)
        fileio.read_dyads(p, [])
    fileio.read_influence(h)
    assert snapshot(tmp_path) == before


def test_a_read_only_directory_still_reads_and_writes(tmp_path, monkeypatch):
    directory = tmp_path / "ro"
    directory.mkdir()
    path = directory / "dyads.csv"
    fileio.write_dyads(path, sample_table())
    table = sample_table()
    table.columns["x_star"][0] = 7.5

    def refuse(*args, **kwargs):
        raise PermissionError("read-only directory")

    directory.chmod(0o555)
    try:
        assert loads_copy(path)
        assert_same_table(fileio.read_dyads(path), parse(path))
        if os.access(directory, os.W_OK):  # the super-user writes there anyway
            monkeypatch.setattr(fileio.os, "replace", refuse)
        fileio.write_dyads(path, table)  # the file itself stays writable
        monkeypatch.undo()
        assert not loads_copy(path)
        got = fileio.read_dyads(path)
        left = [p.name for p in directory.iterdir()]
    finally:
        directory.chmod(0o755)
    assert got.columns["x_star"][0] == 7.5
    assert_same_table(got, parse(path))
    assert not [name for name in left if name.endswith(".tmp")]


def test_copies_written_apart_in_time_are_the_same_bytes(tmp_path):
    copies = []
    for k in range(2):
        if k:
            time.sleep(2.1)
        out = tmp_path / f"run{k}"
        out.mkdir()
        fileio.write_dyads(out / "dyads.csv", sample_table())
        fileio.write_influence(out / "h.csv", {"b": 0.5, "a": -0.0})
        copies.append([copy_of(out / name).read_bytes() for name in ("dyads.csv", "h.csv")])
    assert copies[0] == copies[1]


def test_every_table_of_a_cli_chain_loads_as_parsed(tmp_path):
    """simulate -> reveal -> estimate: each dyads and influence file the CLI writes."""
    (tmp_path / "sim.json").write_text(json.dumps({"n": 300}))
    assert dispatch(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path), "--seed", "4"]) == 0
    ids = fileio.read_dyads(tmp_path / "dyads.csv").ids
    fileio.write_draw(tmp_path / "draw.json", {"all": ids[::7]}, wave=1)
    assert dispatch(["simulate", "reveal", "--dyads", str(tmp_path / "dyads.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--draw",
                     str(tmp_path / "draw.json"), "--out", str(tmp_path / "dyads_1.csv")]) == 0
    assert dispatch(["estimate", "--dyads", str(tmp_path / "dyads_1.csv"), "--method",
                     "phase1", "--out", str(tmp_path / "est.csv"), "--emit-influence",
                     str(tmp_path / "h.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".parsed") == [
        "dyads.csv.parsed", "dyads_1.csv.parsed", "h.csv.parsed", "truth.csv.parsed"]
    for name in ("dyads.csv", "dyads_1.csv"):
        assert loads_copy(tmp_path / name)
        assert_same_table(fileio.read_dyads(tmp_path / name), parse(tmp_path / name))
    assert loads_copy(tmp_path / "h.csv", "influence")
    assert fileio.read_influence(tmp_path / "h.csv") == parse(tmp_path / "h.csv",
                                                               fileio.read_influence)
    assert loads_copy(tmp_path / "truth.csv", "truth")
    assert_same_truth(fileio.read_truth(tmp_path / "truth.csv", ids[::3]),
                      parse(tmp_path / "truth.csv", lambda p: fileio.read_truth(p, ids[::3])))


def test_the_copy_holds_every_column_name_in_table_order(tmp_path):
    path = tmp_path / "dyads.csv"
    fileio.write_dyads(path, sample_table(n_z=3, n_aux=0))
    head = json.loads(copy_of(path).read_bytes().split(b"\n")[1])
    assert head["columns"] == column_names(3, 0)
    assert [c for c in head["columns"] if c in FLAGS or is_phase2(c)] == [
        *FLAGS, "wave_sampled", "y", "delta", "x", "z_0", "z_1", "z_2"]


# ---------------------------------------------------------------------------
# truth.csv


def assert_same_truth(got, want):
    (got_ids, got_columns), (want_ids, want_columns) = got, want
    assert got_ids == want_ids
    assert [type(rid) for rid in got_ids] == [str] * len(want_ids)
    assert list(got_columns) == list(want_columns)
    for name, values in want_columns.items():
        assert got_columns[name].dtype == values.dtype, name
        assert got_columns[name].tobytes() == values.tobytes(), name


# Truth values need not be finite: the reader parses nan and inf as written.
TRUTH_FLOATS = st.one_of(FLOATS, st.sampled_from([float("nan"), -float("nan"),
                                                  float("inf"), -float("inf")]))


def fake_population(ids, y, delta, x, gestation, asthma, z):
    return SimpleNamespace(ids=lambda: list(ids), y=y, delta=delta, x=x,
                           gestation=gestation, asthma=asthma, z=z)


@st.composite
def populations(draw):
    """What ``write_truth`` reads of a population: 0-8 records, 0-3 z
    columns, and 0/1 codes as floats, or as other values that print
    truncated."""
    n, n_z = draw(st.integers(0, 8)), draw(st.integers(0, 3))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)

    codes = st.sampled_from([0.0, 1.0, 0.5, 2.0, -1.0])
    z = np.array([column(TRUTH_FLOATS) for _ in range(n_z)]).reshape(n_z, n).T
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique_by=str.strip))
    return fake_population(ids, column(TRUTH_FLOATS), column(codes), column(TRUTH_FLOATS),
                           column(TRUTH_FLOATS), column(codes), z)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pop=populations(), data=st.data())
def test_the_truth_copy_loads_as_the_parse(scratch, pop, data):
    path = scratch / "truth.csv"
    fileio.write_truth(path, pop)
    assert loads_copy(path, "truth")
    ids = [rid.strip() for rid in pop.ids()]
    # Requested ids: none given, or some in any order, repeated, or absent.
    wanted = data.draw(st.none() | st.lists(st.sampled_from(ids + ["absent"]), max_size=12))

    def read(p):
        return fileio.read_truth(p, None if wanted is None else iter(wanted))

    assert_same_truth(read(path), parse(path, read))


def sample_population(n=6):
    rng = np.random.default_rng(3)
    return fake_population([f" d{i}" for i in range(n)], rng.lognormal(size=n),
                           rng.integers(0, 2, n).astype(float), rng.normal(size=n),
                           rng.uniform(250, 290, n), rng.integers(0, 2, n).astype(float),
                           rng.normal(size=(n, 2)))


@pytest.mark.parametrize("how", ["stale", "missing", "garbage", "truncated",
                                 "other version", "wrong columns"])
def test_a_broken_truth_copy_falls_back_to_the_parse(tmp_path, caplog, how):
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, sample_population())
    copy = copy_of(path)
    if how == "stale":
        path.write_bytes(path.read_bytes().replace(b"d3", b"d9"))
    elif how == "missing":
        copy.unlink()
    elif how == "garbage":
        copy.write_bytes(bytes(range(256)))
    elif how == "truncated":
        copy.write_bytes(copy.read_bytes()[:-9])
    elif how == "other version":
        data = copy.read_bytes()
        copy.write_bytes(data.replace(b"copy %s\n" % fileio._COPY_FORMAT, b"copy 7\n", 1))
    else:
        first, head, body = copy.read_bytes().split(b"\n", 2)
        meta = json.loads(head)
        meta["columns"] = meta["columns"][::-1]
        copy.write_bytes(first + b"\n" + json.dumps(meta).encode() + b"\n" + body)
    before = snapshot(tmp_path)
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        got = fileio.read_truth(path, ["d1", "d9", "d4"])
    assert snapshot(tmp_path) == before  # the read wrote no copy
    assert_same_truth(got, parse(path, lambda p: fileio.read_truth(p, ["d1", "d9", "d4"])))
    [message] = [r.getMessage() for r in caplog.records]
    reason = {"stale": "stale parsed copy", "missing": "no parsed copy",
              "other version": "parsed copy of another version (7)"}
    assert message.startswith(f"{path}: parsed the text: "
                              + reason.get(how, "unreadable parsed copy ("))


@pytest.mark.parametrize("how", ["repeated id", "id too long"])
def test_a_truth_table_the_reader_rejects_gets_no_copy(tmp_path, how):
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, sample_population())
    assert copy_of(path).exists()
    pop = sample_population()
    ids = pop.ids()
    ids[4] = " d1 " if how == "repeated id" else "d" * (csv.field_size_limit() + 1)
    fileio.write_truth(path, fake_population(ids, pop.y, pop.delta, pop.x, pop.gestation,
                                             pop.asthma, pop.z))
    assert not copy_of(path).exists()
    with pytest.raises(SchemaError) as parsed:
        parse(path, fileio.read_truth)
    with pytest.raises(SchemaError) as read:
        fileio.read_truth(path, ["d1"])
    # The message may name the file, which the parse read in another directory.
    assert str(read.value).split(path.name)[-1] == str(parsed.value).split(path.name)[-1]


def test_a_truth_row_with_a_wrong_cell_count_is_parsed_and_rejected(tmp_path):
    """The writer cannot print a wrong cell count; an edited file has one,
    and its copy is stale."""
    path = tmp_path / "truth.csv"
    fileio.write_truth(path, sample_population())
    lines = path.read_bytes().split(b"\r\n")
    lines[3] = lines[3].rpartition(b",")[0]
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SchemaError, match=r"row 4: expected 8 cells, found 7") as read:
        fileio.read_truth(path, ["d0"])
    with pytest.raises(SchemaError) as parsed:
        parse(path, lambda p: fileio.read_truth(p, ["d0"]))
    assert str(read.value) == str(parsed.value)


def test_a_truth_table_that_does_not_print_its_values_as_read_gets_no_copy(tmp_path):
    """A column of another dtype, or of another length than the ids."""
    path = tmp_path / "truth.csv"
    pop = sample_population()
    for changed in ({"x": pop.x.astype(np.float32)}, {"y": pop.y[:-1]}):
        fileio.write_truth(path, sample_population())
        fields = {**vars(pop), **changed}
        fileio.write_truth(path, fake_population(pop.ids(), *(fields[k] for k in (
            "y", "delta", "x", "gestation", "asthma", "z"))))
        assert not copy_of(path).exists()
        assert_same_truth(fileio.read_truth(path), parse(path, fileio.read_truth))


def test_reveal_loads_the_dyads_and_truth_copies(tmp_path, caplog):
    """The fast path of ``simulate reveal``: both of its tables load from
    their copies, and neither is parsed."""
    (tmp_path / "sim.json").write_text(json.dumps({"n": 200}))
    assert dispatch(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out", str(tmp_path), "--seed", "5"]) == 0
    ids = fileio.read_dyads(tmp_path / "dyads.csv").ids
    fileio.write_draw(tmp_path / "draw.json", {"all": ids[::5]}, wave=1)
    dyads, truth = tmp_path / "dyads.csv", tmp_path / "truth.csv"
    with caplog.at_level(logging.DEBUG, logger="twophase.fileio"):
        assert dispatch(["simulate", "reveal", "--dyads", str(dyads), "--truth", str(truth),
                         "--draw", str(tmp_path / "draw.json"),
                         "--out", str(tmp_path / "dyads_1.csv")]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "twophase.fileio"] == [
        f"{dyads}: loaded the parsed copy", f"{truth}: loaded the parsed copy"]
