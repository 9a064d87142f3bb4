"""``simulate reveal`` writes ``--out`` as a patch of ``--dyads``.

The reference for every file is the full rewrite: ``fileio.write_dyads``
of the table that reveal should leave, built here row by row.
"""

import csv
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import fileio
from twophase.cli import dispatch
from twophase.records import DyadTable, is_phase2

# Floats whose repr takes each of its forms: exponent, subnormal, long digits.
ODD_FLOATS = [5e-324, 1e16, 1.5e-5, 0.1 + 0.2, 123456789.125, 2.0]


def random_table(rng, n, n_z, n_aux, validated):
    """``n`` records ``r<i>``; the rows in ``validated`` carry phase-2 values."""
    def floats(positive=False):
        v = rng.lognormal(0.0, 1.0, n) if positive else rng.normal(0.0, 2.0, n)
        odd = rng.random(n) < 0.2
        v[odd] = rng.choice(ODD_FLOATS, int(odd.sum())) * (1 if positive else -1)
        return v

    flag = np.zeros(n, dtype=bool)
    flag[validated] = True
    columns = {"y_star": floats(True), "delta_star": rng.integers(0, 2, n).astype(float),
               "x_star": floats(), "in_asthma_frame": rng.random(n) < 0.5,
               "validated": flag, "wave_sampled": np.where(flag, rng.integers(1, 4, n), 0),
               "y": np.where(flag, floats(True), 0.0),
               "delta": np.where(flag, rng.integers(0, 2, n), 0).astype(float),
               "x": np.where(flag, floats(), 0.0)}
    for j in range(n_z):
        columns[f"z_star_{j}"] = floats()
        columns[f"z_{j}"] = np.where(flag, floats(), 0.0)
    for j in range(n_aux):
        columns[f"aux_{j}"] = floats()
    return DyadTable([f"r{i}" for i in range(n)], columns)


def write_truth(path, rng, ids, n_z):
    """A truth file for ``ids``; returns its values by id."""
    n = len(ids)
    values = {"y": rng.lognormal(0.0, 1.0, n), "delta": rng.integers(0, 2, n),
              "x": rng.normal(0.0, 1.0, n), "gestation_days": rng.uniform(250, 290, n),
              "asthma": rng.integers(0, 2, n),
              **{f"z_{j}": rng.normal(0.0, 1.0, n) for j in range(n_z)}}
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", *values])
        out.writerows(zip(ids, *(v.tolist() for v in values.values())))
    return {rid: {k: float(v[i]) for k, v in values.items()} for i, rid in enumerate(ids)}


def revealed(table, truth, drawn, wave):
    """The table after reveal: each drawn record not yet validated takes its truth."""
    new = DyadTable(list(table.ids), table.columns)
    cols = new.columns
    for i, rid in enumerate(table.ids):
        if rid in drawn and not cols["validated"][i]:
            for name in ["y", "delta", "x", *(f"z_{j}" for j in range(table.n_z))]:
                cols[name][i] = truth[rid][name]
            cols["wave_sampled"][i] = wave
            cols["validated"][i] = True
    return new


def reveal(dyads, truth, drawn, wave, out):
    draw = out.parent / "draw.json"
    fileio.write_draw(draw, {"all": sorted(drawn)}, wave=wave)
    return dispatch(["simulate", "reveal", "--dyads", str(dyads), "--truth", str(truth),
                     "--draw", str(draw), "--out", str(out)])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reveal_patch")


# Input layouts: as write_dyads writes it, with LF line ends, with an id
# that needs quoting (not plain: the whole table is rewritten), and a
# header without the phase-2 columns (rewritten whole too).
LAYOUTS = ["crlf", "lf", "quoted id", "phase-1 header"]


@settings(max_examples=80, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 30), n_z=st.integers(1, 2),
       n_aux=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
       share=st.floats(0.0, 1.0), wave=st.integers(1, 5))
def test_reveal_gives_the_bytes_of_a_full_rewrite(scratch, layout, n, n_z, n_aux, seed,
                                                  share, wave):
    rng = np.random.default_rng(seed)
    # Some rows are validated already, and a draw may name them again.
    validated = [] if layout == "phase-1 header" else np.flatnonzero(rng.random(n) < 0.3)
    table = random_table(rng, n, n_z, n_aux, validated)
    if layout == "quoted id":
        table.ids[int(rng.integers(n))] = "r,q"
    dyads = scratch / "dyads.csv"
    if layout == "phase-1 header":
        names = [c for c in table.columns if not is_phase2(c)]
        fileio._write_columns(dyads, ["id", *names], [table.ids, *(
            fileio._cell_values(c, table.columns[c]) for c in names)])
    else:
        fileio.write_dyads(dyads, table)
    if layout == "lf":
        dyads.write_bytes(dyads.read_bytes().replace(b"\r\n", b"\n"))
    truth = write_truth(scratch / "truth.csv", rng, table.ids, n_z)
    drawn = {rid for rid in table.ids if rng.random() < share}

    assert reveal(dyads, scratch / "truth.csv", drawn, wave, scratch / "out.csv") == 0
    fileio.write_dyads(scratch / "want.csv",
                       revealed(fileio.read_dyads(dyads), truth, drawn, wave))
    assert (scratch / "out.csv").read_bytes() == (scratch / "want.csv").read_bytes()


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """A ``simulate`` output of 200 dyads and a draw of every seventh record."""
    d = tmp_path_factory.mktemp("population")
    (d / "sim.json").write_text(json.dumps({"n": 200}))
    assert dispatch(["simulate", "--config", str(d / "sim.json"), "--out", str(d),
                     "--seed", "3"]) == 0
    ids = fileio.read_dyads(d / "dyads.csv").ids
    drawn = set(ids[::7])
    assert reveal(d / "dyads.csv", d / "truth.csv", drawn, 1, d / "dyads_1.csv") == 0
    return d, drawn


def test_reveal_logs_the_rows_it_validates(population, tmp_path, caplog):
    d, drawn = population
    with caplog.at_level(logging.INFO, logger="twophase"):
        assert reveal(d / "dyads.csv", d / "truth.csv", drawn, 1, tmp_path / "first.csv") == 0
        # The same draw on reveal's own output: every drawn row is validated.
        assert reveal(tmp_path / "first.csv", d / "truth.csv", drawn, 1,
                      tmp_path / "again.csv") == 0
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("validated")]
    assert logged == [f"validated {len(drawn)} newly drawn records (0 reused from overlap)",
                      "validated 0 newly drawn records (0 reused from overlap)"]
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_a_hand_edited_undrawn_row_keeps_its_text(population, tmp_path):
    d, drawn = population
    lines = (d / "dyads.csv").read_bytes().decode().split("\r\n")
    row = 2  # record 1, not drawn
    cells = lines[row].split(",")
    assert cells[0] not in drawn and "." in cells[1] and "e" not in cells[1]
    cells[0], cells[1] = " " + cells[0], cells[1] + "0"  # same id, same value
    lines[row] = ",".join(cells)
    (tmp_path / "dyads.csv").write_bytes("\r\n".join(lines).encode())
    assert reveal(tmp_path / "dyads.csv", d / "truth.csv", drawn, 1,
                  tmp_path / "out.csv") == 0
    got = (tmp_path / "out.csv").read_bytes().split(b"\r\n")
    want = (d / "dyads_1.csv").read_bytes().split(b"\r\n")
    assert got[row] == lines[row].encode() != want[row]
    assert got[:row] + got[row + 1:] == want[:row] + want[row + 1:]


def test_out_may_be_the_dyads_file(population, tmp_path):
    d, drawn = population
    path = tmp_path / "dyads.csv"
    path.write_bytes((d / "dyads.csv").read_bytes())
    assert reveal(path, d / "truth.csv", drawn, 1, path) == 0
    assert path.read_bytes() == (d / "dyads_1.csv").read_bytes()


def test_a_patched_row_that_is_not_validated_gets_empty_phase2_cells(tmp_path):
    table = random_table(np.random.default_rng(5), 12, 2, 1, [1, 4])
    fileio.write_dyads(tmp_path / "dyads.csv", table)
    kept = []
    table = fileio.read_dyads(tmp_path / "dyads.csv", kept)
    rows = [0, 4, 11]
    table.columns["x_star"][rows] += 1.0
    table.columns["validated"][4] = False  # its phase-2 values stay in the columns
    fileio.write_dyads_patch(tmp_path / "patched.csv", table, kept, rows)
    fileio.write_dyads(tmp_path / "rewritten.csv", table)
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "rewritten.csv").read_bytes()


# ---------------------------------------------------------------------------
# The byte patch against the lines patch it replaced.


def lines_patch(path, table, lines, rows):
    """``fileio.write_dyads_patch`` as it patched the list of lines that
    ``read_dyads`` gave it (``fileio._plain_lines`` of the text, empty for
    text that is not plain): the reference for the byte patch."""
    header = ["id", *table.columns]
    if not lines or lines[0] != ",".join(header):
        fileio.write_dyads(path, table)
        return
    rows = np.asarray(rows, dtype=np.intp)
    validated = table.columns["validated"][rows].tolist()
    columns = [[table.ids[i] for i in rows.tolist()]]
    for name, values in table.columns.items():
        cells = list(map(str, fileio._cell_values(name, values[rows])))
        if is_phase2(name):
            cells = [c if v else "" for c, v in zip(cells, validated)]
        columns.append(cells)
    out = list(lines)
    for i, cells in zip(rows.tolist(), zip(*columns)):
        out[i + 1] = fileio._csv_text([cells])[:-2]
    path.write_bytes(("\r\n".join(out) + "\r\n").encode("utf-8"))


# Edits of a file that write_dyads wrote.  Line ends: all LF, a random mix
# of LF and CRLF, no end after the last line.  Hand edits of rows that the
# patch may keep: an id padded with space, a float with a trailing zero.
# Text that is not plain: a quoted cell, a bare carriage return ending a
# line.  A header that is not the dyads header: two columns swapped.
EDITS = ["lf", "mixed", "no final end", "padded id", "trailing zero", "quoted cell",
         "bare cr", "swapped columns"]


def edit_text(text, edits, rng):
    lines = text.split("\r\n")[:-1]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    pick = int(rng.integers(len(rows)))
    if "padded id" in edits:
        rows[pick][0] = f" {rows[pick][0]}  "
    if "trailing zero" in edits:
        for row in rows:
            for j, cell in enumerate(row[1:], start=1):
                if "." in cell and "e" not in cell and rng.random() < 0.5:
                    row[j] = cell + "0"
    if "quoted cell" in edits:
        rows[pick][header.index("x_star")] = f'"{rows[pick][header.index("x_star")]}"'
    if "swapped columns" in edits:
        a, b = header.index("y_star"), header.index("x_star")
        for row in [header, *rows]:
            row[a], row[b] = row[b], row[a]
    lines = [",".join(row) for row in [header, *rows]]
    ends = ["\r\n"] * len(lines)
    if "lf" in edits:
        ends = ["\n"] * len(lines)
    elif "mixed" in edits:
        ends = [("\n", "\r\n")[int(rng.integers(2))] for _ in lines]
    if "bare cr" in edits:
        ends[int(rng.integers(len(lines) - 1))] = "\r"
    if "no final end" in edits:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def validate_rows(table, rows, rng):
    """Give ``rows`` of ``table`` phase-2 values, as ``simulate reveal`` does."""
    cols = table.columns
    for name in ["y", "delta", "x", *(f"z_{j}" for j in range(table.n_z))]:
        cols[name][rows] = (rng.lognormal(size=rows.size) if name == "y"
                            else rng.integers(0, 2, rows.size) if name == "delta"
                            else rng.normal(size=rows.size))
    cols["wave_sampled"][rows] = 2
    cols["validated"][rows] = True


@settings(max_examples=200, deadline=None)
@given(edits=st.sets(st.sampled_from(EDITS), max_size=3), n=st.integers(1, 12),
       n_z=st.integers(1, 2), n_aux=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
       share=st.floats(0.0, 1.0), same_out=st.booleans())
def test_the_byte_patch_writes_what_the_lines_patch_wrote(scratch, edits, n, n_z, n_aux,
                                                          seed, share, same_out):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n, n_z, n_aux, np.flatnonzero(rng.random(n) < 0.3))
    # Non-ASCII ids, some padded with space, which the reader strips.
    table.ids = [f"{rng.choice(['', ' '])}{rng.choice(['d', 'é', '中'])}{i}"
                 f"{rng.choice(['', ' '])}" for i in range(n)]
    dyads = scratch / "edited.csv"
    fileio.write_dyads(dyads, table)
    text = edit_text(dyads.read_bytes().decode("utf-8"), edits, rng)
    if edits:
        dyads.write_bytes(text.encode("utf-8"))

    kept = []
    read = fileio.read_dyads(dyads, kept)
    waiting = np.flatnonzero(~read.columns["validated"])
    rows = np.sort(rng.choice(waiting, int(share * waiting.size), replace=False))
    validate_rows(read, rows, rng)
    out = dyads if same_out else scratch / "patched.csv"
    fileio.write_dyads_patch(out, read, kept, rows)
    lines_patch(scratch / "reference.csv", read, fileio._plain_lines(text) or [], rows)
    assert out.read_bytes() == (scratch / "reference.csv").read_bytes()
    assert fileio.read_dyads(out).ids == read.ids
