"""The column-wise CSV layer of ``fileio`` against the csv module.

``_read_columns`` must give the header, cells and first problem that
``csv.reader`` followed by a row-to-column transpose gives, and every
writer the bytes that ``csv.writer`` writes row by row.  The file read
(``_read_text``) and the plain-line rule (``_plain_rows``, on the text's
UTF-8 bytes) must give what the text-mode read and the four-count rule on
the text that they replaced gave.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase import fileio
from twophase.errors import SchemaError


def reference_columns(path, width, exact):
    """``csv.reader`` rows, cut at the first row with a wrong cell count and
    transposed: the reader the column layer replaces."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else (None, [])
    width = len(header or ()) if width is None else width
    problems = []
    for i, row in enumerate(body):
        if len(row) != width if exact else len(row) < width:
            problems.append((i, f"expected {width} cells, found {len(row)}"))
            body = body[:i]
            break
    return header, [[row[j] for row in body] for j in range(width)], problems


def csv_writer_bytes(rows):
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Reading

# Cells of the plain path (no quote, no carriage return), with line breaks
# that str.splitlines knows and the csv module does not.
PLAIN_CELL = st.text(st.sampled_from(list("ab1.-e \t\x85\u2028\x0c")), max_size=4)
# Raw line text that can hold quotes and bare carriage returns.
RAW_LINE = st.text(st.sampled_from(list('ab1 ,"\r\n\x85')), max_size=8)


@st.composite
def csv_texts(draw):
    """File text with a header of ``width`` names and rows of every shape."""
    width = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(width)]
    if draw(st.integers(0, 9)) == 0:
        header.append(header[0])  # a repeated name
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 4 + ["short", "long", "blank", "space",
                                                   "raw"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(" " * draw(st.integers(1, 3)))
        elif kind == "raw":
            lines.append(draw(RAW_LINE))
        else:
            n = {"row": len(header), "short": draw(st.integers(1, len(header))),
                 "long": len(header) + draw(st.integers(1, 2))}[kind]
            lines.append(",".join(draw(st.lists(PLAIN_CELL, min_size=n, max_size=n))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    return text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_layer") / "t.csv"


def assert_reads_like_csv(path, width, exact):
    header, columns, problems = reference_columns(path, width, exact)
    got_problems = []
    if header is not None and len(set(header)) < len(header):
        with pytest.raises(SchemaError, match="header repeats column"):
            fileio._read_columns(path, got_problems, width, exact)
        return
    got_header, got_columns = fileio._read_columns(path, got_problems, width, exact)
    assert got_header == header
    assert [list(c) for c in got_columns] == columns
    assert got_problems == problems


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), width=st.sampled_from([None, 1, 2, 3]), exact=st.booleans())
def test_reader_matches_csv_reader(scratch, text, width, exact):
    scratch.write_text(text, encoding="utf-8", newline="")
    assert_reads_like_csv(scratch, width, exact)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.text(st.sampled_from(list('a1 ,"\r\n\x85\u2028')),
                                      max_size=5), min_size=2, max_size=2),
                     max_size=6),
       exact=st.booleans())
def test_reader_matches_csv_reader_on_quoted_files(scratch, rows, exact):
    scratch.write_bytes(csv_writer_bytes([["id", "value"], *rows]))
    assert_reads_like_csv(scratch, None, exact)


def text_mode_read(path):
    """``fileio._read_text`` as a text-mode read with ``newline=""`` gave it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None


def four_count_lines(text):
    """The plain-line rule as four counts of the text decided it."""
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    if "\r" in text and text.count("\n") != text.count("\r\n"):
        text = text.replace("\r\n", "\n")
    lines = text.split("\r\n" if "\r" in text else "\n")
    if lines[-1] == "":
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) >= limit and max(map(len, lines)) >= limit:
        return None
    return lines


def read_outcome(read, path):
    """What ``read(path)`` returns, or the text of the SchemaError it raises."""
    try:
        return read(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


BIG = b"id,influence\n" + b"r1,0.5\n" * 1400   # past the text layer's 8 KiB chunk


@pytest.mark.parametrize("data", [
    b"", b"\xef\xbb\xbfid,influence\nr1,0.5\n", b"id,influence\nr1,0.5\n",
    b"id,influence\r\nr1,0.5\r\n", b"id,influence\r\nr1,0.5\nr2,1\r\n",
    b"id,influence\nr1\r,0.5\n", b"id,influence\r\nr1,0.5", b"\r", b"a\r\r\n",
    "id,influence\nr\u00e9,0.5\n".encode(), BIG + b"r\xff,1\n", BIG + b"r,\xc3",
    BIG[:8191] + "\u00e9".encode() + BIG[8191:], BIG[:8191] + b"\xc3(" + BIG[8191:],
    b"id\n\xed\xa0\x80\n",
], ids=["empty", "bom", "lf", "crlf", "mixed", "bare_cr", "no_final_end", "cr_only",
        "cr_before_crlf", "non_ascii", "bad_byte_past_8k", "truncated_char_at_end",
        "char_across_8k", "bad_char_across_8k", "surrogate"])
def test_read_text_matches_a_text_mode_read(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert read_outcome(fileio._read_text, path) == read_outcome(text_mode_read, path)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=24) | st.lists(st.sampled_from(
    [b"a", b",", b"\r", b"\n", b"\xc3", b"\xa9", b"\xff", b"\xef\xbb\xbf"]),
    max_size=12).map(b"".join))
def test_read_text_matches_a_text_mode_read_on_any_bytes(scratch, data):
    scratch.write_bytes(data)
    assert read_outcome(fileio._read_text, scratch) == read_outcome(text_mode_read, scratch)


LINE_TEXT = st.text(st.sampled_from(list('a1,"\r\n\x85\u2028')), max_size=16)


def plain_rows_lines(text):
    """The lines that ``fileio._plain_rows`` marks in the text's UTF-8 bytes,
    or None; the bytes it keeps must be those lines, each ended in CRLF."""
    rows = fileio._plain_rows(text.encode("utf-8"))
    if rows is None:
        return None
    data, starts = rows
    starts = starts.tolist()
    lines = [data[a:b - 2].decode("utf-8") for a, b in zip(starts, starts[1:])]
    assert data == "".join(line + "\r\n" for line in lines).encode("utf-8")
    return lines


@settings(max_examples=500, deadline=None)
@given(text=LINE_TEXT | csv_texts())
def test_plain_lines_match_the_four_count_rule(text):
    assert plain_rows_lines(text) == four_count_lines(text)


LINE_END_TEXTS = [
    "", "\r", "\n", "\r\n", "\n\r", "\r\r\n", "a\r\nb\nc", "a\nb\r\n", "a\rb\r\n",
    "a\r\nb\r\n\r\n", "a,b\r\n1,2", "\u2028\r\n\x85\n",
]


@pytest.mark.parametrize("text", LINE_END_TEXTS)
def test_plain_lines_match_the_four_count_rule_on_line_ends(text):
    assert plain_rows_lines(text) == four_count_lines(text)


def assert_csv_reader_splits_at_commas(text):
    """Where the rule finds plain lines, ``csv.reader`` reads each of them
    as its split at commas, a blank line as a row of no cells."""
    lines = plain_rows_lines(text)
    if lines is not None:
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            line.split(",") if line else [] for line in lines]


@settings(max_examples=500, deadline=None)
@given(text=LINE_TEXT | csv_texts())
def test_the_plain_rule_on_bytes_agrees_with_plain_lines(text):
    assert_csv_reader_splits_at_commas(text)


@pytest.mark.parametrize("text", LINE_END_TEXTS + ['a,"b"\r\n', "é,中\n1,2"])
def test_the_plain_rule_on_bytes_agrees_with_plain_lines_on_line_ends(text):
    assert_csv_reader_splits_at_commas(text)
    assert plain_rows_lines(text) == four_count_lines(text)


@pytest.mark.parametrize("line", ["x", "é", "\u2028"])
@pytest.mark.parametrize("short", [0, 1])
def test_the_plain_rule_on_bytes_counts_a_long_line_in_characters(line, short):
    """A line of ``limit`` characters is not plain, whatever its bytes; one
    of fewer characters is plain, also when it has more bytes than that."""
    limit = csv.field_size_limit()
    text = "id,h\r\n" + line * (limit - short) + "\r\nr,1\r\n"
    assert plain_rows_lines(text) == four_count_lines(text)
    assert (plain_rows_lines(text) is None) == (short == 0)


@pytest.mark.parametrize("text", [
    "", "\n", "\r\n", "a,b", "a,b\n", "a,b\r\n\r\n", "a,b\n1,2\n\n3,4\n", "a,b\n  \n",
    "a,b\n1,2,3\n4\n", "a,b\r\n1,2\n3,4\r\n", "a,b\n1\x852,3\n", "a,b\n1\r2,3\n",
    'a,b\n"1,2",3\n', "a\n\n1\n",
])
@pytest.mark.parametrize("width, exact", [(None, True), (None, False), (1, False),
                                          (3, False)])
def test_reader_edge_cases(tmp_path, text, width, exact):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_reads_like_csv(path, width, exact)


def test_lines_as_long_as_the_field_limit_go_through_csv(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    # A long line of short cells reads as the csv module reads it ...
    path.write_text("id,influence\n" + ",".join(["x"] * limit) + "\n", encoding="utf-8")
    assert_reads_like_csv(path, 2, False)
    # ... and a cell longer than the limit is a parse error naming the file.
    path.write_text("id,influence\nr1," + "9" * (limit + 1) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"t\.csv: field larger than field limit"):
        fileio.read_influence(path)


# ---------------------------------------------------------------------------
# Writing

TEXT_CELL = st.text(st.sampled_from(list('ab1 ,"\r\n\x85\u2028')), max_size=5)
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e300, 1e16, 1e-5, 0.1]),
    st.integers(-10 ** 20, 10 ** 20),
)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(["text", "number"]), min_size=1, max_size=4))
    n = draw(st.integers(0, 6))
    header = draw(st.lists(TEXT_CELL, min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(TEXT_CELL if kind == "text" else NUMBER,
                             min_size=n, max_size=n)) for kind in kinds]
    return header, columns


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_column_writer_matches_csv_writer(scratch, table):
    header, columns = table
    fileio._write_columns(scratch, header, columns)
    assert scratch.read_bytes() == csv_writer_bytes([header, *zip(*columns)])


def test_column_writer_quotes_across_row_blocks(tmp_path):
    n = 2 * fileio._WRITE_ROWS + 7
    ids = [f"d{i}" for i in range(n)]
    ids[fileio._WRITE_ROWS + 3] = 'a,"b" c'
    values = np.random.default_rng(4).normal(size=n).tolist()
    fileio._write_columns(tmp_path / "t.csv", ["id", "value"], [ids, values])
    got = (tmp_path / "t.csv").read_bytes()
    assert b'"a,""b"" c"' in got
    assert got == csv_writer_bytes([["id", "value"], *zip(ids, values)])


def _fmt(value):
    """The cell text the row-by-row writers produced for a number."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


IDS = ["d1", 'a,"b" c', "-0", "e\nf", ""]
VALUES = [0.123456789012345, -0.0, 5e-324, 1e300, 3]


def _writer_cases():
    """``(name, write(path), rows the row-by-row writer gave)`` per writer."""
    rng = np.random.default_rng(5)
    pop = SimpleNamespace(
        ids=lambda: IDS, y=np.array(VALUES, dtype=float), delta=np.array([1, 0, 1, 0, 1]),
        x=np.array([-0.0, 5e-324, 1e300, 0.5, 2.0]), gestation=np.full(5, 273.0),
        asthma=np.array([0, 1, 0, 0, 1]), z=rng.normal(size=(5, 2)))
    scores = rng.normal(size=(5, 2))
    gains = [0.25, -0.0, 1e300, 5e-324, 1.0]
    days = [273.0, 250.0, 273.0, 280.0, 14.0]
    names = ["phase1", 'ipw,"x"']
    merged = {"x": {"phase1": (0.5, 0.1), 'ipw,"x"': (-0.0, 5e-324)},
              "z,0": {"phase1": (1e300, 2.0)}}
    nan = float("nan")
    estimators = {"obesity/ipw_sf": dict(mean_beta=0.1, bias=-0.0, sd=5e-324, mean_se=1e300,
                                        coverage=0.95, n=400),
                  'asthma/raking,"mi"': dict(mean_beta=nan, bias=1.0, sd=2.0, mean_se=3.0,
                                            coverage=1.0, n=0)}
    report = SimpleNamespace(estimators=estimators, replicates=2, failures=0,
                             true_beta={"obesity": 1.0}, failure_reasons={})
    fields = ["mean_beta", "bias", "sd", "mean_se", "coverage", "n"]
    return [
        ("influence", lambda p: fileio.write_influence(p, dict(zip(IDS, VALUES))),
         [["id", "influence"], *([rid, _fmt(v)] for rid, v in sorted(zip(IDS, VALUES)))]),
        ("influence_empty", lambda p: fileio.write_influence(p, {}), [["id", "influence"]]),
        ("estimates", lambda p: fileio.write_estimates(
            p, [("ipw", np.array(VALUES[:2]), np.array(VALUES[2:4])),
                ('raking,"mi"', np.array([1, 2]), np.array([0.5, 0.25]))], IDS[:2]),
         [["estimator", "term", "beta", "se"],
          ["ipw", IDS[0], _fmt(VALUES[0]), _fmt(VALUES[2])],
          ["ipw", IDS[1], _fmt(VALUES[1]), _fmt(VALUES[3])],
          ['raking,"mi"', IDS[0], "1", "0.5"], ['raking,"mi"', IDS[1], "2", "0.25"]]),
        ("combined_weights", lambda p: fileio.write_combined_weights(
            p, IDS, ["O", "A", "O", "A,B", "O"], VALUES),
         [["id", "frame", "weight", "cluster"],
          *([rid, f, _fmt(w), rid] for rid, f, w in zip(IDS, ["O", "A", "O", "A,B", "O"],
                                                        VALUES))]),
        # Weights that are not all floats print as _fmt prints each one.
        ("combined_weights_mixed", lambda p: fileio.write_combined_weights(
            p, IDS, ["O"] * 5, [2, True, np.float32(0.1), np.bool_(False), np.int64(-3)]),
         [["id", "frame", "weight", "cluster"],
          *([rid, "O", _fmt(w), rid] for rid, w in zip(
              IDS, [2, True, np.float32(0.1), np.bool_(False), np.int64(-3)]))]),
        ("truth", lambda p: fileio.write_truth(p, pop),
         [["id", "y", "delta", "x", "gestation_days", "asthma", "z_0", "z_1"],
          *zip(IDS, pop.y.tolist(), pop.delta.tolist(), pop.x.tolist(),
               pop.gestation.tolist(), pop.asthma.tolist(), *pop.z.T.tolist())]),
        ("scores", lambda p: fileio.write_scores(p, IDS, scores, days, gains),
         [["subject_id", "score_0", "score_1", "gestation_days", "weekly_gain"],
          *([sid] + [repr(float(v)) for v in xi] + [repr(float(g)), repr(float(gain))]
            for sid, xi, g, gain in zip(IDS, scores, days, gains))]),
        ("scores_no_components", lambda p: fileio.write_scores(
            p, IDS[:2], np.empty((2, 0)), days[:2], gains[:2]),
         [["subject_id", "gestation_days", "weekly_gain"],
          *([sid, repr(float(g)), repr(float(gain))]
            for sid, g, gain in zip(IDS[:2], days, gains))]),
        ("scores_empty", lambda p: fileio.write_scores(p, [], np.empty((0, 3)), [], []),
         [["subject_id", "score_0", "score_1", "score_2", "gestation_days",
           "weekly_gain"]]),
        ("flags", lambda p: fileio.write_flags(p, IDS, [0, 3, 1, 2, 7], VALUES,
                                               np.array(gains)),
         [["subject_id", "obs_index", "t_days", "weight_kg"],
          *([sid, j, repr(float(t)), repr(float(v))]
            for sid, j, t, v in zip(IDS, [0, 3, 1, 2, 7], VALUES, gains))]),
        ("estimate_table", lambda p: fileio.write_estimate_table(p, names, merged),
         [["term", "phase1_beta", "phase1_se", 'ipw,"x"_beta', 'ipw,"x"_se'],
          ["x", "0.5", "0.1", "-0.0", "5e-324"], ["z,0", "1e+300", "2.0", "nan", "nan"]]),
        ("report", lambda p: fileio.write_report(p, p.with_suffix(".txt"), report),
         [["endpoint", "estimator", *fields],
          *([*key.split("/", 1), *(_fmt(estimators[key][f]) for f in fields)]
            for key in sorted(estimators))]),
    ]


@pytest.mark.parametrize("name, write, rows", _writer_cases(),
                         ids=[case[0] for case in _writer_cases()])
def test_writer_matches_row_by_row_reference(tmp_path, name, write, rows):
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == csv_writer_bytes(rows)


# ---------------------------------------------------------------------------
# Rejected input

HEADERS = {
    fileio.read_dyads: "id,y_star,delta_star,x_star",
    fileio.read_truth: "id,y,delta,x,gestation_days,asthma,z_0",
    fileio.read_measurements: "subject_id,t_days,weight_kg",
    fileio.read_influence: "id,influence",
    fileio.read_gestation: "subject_id,gestation_days",
    fileio.read_estimates: "estimator,term,beta,se",
}
TABLE_READERS = list(HEADERS)


def test_repeated_header_name_is_rejected(tmp_path):
    # The second x_star used to replace the first without a word.
    path = tmp_path / "d.csv"
    path.write_text("id,y_star,delta_star,x_star,x_star\nr1,3.0,0,0.4,9.0\n")
    with pytest.raises(SchemaError, match="header repeats column 'x_star'"):
        fileio.read_dyads(path)


@pytest.mark.parametrize("reader", TABLE_READERS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("quoted", [False, True])
def test_every_table_reader_rejects_a_repeated_header_name(tmp_path, reader, quoted):
    names = HEADERS[reader].split(",")
    header = ",".join(names + [names[-1]])
    row = ",".join(['"r,1"' if quoted else "r1"] + ["1"] * len(names))
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(SchemaError, match=f"header repeats column '{names[-1]}'"):
        reader(path)


@pytest.mark.parametrize("reader", TABLE_READERS + [
    fileio.read_ledger, fileio.read_allocation, fileio.read_draw, fileio.read_eigensystem,
    fileio.read_json], ids=lambda r: r.__name__)
def test_undecodable_file_is_a_schema_error(tmp_path, reader):
    path = tmp_path / "f"
    path.write_bytes(b"id,influence\nr\xff1,0.5\n")
    with pytest.raises(SchemaError, match=r"f is not UTF-8 text"):
        reader(path)


@pytest.mark.parametrize("reader", [fileio.read_ledger, fileio.read_allocation,
                                    fileio.read_draw, fileio.read_eigensystem,
                                    fileio.read_json], ids=lambda r: r.__name__)
@pytest.mark.parametrize("text", ['{"draws": {"s1": 3', "", "[1, 2,"])
def test_malformed_json_is_a_schema_error(tmp_path, reader, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=r"f\.json is not valid JSON"):
        reader(path)
