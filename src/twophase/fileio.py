"""File schemas: CSV and JSON round-trips for every artifact.

All writers emit stable key order and full-precision numerics so repeated
runs with identical inputs produce byte-identical files.  Parse errors
carry the row number and column name; when a file has several faults,
the first row in file order is reported.  Every file is UTF-8 text; one
that does not decode, a JSON file that does not parse and a CSV file the
csv module rejects raise SchemaError naming the file.

The CSV tables (``dyads.csv``, ``truth.csv``, ``measurements.csv``, the
estimates and the keyed influence and gestation files) are read as
columns by :func:`_read_columns` from the file's bytes.  One rule,
:func:`_plain_rows`, says when the text splits at its commas alone and
where its lines end.  Such text is split into lines, each line's cell
count is checked, and the columns are strided slices of one split of the
joined lines at their commas.  Other text, holding a quote or a bare
carriage return, goes through ``csv.reader``, which gives the same cells.
Numeric columns are then converted with one ``float`` per cell
(:func:`_float_column`).  Every table is written column-wise by
:func:`_write_columns`, whose bytes are those ``csv.writer`` writes row
by row.  The one exception is ``simulate reveal``, which formats only the
rows it validates and splices them into the bytes of the file it read, at
the line ends that the same rule finds (:func:`write_dyads_patch`).

The tables a CLI step writes for a later step to read (``dyads.csv``,
``truth.csv`` and the influence file) also get a parsed copy,
``<name>.parsed``, written beside them by the same writer.  It holds what
the reader returns for the bytes just written, keyed by their SHA-256,
and is built from the table in memory by the writer's own formatting
rules: nothing is parsed or read back to write it.  A writer leaves no
copy for a table its reader would reject.  The reader hashes the bytes it
reads and loads the copy when the digests match; a missing, stale,
unreadable or other-version copy falls back to parsing those same bytes,
silently, as does any copy that a write could not finish.  A read never
writes a file, and the copy may be deleted at any time.  One DEBUG line on
the ``twophase.fileio`` logger per such read says which way the table was
read, and why the text was parsed.

Ids and rows are checked once, where they enter.  A parse checks every
row and id of the text.  A writer checks what it is given before it
writes a copy, and the copy then holds only values and ids that passed,
so a table loaded from it is not checked again.  A table that
:func:`read_dyads` loads from its copy keeps the loaded arrays as its
columns and records its ids (``DyadTable.checked_ids``): a writer given
the same ids, id for id, takes them as checked (:func:`_id_text`), and
checks them in full once one has changed.  :func:`write_dyads_patch` checks only the
rows it patches, since the read checked the others.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from twophase.errors import SchemaError
from twophase.fpca import EigenSystem, LongitudinalSeries, SeriesError, series_from_flat
from twophase.records import (
    FLAGS,
    INTEGER_FIELDS,
    NEG_INF,
    PHASE2_FIELDS,
    POS_INF,
    DesignLedger,
    DyadTable,
    Stratum,
    column_names,
    first_invalid_row,
    id_rows,
    is_phase2,
    parse_bounds,
)

log = logging.getLogger(__name__)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _read_text(path) -> str:
    """The file's text, decoded as UTF-8, with its line ends as written.

    The bytes are read whole and decoded in one call.  That gives the
    string, and the ``UnicodeDecodeError`` with its byte position, that a
    text-mode read with ``newline=""`` gives, without the text layer's scan
    for line ends while it decodes, which costs several times the decode.
    """
    return _decode(path, _read_bytes(path))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path):
    """The payload of a JSON file; text that is not UTF-8 or not JSON raises
    SchemaError naming the file."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Shapes a JSON value is checked against, by the name an error gives them.
_SHAPES = {
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "an integer": lambda v: type(v) is int,
    "a non-negative integer": _is_count,
    "a non-negative integer or null": lambda v: v is None or _is_count(v),
    "a list of strings": _is_strings,
    "a list of string lists": lambda v: isinstance(v, list) and all(map(_is_strings, v)),
    "a list of objects":
        lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
    "an object of non-negative integers":
        lambda v: isinstance(v, dict) and all(map(_is_count, v.values())),
    "an object of string lists":
        lambda v: isinstance(v, dict) and all(map(_is_strings, v.values())),
}
_REQUIRED = object()


def _json_object(path, kind: str) -> dict:
    """The payload of a JSON file that must hold an object."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: {kind} file must hold a JSON object")
    return payload


def _field(path, obj: dict, key: str, shape: str, default=_REQUIRED, name: str = ""):
    """``obj[key]`` when it has ``shape``, a name in ``_SHAPES``.

    A missing key gives ``default``.  A missing key without one, or a
    value of another shape, raises SchemaError naming the file and the
    key, as ``name`` when it is given and else as ``key '<key>'``.
    """
    name = name or f"key {key!r}"
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"{path}: missing {name}")
        return default
    value = obj[key]
    if not _SHAPES[shape](value):
        shown = json.dumps(value)
        shown = shown if len(shown) <= 60 else shown[:57] + "..."
        raise SchemaError(f"{path}: {name} must be {shape}, got {shown}")
    return value


def _write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline.

    The text is built by ``json.dumps`` and written once: the bytes that
    ``json.dump`` writes, without its one small write per token.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Column-wise CSV reading.  A problem is ``(row index, message)`` with the
# index counted from the first data row; _raise_first reports the earliest.


def _read_columns(path, problems: list, width: int | None = None, exact: bool = False,
                  select=None, data: bytes | None = None,
                  ) -> tuple[list[str] | None, list[Sequence[str]]]:
    """The header (None for an empty file) and the first ``width`` columns
    (default: one per header name) of a CSV file, as ``csv.reader`` reads it.

    The columns run up to the first data row whose cell count is wrong
    (fewer than ``width``, or any other than ``width`` when ``exact``);
    that row becomes a problem.  ``select``, when given, is called once
    with the first cell of each of those rows (not for an empty file),
    and the columns hold only the rows, ascending, that it returns.  A
    name that the header repeats raises SchemaError.  The file's bytes,
    ``data`` when given, are decoded whole first.  The lines that
    :func:`_plain_rows` finds in them are read without ``csv.reader``:
    each line's commas are counted, and the columns are strided slices of
    one split of the joined lines kept.
    """
    if data is None:
        data = _read_bytes(path)
    text = _decode(path, data)
    plain = _plain_rows(data)
    if plain is None:
        try:
            rows = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise SchemaError(f"{path}: {exc}") from None
        del text
        header = rows[0] if rows else None
        _check_header(path, header)
        width = len(header or ()) if width is None else width
        return header, _cells_by_column(rows[1:], width, problems, exact, select)
    del text
    lines = plain[0].decode("utf-8").split("\r\n")
    del plain
    lines.pop()  # the empty text after the last line's end
    if not lines:
        return None, [[] for _ in range(width or 0)]
    header = lines[0].split(",") if lines[0] else []
    _check_header(path, header)
    width = len(header) if width is None else width
    del lines[0]
    n = len(lines)
    lengths = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=n) + 1
    if "" in lines:  # csv.reader reads a blank line as a row of no cells
        lengths[[i for i, line in enumerate(lines) if not line]] = 0
    bad = np.flatnonzero(lengths != width if exact else lengths < width)
    if bad.size:
        n = int(bad[0])
        problems.append((n, f"expected {width} cells, found {lengths[n]}"))
        del lines[n:]
    if select is not None:
        rows = select([line.partition(",")[0] for line in lines])
        lines = [lines[i] for i in rows]
        lengths = lengths[np.asarray(rows, dtype=np.intp)]
        n = len(lines)
    if n == 0 or width == 0:
        return header, [[] for _ in range(width)]
    for i in np.flatnonzero(lengths[:n] > width).tolist():
        lines[i] = lines[i].rsplit(",", int(lengths[i]) - width)[0]
    joined = ",".join(lines)
    del lines
    cells = joined.split(",")
    del joined
    return header, [cells[j::width] for j in range(width)]


def _plain_rows(data: bytes) -> tuple[bytes, np.ndarray] | None:
    """The lines of the UTF-8 text ``data`` if ``csv.reader`` splits each
    one at its commas alone, else None.  That holds when the text has no
    quote, no carriage return outside a CRLF line end and no line as long
    as the csv field limit; lines then end at LF or CRLF only, not at the
    other breaks that ``str.splitlines`` knows.

    The lines come as ``(crlf, starts)``: ``crlf`` is ``data`` with every
    line ended in CRLF, the last one included, and ``starts`` the offset
    in it of each line, then its length, so line ``k`` is
    ``crlf[starts[k]:starts[k + 1] - 2]``.  The rule is checked on the
    bytes, with numpy scans for line ends: a quote, a carriage return or
    a line feed is never part of another character in UTF-8.  Only a line
    of as many bytes as the csv field limit is decoded, to count its
    characters.
    """
    if b'"' in data:
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == 10)
    crlf = np.count_nonzero((ends > 0) & (codes[ends - 1] == 13))
    if np.count_nonzero(codes == 13) != crlf:
        return None  # a carriage return outside a CRLF
    if crlf != ends.size or not data.endswith(b"\n"):
        # LF line ends, alone or mixed with CRLF ones, or none after the last line
        data = data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")
        if data and not data.endswith(b"\n"):
            data += b"\r\n"
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
    starts = np.concatenate(([0], ends + 1))
    limit = csv.field_size_limit()
    if len(data) >= limit:
        for k in np.flatnonzero(np.diff(starts) - 2 >= limit).tolist():
            if len(data[starts[k]:starts[k + 1] - 2].decode("utf-8")) >= limit:
                return None
    return data, starts


def _check_header(path, header: list[str] | None) -> None:
    """SchemaError naming the first column that the header repeats."""
    if header is not None and len(set(header)) < len(header):
        name = next(c for i, c in enumerate(header) if c in header[:i])
        raise SchemaError(f"{path}: header repeats column {name!r}")


def _cells_by_column(rows: list[list[str]], width: int, problems: list,
                     exact: bool = False, select=None) -> list[tuple[str, ...]]:
    """:func:`_read_columns` over rows that ``csv.reader`` has split."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(lengths != width if exact else lengths < width)
    if bad.size:
        i = int(bad[0])
        problems.append((i, f"expected {width} cells, found {lengths[i]}"))
        rows = rows[:i]
    if select is not None:
        rows = [rows[i] for i in select([row[0] if row else "" for row in rows])]
    return list(zip(*rows))[:width] if rows else [()] * width


def _float_column(cells: Sequence[str], column: str, problems: list,
                  rows: Sequence[int] | None = None) -> np.ndarray:
    """``float`` of each cell, as one float64 array.

    A non-numeric cell is a problem at its row: ``rows[k]`` for cell
    ``k`` when ``rows`` is given, else ``k``.  It and the cells after it
    read as nan, which can only raise problems on later rows.
    """
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        values = np.full(len(cells), np.nan)
        for k, text in enumerate(cells):
            try:
                values[k] = float(text)
            except ValueError:
                row = k if rows is None else int(rows[k])
                problems.append((row, f"column {column!r} has non-numeric value {text!r}"))
                break
        return values


def _non_finite(values: np.ndarray, cells: Sequence[str], column: str,
                problems: list) -> None:
    """A problem at the first non-finite value of a column read by ``_float_column``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        problems.append((i, f"column {column!r} has non-finite value {cells[i]!r}"))


def _repeated_key(keys: Sequence[str], key: str, problems: list) -> None:
    """A problem at the first key that repeats an earlier one, naming both rows."""
    if len(set(keys)) == len(keys):
        return
    first: dict[str, int] = {}
    for i, k in enumerate(keys):
        if k in first:
            problems.append((i, f"{key} {k!r} repeats the one on row {first[k] + 2}"))
            return
        first[k] = i


def _raise_first(problems: list) -> None:
    if problems:
        row, message = min(problems, key=lambda p: p[0])
        raise SchemaError(f"row {row + 2}: {message}")


def _suffix_sorted(names: Iterable[str]) -> list[str]:
    return sorted(names, key=lambda c: int(c.split("_")[-1]))


# ---------------------------------------------------------------------------
# Column-wise CSV writing.

_WRITE_ROWS = 2048


def _write_columns(path, header: Sequence[str], columns: Sequence[Sequence],
                   sha=None) -> None:
    """Write a CSV table from its columns, byte for byte as ``csv.writer``
    writes the rows: each cell as ``str`` of its value (a float as its
    ``repr``), minimal quoting, and ``\\r\\n`` after every row.

    The rows are formatted and written ``_WRITE_ROWS`` at a time, so the
    text held at once stays small whatever the table's length.  ``sha``,
    a ``hashlib`` object, is updated with the bytes as they are written.
    """
    n = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        _write_hashed(fh, _csv_text([header]), sha)
        for start in range(0, n, _WRITE_ROWS):
            stop = start + _WRITE_ROWS
            _write_hashed(fh, _csv_text(list(zip(*(map(str, c[start:stop]) for c in columns)))),
                          sha)


def _write_hashed(fh, text: str, sha) -> None:
    data = text.encode("utf-8")
    if sha is not None:
        sha.update(data)
    fh.write(data)


def _csv_text(rows: list[Sequence[str]]) -> str:
    """Rows of cell text as ``csv.writer`` writes them.  The rows are joined
    without quoting first, and written again by ``csv.writer`` only when
    the text shows a cell that needs quoting."""
    width = len(rows[0])
    text = "\r\n".join(map(",".join, rows)) + "\r\n"
    if (width < 2 or '"' in text or text.count(",") != len(rows) * (width - 1)
            or text.count("\r") != len(rows) or text.count("\n") != len(rows)):
        out = io.StringIO(newline="")
        csv.writer(out).writerows(rows)
        text = out.getvalue()
    return text


# ---------------------------------------------------------------------------
# Parsed copies.  ``<name>.parsed`` is a line ``twophase parsed copy <format>``,
# a line of JSON (the kind of table, the SHA-256 of its bytes, its row count,
# the code point that separates the ids, and the names of its columns after
# ``id``), then two ``.npy`` arrays: the UTF-8 text of the ids joined by that
# separator, a character no id holds, and the float64 values, a row per
# column.  Nothing in it depends on when or where it was written.

_COPY_MAGIC = b"twophase parsed copy"
# Raise it whenever a reader would return something else for the same bytes
# (a new column, a new check), so that older copies are parsed again.
_COPY_FORMAT = b"2"


class _Unusable(Exception):
    """Why a table's parsed copy cannot be loaded."""


def _copy_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".parsed")


def _remove_copy(path) -> None:
    with contextlib.suppress(OSError):
        os.unlink(_copy_path(path))


def _save_copy(path, kind: str, digest: bytes, ids: Sequence, columns: list[str],
               values: np.ndarray | None, checked: tuple | None = None) -> None:
    """Write the parsed copy of the table at ``path``, whose bytes have
    SHA-256 ``digest`` and whose header is ``id`` and then ``columns``: the
    ids as its reader gives them (stripped) and ``values``, a row per
    column, as its reader gives them.

    Any old copy is removed instead when ``values`` is None, which a writer
    passes for a table that its reader would reject or read as other
    values, and when the reader would reject the ids (:func:`_id_text`,
    which skips its checks for the ids of a read, ``checked``, while
    ``ids`` still equal them).  The copy is written to a temporary file
    that then replaces it.  A write that fails, as in a read-only
    directory, leaves no copy where it can, and at worst the old one,
    which no longer matches the table.
    """
    text = None if values is None else _id_text(ids, checked)
    if text is None:
        _remove_copy(path)
        return
    sep, joined = text
    head = json.dumps({"kind": kind, "sha256": digest.hex(), "rows": len(ids),
                       "separator": ord(sep), "columns": columns}, sort_keys=True)
    target = _copy_path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"%s %s\n%s\n" % (_COPY_MAGIC, _COPY_FORMAT, head.encode("utf-8")))
            np.save(fh, np.frombuffer(joined.encode("utf-8"), dtype=np.uint8),
                    allow_pickle=False)
            np.save(fh, values, allow_pickle=False)
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        _remove_copy(path)


def _id_text(ids: Sequence, checked: tuple | None = None) -> tuple[str, str] | None:
    """The ids as a parsed copy stores them, ``(sep, text)``: stripped and
    joined by ``sep``, a character that none of them holds.  None when the
    reader would reject them: an id that is not a string, is too long for
    ``csv.reader`` to read back or, stripped, repeats another.

    ``checked`` is ``(ids, sep, text)`` for ids that a read has already
    found to pass (``DyadTable.checked_ids``).  While ``ids`` is a list
    equal to them, id for id, their ``(sep, text)`` is returned without a
    check; any other ids, one changed or repeated since the read
    included, are checked in full.
    """
    if checked is not None and isinstance(ids, list) and ids == checked[0]:
        return checked[1:]
    if (set(map(type, ids)) - {str}
            or ids and max(map(len, ids)) >= csv.field_size_limit()):
        return None
    ids = list(map(str.strip, ids))
    joined = "".join(ids)
    sep = "\n"
    if sep in joined:
        present = set(joined)
        sep = next((c for c in map(chr, range(0xD800)) if c not in present), None)
    if sep is None or len(set(ids)) < len(ids):
        return None
    return sep, sep.join(ids)


def _load_copy(path, data: bytes, kind: str) -> tuple[list[str], dict, tuple] | None:
    """``(ids, columns, (sep, text))`` from the parsed copy of the ``kind``
    table at ``path``, whose bytes are ``data``, or None when the text has
    to be parsed.  ``columns`` maps each name after ``id`` in the table's
    header to its float64 values; ``text`` is the ids joined by ``sep``,
    as the copy holds them.

    A copy whose column names are not those the header gives, or whose
    values are not a row of ``rows`` values per column, is not used.  One
    DEBUG line says whether the copy was loaded or why not.
    """
    try:
        loaded = _read_copy(_copy_path(path), data, kind)
    except _Unusable as exc:
        log.debug("%s: parsed the text: %s", path, exc)
        return None
    log.debug("%s: loaded the parsed copy", path)
    return loaded


def _read_copy(copy: Path, data: bytes, kind: str) -> tuple[list[str], dict, tuple]:
    try:
        fh = open(copy, "rb")
    except FileNotFoundError:
        raise _Unusable("no parsed copy") from None
    except OSError as exc:
        raise _Unusable(f"unreadable parsed copy ({exc})") from None
    with fh:
        try:
            magic, _, version = fh.readline(256).rstrip(b"\n").rpartition(b" ")
            if magic != _COPY_MAGIC:
                raise _Unusable("unreadable parsed copy (no header line)")
            if version != _COPY_FORMAT:
                raise _Unusable("parsed copy of another version "
                                f"({version.decode(errors='replace')})")
            head = json.loads(fh.readline())
            if not isinstance(head, dict) or head.get("kind") != kind:
                raise _Unusable(f"unreadable parsed copy (not of a {kind} table)")
            if head.get("sha256") != hashlib.sha256(data).hexdigest():
                raise _Unusable("stale parsed copy")
            text, values = (np.load(fh, allow_pickle=False) for _ in range(2))
            trailing = fh.read(1)
        except (ValueError, EOFError, OSError, MemoryError) as exc:
            raise _Unusable(f"unreadable parsed copy ({type(exc).__name__}: {exc})") from None
    rows, sep, names = head.get("rows"), head.get("separator"), head.get("columns")
    if (trailing or not _is_count(rows) or not _is_count(sep) or not 0 <= sep < 0xD800
            or not _is_strings(names)
            or not data.startswith(_csv_text([["id", *names]]).encode("utf-8"))
            or not isinstance(text, np.ndarray) or text.dtype != np.uint8 or text.ndim != 1
            or not isinstance(values, np.ndarray) or values.dtype != np.float64
            or values.shape != (len(names), rows)):
        raise _Unusable("unreadable parsed copy (arrays or head of the wrong shape)")
    try:
        joined = text.tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _Unusable("unreadable parsed copy (ids are not UTF-8)") from None
    ids = joined.split(chr(sep)) if joined or rows else []
    if len(ids) != rows:
        raise _Unusable(f"unreadable parsed copy ({len(ids)} ids for {rows} rows)")
    return ids, dict(zip(names, values)), (chr(sep), joined)


# ---------------------------------------------------------------------------
# dyads.csv


def _cell_values(name: str, values: np.ndarray) -> list:
    """Python values that :func:`_write_columns` prints as the file's text:
    ints for flags and integer fields, floats (printed as their ``repr``)
    otherwise."""
    if name in FLAGS or name in INTEGER_FIELDS:
        return values.astype(np.int64).tolist()
    return values.tolist()


def _dyads_cells(table: DyadTable, rows: np.ndarray) -> list[list]:
    """The cells of ``table``'s rows ``rows`` (an index array) as the dyads
    file prints them, column by column, the id first: each field as
    :func:`_cell_values` gives it, except the phase-2 cells of a row that
    is not validated, which are empty."""
    validated = np.flatnonzero(table.columns["validated"][rows]).tolist()
    columns = [[table.ids[i] for i in rows.tolist()]]
    for name, values in table.columns.items():
        values = values[rows]
        if is_phase2(name):
            column = [""] * rows.size
            for k, v in zip(validated, _cell_values(name, values[validated])):
                column[k] = v
        else:
            column = _cell_values(name, values)
        columns.append(column)
    return columns


def write_dyads(path, table: DyadTable) -> None:
    """One row per record; vector fields expand to indexed columns.

    Phase-2 cells are empty on rows that are not validated.  The parsed
    copy is written beside the file (:func:`_dyads_copy_values`).
    """
    sha = hashlib.sha256()
    _write_columns(path, ["id", *table.columns], _dyads_cells(table, np.arange(len(table))),
                   sha)
    _save_copy(path, "dyads", sha.digest(), table.ids, list(table.columns),
               _dyads_copy_values(table, slice(None)), table.checked_ids)


def write_dyads_patch(path, table: DyadTable, source: Sequence[bytes], rows) -> None:
    """Write ``table``, read by :func:`read_dyads` from the bytes it put in
    ``source``, in which only the rows ``rows`` have changed since.

    The header and every other row are copied byte for byte from those
    bytes, split at the line ends that :func:`_plain_rows` finds; the rows
    in ``rows`` get the cell text :func:`write_dyads` gives them, spliced
    in, and every line ends in ``\\r\\n``.  The result is hashed and
    written in one piece.  So a file that :func:`write_dyads` wrote gets
    the bytes it would write for the table, while a hand-edited row
    outside ``rows`` keeps its text (say ``1.50`` or `` d7``).  Where no
    exact copy is possible, the whole table goes through
    :func:`write_dyads`: when the text was not plain (or ``source`` is
    empty), does not hold a line per row of ``table``, or the header is
    not ``id`` followed by the table's columns in order.

    Either way the parsed copy is written beside the file.  The other
    rows read back as the values that ``table`` holds, which were read
    from their text, and the read checked them and the ids, so only the
    rows in ``rows`` are checked again (:func:`_dyads_copy_values`), and
    the ids only when they are no longer those the read loaded from the
    parsed copy (:func:`_id_text`): an id changed since the read, say to
    repeat another, leaves no copy, as in :func:`write_dyads`.
    """
    data, starts = (_plain_rows(source[0]) if source else None) or (None, None)
    header = ",".join(["id", *table.columns]).encode("utf-8") + b"\r\n"
    if (starts is None or starts.size != len(table) + 2
            or data[:starts[1]] != header):
        write_dyads(path, table)
        return
    rows = np.unique(np.asarray(rows, dtype=np.intp))
    view, pieces, at = memoryview(data), [], 0
    for start, stop, cells in zip(starts[rows + 1].tolist(), starts[rows + 2].tolist(),
                                  zip(*_dyads_cells(table, rows))):
        pieces += (view[at:start], _csv_text([list(map(str, cells))]).encode("utf-8"))
        at = stop
    pieces.append(view[at:])
    data = b"".join(pieces)
    with open(path, "wb") as fh:
        fh.write(data)
    _save_copy(path, "dyads", hashlib.sha256(data).digest(), table.ids, list(table.columns),
               _dyads_copy_values(table, rows), table.checked_ids)


def _dyads_copy_values(table: DyadTable, rows) -> np.ndarray | None:
    """The values that :func:`read_dyads` gives the file that holds
    ``table``, its rows ``rows`` (an index array or a slice) printed by
    :func:`write_dyads` and the other rows read from it; None when it
    gives others or rejects the file.

    Floats print as their ``repr`` and read back bit for bit, integer
    fields print truncated, and a phase-2 cell of a row that is not
    validated is empty and reads as 0.  The values are None unless the
    columns are those of ``records.column_names``, each flag boolean and
    every other column float64 (other values print in other forms), and
    the rows ``rows`` pass ``records.first_invalid_row``.  The other rows
    are taken as the table holds them: the read that gave them checked
    them.
    """
    cols, n = table.columns, len(table)
    names = list(cols)
    if (names != column_names(table.n_z, table.n_aux)
            or any(v.shape != (n,) or v.dtype != (bool if name in FLAGS else np.float64)
                   for name, v in cols.items())):
        return None
    values = np.array([cols[name] for name in names], dtype=np.float64)
    printed = values[:, rows]
    integer = [k for k, name in enumerate(names) if name in INTEGER_FIELDS]
    with np.errstate(invalid="ignore"):  # a non-finite cell, which the checks reject
        printed[integer] = printed[integer].astype(np.int64)
    phase2 = [k for k, name in enumerate(names) if is_phase2(name)]
    printed[phase2] = np.where(cols["validated"][rows], printed[phase2], 0.0)
    if first_invalid_row(dict(zip(names, printed))) is not None:
        return None
    values[:, rows] = printed
    return values


def read_dyads(path, source: list | None = None) -> DyadTable:
    """``dyads.csv`` as a :class:`DyadTable`.

    Phase-2 cells are read on validated rows only.  Raises SchemaError
    for a missing column, a row with the wrong cell count, a flag cell
    (``validated``, ``in_asthma_frame``) other than 0 or 1, a non-numeric
    or empty cell, a row breaking :func:`records.first_invalid_row`, a
    repeated id or a repeated column name.  When ``source`` is given, the
    file's bytes are appended to it for :func:`write_dyads_patch`.

    When the parsed copy that :func:`write_dyads` or
    :func:`write_dyads_patch` wrote beside the file holds the SHA-256 of
    the bytes read, the table is loaded from it instead of parsed: the
    same ids, columns, dtypes and float bits.  The table then keeps the
    arrays just loaded as its columns, and its ``checked_ids`` record the
    ids it was loaded with, which a writer of the same ids does not check
    again.
    """
    data = _read_bytes(path)
    copy = _load_copy(path, data, "dyads")
    if copy is None:
        table = _parse_dyads(path, data)
    else:
        ids, columns, (sep, text) = copy
        table = DyadTable(ids, columns, copy=False)
        table.checked_ids = (list(ids), sep, text)
    if source is not None:
        source.append(data)
    return table


def _parse_dyads(path, data: bytes) -> DyadTable:
    """:func:`read_dyads` of the bytes ``data`` by parsing their text."""
    problems: list = []
    header, columns = _read_columns(path, problems, exact=True, data=data)
    if header is None:
        raise SchemaError("dyads file is empty; a header row is required")
    for col in ("id", "y_star", "delta_star", "x_star"):
        if col not in header:
            raise SchemaError(f"dyads file missing required column {col!r}")
    text = dict(zip(header, columns))
    ids = list(map(str.strip, text["id"]))
    n = len(ids)

    def flag(name):
        if name not in text:
            return np.zeros(n, dtype=bool)
        cells = text[name]
        if cells.count("1") + cells.count("0") != n:  # space around a cell, or a bad one
            cells = list(map(str.strip, cells))
            bad = next((i for i, c in enumerate(cells) if c not in ("0", "1")), None)
            if bad is not None:
                problems.append((bad, f"column {name!r} must be 0 or 1, "
                                      f"found {text[name][bad]!r}"))
        return np.fromiter(map("1".__eq__, cells), dtype=bool, count=n)

    flags = {name: flag(name) for name in FLAGS}
    validated = np.flatnonzero(flags["validated"])
    zs_cols = _suffix_sorted(c for c in header if c.startswith("z_star_"))
    aux_cols = _suffix_sorted(c for c in header if c.startswith("aux_"))
    z_cols = _suffix_sorted(c for c in header if is_phase2(c) and c.startswith("z_"))
    # Column name in the table -> column in the file, in the order one row is parsed.
    z_sources = z_cols if validated.size else [None] * len(zs_cols)
    phase2 = {**{name: name for name in PHASE2_FIELDS},
              **{f"z_{j}": c for j, c in enumerate(z_sources)}}
    phase1 = {"y_star": "y_star", "delta_star": "delta_star", "x_star": "x_star",
              **{f"z_star_{j}": c for j, c in enumerate(zs_cols)},
              **{f"aux_{j}": c for j, c in enumerate(aux_cols)}}
    if validated.size:
        for name in PHASE2_FIELDS:
            if name not in text:
                raise SchemaError(f"dyads file missing column {name!r}, which "
                                  "validated rows need")
        if len(z_cols) != len(zs_cols):
            raise SchemaError(f"dyads file has {len(z_cols)} z_<j> columns for "
                              f"{len(zs_cols)} z_star_<j> columns")
    columns = dict(flags)
    for name, source in phase2.items():
        columns[name] = np.zeros(n)
        if validated.size:
            cells = [text[source][i] for i in validated.tolist()]
            columns[name][validated] = _float_column(cells, source, problems, validated)
    for name, source in phase1.items():
        columns[name] = _float_column(text[source], source, problems)
    bad = first_invalid_row(columns)
    if bad is not None:
        problems.append((bad[0], f"record {ids[bad[0]]}: {bad[1]}"))
    _repeated_key(ids, "id", problems)
    _raise_first(problems)
    return DyadTable(ids, columns)


# ---------------------------------------------------------------------------
# measurements.csv


def write_measurements(path, series: Iterable[LongitudinalSeries]) -> None:
    """One row per observation, subject by subject, written column-wise."""
    series = list(series)
    ids = list(chain.from_iterable(repeat(s.subject_id, s.times.size) for s in series))
    times = list(chain.from_iterable(s.times.tolist() for s in series))
    values = list(chain.from_iterable(s.values.tolist() for s in series))
    _write_columns(path, ["subject_id", "t_days", "weight_kg"], [ids, times, values])


def read_measurements(path) -> list[LongitudinalSeries]:
    """One series per subject, in order of first appearance.

    Each series is sorted by time; of points at one time, the one with
    the smallest weight is kept.  A non-numeric or non-finite (nan, inf)
    cell raises SchemaError naming its row, and a series that
    ``LongitudinalSeries`` rejects (a non-positive weight) raises it
    naming its subject: ``subject '<id>': `` and then the series' own
    message, for the first such subject in order of appearance.  The
    sorted, de-duplicated points are checked and cut into series in one
    ``fpca.series_from_flat`` call; each series' times and values are
    views of two arrays shared by all of them.
    """
    problems: list = []
    header, columns = _read_columns(path, problems, 3)
    if header is None or [c.strip() for c in header[:3]] != [
            "subject_id", "t_days", "weight_kg"]:
        raise SchemaError(
            "measurements file must start with header "
            "'subject_id,t_days,weight_kg'")
    sid, t_text, v_text = columns
    times = _float_column(t_text, "t_days", problems)
    _non_finite(times, t_text, "t_days", problems)
    values = _float_column(v_text, "weight_kg", problems)
    _non_finite(values, v_text, "weight_kg", problems)
    _raise_first(problems)
    names, first, code = np.unique(np.array(list(map(str.strip, sid)), dtype=str),
                                   return_index=True, return_inverse=True)
    appearance = np.argsort(first, kind="stable")
    rank = np.empty(names.size, dtype=np.intp)
    rank[appearance] = np.arange(names.size)
    subject = rank[code]
    order = np.lexsort((values, times, subject))
    subject, times, values = subject[order], times[order], values[order]
    keep = np.ones(subject.size, dtype=bool)
    keep[1:] = (subject[1:] != subject[:-1]) | (np.diff(times) > 0)
    subject, times, values = subject[keep], times[keep], values[keep]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(subject, minlength=names.size))))
    try:
        return series_from_flat(names[appearance].tolist(), times, values, offsets)
    except SeriesError as exc:
        raise SchemaError(f"subject {exc.subject_id!r}: {exc}") from None


def write_scores(path, subject_ids: Sequence[str], scores: np.ndarray,
                 gestation_days: Sequence[float], weekly_gain: Sequence[float]) -> None:
    """``fpca score`` output: one row per subject with its K PACE scores
    (row ``i`` of the n x K ``scores``), gestation length and weekly gain."""
    scores = np.asarray(scores, dtype=np.float64)
    _write_columns(path, ["subject_id", *(f"score_{k}" for k in range(scores.shape[1])),
                          "gestation_days", "weekly_gain"],
                   [subject_ids, *scores.T.tolist(), list(map(float, gestation_days)),
                    list(map(float, weekly_gain))])


def write_flags(path, subject_ids: Sequence[str], obs_index: Sequence[int],
                t_days: Sequence[float], weight_kg: Sequence[float]) -> None:
    """``fpca flag`` output: one row per flagged observation."""
    _write_columns(path, ["subject_id", "obs_index", "t_days", "weight_kg"],
                   [subject_ids, list(map(int, obs_index)), list(map(float, t_days)),
                    list(map(float, weight_kg))])


# ---------------------------------------------------------------------------
# eigensystem.json


def write_eigensystem(path, system: EigenSystem) -> None:
    payload = {
        "grid": [float(v) for v in system.grid],
        "mean": [float(v) for v in system.mean],
        "eigenvalues": [float(v) for v in system.eigenvalues],
        "eigenfunctions": [[float(v) for v in row]
                           for row in system.eigenfunctions],
        "noise_var": float(system.noise_var),
        "fve": [float(v) for v in system.fve],
        "zero_variation": bool(system.zero_variation),
        "em_steps": system.em_steps,
    }
    _write_json(path, payload)


def read_eigensystem(path) -> EigenSystem:
    """Read ``es.json``, checking every array against the grid and K.

    The grid must hold at least two finite, strictly increasing points.
    ``mean`` has one value per grid point, ``eigenfunctions`` is K x G (K
    the number of eigenvalues) and ``fve`` has K values.  Every value is
    finite, ``noise_var`` is not negative and every eigenvalue is positive.
    A missing key, a shape that does not fit or a value out of range raises
    SchemaError naming the key.  ``em_steps`` is optional (None when
    absent); when present it is a non-negative integer or null.
    ``zero_variation`` is optional (false when absent); when present it is
    a JSON boolean, and true only on a system without components.  A
    system with components but too little noise raises
    IllConditionedError, as :class:`~twophase.fpca.EigenSystem` does.
    """
    payload = _json_object(path, "eigensystem")
    arrays = {}
    for key in ("grid", "mean", "eigenvalues", "eigenfunctions", "fve", "noise_var"):
        if key not in payload:
            raise SchemaError(f"eigensystem file missing key {key!r}")
        try:
            arrays[key] = np.asarray(payload[key], dtype=np.float64)
        except (TypeError, ValueError):
            raise SchemaError(f"eigensystem {key} is not numeric") from None
    grid, eigenvalues = arrays["grid"], arrays["eigenvalues"]
    if not (grid.ndim == 1 and grid.size >= 2 and np.all(np.isfinite(grid))
            and np.all(np.diff(grid) > 0)):
        raise SchemaError("eigensystem grid must be at least two finite, "
                          "strictly increasing points")
    k, g = eigenvalues.size, grid.size
    functions = arrays["eigenfunctions"]
    if k == 0 and functions.size == 0:
        functions = functions.reshape(0, g)
    for key, values, shape in (("noise_var", arrays["noise_var"], ()),
                               ("mean", arrays["mean"], (g,)),
                               ("eigenvalues", eigenvalues, (k,)),
                               ("eigenfunctions", functions, (k, g)),
                               ("fve", arrays["fve"], (k,))):
        if values.shape != shape:
            raise SchemaError(f"eigensystem {key} has shape {values.shape}; expected "
                              f"{shape} for {g} grid points and {k} eigenvalues")
        if not np.all(np.isfinite(values)):
            raise SchemaError(f"eigensystem {key} holds a non-finite value")
    if arrays["noise_var"] < 0.0:
        raise SchemaError("eigensystem noise_var must not be negative")
    if np.any(eigenvalues <= 0.0):
        raise SchemaError("eigensystem eigenvalues must be positive")
    em_steps = _field(path, payload, "em_steps", "a non-negative integer or null", None,
                      "eigensystem em_steps")
    zero_variation = _field(path, payload, "zero_variation", "true or false", False,
                            "eigensystem zero_variation")
    if zero_variation and k:
        raise SchemaError(f"eigensystem zero_variation is true but it has {k} components")
    return EigenSystem(grid=grid, mean=arrays["mean"], eigenvalues=eigenvalues,
                       eigenfunctions=functions, noise_var=float(arrays["noise_var"]),
                       fve=arrays["fve"],
                       zero_variation=zero_variation,
                       em_steps=em_steps)


# ---------------------------------------------------------------------------
# ledger.json


def _bound(v: float):
    if v == NEG_INF or v == POS_INF:
        return None
    return float(v)


def write_ledger(path, ledger: DesignLedger) -> None:
    strata = []
    for sid in sorted(ledger.strata):
        s = ledger.strata[sid]
        strata.append({
            "id": s.id,
            "frame": s.frame,
            "parent": s.parent,
            "bounds": {axis: [_bound(lo), _bound(hi)]
                       for axis, (lo, hi) in sorted(s.bounds.items())},
            "population_size": int(s.population_size),
            "closed": bool(s.closed),
            "drawn": [list(ids) for ids in s.drawn],
            "inherited_ids": list(s.inherited_ids),
        })
    payload = {
        "frame": ledger.frame,
        "wave_count": int(ledger.wave_count),
        "rng_seed": int(ledger.rng_seed),
        "member_flag": ledger.member_flag,
        "strata": strata,
    }
    _write_json(path, payload)


def _read_stratum(path, raw: dict, where: str) -> Stratum:
    def get(key, shape, default=_REQUIRED):
        return _field(path, raw, key, shape, default, f"key {key!r}{where}")

    try:
        bounds = parse_bounds(get("bounds", "an object"))
    except SchemaError as exc:
        raise SchemaError(f"{path}: key 'bounds'{where}: {exc}") from None
    return Stratum(
        id=get("id", "a string"), frame=get("frame", "a string"), bounds=bounds,
        parent=get("parent", "a string or null", None),
        population_size=get("population_size", "a non-negative integer"),
        closed=get("closed", "true or false", False),
        drawn=[list(ids) for ids in get("drawn", "a list of string lists", [])],
        inherited_ids=list(get("inherited_ids", "a list of strings", [])),
    )


def read_ledger(path) -> DesignLedger:
    payload = _json_object(path, "ledger")
    strata = [_read_stratum(path, raw, f" of strata[{i}]")
              for i, raw in enumerate(_field(path, payload, "strata", "a list of objects"))]
    return DesignLedger(
        frame=_field(path, payload, "frame", "a string"),
        strata={s.id: s for s in strata},
        wave_count=_field(path, payload, "wave_count", "a non-negative integer"),
        rng_seed=_field(path, payload, "rng_seed", "an integer"),
        member_flag=_field(path, payload, "member_flag", "a string or null", None))


# ---------------------------------------------------------------------------
# simple tabular artifacts


def write_influence(path, values: dict[str, float], *, table: DyadTable | None = None
                    ) -> None:
    """One row per id, in sorted order, with the parsed copy beside the file.

    The copy holds the stripped ids and the values; there is none unless
    every value is a float (others print in other forms) and the reader
    would accept the file: no repeated id and no non-finite value.  When
    the ids are those of ``table``, one for one, and :func:`read_dyads`
    loaded it from its parsed copy, they are not checked again.
    """
    ids = sorted(values)
    column = [values[rid] for rid in ids]
    floats = _all_floats(column)
    sha = hashlib.sha256()
    cells = column if floats else list(map(_fmt, column))
    _write_columns(path, ["id", "influence"], [ids, cells], sha)
    parsed = np.array([column], dtype=np.float64) if floats else None
    if parsed is not None and not np.isfinite(parsed).all():
        parsed = None  # the reader rejects a non-finite value
    _save_copy(path, "influence", sha.digest(), ids, ["influence"], parsed,
               None if table is None else table.checked_ids)


def _all_floats(column: list) -> bool:
    """Whether every value is a ``float``, which :func:`_write_columns`
    prints as its ``repr``, the text :func:`_fmt` gives it, without the
    cost of a call of ``_fmt`` per value."""
    return set(map(type, column)) <= {float}


def _read_keyed_floats(path, key: str, column: str, kind: str | None = None
                       ) -> tuple[list[str], np.ndarray]:
    """The keys and the float64 values of a two-column CSV with header
    ``key,column``: loaded from the parsed copy of the ``kind`` table,
    when ``kind`` is given and the copy holds the SHA-256 of the bytes
    read, else parsed.

    A key that appears on two rows raises SchemaError naming both rows,
    and so does a non-finite value, naming its row.
    """
    data = _read_bytes(path)
    copy = None if kind is None else _load_copy(path, data, kind)
    if copy is not None:
        keys, columns, _ = copy
        return keys, columns[column]
    problems: list = []
    header, (key_cells, value_cells) = _read_columns(path, problems, 2, data=data)
    if header is None or [c.strip() for c in header[:2]] != [key, column]:
        raise SchemaError(f"{path} must have header '{key},{column}'")
    keys = list(map(str.strip, key_cells))
    _repeated_key(keys, key, problems)
    values = _float_column(value_cells, column, problems)
    _non_finite(values, value_cells, column, problems)
    _raise_first(problems)
    return keys, values


def read_influence(path) -> dict[str, float]:
    """``{id: influence}`` of an influence file, from the parsed copy that
    :func:`write_influence` wrote beside it when the copy still matches."""
    ids, values = _read_keyed_floats(path, "id", "influence", "influence")
    return dict(zip(ids, values.tolist()))


def read_influence_rows(path, ids: Sequence[str]) -> np.ndarray:
    """The influence of each of ``ids``, in their order, as float64; nan for
    an id that the file does not list (a listed value is never nan).

    When the file lists exactly ``ids`` in that order, as the influence of
    every row of a table with sorted ids does, its values are returned
    after one comparison of the two id lists, without a lookup per id.
    """
    read, values = _read_keyed_floats(path, "id", "influence", "influence")
    ids = list(ids)
    if read == ids:
        return values
    position = dict(zip(read, range(len(read))))
    at = np.fromiter(map(position.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))
    out = np.full(len(ids), np.nan)
    out[at >= 0] = values[at[at >= 0]]
    return out


def read_gestation(path) -> dict[str, float]:
    """Gestation length in days per subject (header ``subject_id,gestation_days``)."""
    keys, values = _read_keyed_floats(path, "subject_id", "gestation_days")
    return dict(zip(keys, values.tolist()))


def write_allocation(path, draws: dict[str, int], *, wave: int, frame: str,
                     closed: Iterable[str] = (), flags: dict | None = None) -> None:
    payload = {
        "frame": frame,
        "wave": int(wave),
        "total": int(sum(draws.values())),
        "draws": {sid: int(v) for sid, v in sorted(draws.items())},
        "closed": sorted(closed),
        "flags": flags or {},
    }
    _write_json(path, payload)


def read_allocation(path) -> dict:
    """The allocation payload: ``frame``, ``wave`` and per-leaf ``draws``,
    each draw a non-negative integer."""
    payload = _json_object(path, "allocation")
    _field(path, payload, "frame", "a string")
    _field(path, payload, "wave", "a non-negative integer")
    _field(path, payload, "draws", "an object of non-negative integers")
    return payload


def write_draw(path, draw_by_stratum: dict[str, list[str]], *, wave: int,
               overlap_ids: Iterable[str] = ()) -> None:
    payload = {
        "wave": int(wave),
        "by_stratum": {sid: list(ids) for sid, ids in sorted(draw_by_stratum.items())},
        "overlap_ids": sorted(overlap_ids),
    }
    _write_json(path, payload)


def read_draw(path) -> dict:
    """The draw payload: ``wave``, the record ids drawn ``by_stratum`` and
    the optional ``overlap_ids``."""
    payload = _json_object(path, "draw")
    _field(path, payload, "wave", "a non-negative integer")
    _field(path, payload, "by_stratum", "an object of string lists")
    _field(path, payload, "overlap_ids", "a list of strings", [])
    return payload


def write_combined_weights(path, ids: Sequence[str], frames: Sequence[str],
                           weights: Sequence[float]) -> None:
    """One row per combined-frame draw; the record id is its variance cluster."""
    column = weights.tolist() if isinstance(weights, np.ndarray) else list(weights)
    cells = column if _all_floats(column) else list(map(_fmt, column))
    _write_columns(path, ["id", "frame", "weight", "cluster"], [ids, frames, cells, ids])


def write_estimates(path, rows, terms: Sequence[str]) -> None:
    """rows: iterable of (estimator, beta vector, se vector)."""
    cells = [(name, term, _fmt(b), _fmt(s)) for name, beta, se in rows
             for term, b, s in zip(terms, beta, se)]
    _write_columns(path, ["estimator", "term", "beta", "se"], list(zip(*cells)))


def read_estimates(path) -> list[dict]:
    problems: list = []
    header, (names, terms, beta, se) = _read_columns(path, problems, 4)
    if header is None or [c.strip() for c in header[:4]] != [
            "estimator", "term", "beta", "se"]:
        raise SchemaError("estimates file must have header 'estimator,term,beta,se'")
    beta = _float_column(beta, "beta", problems).tolist()
    se = _float_column(se, "se", problems).tolist()
    _raise_first(problems)
    return [{"estimator": n, "term": t, "beta": b, "se": s}
            for n, t, b, s in zip(names, terms, beta, se)]


def write_estimate_table(path, names: Sequence[str],
                         merged: dict[str, dict[str, tuple[float, float]]]) -> None:
    """``report`` output: one row per term of ``merged`` (term -> estimator ->
    (beta, se)), with a beta and an se column per estimator in ``names``
    order; nan where an estimator has no row for the term."""
    missing = (float("nan"), float("nan"))
    cells = [[float(merged[term].get(n, missing)[c]) for term in merged]
             for n in names for c in (0, 1)]
    _write_columns(path, ["term", *(f"{n}_{c}" for n in names for c in ("beta", "se"))],
                   [list(merged), *cells])


def population_to_records(pop) -> DyadTable:
    """Generator output as a table of phase-1 records (truth withheld)."""
    table = DyadTable(pop.ids(), {
        "y_star": pop.y_star, "delta_star": pop.delta_star, "x_star": pop.x_star,
        **{f"z_star_{j}": pop.z_star[:, j] for j in range(pop.z_star.shape[1])},
        **{f"aux_{j}": pop.aux[:, j] for j in range(pop.aux.shape[1])},
        "in_asthma_frame": pop.in_asthma_frame})
    bad = first_invalid_row(table.columns)
    if bad is not None:
        raise ValueError(f"record {table.ids[bad[0]]}: {bad[1]}")
    return table


_TRUTH_COLUMNS = ["y", "delta", "x", "gestation_days", "asthma"]


def write_truth(path, pop) -> None:
    """Validation source for simulated populations (one row per record),
    with the parsed copy beside the file.

    ``delta`` and ``asthma`` print truncated, as integers.  The copy holds
    the stripped ids and each column as the reader parses its text; there
    is none unless every column is float64 with a row per id (others
    print in other forms) and the reader would accept the ids
    (:func:`_save_copy`).
    """
    ids, n_z = pop.ids(), pop.z.shape[1]
    names = [*_TRUTH_COLUMNS, *(f"z_{j}" for j in range(n_z))]
    arrays = [pop.y, pop.delta.astype(np.int64), pop.x, pop.gestation,
              pop.asthma.astype(np.int64), *(pop.z[:, j] for j in range(n_z))]
    sha = hashlib.sha256()
    _write_columns(path, ["id", *names], [ids, *(a.tolist() for a in arrays)], sha)
    values = None
    if (all(a.shape == (len(ids),) for a in arrays)
            and all(a.dtype == np.float64 for a in (pop.y, pop.x, pop.gestation, pop.z))):
        values = np.array(arrays, dtype=np.float64)
        values[np.isnan(values)] = np.nan  # every nan prints as "nan", read as this one
    _save_copy(path, "truth", sha.digest(), ids, names, values)


def read_truth(path, ids: Iterable[str] | None = None
               ) -> tuple[list[str], dict[str, np.ndarray]]:
    """Record ids and the columns ``y``, ``delta``, ``x``, ``gestation_days``,
    ``asthma`` and ``z_<j>`` of a truth file; row ``i`` is ``ids[i]``.

    Ids are stripped of surrounding space, as in :func:`read_dyads`; a
    repeated id raises SchemaError naming both rows.  Given ``ids``, the
    result keeps only the file's rows whose id is among them, in file
    order.  Every id is still read and checked for repeats, and every
    row's cell count, but only the kept rows are split into cells and
    their numbers parsed: a non-numeric cell on a kept row raises
    SchemaError naming its file row, and one on another row goes unseen.

    When the parsed copy that :func:`write_truth` wrote beside the file
    holds the SHA-256 of the bytes read, the kept rows are taken from it
    instead: the same ids, columns and float bits.
    """
    wanted = None if ids is None else set(ids)

    def kept_rows(read):
        return np.arange(len(read)) if wanted is None else id_rows(read, wanted)

    data = _read_bytes(path)
    copy = _load_copy(path, data, "truth")
    if copy is not None:
        read, columns, _ = copy
        rows = kept_rows(read)
        return [read[i] for i in rows.tolist()], {k: v[rows] for k, v in columns.items()}
    problems: list = []
    kept = {"ids": [], "rows": []}

    def select(first):
        read = list(map(str.strip, first))
        _repeated_key(read, "id", problems)
        rows = kept_rows(read).tolist()
        kept.update(ids=[read[i] for i in rows], rows=rows)
        return rows

    header, columns = _read_columns(path, problems, select=select, data=data)
    if header is None or header[:1] != ["id"]:
        raise SchemaError("truth file must have an 'id' leading column")
    names = [*_TRUTH_COLUMNS, *(c for c in header if c.startswith("z_"))]
    for name in names:
        if name not in header:
            raise SchemaError(f"truth file missing column {name!r}")
    text = dict(zip(header, columns))
    columns = {name: _float_column(text[name], name, problems, kept["rows"])
               for name in names}
    _raise_first(problems)
    return kept["ids"], columns


def write_report(path_csv, path_txt, report) -> None:
    """Experiment summary as CSV plus an aligned text table."""
    fields = ["mean_beta", "bias", "sd", "mean_se", "coverage", "n"]
    cells = [(*key.split("/", 1), *(_fmt(report.estimators[key][f]) for f in fields))
             for key in sorted(report.estimators)]
    _write_columns(path_csv, ["endpoint", "estimator"] + fields, list(zip(*cells)))
    lines = [
        f"replicates: {report.replicates}   failures: {report.failures}   "
        + "   ".join(f"true beta ({ep}): {b:g}"
                     for ep, b in sorted(report.true_beta.items())),
        f"{'endpoint':8s} {'estimator':12s} {'mean':>8s} {'bias':>8s} {'sd':>8s} "
        f"{'mean_se':>8s} {'cover':>6s}",
    ]
    for key in sorted(report.estimators):
        endpoint, name = key.split("/", 1)
        row = report.estimators[key]
        lines.append(
            f"{endpoint:8s} {name:12s} {row['mean_beta']:8.4f} {row['bias']:+8.4f} "
            f"{row['sd']:8.4f} {row['mean_se']:8.4f} {row['coverage']:6.3f}")
    lines += [f"failures ({cls}): {reason['count']}; first: {reason['first']}"
              for cls, reason in sorted(report.failure_reasons.items())]
    Path(path_txt).write_text("\n".join(lines) + "\n", encoding="utf-8")
