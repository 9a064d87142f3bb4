"""File schemas: CSV and JSON round-trips for every artifact.

All writers emit stable key order and full-precision numerics so repeated
runs with identical inputs produce byte-identical files.  Parse errors
carry the row number and column name; when a file has several faults,
the first row in file order is reported.

The CSV tables (``dyads.csv``, ``truth.csv``, ``measurements.csv``, the
estimates and the keyed influence and gestation files) are read as
columns: one ``csv.reader`` pass, then one ``float`` conversion per
numeric column (:func:`_float_column`).  ``dyads.csv`` is held as a
:class:`records.DyadTable`; it and ``truth.csv`` are written column-wise.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from twophase.errors import SchemaError
from twophase.fpca import EigenSystem, LongitudinalSeries
from twophase.records import (
    FLAGS,
    INTEGER_FIELDS,
    NEG_INF,
    PHASE2_FIELDS,
    POS_INF,
    DesignLedger,
    DyadTable,
    Stratum,
    first_invalid_row,
    is_phase2,
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# Column-wise CSV reading.  A problem is ``(row index, message)`` with the
# index counted from the first data row; _raise_first reports the earliest.


def _read_rows(path) -> tuple[list[str] | None, list[list[str]]]:
    """The header (None for an empty file) and the data rows of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader, None), list(reader)


def _cells_by_column(rows: list[list[str]], width: int, problems: list,
                     exact: bool = False) -> list[tuple[str, ...]]:
    """The first ``width`` columns of ``rows``, up to the first row whose cell
    count is wrong (fewer than ``width``, or any other than ``width`` when
    ``exact``); that row becomes a problem."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(lengths != width if exact else lengths < width)
    if bad.size:
        i = int(bad[0])
        problems.append((i, f"expected {width} cells, found {lengths[i]}"))
        rows = rows[:i]
    return list(zip(*rows))[:width] if rows else [()] * width


def _float_column(cells: Sequence[str], column: str, problems: list,
                  rows: np.ndarray | None = None) -> np.ndarray:
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
# dyads.csv


def _cell_values(name: str, values: np.ndarray) -> list:
    """Python values that ``csv.writer`` prints as the file's text: ints for
    flags and integer fields, floats (printed as their ``repr``) otherwise."""
    if name in FLAGS or name in INTEGER_FIELDS:
        return values.astype(np.int64).tolist()
    return values.tolist()


def write_dyads(path, table: DyadTable) -> None:
    """One row per record; vector fields expand to indexed columns.

    Phase-2 cells are empty on rows that are not validated.
    """
    validated = np.flatnonzero(table.columns["validated"]).tolist()
    cells = []
    for name, values in table.columns.items():
        if is_phase2(name):
            column = [""] * len(table)
            for i, v in zip(validated, _cell_values(name, values[validated])):
                column[i] = v
        else:
            column = _cell_values(name, values)
        cells.append(column)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *table.columns])
        writer.writerows(zip(table.ids, *cells))


def read_dyads(path) -> DyadTable:
    """``dyads.csv`` as a :class:`DyadTable`.

    Phase-2 cells are read on validated rows only.  Raises SchemaError
    for a missing column, a row with the wrong cell count, a non-numeric
    or empty cell, a row breaking :func:`records.first_invalid_row`, or
    a repeated id.
    """
    header, rows = _read_rows(path)
    if header is None:
        raise SchemaError("dyads file is empty; a header row is required")
    for col in ("id", "y_star", "delta_star", "x_star"):
        if col not in header:
            raise SchemaError(f"dyads file missing required column {col!r}")
    problems: list = []
    text = dict(zip(header, _cells_by_column(rows, len(header), problems, exact=True)))
    ids = list(map(str.strip, text["id"]))
    n = len(ids)

    def flag(name):
        if name not in text:
            return np.zeros(n, dtype=bool)
        return np.fromiter(map("1".__eq__, map(str.strip, text[name])), dtype=bool, count=n)

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
    ids = chain.from_iterable(repeat(s.subject_id, s.times.size) for s in series)
    times = chain.from_iterable(s.times.tolist() for s in series)
    values = chain.from_iterable(s.values.tolist() for s in series)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "t_days", "weight_kg"])
        writer.writerows(zip(ids, times, values))


def read_measurements(path) -> list[LongitudinalSeries]:
    """One series per subject, in order of first appearance.

    Each series is sorted by time; of points at one time, the one with
    the smallest weight is kept.  A non-numeric or non-finite (nan, inf)
    cell raises SchemaError naming its row, and a series that
    ``LongitudinalSeries`` rejects (a non-positive weight) raises it
    naming its subject.
    """
    header, rows = _read_rows(path)
    if header is None or [c.strip() for c in header[:3]] != [
            "subject_id", "t_days", "weight_kg"]:
        raise SchemaError(
            "measurements file must start with header "
            "'subject_id,t_days,weight_kg'")
    problems: list = []
    sid, t_text, v_text = _cells_by_column(rows, 3, problems)
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
    cuts = np.flatnonzero(subject[1:] != subject[:-1]) + 1
    out = []
    for name, t, v in zip(names[appearance].tolist(), np.split(times, cuts),
                          np.split(values, cuts)):
        try:
            out.append(LongitudinalSeries(name, t, v))
        except ValueError as exc:
            raise SchemaError(f"subject {name!r}: {exc}") from None
    return out


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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_eigensystem(path) -> EigenSystem:
    """Read ``es.json``, checking every array against the grid and K.

    The grid must hold at least two finite, strictly increasing points.
    ``mean`` has one value per grid point, ``eigenfunctions`` is K x G (K
    the number of eigenvalues) and ``fve`` has K values.  A missing key or
    a shape that does not fit raises SchemaError.  ``em_steps`` is optional
    (None when absent); when present it is a non-negative integer or null.
    """
    with open(path) as fh:
        payload = json.load(fh)
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
    em_steps = payload.get("em_steps")
    if em_steps is not None and not (type(em_steps) is int and em_steps >= 0):
        raise SchemaError(f"eigensystem em_steps must be a non-negative integer or "
                          f"null, got {em_steps!r}")
    return EigenSystem(grid=grid, mean=arrays["mean"], eigenvalues=eigenvalues,
                       eigenfunctions=functions, noise_var=float(arrays["noise_var"]),
                       fve=arrays["fve"],
                       zero_variation=bool(payload.get("zero_variation", False)),
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
            "sampled_per_wave": [int(v) for v in s.sampled_per_wave],
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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_ledger(path) -> DesignLedger:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        strata = {}
        for raw in payload["strata"]:
            bounds = {}
            for axis, (lo, hi) in raw["bounds"].items():
                bounds[axis] = (NEG_INF if lo is None else float(lo),
                                POS_INF if hi is None else float(hi))
            strata[raw["id"]] = Stratum(
                id=raw["id"], frame=raw["frame"], bounds=bounds,
                parent=raw.get("parent"),
                population_size=int(raw["population_size"]),
                sampled_per_wave=[int(v) for v in raw["sampled_per_wave"]],
                closed=bool(raw.get("closed", False)),
                drawn=[list(ids) for ids in raw.get("drawn", [])],
                inherited_ids=list(raw.get("inherited_ids", [])),
            )
        return DesignLedger(frame=payload["frame"], strata=strata,
                            wave_count=int(payload["wave_count"]),
                            rng_seed=int(payload["rng_seed"]),
                            member_flag=payload.get("member_flag"))
    except KeyError as exc:
        raise SchemaError(f"ledger file missing key {exc}") from None


# ---------------------------------------------------------------------------
# simple tabular artifacts


def write_influence(path, values: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "influence"])
        for rid in sorted(values):
            writer.writerow([rid, _fmt(values[rid])])


def _read_keyed_floats(path, key: str, column: str) -> dict[str, float]:
    """``{key: value}`` from a two-column CSV with header ``key,column``.

    A key that appears on two rows raises SchemaError naming both rows,
    and so does a non-finite value, naming its row.
    """
    header, rows = _read_rows(path)
    if header is None or [c.strip() for c in header[:2]] != [key, column]:
        raise SchemaError(f"{path} must have header '{key},{column}'")
    problems: list = []
    key_cells, value_cells = _cells_by_column(rows, 2, problems)
    keys = list(map(str.strip, key_cells))
    _repeated_key(keys, key, problems)
    values = _float_column(value_cells, column, problems)
    _non_finite(values, value_cells, column, problems)
    _raise_first(problems)
    return dict(zip(keys, values.tolist()))


def read_influence(path) -> dict[str, float]:
    return _read_keyed_floats(path, "id", "influence")


def read_gestation(path) -> dict[str, float]:
    """Gestation length in days per subject (header ``subject_id,gestation_days``)."""
    return _read_keyed_floats(path, "subject_id", "gestation_days")


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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_allocation(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if "draws" not in payload:
        raise SchemaError("allocation file missing key 'draws'")
    return payload


def write_draw(path, draw_by_stratum: dict[str, list[str]], *, wave: int,
               overlap_ids: Iterable[str] = ()) -> None:
    payload = {
        "wave": int(wave),
        "by_stratum": {sid: list(ids) for sid, ids in sorted(draw_by_stratum.items())},
        "overlap_ids": sorted(overlap_ids),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_draw(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if "by_stratum" not in payload:
        raise SchemaError("draw file missing key 'by_stratum'")
    return payload


def write_combined_weights(path, ids: Sequence[str], frames: Sequence[str],
                           weights: Sequence[float]) -> None:
    """One row per combined-frame draw; the record id is its variance cluster."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "frame", "weight", "cluster"])
        for rid, frame, weight in zip(ids, frames, weights):
            writer.writerow([rid, frame, _fmt(weight), rid])


def write_estimates(path, rows, terms: Sequence[str]) -> None:
    """rows: iterable of (estimator, beta vector, se vector)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "term", "beta", "se"])
        for name, beta, se in rows:
            for term, b, s in zip(terms, beta, se):
                writer.writerow([name, term, _fmt(b), _fmt(s)])


def read_estimates(path) -> list[dict]:
    header, rows = _read_rows(path)
    if header is None or [c.strip() for c in header[:4]] != [
            "estimator", "term", "beta", "se"]:
        raise SchemaError("estimates file must have header 'estimator,term,beta,se'")
    problems: list = []
    names, terms, beta, se = _cells_by_column(rows, 4, problems)
    beta = _float_column(beta, "beta", problems).tolist()
    se = _float_column(se, "se", problems).tolist()
    _raise_first(problems)
    return [{"estimator": n, "term": t, "beta": b, "se": s}
            for n, t, b, s in zip(names, terms, beta, se)]


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


def write_truth(path, pop) -> None:
    """Validation source for simulated populations (one row per record)."""
    n_z = pop.z.shape[1]
    columns = [pop.y.tolist(), pop.delta.astype(np.int64).tolist(), pop.x.tolist(),
               pop.gestation.tolist(), pop.asthma.astype(np.int64).tolist(),
               *(pop.z[:, j].tolist() for j in range(n_z))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "y", "delta", "x", "gestation_days", "asthma"]
                        + [f"z_{j}" for j in range(n_z)])
        writer.writerows(zip(pop.ids(), *columns))


def read_truth(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Record ids and the columns ``y``, ``delta``, ``x``, ``gestation_days``,
    ``asthma`` and ``z_<j>`` of a truth file; row ``i`` is ``ids[i]``.

    Ids are stripped of surrounding space, as in :func:`read_dyads`; a
    repeated id raises SchemaError naming both rows.
    """
    header, rows = _read_rows(path)
    if header is None or header[0] != "id":
        raise SchemaError("truth file must have an 'id' leading column")
    names = ["y", "delta", "x", "gestation_days", "asthma",
             *(c for c in header if c.startswith("z_"))]
    for name in names:
        if name not in header:
            raise SchemaError(f"truth file missing column {name!r}")
    problems: list = []
    text = dict(zip(header, _cells_by_column(rows, len(header), problems)))
    ids = list(map(str.strip, text["id"]))
    _repeated_key(ids, "id", problems)
    columns = {name: _float_column(text[name], name, problems) for name in names}
    _raise_first(problems)
    return ids, columns


def write_report(path_csv, path_txt, report) -> None:
    """Experiment summary as CSV plus an aligned text table."""
    fields = ["mean_beta", "bias", "sd", "mean_se", "coverage", "n"]
    with open(path_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["endpoint", "estimator"] + fields)
        for key in sorted(report.estimators):
            endpoint, name = key.split("/", 1)
            row = report.estimators[key]
            writer.writerow([endpoint, name] + [_fmt(row[f]) for f in fields])
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
    Path(path_txt).write_text("\n".join(lines) + "\n")
