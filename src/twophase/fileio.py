"""File schemas: CSV and JSON round-trips for every artifact.

All writers emit stable key order and full-precision numerics so repeated
runs with identical inputs produce byte-identical files.  Parse errors
carry the row number and column name.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from twophase.errors import SchemaError
from twophase.fpca import EigenSystem, LongitudinalSeries
from twophase.records import NEG_INF, POS_INF, DesignLedger, DyadRecord, Stratum


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(
            f"row {row}: column {column!r} has non-numeric value {text!r}") from None


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(float(text)) if float(text) == int(float(text)) else int(text)
    except ValueError:
        raise SchemaError(
            f"row {row}: column {column!r} has non-integer value {text!r}") from None


# ---------------------------------------------------------------------------
# dyads.csv


def write_dyads(path, records: Sequence[DyadRecord]) -> None:
    """One row per record; vector fields expand to indexed columns."""
    n_zs = max((len(r.z_star) for r in records), default=0)
    n_aux = max((len(r.aux) for r in records), default=0)
    n_z = max((len(r.z) for r in records if r.z is not None), default=n_zs)
    header = (["id", "y_star", "delta_star", "x_star"]
              + [f"z_star_{j}" for j in range(n_zs)]
              + [f"aux_{j}" for j in range(n_aux)]
              + ["in_asthma_frame", "validated", "wave_sampled",
                 "y", "delta", "x"]
              + [f"z_{j}" for j in range(n_z)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            z = r.z if r.z is not None else (None,) * n_z
            row = ([r.id, _fmt(r.y_star), _fmt(r.delta_star), _fmt(r.x_star)]
                   + [_fmt(v) for v in r.z_star] + [""] * (n_zs - len(r.z_star))
                   + [_fmt(v) for v in r.aux] + [""] * (n_aux - len(r.aux))
                   + [_fmt(r.in_asthma_frame), _fmt(r.validated),
                      _fmt(r.wave_sampled), _fmt(r.y), _fmt(r.delta), _fmt(r.x)]
                   + [_fmt(v) for v in z] + [""] * (n_z - len(z)))
            writer.writerow(row)


def read_dyads(path) -> list[DyadRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("dyads file is empty; a header row is required") from None
        required = ["id", "y_star", "delta_star", "x_star"]
        for col in required:
            if col not in header:
                raise SchemaError(f"dyads file missing required column {col!r}")
        pos = {name: j for j, name in enumerate(header)}
        zs_cols = sorted((c for c in header if c.startswith("z_star_")),
                         key=lambda c: int(c.split("_")[-1]))
        aux_cols = sorted((c for c in header if c.startswith("aux_")),
                          key=lambda c: int(c.split("_")[-1]))
        z_cols = sorted((c for c in header if c.startswith("z_") and
                         not c.startswith("z_star_")),
                        key=lambda c: int(c.split("_")[-1]))
        records = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(
                    f"row {i}: expected {len(header)} cells, found {len(row)}")

            def cell(name):
                return row[pos[name]].strip()

            validated = cell("validated") == "1" if "validated" in pos else False
            phase2 = {}
            if validated:
                phase2 = dict(
                    wave_sampled=_parse_int(cell("wave_sampled"), i, "wave_sampled"),
                    y=_parse_float(cell("y"), i, "y"),
                    delta=_parse_int(cell("delta"), i, "delta"),
                    x=_parse_float(cell("x"), i, "x"),
                    z=tuple(_parse_float(row[pos[c]], i, c) for c in z_cols
                            if row[pos[c]].strip() != ""),
                )
            try:
                records.append(DyadRecord(
                    id=cell("id"),
                    y_star=_parse_float(cell("y_star"), i, "y_star"),
                    delta_star=_parse_int(cell("delta_star"), i, "delta_star"),
                    x_star=_parse_float(cell("x_star"), i, "x_star"),
                    z_star=tuple(_parse_float(row[pos[c]], i, c) for c in zs_cols
                                 if row[pos[c]].strip() != ""),
                    aux=tuple(_parse_float(row[pos[c]], i, c) for c in aux_cols
                              if row[pos[c]].strip() != ""),
                    in_asthma_frame=cell("in_asthma_frame") == "1"
                    if "in_asthma_frame" in pos else False,
                    validated=validated,
                    **phase2,
                ))
            except ValueError as exc:
                raise SchemaError(f"row {i}: {exc}") from None
        return records


# ---------------------------------------------------------------------------
# measurements.csv


def write_measurements(path, series: Iterable[LongitudinalSeries]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "t_days", "weight_kg"])
        for s in series:
            for t, v in zip(s.times, s.values):
                writer.writerow([s.subject_id, _fmt(t), _fmt(v)])


def read_measurements(path) -> list[LongitudinalSeries]:
    by_subject: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != [
                "subject_id", "t_days", "weight_kg"]:
            raise SchemaError(
                "measurements file must start with header "
                "'subject_id,t_days,weight_kg'")
        for i, row in enumerate(reader, start=2):
            if len(row) < 3:
                raise SchemaError(f"row {i}: expected 3 cells, found {len(row)}")
            sid = row[0].strip()
            if sid not in by_subject:
                by_subject[sid] = []
                order.append(sid)
            by_subject[sid].append((_parse_float(row[1], i, "t_days"),
                                    _parse_float(row[2], i, "weight_kg")))
    out = []
    for sid in order:
        pts = sorted(by_subject[sid])
        times = np.array([p[0] for p in pts])
        values = np.array([p[1] for p in pts])
        keep = np.r_[True, np.diff(times) > 0]
        try:
            out.append(LongitudinalSeries(sid, times[keep], values[keep]))
        except ValueError as exc:
            raise SchemaError(f"subject {sid!r}: {exc}") from None
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
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_eigensystem(path) -> EigenSystem:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return EigenSystem(
            grid=np.asarray(payload["grid"], dtype=np.float64),
            mean=np.asarray(payload["mean"], dtype=np.float64),
            eigenvalues=np.asarray(payload["eigenvalues"], dtype=np.float64),
            eigenfunctions=np.asarray(payload["eigenfunctions"],
                                      dtype=np.float64).reshape(
                len(payload["eigenvalues"]), len(payload["grid"])),
            noise_var=float(payload["noise_var"]),
            fve=np.asarray(payload["fve"], dtype=np.float64),
            zero_variation=bool(payload.get("zero_variation", False)),
        )
    except KeyError as exc:
        raise SchemaError(f"eigensystem file missing key {exc}") from None


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

    A key that appears on two rows raises SchemaError naming both rows.
    """
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != [key, column]:
            raise SchemaError(f"{path} must have header '{key},{column}'")
        for i, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise SchemaError(f"row {i}: expected 2 cells")
            k = row[0].strip()
            if k in out:
                # The keys so far are unique and in file order from row 2.
                first = 2 + list(out).index(k)
                raise SchemaError(f"row {i}: {key} {k!r} repeats the one on row {first}")
            out[k] = _parse_float(row[1], i, column)
    return out


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
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:4]] != [
                "estimator", "term", "beta", "se"]:
            raise SchemaError("estimates file must have header 'estimator,term,beta,se'")
        for i, row in enumerate(reader, start=2):
            out.append({"estimator": row[0], "term": row[1],
                        "beta": _parse_float(row[2], i, "beta"),
                        "se": _parse_float(row[3], i, "se")})
    return out


def population_to_records(pop) -> list[DyadRecord]:
    """Materialize generator output as phase-1 records (truth withheld)."""
    ids = pop.ids()
    return [
        DyadRecord(
            id=ids[i],
            y_star=float(pop.y_star[i]),
            delta_star=int(pop.delta_star[i]),
            x_star=float(pop.x_star[i]),
            z_star=tuple(float(v) for v in pop.z_star[i]),
            aux=tuple(float(v) for v in pop.aux[i]),
            in_asthma_frame=bool(pop.in_asthma_frame[i]),
        )
        for i in range(pop.n)
    ]


def write_truth(path, pop) -> None:
    """Validation source for simulated populations (one row per record)."""
    ids = pop.ids()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n_z = pop.z.shape[1]
        writer.writerow(["id", "y", "delta", "x", "gestation_days", "asthma"]
                        + [f"z_{j}" for j in range(n_z)])
        for i in range(pop.n):
            writer.writerow([ids[i], _fmt(pop.y[i]), _fmt(int(pop.delta[i])),
                             _fmt(pop.x[i]), _fmt(pop.gestation[i]),
                             _fmt(int(pop.asthma[i]))]
                            + [_fmt(v) for v in pop.z[i]])


def read_truth(path) -> dict[str, dict]:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "id":
            raise SchemaError("truth file must have an 'id' leading column")
        z_cols = [c for c in header if c.startswith("z_")]
        pos = {name: j for j, name in enumerate(header)}
        for i, row in enumerate(reader, start=2):
            out[row[pos["id"]]] = {
                "y": _parse_float(row[pos["y"]], i, "y"),
                "delta": _parse_int(row[pos["delta"]], i, "delta"),
                "x": _parse_float(row[pos["x"]], i, "x"),
                "gestation_days": _parse_float(row[pos["gestation_days"]], i,
                                               "gestation_days"),
                "asthma": _parse_int(row[pos["asthma"]], i, "asthma"),
                "z": tuple(_parse_float(row[pos[c]], i, c) for c in z_cols),
            }
    return out


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
