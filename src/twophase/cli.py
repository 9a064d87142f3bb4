"""Command-line entry point for the wave-by-wave validation workflow.

Subcommands: ``simulate``, ``fpca fit|score|flag``, ``design
init|allocate|split|close|draw``, ``estimate``, ``report``.  Every
command is deterministic given its inputs and ``--seed``; failures exit
with a distinct code per error class and a single machine-parsable
stderr line ``error: <class>: <message>``.

The commands are file I/O around the design core the experiment harness
also runs.  ``dyads.csv`` is read into a ``records.DyadTable`` (ids plus
numpy columns) and written back from one.  ``design allocate`` maps the
influence file onto the table's rows once, hands both to
``allocation.stratum_sd`` and allocates with ``allocation.multiwave``, the
one wave rule for every wave, the first included; ``design draw`` calls
``allocation.draw_sample`` on the table.  ``simulate reveal`` writes the
drawn rows' truth into the table's columns and writes back only those
rows, spliced into the bytes of the file it read
(``fileio.write_dyads_patch``).  ``estimate`` fits the
harness's weighted-estimation core, ``multiframe.weighted_sample`` and
``raking.weighted_fit``, on the ledgers' ``records.frame_arrays`` and the
arrays that the ``--model`` working model, a ``models.AnalysisSpec``, reads
from the table's columns for every fit: phase-1, IPW, raking and MI.  The
CLI's endpoints are the harness's: ``--model`` picks an entry of
``simulate.WORKING_MODELS``, the obesity Cox model or the asthma logistic
model with its imputation specs, and ``--aux mi`` is the harness's
``simulate._mi_influence``.

Every step reads its inputs whole and checks them, by design: the files
between steps may have been edited by hand.  Each id and row is checked
once, where it enters a step; from there on a step works on row indices,
sorted orders and leaf arrays, and turns rows back into ids only to write
them (``records.id_rows``, ``records.id_order``,
``fileio.read_influence_rows``).  What each step pays
around that work is kept small, since a wave is several steps and a
design many waves: a file is read as bytes and decoded once, a table's
lines are found by numpy scans of its bytes (``fileio._plain_rows``), a
JSON file is written in one piece, and the argument parser is built once
per process (:func:`dispatch`).  A table is parsed only once: each dyads and
influence file that a step writes, and the truth file of ``simulate``, gets
a parsed copy beside it, ``<name>.parsed``, which the later steps load
instead of parsing the text for as long as the file's SHA-256 matches the
one the copy holds.  An edited file no longer matches and is parsed and
checked as before; a copy may be deleted at any time, and a read never
writes one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from twophase import (
    allocation,
    fileio,
    fpca,
    imputation,
    models,
    multiframe,
    raking,
    records as rec,
    simulate,
)
from twophase.errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateDesignError,
    DomainError,
    IllConditionedError,
    InfeasibleError,
    LedgerError,
    PartitionError,
    SchemaError,
    TwophaseError,
)

log = logging.getLogger("twophase")

EXIT_CODES = [
    (SchemaError, 4, "parse"),
    (InfeasibleError, 5, "infeasible"),
    (PartitionError, 6, "partition"),
    (LedgerError, 6, "ledger"),
    (ConvergenceError, 7, "convergence"),
    (CalibrationError, 8, "calibration"),
    (DomainError, 9, "domain"),
    (DegenerateDesignError, 10, "degenerate-design"),
    (IllConditionedError, 11, "ill-conditioned"),
    (OSError, 3, "io"),
    (TwophaseError, 12, "error"),
]


def _configure_logging():
    level = os.environ.get("TWOPHASE_LOG", "info").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _log_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("resolved configuration: %s", resolved)


def _check_range(args, name: str, ok: bool, rule: str) -> None:
    """Raise SchemaError, the parse error, naming option ``name`` and its
    value unless ``ok``: a number out of an option's range is as malformed
    as one out of range in an input file."""
    if not ok:
        raise SchemaError(f"--{name.replace('_', '-')} must be {rule}, "
                          f"got {getattr(args, name)}")


def _wave(args, default: int | None = None) -> int | None:
    """``--wave``, or ``default`` when it is not given.  A negative wave
    raises SchemaError, as the readers of allocation and draw files do."""
    if args.wave is None:
        return default
    _check_range(args, "wave", args.wave >= 0, "a non-negative integer")
    return args.wave


# ---------------------------------------------------------------------------
# simulate


def _config_value_shape(field: dataclasses.Field, value) -> str:
    """What a simulation config value must be, by the type of its field's
    default, when ``value`` is not that; else "", as for a section.  A tuple
    takes as many numbers as its default, any number for ``tuple[float, ...]``."""
    kind = type(field.default)
    if kind is int:
        return "" if type(value) is int else "an integer"
    if kind is float:
        return "" if type(value) in (int, float) else "a number"
    if kind is not tuple:
        return ""
    size = None if "..." in str(field.type) else len(field.default)
    if (isinstance(value, list) and all(type(v) in (int, float) for v in value)
            and size in (None, len(value))):
        return ""
    return "a list of numbers" if size is None else f"a list of {size} numbers"


def _sim_config_from_json(path) -> simulate.SimConfig:
    if path is None:
        return simulate.SimConfig()
    raw = fileio.read_json(path)

    def build(klass, values, where):
        if not isinstance(values, dict):
            raise SchemaError(f"{path}: {where} must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(klass)}
        unknown = set(values) - set(fields)
        if unknown:
            raise SchemaError(f"{path}: unknown {where} keys: {sorted(unknown)}")
        for key, value in values.items():
            expected = _config_value_shape(fields[key], value)
            if expected:
                raise SchemaError(f"{path}: {where} key {key!r} must be {expected}, "
                                  f"got {value!r}")
        try:
            return klass(**values)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {where}: {exc}") from None

    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: simulation config must be a JSON object")
    sections = {key: build(klass, raw[key], f"{key!r} section")
                for key, klass in (("trajectory", simulate.TrajectoryModel),
                                   ("error", simulate.ErrorModel)) if key in raw}
    return build(simulate.SimConfig, {**raw, **sections}, "simulation config")


def cmd_simulate_generate(args) -> int:
    config = _sim_config_from_json(args.config)
    seed = args.seed if args.seed is not None else config.seed
    pop = simulate.generate(config, seed, include_series=args.with_series)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_dyads(out / "dyads.csv", fileio.population_to_records(pop))
    fileio.write_truth(out / "truth.csv", pop)
    if args.with_series:
        fileio.write_measurements(out / "measurements.csv", pop.series)
    log.info("wrote %d records to %s", pop.n, out)
    return 0


def cmd_simulate_reveal(args) -> int:
    """Validate the drawn records that are not validated yet and write the
    table to ``--out`` as a patch of ``--dyads``: only those rows are
    formatted again, and every other line keeps the bytes it was read with
    (``fileio.write_dyads_patch``).  Validating fills ``y``, ``delta``,
    ``x``, the ``z_<j>`` and, in a table with the asthma pair, ``asthma``
    from the truth file."""
    kept: list = []
    table = fileio.read_dyads(args.dyads, kept)
    draw = fileio.read_draw(args.draw)
    wave = _wave(args, draw["wave"])
    drawn = {rid for ids in draw["by_stratum"].values() for rid in ids}
    rows = rec.id_rows(table.ids, drawn)
    unknown = drawn.difference(table.ids[i] for i in rows.tolist())
    if unknown:
        raise SchemaError(f"draw file {args.draw} names record {min(unknown)!r}, "
                          f"which is not in {args.dyads}")
    overlap = set(draw.get("overlap_ids", ()))
    cols = table.columns
    rows = rows[~cols["validated"][rows]]
    # Only the rows reveal validates are parsed out of the truth file.
    truth_ids, truth = fileio.read_truth(args.truth, [table.ids[i] for i in rows.tolist()])
    truth_row = {rid: i for i, rid in enumerate(truth_ids)}
    try:
        source = np.array([truth_row[table.ids[i]] for i in rows.tolist()], dtype=np.intp)
    except KeyError as exc:
        raise SchemaError(f"truth file has no row for drawn record {exc.args[0]!r}") from None
    fields = (["y", "delta", "x"] + [f"z_{j}" for j in range(table.n_z)]
              + ["asthma"] * table.has_asthma)
    for name in fields:
        if name not in truth:
            raise SchemaError(f"truth file {args.truth} has no column {name!r}")
        cols[name][rows] = truth[name][source]
    cols["wave_sampled"][rows] = wave
    cols["validated"][rows] = True
    # The read checked every row; only the validated ones have changed since.
    bad = rec.first_invalid_row({name: values[rows] for name, values in cols.items()})
    if bad is not None:
        raise SchemaError(f"truth file {args.truth}: record {table.ids[rows[bad[0]]]}: "
                          f"{bad[1]}")
    fileio.write_dyads_patch(args.out, table, kept, rows)
    log.info("validated %d newly drawn records (%d reused from overlap)",
             rows.size, len(overlap & drawn))
    return 0


def cmd_simulate_experiment(args) -> int:
    _check_range(args, "replicates", args.replicates >= 1, "a positive integer")
    config = _sim_config_from_json(args.config)
    seed = args.seed if args.seed is not None else config.seed
    report = simulate.run_experiment(config, simulate.DesignSpec(), args.replicates,
                                     master_seed=seed, progress=args.progress)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_report(out / "report.csv", out / "report.txt", report)
    print((out / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


# ---------------------------------------------------------------------------
# fpca


def cmd_fpca_fit(args) -> int:
    try:
        fpca.check_fit_options(args.grid_size, args.fve)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    series = fileio.read_measurements(args.measurements)
    system = fpca.fit_eigensystem(
        series, grid_size=args.grid_size, fve_threshold=args.fve)
    fileio.write_eigensystem(args.out, system)
    log.info("fit %d components (fve %.5f) from %d subjects",
             system.n_components, system.fve[-1] if system.n_components else 1.0,
             len(series))
    return 0


def cmd_fpca_score(args) -> int:
    series = fileio.read_measurements(args.measurements)
    system = fileio.read_eigensystem(args.eigensystem)
    gest = fileio.read_gestation(args.gestation_file) if args.gestation_file else {}
    days = [gest.get(s.subject_id, args.gestation_days) for s in series]
    gains, scores = [], np.empty((len(series), system.n_components))
    for i, (s, g) in enumerate(zip(series, days)):
        gain, scores[i] = fpca.gain_and_scores(s, system, g)
        gains.append(gain)
    fileio.write_scores(args.out, [s.subject_id for s in series], scores, days, gains)
    return 0


def cmd_fpca_flag(args) -> int:
    _check_range(args, "level", 0.0 < args.level < 1.0, "in (0, 1)")
    series = fileio.read_measurements(args.measurements)
    system = fileio.read_eigensystem(args.eigensystem)
    flagged = [(s, j) for s in series
               for j in fpca.flag_outliers(s, system, level=args.level)]
    fileio.write_flags(args.out, [s.subject_id for s, _ in flagged],
                       [j for _, j in flagged], [s.times[j] for s, j in flagged],
                       [s.values[j] for s, j in flagged])
    return 0


# ---------------------------------------------------------------------------
# design


def cmd_design_init(args) -> int:
    table = fileio.read_dyads(args.dyads)
    specs = fileio.read_json(args.strata)
    if not isinstance(specs, list):
        raise SchemaError("strata file must be a JSON list of leaf specs")
    ledger = rec.build_ledger(args.frame, specs, table, rng_seed=args.seed,
                              member_flag=args.member_flag)
    fileio.write_ledger(args.out, ledger)
    log.info("ledger %s: %d leaves over %d members", args.frame,
             len(ledger.leaf_ids()), ledger.population_size())
    return 0


def cmd_design_allocate(args) -> int:
    wave = _wave(args)
    _check_range(args, "min_per_stratum", args.min_per_stratum >= 0, "a non-negative integer")
    ledger = fileio.read_ledger(args.ledger)
    table = fileio.read_dyads(args.dyads)
    h = fileio.read_influence_rows(args.influence, table.ids)
    stats = allocation.stratum_sd(table, ledger, h)
    result = allocation.multiwave(
        stats, args.target, min_per_stratum=args.min_per_stratum,
        pre_closed={s.id for s in ledger.leaves() if s.closed})
    flags = {"spilled": sorted(result.spilled),
             "sd_sources": {s.id: s.sd_source for s in stats if s.sd_source != "stratum"}}
    fileio.write_allocation(args.out, result.draws, wave=wave, frame=ledger.frame,
                            closed=result.closed, flags=flags)
    return 0


def cmd_design_split(args) -> int:
    ledger = fileio.read_ledger(args.ledger)
    table = fileio.read_dyads(args.dyads)
    try:
        cuts = [float(c) for c in args.cuts.split(",") if c != ""]
    except ValueError:
        raise SchemaError(f"--cuts must be comma-separated numbers, got {args.cuts!r}") from None
    child_ids = args.child_ids.split(",") if args.child_ids else None
    new = rec.split_stratum(ledger, table, args.stratum, args.axis, cuts,
                            child_ids=child_ids)
    fileio.write_ledger(args.out, new)
    return 0


def cmd_design_close(args) -> int:
    ledger = fileio.read_ledger(args.ledger)
    new = rec.close_stratum(ledger, args.stratum)
    fileio.write_ledger(args.out, new)
    return 0


def cmd_design_draw(args) -> int:
    ledger = fileio.read_ledger(args.ledger)
    table = fileio.read_dyads(args.dyads)
    alloc = fileio.read_allocation(args.allocation)
    wave = _wave(args, ledger.wave_count + 1)
    if alloc["frame"] != ledger.frame:
        raise LedgerError(f"allocation {args.allocation} is for frame {alloc['frame']!r}, "
                          f"not the ledger's frame {ledger.frame!r}")
    if alloc["wave"] != wave:
        raise LedgerError(f"allocation {args.allocation} is for wave {alloc['wave']}, "
                          f"not wave {wave} being drawn")
    result = allocation.draw_sample(table, ledger, alloc["draws"],
                                    seed=args.seed, wave=wave)
    fileio.write_draw(args.out, result.by_stratum, wave=wave,
                      overlap_ids=result.overlap_ids)
    if args.update_ledger:
        updated = rec.apply_draw(ledger, wave, result.by_stratum)
        fileio.write_ledger(args.update_ledger, updated)
    return 0


# ---------------------------------------------------------------------------
# estimate


def _working_model(args, table):
    """The ``--model`` endpoint's working model and imputation specs
    (``simulate.WORKING_MODELS``); SchemaError names the first phase-1
    column of the model that ``table`` lacks (its phase-2 ones come with it)."""
    spec, imputation_specs = simulate.WORKING_MODELS[args.model]
    p1 = spec.phase1()
    for name in filter(None, (p1.outcome, p1.event, *p1.covariates)):
        if name not in table.columns:
            raise SchemaError(f"{args.dyads} has no column {name!r}, which "
                              f"--model {args.model} reads")
    return spec, imputation_specs()


def _reject_unread_options(args) -> None:
    """SchemaError naming an ``estimate`` option that the method never reads,
    and the option that makes it so."""
    if args.method == "phase1":
        given, unread = "--method phase1", ("emit_weights", "emit_mi_influence", "influence")
    elif args.method == "ipw":
        given, unread = "--method ipw", ("emit_mi_influence", "influence")
    else:
        given, unread = f"--aux {args.aux}", (
            ("influence",) if args.aux == "mi" else ("emit_mi_influence",))
    for name in unread:
        if getattr(args, name) is not None:
            raise SchemaError(f"--{name.replace('_', '-')} is not read with {given}")


def cmd_estimate(args) -> int:
    table = fileio.read_dyads(args.dyads)
    cols, ids = table.columns, table.ids
    spec, imputation_specs = _working_model(args, table)
    terms = ["intercept"] * spec.intercept + list(spec.covariates)
    target = spec.coefficient
    in_frame = spec.members(cols)
    frame_rows = np.flatnonzero(in_frame)

    def emit(path, rows, h):
        fileio.write_influence(path, dict(zip([ids[i] for i in rows], h.tolist())), table=table)

    if args.method == "phase1":
        fit = spec.phase1().fit(cols, frame_rows)
        fit.variance = models.sandwich_variance(fit)
        if args.emit_influence:
            emit(args.emit_influence, frame_rows, models.influence_for_target(fit, target))
        fileio.write_estimates(args.out, [("phase1", fit.coefficients, fit.se)], terms)
        return 0

    paths = [args.ledger] + ([args.asthma_ledger] if args.frame == "multi" else [])
    frames = [multiframe.FrameDesign(led.frame, *rec.frame_arrays(table, led))
              for led in map(fileio.read_ledger, paths)]
    # Each frame's draws enter the sample in record-id order.
    draws, sample = multiframe.weighted_sample(
        frames, in_frame, order=rec.id_order(ids),
        validated=cols["validated"], ids=ids)
    if args.emit_weights:
        fileio.write_combined_weights(args.emit_weights, [ids[i] for i in draws.rows],
                                      draws.frame, draws.weights)

    h = None
    if args.method == "raking":  # on [1, h], h the phase-1 or MI influence of the frame
        if args.aux == "mi":  # imputed from every validated record, refitted on the frame
            h = simulate._mi_influence(cols, cols["validated"], imputation_specs, spec,
                                       args.mi_replicates, args.seed)
            if args.emit_mi_influence:
                emit(args.emit_mi_influence, frame_rows, h)
        elif args.influence:
            h = fileio.read_influence_rows(args.influence, [ids[i] for i in frame_rows])
            missing = np.flatnonzero(np.isnan(h))
            if missing.size:
                raise SchemaError(f"influence file {args.influence} has no row for "
                                  f"frame member {ids[frame_rows[missing[0]]]!r}")
        else:
            h = models.influence_for_target(spec.phase1().fit(cols, frame_rows), target)
    fit, weights, cal = raking.weighted_fit(spec.kind, *spec.arrays(cols, sample.rows),
                                            sample, h)
    name = f"ipw_{args.frame}" if cal is None else f"raking_{args.aux}"
    if cal is not None:
        log.info("calibration: residual %.3g in %d iterations",
                 cal.constraint_residual, cal.iterations)
    if args.emit_influence:
        emit(args.emit_influence, sample.rows,
             models.influence_for_target(fit, target) / weights)
    fileio.write_estimates(args.out, [(name, fit.coefficients, fit.se)], terms)
    return 0


def cmd_report(args) -> int:
    merged: dict[str, dict[str, tuple[float, float]]] = {}
    names = []
    for path in args.inputs:
        for row in fileio.read_estimates(path):
            if row["estimator"] not in names:
                names.append(row["estimator"])
            merged.setdefault(row["term"], {})[row["estimator"]] = (row["beta"],
                                                                    row["se"])
    fileio.write_estimate_table(args.out, names, merged)
    if args.text:
        lines = [f"{'term':14s} " + " ".join(f"{n:>18s}" for n in names)]
        for term in merged:
            cells = []
            for n in names:
                beta, se = merged[term].get(n, (float("nan"), float("nan")))
                cells.append(f"{beta:9.3f} ({se:5.3f})")
            lines.append(f"{term:14s} " + " ".join(f"{c:>18s}" for c in cells))
        Path(args.text).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophase",
        epilog="Each dyads file that simulate or reveal writes, the truth file that "
               "simulate writes, and each influence file that estimate writes, gets a "
               "parsed copy beside it, <name>.parsed: the table as a later step reads "
               "it, keyed by the SHA-256 of the file's bytes. A step loads the copy "
               "while the file is unchanged and parses the text otherwise, so an edited "
               "file is read as edited. A copy may be deleted at any time; reading a "
               "file never writes one.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="synthetic data and experiments",
        description="generate writes a synthetic population; reveal validates the "
                    "drawn records from the truth file; experiment runs the Monte "
                    "Carlo harness. generate writes dyads.csv and truth.csv, each "
                    "with its parsed copy, which reveal loads while the file is "
                    "unchanged. reveal writes --out as a patch of --dyads: the "
                    "header and every row it does not newly validate are copied byte "
                    "for byte, so a hand-edited row keeps its text (1.50 stays "
                    "1.50), and only the newly validated rows are formatted again. "
                    "Every line ends in CRLF. A file that simulate or reveal wrote "
                    "comes out as a full rewrite would write it. Text holding a quote "
                    "or a bare carriage return, or a header that is not the full "
                    "dyads header in order, is rewritten whole. --out may be --dyads.")
    p_sim.add_argument("action", nargs="?", default="generate",
                       choices=["generate", "reveal", "experiment"])
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--out", required=False)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--with-series", action="store_true")
    p_sim.add_argument("--dyads", help="reveal: the dyads file to validate drawn records in")
    p_sim.add_argument("--truth", help="reveal: the truth file of the population")
    p_sim.add_argument("--draw", help="reveal: the draw file of design draw")
    p_sim.add_argument("--wave", type=int, default=None)
    p_sim.add_argument("--replicates", type=int, default=500)
    p_sim.add_argument("--progress", action="store_true")

    p_fpca = sub.add_parser("fpca", help="functional PCA on weight histories")
    fpca_sub = p_fpca.add_subparsers(dest="action", required=True)
    f_fit = fpca_sub.add_parser("fit")
    f_fit.add_argument("--measurements", required=True)
    f_fit.add_argument("--out", required=True)
    f_fit.add_argument("--grid-size", type=int, default=fpca.DEFAULT_GRID_SIZE,
                       help="points of the output grid, at least 2")
    f_fit.add_argument("--fve", type=float, default=fpca.DEFAULT_FVE,
                       help="fraction of variance the components must reach, in (0, 1]")
    f_score = fpca_sub.add_parser("score")
    f_score.add_argument("--measurements", required=True)
    f_score.add_argument("--eigensystem", required=True)
    f_score.add_argument("--out", required=True)
    f_score.add_argument("--gestation-days", type=float, default=273.0)
    f_score.add_argument("--gestation-file", default=None)
    f_flag = fpca_sub.add_parser("flag")
    f_flag.add_argument("--measurements", required=True)
    f_flag.add_argument("--eigensystem", required=True)
    f_flag.add_argument("--out", required=True)
    f_flag.add_argument("--level", type=float, default=0.95)

    p_design = sub.add_parser("design", help="ledger, allocation, and draws")
    design_sub = p_design.add_subparsers(dest="action", required=True)
    d_init = design_sub.add_parser("init")
    d_init.add_argument("--frame", required=True)
    d_init.add_argument("--dyads", required=True)
    d_init.add_argument(
        "--strata", required=True,
        help='JSON list of the leaves, each {"id": ..., "bounds": {axis: [lo, hi]}} with '
             "axis one of delta_star, y_star, x_star and lo, hi JSON numbers or null "
             "for unbounded. Bounds are half-open, (lo, hi]: a leaf holds the records "
             "with lo < value <= hi on each axis it bounds. The leaves must partition "
             "the frame")
    d_init.add_argument("--out", required=True)
    d_init.add_argument("--seed", type=int, default=0)
    d_init.add_argument("--member-flag", default=None)
    d_alloc = design_sub.add_parser("allocate")
    d_alloc.add_argument("--ledger", required=True)
    d_alloc.add_argument("--dyads", required=True)
    d_alloc.add_argument(
        "--influence", required=True,
        help="per-record influence CSV (id,influence) with a value for every frame "
             "member; one with values for the validated records only allocates "
             "badly. For a later wave, pass the file that estimate --method raking "
             "--aux mi --emit-mi-influence writes")
    d_alloc.add_argument("--target", type=int, required=True)
    d_alloc.add_argument("--wave", type=int, required=True)
    d_alloc.add_argument("--out", required=True)
    d_alloc.add_argument("--min-per-stratum", type=int, default=1)
    d_split = design_sub.add_parser("split")
    d_split.add_argument("--ledger", required=True)
    d_split.add_argument("--dyads", required=True)
    d_split.add_argument("--stratum", required=True)
    d_split.add_argument("--axis", required=True)
    d_split.add_argument("--cuts", required=True)
    d_split.add_argument("--child-ids", default=None)
    d_split.add_argument("--out", required=True)
    d_close = design_sub.add_parser("close")
    d_close.add_argument("--ledger", required=True)
    d_close.add_argument("--stratum", required=True)
    d_close.add_argument("--out", required=True)
    d_draw = design_sub.add_parser("draw")
    d_draw.add_argument("--ledger", required=True)
    d_draw.add_argument("--dyads", required=True)
    d_draw.add_argument("--allocation", required=True)
    d_draw.add_argument("--seed", type=int, required=True)
    d_draw.add_argument("--wave", type=int, default=None)
    d_draw.add_argument("--out", required=True)
    d_draw.add_argument("--update-ledger", default=None)

    p_est = sub.add_parser("estimate", help="phase-1, IPW, and raking estimators")
    p_est.add_argument("--dyads", required=True)
    p_est.add_argument("--model", choices=list(simulate.WORKING_MODELS), default="cox",
                       help="cox: the obesity endpoint, a Cox model of (y, delta) on x, z_0 "
                            "and z_1; logistic: the asthma endpoint, a logistic model of "
                            "asthma on x, z_0 and delta in the in_asthma_frame records, "
                            "which needs the asthma_star and asthma columns. Both are the "
                            "experiment harness's models, imputation models included")
    p_est.add_argument("--method", choices=["phase1", "ipw", "raking"],
                       required=True)
    p_est.add_argument("--frame", choices=["single", "multi"], default="single")
    p_est.add_argument("--aux", choices=["naive", "mi"], default="naive")
    p_est.add_argument("--ledger", default=None)
    p_est.add_argument("--asthma-ledger", default=None)
    p_est.add_argument("--influence", default=None,
                       help="aux influence CSV for raking (overrides --aux naive refit)")
    p_est.add_argument("--mi-replicates", type=int,
                       default=imputation.DEFAULT_REPLICATES)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--emit-influence", default=None)
    p_est.add_argument("--emit-mi-influence", default=None)
    p_est.add_argument("--emit-weights", default=None)

    p_rep = sub.add_parser("report", help="merge estimate tables")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--text", default=None)
    return parser


_parser = functools.cache(build_parser)


def dispatch(argv) -> int:
    """Run one command line (``argv`` without the program name) and return
    its exit code; an error the package raises is mapped to its code and
    reported as one ``error: <class>: <message>`` line on stderr.

    The argparse tree is built on the first call and reused by every later
    call in the process.  Building it (86 arguments) takes a few
    milliseconds, which a driver that runs a chain of steps in one process
    would pay at every step.  Parsing creates a fresh
    namespace from the actions' defaults and changes nothing on the parser,
    so a call sees what it would in a fresh process, also after a command
    line that argparse rejected with ``SystemExit``.
    """
    args = _parser().parse_args(argv)
    _log_config(args)
    try:
        # A --seed seeds numpy's SeedSequence, which takes no negative integer, or is
        # kept in a ledger as the design's seed.
        if getattr(args, "seed", None) is not None:
            _check_range(args, "seed", args.seed >= 0, "a non-negative integer")
        if args.command == "simulate":
            if args.action == "generate":
                if not args.out:
                    raise SchemaError("simulate generate requires --out")
                return cmd_simulate_generate(args)
            if args.action == "reveal":
                for field in ("dyads", "truth", "draw", "out"):
                    if not getattr(args, field):
                        raise SchemaError(f"simulate reveal requires --{field}")
                return cmd_simulate_reveal(args)
            if not args.out:
                raise SchemaError("simulate experiment requires --out")
            return cmd_simulate_experiment(args)
        if args.command == "fpca":
            return {"fit": cmd_fpca_fit, "score": cmd_fpca_score,
                    "flag": cmd_fpca_flag}[args.action](args)
        if args.command == "design":
            return {"init": cmd_design_init, "allocate": cmd_design_allocate,
                    "split": cmd_design_split, "close": cmd_design_close,
                    "draw": cmd_design_draw}[args.action](args)
        if args.command == "estimate":
            if args.method != "phase1" and not args.ledger:
                raise SchemaError(f"--method {args.method} requires --ledger")
            if args.method != "phase1" and args.frame == "multi" and not args.asthma_ledger:
                raise SchemaError("--frame multi requires --asthma-ledger")
            if args.method == "raking" and args.aux == "mi":
                _check_range(args, "mi_replicates", args.mi_replicates >= 2, "at least 2")
            _reject_unread_options(args)
            return cmd_estimate(args)
        if args.command == "report":
            return cmd_report(args)
        raise SchemaError(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - single mapping point to exit codes
        for klass, code, label in EXIT_CODES:
            if isinstance(exc, klass):
                msg = str(exc).replace("\n", " ")
                print(f"error: {label}: {msg}", file=sys.stderr)
                return code
        raise


def main() -> None:
    _configure_logging()
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
