"""Core domain types: the dyad table, strata, and the design ledger.

:class:`DyadTable` is the in-memory form of ``dyads.csv`` and the one
representation of a dyad: the record ids plus one numpy column per
field, row ``i`` being record ``i``.  Every path that builds or changes a
table checks it with one rule set, :func:`first_invalid_row`.

A ledger is a tree of strata per sampling frame.  Leaves partition the
frame population on the error-prone variables (:data:`AXES`: the obesity
frame's ``delta_star``, ``y_star`` and ``x_star``, and the asthma frame's
``asthma_star``) with half-open ``(lo, hi]`` bounds, read from
``strata.json`` and ``ledger.json`` by :func:`parse_bounds` and tested by
:func:`assign_strata_arrays` on the axes the leaves bound.  Splits refine
leaves; wave history stays on the stratum where sampling happened, and
draws made before a split are attributed to the child each drawn record
falls in.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from twophase.errors import LedgerError, PartitionError, SchemaError

AXES = ("delta_star", "y_star", "x_star", "asthma_star")

NEG_INF = float("-inf")
POS_INF = float("inf")

# Phase-2 fields besides the ``z_<j>`` columns; they hold values on validated rows only.
PHASE2_FIELDS = ("wave_sampled", "y", "delta", "x")
FLAGS = ("in_asthma_frame", "validated")
# The asthma outcome, phase-1 and phase-2: a table holds both columns or neither.
ASTHMA = ("asthma_star", "asthma")
INTEGER_FIELDS = ("delta_star", "wave_sampled", "delta", *ASTHMA)


def is_phase2(name: str) -> bool:
    """Whether column ``name`` holds a phase-2 (validated) value."""
    return (name in PHASE2_FIELDS or name == "asthma"
            or (name.startswith("z_") and not name.startswith("z_star_")))


def phase1_name(name: str) -> str:
    """The phase-1 stand-in for column ``name``: ``z_star_<j>`` for ``z_<j>``, else ``<name>_star``."""
    return f"z_star_{name[2:]}" if name.startswith("z_") else f"{name}_star"


def first_invalid_row(columns: Mapping[str, Sequence]) -> tuple[int, str] | None:
    """The first row that breaks a record rule, as ``(row, rule)``, or None.

    ``columns`` are named as in :class:`DyadTable`; phase-2 values count
    on the validated rows only.  The rules, in the order one row reports
    them: every counted value is finite; ``y_star > 0``; ``delta_star``
    is 0 or 1; ``wave_sampled`` is a whole number; ``y > 0``; ``delta``
    is 0 or 1; and, when the columns hold the asthma pair, ``asthma_star``
    is 0 or 1 and ``asthma`` is 0 or 1.
    """
    validated = np.asarray(columns["validated"], dtype=bool)
    names = [name for name in columns if name not in FLAGS]
    values = np.array([columns[name] for name in names], dtype=np.float64)
    value = dict(zip(names, values))
    nonfinite = ~np.isfinite(values)
    nonfinite[[is_phase2(name) for name in names]] &= validated
    wave, delta_star, delta = value["wave_sampled"], value["delta_star"], value["delta"]
    rules = [
        (value["y_star"] <= 0, "y_star must be positive"),
        ((delta_star != 0) & (delta_star != 1), "delta_star must be 0 or 1"),
        (validated & (np.floor(wave) != wave), "wave_sampled must be a whole number"),
        (validated & (value["y"] <= 0), "y must be positive"),
        (validated & (delta != 0) & (delta != 1), "delta must be 0 or 1"),
        *(((validated if is_phase2(name) else True) & (value[name] != 0) & (value[name] != 1),
           f"{name} must be 0 or 1") for name in ASTHMA if name in value),
    ]
    bad = nonfinite.any(axis=0)
    for mask, _ in rules:
        bad |= mask
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    for k in np.flatnonzero(nonfinite[:, row]):
        return row, f"{names[k]} must be finite"
    return row, next(rule for mask, rule in rules if mask[row])


def column_names(n_z: int, n_aux: int, asthma: bool = False) -> list[str]:
    """:class:`DyadTable` columns in ``dyads.csv`` order (after ``id``); with
    ``asthma``, ``asthma_star`` after the phase-1 columns and ``asthma`` last."""
    return (["y_star", "delta_star", "x_star"]
            + [f"z_star_{j}" for j in range(n_z)]
            + [f"aux_{j}" for j in range(n_aux)]
            + ["asthma_star"] * asthma
            + [*FLAGS, *PHASE2_FIELDS]
            + [f"z_{j}" for j in range(n_z)]
            + ["asthma"] * asthma)


class DyadTable:
    """Records as an id list plus named numpy columns; row ``i`` is record ``i``.

    Columns (see :func:`column_names`): float ``y_star``, ``delta_star``,
    ``x_star``, ``z_star_<j>`` and ``aux_<j>``; boolean ``in_asthma_frame``
    and ``validated``; float phase-2 ``wave_sampled``, ``y``, ``delta``,
    ``x`` and ``z_<j>``, which hold the validated values and 0 on the
    other rows.  Integer fields are stored as whole floats.  Absent flag
    and phase-2 columns are filled with False and 0.

    The asthma pair is optional: a table given ``asthma_star`` (0 or 1 on
    every row) also holds the phase-2 ``asthma`` (0 or 1 on the validated
    rows), and ``has_asthma`` says so; one given neither holds neither,
    and only the Cox endpoint can be fitted to it.

    By default the table holds its own copy of each column.  With
    ``copy=False`` it keeps each given array that already has its
    column's dtype, as ``fileio.read_dyads`` does with the arrays it has
    just loaded and hands to no one else.

    ``checked_ids`` is None, except on a table that ``fileio.read_dyads``
    loaded from its parsed copy: then ``(ids, sep, text)``, a copy of the
    ids it was loaded with, which passed the checks of the writer of that
    copy, and their text in it.  A writer takes ``ids`` as checked while
    they still equal that copy (``fileio._id_text``).
    """

    def __init__(self, ids: list[str], columns: Mapping[str, Sequence], *,
                 copy: bool = True):
        n_z = sum(1 for name in columns if name.startswith("z_star_"))
        n_aux = sum(1 for name in columns if name.startswith("aux_"))
        self.has_asthma = "asthma_star" in columns
        convert = np.array if copy else np.asarray
        self.ids = ids
        self.checked_ids: tuple | None = None
        self.columns = {}
        for name in column_names(n_z, n_aux, self.has_asthma):
            dtype = bool if name in FLAGS else np.float64
            if name not in columns and (name in FLAGS or is_phase2(name)):
                self.columns[name] = np.zeros(len(ids), dtype=dtype)
            else:
                self.columns[name] = convert(columns[name], dtype=dtype)
        self.n_z, self.n_aux = n_z, n_aux

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class Stratum:
    """A node of the design tree; only leaves receive new draws."""

    id: str
    frame: str
    bounds: dict[str, tuple[float, float]]
    parent: str | None = None
    population_size: int = 0
    closed: bool = False
    drawn: list[list[str]] = field(default_factory=list)  # ids drawn here, per wave
    inherited_ids: list[str] = field(default_factory=list)

    @property
    def total_sampled(self) -> int:
        return len(self.inherited_ids) + sum(map(len, self.drawn))

    def all_drawn_ids(self) -> list[str]:
        ids = list(self.inherited_ids)
        for wave_ids in self.drawn:
            ids.extend(wave_ids)
        return ids


@dataclass
class DesignLedger:
    """Strata tree plus per-wave history for one sampling frame."""

    frame: str
    strata: dict[str, Stratum]
    wave_count: int = 0
    rng_seed: int = 0
    member_flag: str | None = None  # DyadTable column marking frame membership

    def leaf_ids(self) -> list[str]:
        parents = {s.parent for s in self.strata.values() if s.parent is not None}
        return [sid for sid in self.strata if sid not in parents]

    def leaves(self) -> list[Stratum]:
        return [self.strata[sid] for sid in self.leaf_ids()]

    def member_mask(self, table: DyadTable) -> np.ndarray:
        """Which rows of ``table`` belong to this frame (all without a flag)."""
        if self.member_flag is None:
            return np.ones(len(table), dtype=bool)
        if self.member_flag not in table.columns:
            raise LedgerError(f"member flag {self.member_flag!r} is not a record column")
        return table.columns[self.member_flag].astype(bool)

    def population_size(self) -> int:
        return sum(s.population_size for s in self.leaves())

    def sampled_ids(self) -> set[str]:
        out: set[str] = set()
        for s in self.strata.values():
            for wave_ids in s.drawn:
                out.update(wave_ids)
        return out


def parse_bounds(raw: Mapping[str, Sequence[float | None]]) -> dict[str, tuple[float, float]]:
    """``{axis: (lo, hi)}`` from JSON ``{axis: [lo, hi]}`` bounds, each a number or
    None for unbounded; any other value or an empty interval raises SchemaError."""
    bounds = {}
    for axis, pair in raw.items():
        if axis not in AXES:
            raise SchemaError(f"unknown stratum axis {axis!r}; expected one of {AXES}")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(v is None or type(v) in (int, float) for v in pair)):
            raise SchemaError(f"bounds on axis {axis} must be a [lo, hi] pair of numbers "
                              f"or nulls, got {pair!r}")
        lo = NEG_INF if pair[0] is None else float(pair[0])
        hi = POS_INF if pair[1] is None else float(pair[1])
        if not lo < hi:
            raise SchemaError(f"empty interval on axis {axis}: ({lo}, {hi}]")
        bounds[axis] = (lo, hi)
    return bounds


def build_ledger(frame: str, leaf_specs: Sequence[Mapping], table: DyadTable,
                 *, rng_seed: int = 0, member_flag: str | None = None) -> DesignLedger:
    """Create a fresh ledger whose leaves must partition the frame members.

    ``leaf_specs`` is a sequence of ``{"id": ..., "bounds": {axis: [lo, hi]}}``
    with ``None`` bounds meaning unbounded.  A malformed spec raises SchemaError.
    """
    strata = {}
    for spec in leaf_specs:
        if not (isinstance(spec, Mapping) and "id" in spec
                and isinstance(spec.get("bounds"), Mapping)):
            raise SchemaError(f'leaf spec {spec!r} needs an "id" and a "bounds" object')
        sid = str(spec["id"])
        if sid in strata:
            raise SchemaError(f"duplicate stratum id {sid!r}")
        strata[sid] = Stratum(id=sid, frame=frame, bounds=parse_bounds(spec["bounds"]))
    ledger = DesignLedger(frame=frame, strata=strata, rng_seed=rng_seed,
                          member_flag=member_flag)
    _, leaves, idx = leaf_index(table, ledger)
    for leaf, count in zip(leaves, np.bincount(idx, minlength=len(leaves))):
        leaf.population_size = int(count)
    return ledger


def assign_strata_arrays(values: Mapping[str, np.ndarray], leaves: Sequence[Stratum],
                         ids: Sequence[str] | None = None) -> np.ndarray:
    """Vectorized leaf assignment.

    Returns the leaf index (into ``leaves``) per record.  ``values`` holds
    each axis the leaves bound; the records are counted by ``ids`` when
    given (aligned with the values), so leaves that bound no axis need no
    values.  Raises PartitionError if any record matches zero or multiple
    leaves, naming the first such record by its entry in ``ids`` or,
    without ``ids``, by its index.

    The leaves' bounds cut each axis at a few edges, and a record's cell
    is its interval between them on every bounded axis: on each, the
    count of edges below its value.  All records of a cell match the same
    leaves, so each leaf marks the box of cells it holds, and each record
    takes its cell's count and leaf.  ``lo < value <= hi`` holds exactly
    for the cells past ``lo``'s edge up to ``hi``'s, and a nan or -inf
    value has no edge below it, so it falls in no bounded interval, as
    the comparisons say.  A grid of more cells than the table has
    records (and than 4,096, a few tens of KB) would cost more than the
    records themselves, so each leaf then tests every record with one
    mask instead: the work and memory stay within a few arrays of the
    table's length whatever the number of leaves.
    """
    n = len(ids) if ids is not None else len(next(iter(values.values())))
    axes = list(dict.fromkeys(axis for leaf in leaves for axis in leaf.bounds))
    edges = [sorted({b for leaf in leaves for b in leaf.bounds.get(axis, ())}) for axis in axes]
    shape = tuple(len(cuts) + 1 for cuts in edges)
    if math.prod(shape) <= max(n, 4096):
        cell = np.zeros(n, dtype=np.int64)
        for axis, cuts in zip(axes, edges):
            cell *= len(cuts) + 1
            for cut in cuts:
                cell += values[axis] > cut
        place = [dict(zip(cuts, range(1, len(cuts) + 1))) for cuts in edges]
        count = np.zeros(shape, dtype=np.intp)
        leaf_of = np.full(shape, -1, dtype=np.intp)
        for j, leaf in enumerate(leaves):
            box = tuple(slice(at[b[0]], at[b[1]]) if b else slice(None)
                        for at, b in zip(place, map(leaf.bounds.get, axes)))
            count[box] += 1
            leaf_of[box] = j
        match_count, assignment = count.ravel()[cell], leaf_of.ravel()[cell]
    else:
        match_count = np.zeros(n, dtype=np.intp)
        assignment = np.full(n, -1, dtype=np.intp)
        for j, leaf in enumerate(leaves):
            mask = np.ones(n, dtype=bool)
            for axis, (lo, hi) in leaf.bounds.items():
                v = values[axis]
                mask &= (v > lo) & (v <= hi)
            match_count += mask
            assignment[mask] = j
    if np.any(match_count != 1):
        bad = int(np.flatnonzero(match_count != 1)[0])
        hits = [leaf.id for j, leaf in enumerate(leaves)
                if all(lo < values[a][bad] <= hi for a, (lo, hi) in leaf.bounds.items())]
        record = f"record index {bad}" if ids is None else f"record {ids[bad]!r}"
        raise PartitionError(
            f"{record} matches {match_count[bad]} leaves {hits}; "
            "leaf bounds must partition the variable space"
        )
    return assignment


def leaf_index(table: DyadTable,
               ledger: DesignLedger) -> tuple[np.ndarray, list[Stratum], np.ndarray]:
    """Frame-member rows, the ledger's leaves, and each member's leaf index.

    This is where record rows meet strata: ``rows`` lists the rows of
    ``table`` in the frame, ascending, and ``idx[i]`` indexes ``leaves``
    (``ledger.leaves()`` order) for row ``rows[i]``.  It is also where a
    ledger's draws meet the table: every id that a leaf counts toward its
    ``n_s`` (its ``drawn`` lists and ``inherited_ids``) must be a member
    of that leaf, counted once, or LedgerError names the id and the leaf.
    """
    rows = np.flatnonzero(ledger.member_mask(table))
    leaves = ledger.leaves()
    values = _axis_values(table, rows, leaves)
    idx = (assign_strata_arrays(values, leaves, ids=row_ids(table, rows))
           if rows.size else np.empty(0, dtype=np.intp))
    if any(s.total_sampled for s in leaves):
        _check_counted_ids(table, ledger.frame, leaves, rows, idx)
    return rows, leaves, idx


def _axis_values(table: DyadTable, rows: np.ndarray,
                 leaves: Sequence[Stratum]) -> dict[str, np.ndarray]:
    """Each axis that ``leaves`` bound, as its column of ``table`` on ``rows``;
    SchemaError names a bound axis that the table has no column for."""
    axes = dict.fromkeys(axis for leaf in leaves for axis in leaf.bounds)
    missing = [axis for axis in axes if axis not in table.columns]
    if missing:
        leaf = next(leaf for leaf in leaves if missing[0] in leaf.bounds)
        raise SchemaError(f"stratum {leaf.id!r} bounds axis {missing[0]!r}, which the "
                          "table has no column for")
    return {axis: table.columns[axis][rows] for axis in axes}


def row_ids(table: DyadTable, rows: np.ndarray) -> Sequence[str]:
    """The ids of ``rows``, ascending rows of ``table`` such as
    :func:`leaf_index` gives: the table's own list when they are all of
    its rows, so that a frame of every record costs no list."""
    return table.ids if rows.size == len(table) else [table.ids[r] for r in rows.tolist()]


def id_rows(ids: Sequence[str], wanted) -> np.ndarray:
    """The positions in ``ids``, ascending, of the ids in the set ``wanted``:
    one set lookup per id."""
    return np.flatnonzero(np.fromiter(map(wanted.__contains__, ids), dtype=bool,
                                      count=len(ids)))


def id_order(ids: Sequence[str]) -> np.ndarray:
    """Positions of ``ids`` in ascending id order, equal ids in position
    order: a stable sort on Python's string order.  One pass of pairwise
    comparisons, which stops at the first id smaller than the one before
    it, finds ids that are in order already (every table that
    ``simulate`` writes) and returns their positions unsorted."""
    ids = list(ids)
    if all(map(operator.le, ids, ids[1:])):
        return np.arange(len(ids))
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _check_counted_ids(table: DyadTable, frame: str, leaves: Sequence[Stratum],
                       rows: np.ndarray, idx: np.ndarray) -> None:
    """LedgerError unless each leaf counts only its own members, each once.

    The counted ids are found in the table by one pass over its ids, and
    each one's leaf read off the rows, -1 outside the frame.
    """
    leaf_at = np.full(len(table), -1, dtype=np.intp)
    leaf_at[rows] = idx
    found = id_rows(table.ids, {rid for s in leaves for rid in s.all_drawn_ids()})
    # In row order: of two rows with one id, the later one's leaf counts.
    leaf_of = {table.ids[r]: k for r, k in zip(found.tolist(), leaf_at[found].tolist()) if k >= 0}
    in_table = {table.ids[r] for r in found.tolist()}
    for j, s in enumerate(leaves):
        counted = s.all_drawn_ids()
        for rid in counted:
            k = leaf_of.get(rid)
            if k == j:
                continue
            if k is not None:
                where = f"a member of stratum {leaves[k].id!r}"
            elif rid in in_table:
                where = f"not a member of frame {frame!r}"
            else:
                where = "not a record of the table"
            raise LedgerError(f"stratum {s.id!r} counts record {rid!r} toward its draws, "
                              f"but {rid!r} is {where}")
        if len(set(counted)) < len(counted):
            rid = next(r for i, r in enumerate(counted) if r in counted[:i])
            raise LedgerError(f"stratum {s.id!r} counts record {rid!r} twice toward its "
                              "draws")


def assign_strata(table: DyadTable, ledger: DesignLedger) -> dict[str, str]:
    """Map each frame member's id to its unique leaf stratum id."""
    rows, leaves, idx = leaf_index(table, ledger)
    leaf_ids = [s.id for s in leaves]
    return {table.ids[r]: leaf_ids[j] for r, j in zip(rows.tolist(), idx.tolist())}


def inclusion_probabilities(counts, sizes, assignment) -> np.ndarray:
    """Per-row inclusion probability ``pi = n_s / N_s`` of each row's stratum.

    ``counts`` (draws so far, inherited ones included) and ``sizes``
    (members) are per stratum; ``assignment`` holds each row's stratum
    index and fixes the output order.  ``pi`` is the final-design
    probability of a stratified simple random sample: every member of a
    stratum gets the same value whichever wave drew it.  A stratum
    without draws gives 0; callers that need ``pi > 0`` check first.
    """
    return np.asarray(counts)[assignment] / np.asarray(sizes)[assignment]


def frame_arrays(table: DyadTable,
                 ledger: DesignLedger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame's design aligned with the rows of ``table``: pi, leaf id, sampled flag.

    ``pi`` comes from :func:`inclusion_probabilities` on the ledger's
    leaves.  Records outside the frame get ``pi = nan``, leaf id ``""``
    and ``sampled = False``.  Raises LedgerError when a member's leaf has
    no draws or more draws than members.
    """
    rows, leaves, idx = leaf_index(table, ledger)
    counts = np.array([s.total_sampled for s in leaves], dtype=np.intp)
    sizes = np.array([s.population_size for s in leaves], dtype=np.intp)
    bad = np.flatnonzero(((counts < 1) | (counts > sizes))[idx])
    if bad.size:
        s = leaves[idx[bad[0]]]
        raise LedgerError(
            f"stratum {s.id!r} records {s.total_sampled} draws for "
            f"{s.population_size} members; record {table.ids[rows[bad[0]]]!r} has no "
            "sampling probability")
    pi = np.full(len(table), np.nan)
    pi[rows] = inclusion_probabilities(counts, sizes, idx)
    labels = np.array([s.id for s in leaves] or [""], dtype=str)
    leaf = np.full(len(table), "", dtype=labels.dtype)
    leaf[rows] = labels[idx]
    sampled = np.zeros(len(table), dtype=bool)
    sampled[id_rows(table.ids, ledger.sampled_ids())] = True
    return pi, leaf, sampled


def sampling_probabilities(table: DyadTable, ledger: DesignLedger) -> dict[str, float]:
    """Id-keyed :func:`frame_arrays` probabilities of the frame members."""
    pi = frame_arrays(table, ledger)[0].tolist()
    return {table.ids[i]: pi[i] for i in np.flatnonzero(ledger.member_mask(table)).tolist()}


def split_stratum(ledger: DesignLedger, table: DyadTable, stratum_id: str,
                  axis: str, cuts: Sequence[float],
                  child_ids: Sequence[str] | None = None) -> DesignLedger:
    """Split a leaf at ``cuts`` along one axis, returning an updated ledger.

    Children partition the parent's interval.  :func:`leaf_index` finds the
    parent's members and checks the ids the leaves count; each child gets the
    members and counted ids that fall in it.  The parent keeps its own wave
    history for audit.  Bad axes, cuts or child ids raise SchemaError.
    """
    if stratum_id not in ledger.strata:
        raise LedgerError(f"unknown stratum {stratum_id!r}")
    if stratum_id not in ledger.leaf_ids():
        raise LedgerError(f"stratum {stratum_id!r} is not a leaf; only leaves can split")
    if axis not in AXES:
        raise SchemaError(f"unknown axis {axis!r}; expected one of {AXES}")
    parent = ledger.strata[stratum_id]
    lo, hi = parent.bounds.get(axis, (NEG_INF, POS_INF))
    cuts = sorted(float(c) for c in cuts)
    if len(cuts) == 0:
        raise SchemaError("at least one cut-point is required to split")
    if len(set(cuts)) != len(cuts):
        raise SchemaError("cut-points must be distinct")
    if not all(lo < c < hi for c in cuts):
        raise SchemaError(
            f"cut-points must lie strictly inside ({lo}, {hi}] on axis {axis}")

    edges = [lo, *cuts, hi]
    if child_ids is None:
        child_ids = [f"{stratum_id}.{i + 1}" for i in range(len(edges) - 1)]
    if len(set(child_ids)) != len(child_ids) or len(child_ids) != len(edges) - 1:
        raise SchemaError(f"expected {len(edges) - 1} distinct child ids, got {list(child_ids)}")

    children = []
    for cid, (clo, chi) in zip(child_ids, zip(edges[:-1], edges[1:])):
        if cid in ledger.strata:
            raise SchemaError(f"child id {cid!r} already exists")
        bounds = dict(parent.bounds)
        bounds[axis] = (clo, chi)
        children.append(Stratum(id=str(cid), frame=parent.frame, bounds=bounds,
                                parent=stratum_id,
                                drawn=[[] for _ in range(ledger.wave_count)]))

    rows, leaves, idx = leaf_index(table, ledger)
    members = rows[idx == leaves.index(parent)]
    if members.size != parent.population_size:
        raise LedgerError(
            f"rescan found {members.size} members of {stratum_id!r}, ledger says "
            f"{parent.population_size}"
        )
    member_ids = [table.ids[r] for r in members.tolist()]
    child_of = assign_strata_arrays(_axis_values(table, members, children), children,
                                    ids=member_ids)
    for child, count in zip(children, np.bincount(child_of, minlength=len(children))):
        child.population_size = int(count)
    child_by_id = dict(zip(member_ids, child_of.tolist()))
    for rid in parent.all_drawn_ids():
        children[child_by_id[rid]].inherited_ids.append(rid)
    new = copy.deepcopy(ledger)
    new.strata.update((child.id, child) for child in children)
    return new


def close_stratum(ledger: DesignLedger, stratum_id: str) -> DesignLedger:
    """Mark a stratum closed to further sampling."""
    if stratum_id not in ledger.strata:
        raise LedgerError(f"unknown stratum {stratum_id!r}")
    new = copy.deepcopy(ledger)
    new.strata[stratum_id].closed = True
    return new


def apply_draw(ledger: DesignLedger, wave: int,
               draws: Mapping[str, Sequence[str]]) -> DesignLedger:
    """Record a wave's drawn ids on the ledger, returning the updated copy.

    ``wave`` is 1-based and must be the next wave (history is append-only).
    """
    if wave != ledger.wave_count + 1:
        raise LedgerError(
            f"wave {wave} out of order; ledger has {ledger.wave_count} waves")
    leaf_ids = set(ledger.leaf_ids())
    already = ledger.sampled_ids()
    for sid, ids in draws.items():
        if sid not in leaf_ids:
            raise LedgerError(f"draw targets non-leaf stratum {sid!r}")
        dup = set(ids) & already
        if dup:
            raise LedgerError(f"records {sorted(dup)[:3]} already drawn in this frame")
        already.update(ids)
    # Each stratum gets a new ``drawn`` list; the rest of it is shared with
    # ``ledger``, which the ledger functions never change in place.
    strata = {}
    for sid, s in ledger.strata.items():
        ids = list(draws.get(sid, ()))
        if s.closed and ids:
            raise LedgerError(f"stratum {sid!r} is closed but received draws")
        s = strata[sid] = replace(s, drawn=[*s.drawn, ids])
        if s.total_sampled > s.population_size:
            raise LedgerError(
                f"stratum {sid!r}: {s.total_sampled} draws exceed N_s={s.population_size}")
    return replace(ledger, strata=strata, wave_count=wave)
