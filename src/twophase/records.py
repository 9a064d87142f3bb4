"""Core domain types: the dyad table, strata, and the design ledger.

:class:`DyadTable` is the in-memory form of ``dyads.csv`` and the one
representation of a dyad: the record ids plus one numpy column per
field, row ``i`` being record ``i``.  Every path that builds or changes a
table checks it with one rule set, :func:`first_invalid_row`.

A ledger is a tree of strata per sampling frame.  Leaves partition the
frame population on the error-prone variables ``(delta_star, y_star,
x_star)`` with half-open ``(lo, hi]`` bounds.  Splits refine leaves; wave
history stays on the stratum where sampling happened, and draws made
before a split are attributed to the new children by rescanning which
child each drawn record falls into.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from twophase.errors import LedgerError, PartitionError, SchemaError

AXES = ("delta_star", "y_star", "x_star")

NEG_INF = float("-inf")
POS_INF = float("inf")

# Phase-2 fields besides the ``z_<j>`` columns; they hold values on validated rows only.
PHASE2_FIELDS = ("wave_sampled", "y", "delta", "x")
FLAGS = ("in_asthma_frame", "validated")
INTEGER_FIELDS = ("delta_star", "wave_sampled", "delta")


def is_phase2(name: str) -> bool:
    """Whether column ``name`` holds a phase-2 (validated) value."""
    return name in PHASE2_FIELDS or (name.startswith("z_") and not name.startswith("z_star_"))


def phase1_name(name: str) -> str:
    """The phase-1 stand-in for column ``name``: ``z_star_<j>`` for ``z_<j>``, else ``<name>_star``."""
    return f"z_star_{name[2:]}" if name.startswith("z_") else f"{name}_star"


def first_invalid_row(columns: Mapping[str, Sequence]) -> tuple[int, str] | None:
    """The first row that breaks a record rule, as ``(row, rule)``, or None.

    ``columns`` are named as in :class:`DyadTable`; phase-2 values count
    on the validated rows only.  The rules, in the order one row reports
    them: every counted value is finite; ``y_star > 0``; ``delta_star``
    is 0 or 1; ``wave_sampled`` is a whole number; ``y > 0``; ``delta``
    is 0 or 1.
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


def column_names(n_z: int, n_aux: int) -> list[str]:
    """:class:`DyadTable` columns in ``dyads.csv`` order (after ``id``)."""
    return (["y_star", "delta_star", "x_star"]
            + [f"z_star_{j}" for j in range(n_z)]
            + [f"aux_{j}" for j in range(n_aux)]
            + [*FLAGS, *PHASE2_FIELDS]
            + [f"z_{j}" for j in range(n_z)])


class DyadTable:
    """Records as an id list plus named numpy columns; row ``i`` is record ``i``.

    Columns (see :func:`column_names`): float ``y_star``, ``delta_star``,
    ``x_star``, ``z_star_<j>`` and ``aux_<j>``; boolean ``in_asthma_frame``
    and ``validated``; float phase-2 ``wave_sampled``, ``y``, ``delta``,
    ``x`` and ``z_<j>``, which hold the validated values and 0 on the
    other rows.  Integer fields are stored as whole floats.  The table
    holds its own copy of each column; absent flag and phase-2 columns
    are filled with False and 0.
    """

    def __init__(self, ids: list[str], columns: Mapping[str, Sequence]):
        n_z = sum(1 for name in columns if name.startswith("z_star_"))
        n_aux = sum(1 for name in columns if name.startswith("aux_"))
        self.ids = ids
        self.columns = {}
        for name in column_names(n_z, n_aux):
            dtype = bool if name in FLAGS else np.float64
            if name not in columns and (name in FLAGS or is_phase2(name)):
                self.columns[name] = np.zeros(len(ids), dtype=dtype)
            else:
                self.columns[name] = np.array(columns[name], dtype=dtype)
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


def _as_bounds(raw: Mapping[str, Sequence[float | None]]) -> dict[str, tuple[float, float]]:
    bounds = {}
    for axis, pair in raw.items():
        if axis not in AXES:
            raise SchemaError(f"unknown stratum axis {axis!r}; expected one of {AXES}")
        try:
            lo, hi = pair
            lo = NEG_INF if lo is None else float(lo)
            hi = POS_INF if hi is None else float(hi)
        except (TypeError, ValueError):
            raise SchemaError(f"bounds on axis {axis} must be a [lo, hi] pair of numbers "
                              f"or nulls, got {pair!r}") from None
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
        strata[sid] = Stratum(id=sid, frame=frame, bounds=_as_bounds(spec["bounds"]))
    ledger = DesignLedger(frame=frame, strata=strata, rng_seed=rng_seed,
                          member_flag=member_flag)
    _, leaves, idx = leaf_index(table, ledger)
    for leaf, count in zip(leaves, np.bincount(idx, minlength=len(leaves))):
        leaf.population_size = int(count)
    return ledger


def assign_strata_arrays(values: Mapping[str, np.ndarray], leaves: Sequence[Stratum],
                         ids: Sequence[str] | None = None) -> np.ndarray:
    """Vectorized leaf assignment.

    Returns the leaf index (into ``leaves``) per record.  Raises
    PartitionError if any record matches zero or multiple leaves, naming
    the first such record by its entry in ``ids`` (aligned with the
    values) or, without ``ids``, by its index.
    """
    n = len(next(iter(values.values())))
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
    member_ids = [table.ids[r] for r in rows.tolist()]
    idx = (assign_strata_arrays({axis: table.columns[axis][rows] for axis in AXES}, leaves,
                                ids=member_ids)
           if rows.size else np.empty(0, dtype=np.intp))
    if any(s.total_sampled for s in leaves):
        _check_counted_ids(table, ledger.frame, leaves, member_ids, idx)
    return rows, leaves, idx


def _check_counted_ids(table: DyadTable, frame: str, leaves: Sequence[Stratum],
                       member_ids: list[str], idx: np.ndarray) -> None:
    """LedgerError unless each leaf counts only its own members, each once."""
    leaf_of = dict(zip(member_ids, idx.tolist()))
    for j, s in enumerate(leaves):
        counted = s.all_drawn_ids()
        for rid in counted:
            k = leaf_of.get(rid)
            if k == j:
                continue
            if k is not None:
                where = f"a member of stratum {leaves[k].id!r}"
            elif rid in table.ids:
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
    leaf = np.full(len(table), "", dtype=object)
    leaf[rows] = np.array([s.id for s in leaves], dtype=object)[idx]
    drawn = ledger.sampled_ids()
    sampled = np.fromiter((rid in drawn for rid in table.ids), dtype=bool, count=len(table))
    return pi, leaf.astype(str), sampled


def sampling_probabilities(table: DyadTable, ledger: DesignLedger) -> dict[str, float]:
    """Id-keyed :func:`frame_arrays` probabilities of the frame members."""
    pi = frame_arrays(table, ledger)[0].tolist()
    return {table.ids[i]: pi[i] for i in np.flatnonzero(ledger.member_mask(table)).tolist()}


def _within(values: Mapping[str, np.ndarray], bounds: Mapping[str, tuple[float, float]],
            n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for axis, (lo, hi) in bounds.items():
        mask &= (values[axis] > lo) & (values[axis] <= hi)
    return mask


def split_stratum(ledger: DesignLedger, table: DyadTable, stratum_id: str,
                  axis: str, cuts: Sequence[float],
                  child_ids: Sequence[str] | None = None) -> DesignLedger:
    """Split a leaf at ``cuts`` along one axis, returning an updated ledger.

    Children partition the parent's interval; their population counts and
    inherited draws come from rescanning the table's rows.  The parent keeps
    its own wave history for audit.  Bad axes, cuts or child ids raise SchemaError.
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

    new = copy.deepcopy(ledger)
    children = []
    for cid, (clo, chi) in zip(child_ids, zip(edges[:-1], edges[1:])):
        if cid in new.strata:
            raise SchemaError(f"child id {cid!r} already exists")
        bounds = dict(parent.bounds)
        bounds[axis] = (clo, chi)
        child = Stratum(id=str(cid), frame=parent.frame, bounds=bounds,
                        parent=stratum_id, drawn=[[] for _ in range(new.wave_count)])
        children.append(child)

    n = len(table)
    values = {a: table.columns[a] for a in AXES}
    inside = new.member_mask(table) & _within(values, parent.bounds, n)
    in_child = np.array([_within(values, c.bounds, n) for c in children])
    hits = in_child.sum(axis=0)
    bad = np.flatnonzero(inside & (hits != 1))
    if bad.size:
        raise PartitionError(f"record {table.ids[bad[0]]!r} falls in {hits[bad[0]]} "
                             f"children of {stratum_id!r}")
    for child, mask in zip(children, in_child):
        child.population_size += int(np.count_nonzero(mask & inside))
    pop = int(np.count_nonzero(inside))
    if pop != parent.population_size:
        raise LedgerError(
            f"rescan found {pop} members of {stratum_id!r}, ledger says "
            f"{parent.population_size}"
        )
    drawn_ids = new.strata[stratum_id].all_drawn_ids()
    row_of = {rid: i for i, rid in enumerate(table.ids)} if drawn_ids else {}
    for rid in drawn_ids:
        row = row_of.get(rid)
        if row is None:
            raise LedgerError(f"drawn record {rid!r} missing from the record set")
        if hits[row] != 1:
            raise PartitionError(
                f"drawn record {rid!r} falls in {hits[row]} children of {stratum_id!r}")
        children[int(np.argmax(in_child[:, row]))].inherited_ids.append(rid)
    for child in children:
        if child.total_sampled > child.population_size:
            raise LedgerError(
                f"child {child.id!r} inherits more draws than members")
        new.strata[child.id] = child
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
    new = copy.deepcopy(ledger)
    leaf_ids = set(new.leaf_ids())
    already = new.sampled_ids()
    for sid, ids in draws.items():
        if sid not in leaf_ids:
            raise LedgerError(f"draw targets non-leaf stratum {sid!r}")
        dup = set(ids) & already
        if dup:
            raise LedgerError(f"records {sorted(dup)[:3]} already drawn in this frame")
        already.update(ids)
    for sid in new.strata:
        s = new.strata[sid]
        ids = list(draws.get(sid, ()))
        if s.closed and ids:
            raise LedgerError(f"stratum {sid!r} is closed but received draws")
        s.drawn.append(ids)
        if s.total_sampled > s.population_size:
            raise LedgerError(
                f"stratum {sid!r}: {s.total_sampled} draws exceed N_s={s.population_size}")
    new.wave_count += 1
    return new
