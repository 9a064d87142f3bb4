"""Core domain types: study records, the dyad table, strata, and the design ledger.

:class:`DyadTable` is the in-memory form of ``dyads.csv``: the record ids
plus one numpy column per field, row ``i`` being record ``i``.  The CLI
reads, adapts and writes tables without building a record per row;
:class:`DyadRecord` is one row, built on demand or by hand.  Both check
their values with one rule set, :func:`first_invalid_row`.

A ledger is a tree of strata per sampling frame.  Leaves partition the
frame population on the error-prone variables ``(delta_star, y_star,
x_star)`` with half-open ``(lo, hi]`` bounds.  Splits refine leaves; wave
history stays on the stratum where sampling happened, and draws made
before a split are attributed to the new children by rescanning which
child each drawn record falls into.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from twophase.errors import LedgerError, PartitionError

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


def first_invalid_row(columns: Mapping[str, Sequence],
                      present: Mapping[str, np.ndarray | bool] | None = None,
                      ) -> tuple[int, str] | None:
    """The first row that breaks a record rule, as ``(row, rule)``, or None.

    ``columns`` are named as in :class:`DyadTable`.  Phase-2 values count
    where ``present`` says, per field (``wave_sampled``, ``y``, ``delta``,
    ``x`` and ``z`` for all ``z_<j>``); by default on the validated rows.
    The rules, in the order one row reports them: every counted value is
    finite; ``y_star > 0``; ``delta_star`` is 0 or 1; ``validated`` holds
    exactly where all phase-2 fields are present; ``wave_sampled`` is a
    whole number; ``y > 0``; ``delta`` is 0 or 1.
    """
    validated = np.asarray(columns["validated"], dtype=bool)
    if present is None:
        present = dict.fromkeys((*PHASE2_FIELDS, "z"), validated)
    names = [name for name in columns if name not in FLAGS]
    values = np.array([columns[name] for name in names], dtype=np.float64)
    value = dict(zip(names, values))
    nonfinite = ~np.isfinite(values)
    for k, name in enumerate(names):
        if is_phase2(name):
            nonfinite[k] &= present.get(name, present["z"])
    complete = present["y"] & present["delta"] & present["x"] & present["z"]
    wave, delta_star, delta = value["wave_sampled"], value["delta_star"], value["delta"]
    rules = [
        (value["y_star"] <= 0, "y_star must be positive"),
        ((delta_star != 0) & (delta_star != 1), "delta_star must be 0 or 1"),
        ((validated != complete) | (validated != present["wave_sampled"]),
         "validated flag, phase-2 fields, and wave_sampled must be present or "
         "absent together"),
        (present["wave_sampled"] & (np.floor(wave) != wave),
         "wave_sampled must be a whole number"),
        (complete & (value["y"] <= 0), "y must be positive"),
        (complete & (delta != 0) & (delta != 1), "delta must be 0 or 1"),
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


@dataclass(frozen=True)
class DyadRecord:
    """One mother-child unit with error-prone and (optionally) validated fields."""

    id: str
    y_star: float
    delta_star: int
    x_star: float
    z_star: tuple[float, ...] = ()
    aux: tuple[float, ...] = ()
    in_asthma_frame: bool = False
    validated: bool = False
    wave_sampled: int | None = None
    y: float | None = None
    delta: int | None = None
    x: float | None = None
    z: tuple[float, ...] | None = None

    def __post_init__(self):
        phase2 = {"wave_sampled": self.wave_sampled, "y": self.y, "delta": self.delta,
                  "x": self.x}
        columns = {"y_star": [self.y_star], "delta_star": [self.delta_star],
                   "x_star": [self.x_star],
                   **{f"z_star_{j}": [v] for j, v in enumerate(self.z_star)},
                   **{f"aux_{j}": [v] for j, v in enumerate(self.aux)},
                   "validated": [self.validated],
                   **{name: [0 if v is None else v] for name, v in phase2.items()},
                   **{f"z_{j}": [v] for j, v in enumerate(self.z or ())}}
        present = {name: v is not None for name, v in phase2.items()}
        present["z"] = self.z is not None
        bad = first_invalid_row(columns, present)
        if bad is not None:
            raise ValueError(f"record {self.id}: {bad[1]}")

    def with_validation(self, wave: int, y: float, delta: int, x: float,
                        z: tuple[float, ...]) -> "DyadRecord":
        """Return a copy carrying phase-2 values from wave ``wave``."""
        return replace(self, validated=True, wave_sampled=wave,
                       y=y, delta=delta, x=x, z=tuple(z))


def column_names(n_z: int, n_aux: int) -> list[str]:
    """:class:`DyadTable` columns in ``dyads.csv`` order (after ``id``)."""
    return (["y_star", "delta_star", "x_star"]
            + [f"z_star_{j}" for j in range(n_z)]
            + [f"aux_{j}" for j in range(n_aux)]
            + [*FLAGS, *PHASE2_FIELDS]
            + [f"z_{j}" for j in range(n_z)])


class DyadTable(Sequence[DyadRecord]):
    """Records as an id list plus named numpy columns; row ``i`` is record ``i``.

    Columns (see :func:`column_names`): float ``y_star``, ``delta_star``,
    ``x_star``, ``z_star_<j>`` and ``aux_<j>``; boolean ``in_asthma_frame``
    and ``validated``; float phase-2 ``wave_sampled``, ``y``, ``delta``,
    ``x`` and ``z_<j>``, which hold the validated values and 0 on the
    other rows.  Integer fields are stored as whole floats.  As a
    ``Sequence[DyadRecord]``, indexing and iteration build records on
    demand, and a table equals a sequence of equal records.
    """

    def __init__(self, ids: list[str], columns: Mapping[str, np.ndarray]):
        n_z = sum(1 for name in columns if name.startswith("z_star_"))
        n_aux = sum(1 for name in columns if name.startswith("aux_"))
        self.ids = ids
        self.columns = {name: columns[name] for name in column_names(n_z, n_aux)}
        self.n_z, self.n_aux = n_z, n_aux

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        rid, c = self.ids[i], self.columns
        phase2 = {}
        if c["validated"][i]:
            phase2 = dict(wave_sampled=int(c["wave_sampled"][i]), y=float(c["y"][i]),
                          delta=int(c["delta"][i]), x=float(c["x"][i]),
                          z=tuple(float(c[f"z_{j}"][i]) for j in range(self.n_z)))
        return DyadRecord(
            id=rid, y_star=float(c["y_star"][i]), delta_star=int(c["delta_star"][i]),
            x_star=float(c["x_star"][i]),
            z_star=tuple(float(c[f"z_star_{j}"][i]) for j in range(self.n_z)),
            aux=tuple(float(c[f"aux_{j}"][i]) for j in range(self.n_aux)),
            in_asthma_frame=bool(c["in_asthma_frame"][i]), validated=bool(c["validated"][i]),
            **phase2)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


def as_table(records: Sequence[DyadRecord]) -> DyadTable:
    """``records`` as a :class:`DyadTable`; a table is returned unchanged.

    Every record must carry as many ``z_star`` values as the first, as
    many ``aux`` values, and, when validated, as many ``z`` values.
    """
    if isinstance(records, DyadTable):
        return records
    records = list(records)
    n_z = len(records[0].z_star) if records else 0
    n_aux = len(records[0].aux) if records else 0
    if any(len(r.z_star) != n_z or len(r.aux) != n_aux or (r.validated and len(r.z) != n_z)
           for r in records):
        raise ValueError(f"records must all carry {n_z} z_star, {n_aux} aux and, "
                         f"when validated, {n_z} z values")

    def column(value, dtype=np.float64):
        return np.fromiter(map(value, records), dtype=dtype, count=len(records))

    columns = {"in_asthma_frame": column(lambda r: r.in_asthma_frame, bool),
               "validated": column(lambda r: r.validated, bool)}
    for name in ("y_star", "delta_star", "x_star"):
        columns[name] = column(lambda r: getattr(r, name))
    for name in PHASE2_FIELDS:
        columns[name] = column(lambda r: getattr(r, name) if r.validated else 0.0)
    for j in range(n_z):
        columns[f"z_star_{j}"] = column(lambda r: r.z_star[j])
        columns[f"z_{j}"] = column(lambda r: r.z[j] if r.validated else 0.0)
    for j in range(n_aux):
        columns[f"aux_{j}"] = column(lambda r: r.aux[j])
    return DyadTable([r.id for r in records], columns)


@dataclass
class Stratum:
    """A node of the design tree; only leaves receive new draws."""

    id: str
    frame: str
    bounds: dict[str, tuple[float, float]]
    parent: str | None = None
    population_size: int = 0
    sampled_per_wave: list[int] = field(default_factory=list)
    closed: bool = False
    drawn: list[list[str]] = field(default_factory=list)
    inherited_ids: list[str] = field(default_factory=list)

    @property
    def total_sampled(self) -> int:
        return len(self.inherited_ids) + sum(self.sampled_per_wave)

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
    for axis, (lo, hi) in raw.items():
        if axis not in AXES:
            raise ValueError(f"unknown stratum axis {axis!r}; expected one of {AXES}")
        lo = NEG_INF if lo is None else float(lo)
        hi = POS_INF if hi is None else float(hi)
        if not lo < hi:
            raise ValueError(f"empty interval on axis {axis}: ({lo}, {hi}]")
        bounds[axis] = (lo, hi)
    return bounds


def build_ledger(frame: str, leaf_specs: Sequence[Mapping], records: Sequence[DyadRecord],
                 *, rng_seed: int = 0, member_flag: str | None = None) -> DesignLedger:
    """Create a fresh ledger whose leaves must partition the frame members.

    ``leaf_specs`` is a sequence of ``{"id": ..., "bounds": {axis: [lo, hi]}}``
    with ``None`` bounds meaning unbounded.
    """
    strata = {}
    for spec in leaf_specs:
        sid = str(spec["id"])
        if sid in strata:
            raise ValueError(f"duplicate stratum id {sid!r}")
        strata[sid] = Stratum(id=sid, frame=frame, bounds=_as_bounds(spec["bounds"]))
    ledger = DesignLedger(frame=frame, strata=strata, rng_seed=rng_seed,
                          member_flag=member_flag)
    _, leaves, idx = leaf_index(as_table(records), ledger)
    for leaf, count in zip(leaves, np.bincount(idx, minlength=len(leaves))):
        leaf.population_size = int(count)
    return ledger


def assign_strata_arrays(values: Mapping[str, np.ndarray],
                         leaves: Sequence[Stratum]) -> np.ndarray:
    """Vectorized leaf assignment.

    Returns the leaf index (into ``leaves``) per record.  Raises
    PartitionError if any record matches zero or multiple leaves.
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
        raise PartitionError(
            f"record index {bad} matches {match_count[bad]} leaves {hits}; "
            "leaf bounds must partition the variable space"
        )
    return assignment


def leaf_index(table: DyadTable,
               ledger: DesignLedger) -> tuple[np.ndarray, list[Stratum], np.ndarray]:
    """Frame-member rows, the ledger's leaves, and each member's leaf index.

    This is where record rows meet strata: ``rows`` lists the rows of
    ``table`` in the frame, ascending, and ``idx[i]`` indexes ``leaves``
    (``ledger.leaves()`` order) for row ``rows[i]``.
    """
    rows = np.flatnonzero(ledger.member_mask(table))
    leaves = ledger.leaves()
    if not rows.size:
        return rows, leaves, np.empty(0, dtype=np.intp)
    try:
        idx = assign_strata_arrays({axis: table.columns[axis][rows] for axis in AXES},
                                   leaves)
    except PartitionError as exc:
        # Re-raise with the record id for easier debugging.
        msg = str(exc)
        if msg.startswith("record index "):
            bad = int(msg.split()[2])
            raise PartitionError(msg.replace(f"record index {bad}",
                                             f"record {table.ids[rows[bad]]!r}")) from None
        raise
    return rows, leaves, idx


def assign_strata(records: Sequence[DyadRecord], ledger: DesignLedger) -> dict[str, str]:
    """Map each frame member's id to its unique leaf stratum id."""
    table = as_table(records)
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


def frame_arrays(records: Sequence[DyadRecord],
                 ledger: DesignLedger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame's design aligned with ``records``: pi, leaf id, sampled flag.

    ``pi`` comes from :func:`inclusion_probabilities` on the ledger's
    leaves.  Records outside the frame get ``pi = nan``, leaf id ``""``
    and ``sampled = False``.  Raises LedgerError when a member's leaf has
    no draws or more draws than members.
    """
    table = as_table(records)
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


def sampling_probabilities(records: Sequence[DyadRecord],
                           ledger: DesignLedger) -> dict[str, float]:
    """Id-keyed :func:`frame_arrays` probabilities of the frame members."""
    table = as_table(records)
    pi = frame_arrays(table, ledger)[0].tolist()
    return {table.ids[i]: pi[i] for i in np.flatnonzero(ledger.member_mask(table)).tolist()}


def _within(values: Mapping[str, np.ndarray], bounds: Mapping[str, tuple[float, float]],
            n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for axis, (lo, hi) in bounds.items():
        mask &= (values[axis] > lo) & (values[axis] <= hi)
    return mask


def split_stratum(ledger: DesignLedger, records: Sequence[DyadRecord], stratum_id: str,
                  axis: str, cuts: Sequence[float],
                  child_ids: Sequence[str] | None = None) -> DesignLedger:
    """Split a leaf at ``cuts`` along one axis, returning an updated ledger.

    Children partition the parent's interval; their population counts and
    inherited draws come from rescanning the records.  The parent keeps
    its own wave history for audit.
    """
    if stratum_id not in ledger.strata:
        raise LedgerError(f"unknown stratum {stratum_id!r}")
    if stratum_id not in ledger.leaf_ids():
        raise LedgerError(f"stratum {stratum_id!r} is not a leaf; only leaves can split")
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    parent = ledger.strata[stratum_id]
    lo, hi = parent.bounds.get(axis, (NEG_INF, POS_INF))
    cuts = sorted(float(c) for c in cuts)
    if len(cuts) == 0:
        raise ValueError("at least one cut-point is required to split")
    if len(set(cuts)) != len(cuts):
        raise ValueError("cut-points must be distinct")
    if not all(lo < c < hi for c in cuts):
        raise ValueError(
            f"cut-points must lie strictly inside ({lo}, {hi}] on axis {axis}")

    edges = [lo, *cuts, hi]
    if child_ids is None:
        child_ids = [f"{stratum_id}.{i + 1}" for i in range(len(edges) - 1)]
    if len(child_ids) != len(edges) - 1:
        raise ValueError(f"expected {len(edges) - 1} child ids, got {len(child_ids)}")

    new = copy.deepcopy(ledger)
    children = []
    for cid, (clo, chi) in zip(child_ids, zip(edges[:-1], edges[1:])):
        if cid in new.strata:
            raise ValueError(f"child id {cid!r} already exists")
        bounds = dict(parent.bounds)
        bounds[axis] = (clo, chi)
        child = Stratum(id=str(cid), frame=parent.frame, bounds=bounds,
                        parent=stratum_id,
                        sampled_per_wave=[0] * new.wave_count,
                        drawn=[[] for _ in range(new.wave_count)])
        children.append(child)

    table = as_table(records)
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
        s.sampled_per_wave.append(len(ids))
        s.drawn.append(ids)
        if s.total_sampled > s.population_size:
            raise LedgerError(
                f"stratum {sid!r}: {s.total_sampled} draws exceed N_s={s.population_size}")
    new.wave_count += 1
    return new
