"""Core domain types: study records, strata, and the multi-wave design ledger.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from twophase.errors import LedgerError, PartitionError

AXES = ("delta_star", "y_star", "x_star")

NEG_INF = float("-inf")
POS_INF = float("inf")


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
        if self.y_star <= 0:
            raise ValueError(f"record {self.id}: y_star must be positive")
        if self.delta_star not in (0, 1):
            raise ValueError(f"record {self.id}: delta_star must be 0 or 1")
        phase2 = (self.y, self.delta, self.x, self.z)
        complete = all(v is not None for v in phase2)
        if self.validated != complete or self.validated != (self.wave_sampled is not None):
            raise ValueError(
                f"record {self.id}: validated flag, phase-2 fields, and "
                "wave_sampled must be present or absent together"
            )
        if complete:
            if self.y <= 0:
                raise ValueError(f"record {self.id}: y must be positive")
            if self.delta not in (0, 1):
                raise ValueError(f"record {self.id}: delta must be 0 or 1")

    def with_validation(self, wave: int, y: float, delta: int, x: float,
                        z: tuple[float, ...]) -> "DyadRecord":
        """Return a copy carrying phase-2 values from wave ``wave``."""
        return replace(self, validated=True, wave_sampled=wave,
                       y=y, delta=delta, x=x, z=tuple(z))


def to_columns(records: Sequence[DyadRecord]) -> dict[str, np.ndarray]:
    """Records as named columns; row ``i`` is ``records[i]``.

    Phase-1 columns are ``y_star``, ``delta_star``, ``x_star`` and
    ``z_star_<j>``; phase-2 columns ``y``, ``delta``, ``x`` and ``z_<j>``
    hold the validated values and 0 on the other rows.  The boolean
    ``validated`` and ``in_asthma_frame`` columns flag the rows.
    """
    n_z = len(records[0].z_star) if records else 0

    def column(value, dtype=np.float64):
        return np.fromiter(map(value, records), dtype=dtype, count=len(records))

    cols = {}
    for name in ("y", "delta", "x"):
        cols[f"{name}_star"] = column(lambda r: getattr(r, f"{name}_star"))
        cols[name] = column(lambda r: getattr(r, name) if r.validated else 0.0)
    for j in range(n_z):
        cols[f"z_star_{j}"] = column(lambda r: r.z_star[j])
        cols[f"z_{j}"] = column(lambda r: r.z[j] if r.validated else 0.0)
    cols["validated"] = column(lambda r: r.validated, bool)
    cols["in_asthma_frame"] = column(lambda r: r.in_asthma_frame, bool)
    return cols


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

    def contains(self, record: DyadRecord) -> bool:
        for axis, (lo, hi) in self.bounds.items():
            v = float(getattr(record, axis))
            if not (lo < v <= hi):
                return False
        return True

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
    member_flag: str | None = None  # record attribute marking frame membership

    def leaf_ids(self) -> list[str]:
        parents = {s.parent for s in self.strata.values() if s.parent is not None}
        return [sid for sid in self.strata if sid not in parents]

    def leaves(self) -> list[Stratum]:
        return [self.strata[sid] for sid in self.leaf_ids()]

    def is_member(self, record: DyadRecord) -> bool:
        if self.member_flag is None:
            return True
        return bool(getattr(record, self.member_flag))

    def members(self, records: Iterable[DyadRecord]) -> list[DyadRecord]:
        return [r for r in records if self.is_member(r)]

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
    _, leaves, idx = leaf_index(records, ledger)
    for leaf, count in zip(leaves, np.bincount(idx, minlength=len(leaves))):
        leaf.population_size = int(count)
    return ledger


def _axis_values(records: Sequence[DyadRecord]) -> dict[str, np.ndarray]:
    return {
        "delta_star": np.array([r.delta_star for r in records], dtype=np.float64),
        "y_star": np.array([r.y_star for r in records], dtype=np.float64),
        "x_star": np.array([r.x_star for r in records], dtype=np.float64),
    }


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


def leaf_index(records: Sequence[DyadRecord],
               ledger: DesignLedger) -> tuple[list[DyadRecord], list[Stratum], np.ndarray]:
    """Frame members, the ledger's leaves, and each member's leaf index.

    This is where record ids meet rows: row ``i`` is ``members[i]`` (the
    frame members in ``records`` order) and ``idx[i]`` indexes
    ``leaves`` (``ledger.leaves()`` order).
    """
    members = ledger.members(records)
    leaves = ledger.leaves()
    if not members:
        return members, leaves, np.empty(0, dtype=np.intp)
    try:
        idx = assign_strata_arrays(_axis_values(members), leaves)
    except PartitionError as exc:
        # Re-raise with the record id for easier debugging.
        msg = str(exc)
        if msg.startswith("record index "):
            bad = int(msg.split()[2])
            raise PartitionError(msg.replace(f"record index {bad}",
                                             f"record {members[bad].id!r}")) from None
        raise
    return members, leaves, idx


def assign_strata(records: Sequence[DyadRecord], ledger: DesignLedger) -> dict[str, str]:
    """Map each frame member's id to its unique leaf stratum id."""
    members, leaves, idx = leaf_index(records, ledger)
    return {rec.id: leaves[j].id for rec, j in zip(members, idx)}


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


def sampling_probability(record: DyadRecord, ledger: DesignLedger) -> float:
    """Final-design inclusion probability ``n_s / N_s`` for the record's leaf."""
    if not ledger.is_member(record):
        raise LedgerError(f"record {record.id!r} is not a member of frame {ledger.frame!r}")
    return sampling_probabilities([record], ledger)[record.id]


def frame_arrays(records: Sequence[DyadRecord],
                 ledger: DesignLedger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame's design aligned with ``records``: pi, leaf id, sampled flag.

    ``pi`` comes from :func:`inclusion_probabilities` on the ledger's
    leaves.  Records outside the frame get ``pi = nan``, leaf id ``""``
    and ``sampled = False``.  Raises LedgerError when a member's leaf has
    no draws or more draws than members.
    """
    members, leaves, idx = leaf_index(records, ledger)
    counts = np.array([s.total_sampled for s in leaves], dtype=np.intp)
    sizes = np.array([s.population_size for s in leaves], dtype=np.intp)
    bad = np.flatnonzero(((counts < 1) | (counts > sizes))[idx])
    if bad.size:
        s = leaves[idx[bad[0]]]
        raise LedgerError(
            f"stratum {s.id!r} records {s.total_sampled} draws for "
            f"{s.population_size} members; record {members[bad[0]].id!r} has no "
            "sampling probability")
    member = np.array([ledger.is_member(r) for r in records], dtype=bool)
    pi = np.full(len(records), np.nan)
    pi[member] = inclusion_probabilities(counts, sizes, idx)
    leaf = np.full(len(records), "", dtype=object)
    leaf[member] = [leaves[j].id for j in idx]
    drawn = ledger.sampled_ids()
    sampled = np.array([r.id in drawn for r in records], dtype=bool)
    return pi, leaf.astype(str), sampled


def sampling_probabilities(records: Sequence[DyadRecord],
                           ledger: DesignLedger) -> dict[str, float]:
    """Id-keyed :func:`frame_arrays` probabilities of the frame members."""
    pi = frame_arrays(records, ledger)[0]
    return {r.id: p for r, p in zip(records, pi.tolist()) if ledger.is_member(r)}


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

    by_id = {r.id: r for r in records}
    drawn_ids = new.strata[stratum_id].all_drawn_ids()
    pop = 0
    for rec in records:
        if not new.is_member(rec):
            continue
        if not parent.contains(rec):
            continue
        pop += 1
        hits = [c for c in children if c.contains(rec)]
        if len(hits) != 1:
            raise PartitionError(
                f"record {rec.id!r} falls in {len(hits)} children of {stratum_id!r}")
        hits[0].population_size += 1
    if pop != parent.population_size:
        raise LedgerError(
            f"rescan found {pop} members of {stratum_id!r}, ledger says "
            f"{parent.population_size}"
        )
    for rid in drawn_ids:
        rec = by_id.get(rid)
        if rec is None:
            raise LedgerError(f"drawn record {rid!r} missing from the record set")
        hits = [c for c in children if c.contains(rec)]
        if len(hits) != 1:
            raise PartitionError(
                f"drawn record {rid!r} falls in {len(hits)} children of {stratum_id!r}")
        hits[0].inherited_ids.append(rid)
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
