"""Stratified validation-sample allocation.

Neyman allocation targets stratum draws proportional to ``N_s * sigma_s``
where ``sigma_s`` is the within-stratum standard deviation of the
influence function for the target coefficient.  Later waves allocate the
cumulative budget, close strata that are already over their optimum, and
integerize with an exact priority algorithm that minimizes
``sum_s N_s^2 sigma_s^2 / n_s`` for the fixed sample size.

One wave of the multi-wave design is three array functions, shared by the
experiment harness (``simulate.run_design``) and the CLI (``design
allocate`` / ``design draw``): :func:`influence_sd` (per-stratum SDs),
:func:`allocate_wave` (the wave rule) and :func:`draw_within_strata` (the
draw).  :func:`stratum_sd` and :func:`draw_sample` run the first and the
last over a ledger's leaves and the rows of a ``records.DyadTable``, as
``design allocate`` and ``design draw`` need them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from twophase.errors import DegenerateDesignError, InfeasibleError, LedgerError
from twophase.records import DesignLedger, DyadTable, leaf_index

__all__ = [
    "StratumStats",
    "neyman",
    "exact_allocation",
    "multiwave",
    "MultiwaveResult",
    "allocate_wave",
    "influence_sd",
    "stratum_sd",
    "allocation_variance",
    "draw_within_strata",
    "draw_sample",
    "DrawResult",
]


@dataclass
class StratumStats:
    """Inputs to allocation for one stratum."""

    id: str
    population_size: int
    sd: float
    already_sampled: int = 0
    sd_source: str = "stratum"  # "stratum" | "parent" | "proportional"

    def __post_init__(self):
        if self.sd < 0:
            raise ValueError(f"stratum {self.id}: sd must be nonnegative")
        if not 0 <= self.already_sampled <= self.population_size:
            raise ValueError(
                f"stratum {self.id}: already_sampled must lie in [0, N_s]")


def neyman(stats: Sequence[StratumStats], n: int, *,
           proportional_fallback: bool = False) -> dict[str, float]:
    """Fractional Neyman allocation of ``n`` draws.

    Allocates proportional to ``N_s * sd_s``; strata with zero spread get
    zero.  If every stratum has zero spread, raises DegenerateDesignError
    unless ``proportional_fallback`` switches to size-proportional shares.
    """
    if n < 1:
        raise ValueError("target sample size must be at least 1")
    weights = np.array([s.population_size * s.sd for s in stats], dtype=np.float64)
    if weights.sum() <= 0:
        if not proportional_fallback:
            raise DegenerateDesignError(
                "all strata have zero influence spread; pass "
                "proportional_fallback=True to allocate by size")
        weights = np.array([s.population_size for s in stats], dtype=np.float64)
        if weights.sum() <= 0:
            raise DegenerateDesignError("no population to allocate over")
    shares = n * weights / weights.sum()
    return {s.id: float(a) for s, a in zip(stats, shares)}


def allocation_variance(stats: Sequence[StratumStats],
                        allocation: Mapping[str, int]) -> float:
    """Design-variance objective ``sum_s (N_s * sd_s)^2 / n_s``.

    Order-independent (math.fsum) so optimal values compare exactly across
    algorithms.  Strata with zero spread contribute nothing; a zero draw
    in a stratum with positive spread yields ``inf``.
    """
    terms = []
    for s in stats:
        num = (s.population_size * s.sd) ** 2
        if num == 0.0:
            continue
        n_s = allocation.get(s.id, 0)
        if n_s <= 0:
            return math.inf
        terms.append(num / n_s)
    return math.fsum(terms)


def _wright(stats: Sequence[StratumStats], total: int, floors: Sequence[int],
            caps: Sequence[int]) -> dict[str, int]:
    """Exact integer allocation by highest marginal variance reduction.

    Awards units one at a time to the stratum with the largest
    ``N_s sd_s / sqrt(m (m+1))`` priority; ties break on larger
    ``N_s sd_s``, then smaller stratum id.  Minimizes
    ``sum (N_s sd_s)^2 / m_s`` subject to the floors/caps because the
    objective is separable and convex in each ``m_s``.
    """
    floors = [int(f) for f in floors]
    caps = [int(c) for c in caps]
    if any(f > c for f, c in zip(floors, caps)):
        raise InfeasibleError("a stratum floor exceeds its capacity")
    base = sum(floors)
    if total < base:
        raise InfeasibleError(
            f"target {total} is below the {base} draws required by stratum floors")
    if total > sum(caps):
        raise InfeasibleError(
            f"target {total} exceeds the remaining population {sum(caps)}")
    alloc = list(floors)
    heap = []
    for j, s in enumerate(stats):
        nsigma = s.population_size * s.sd
        if nsigma <= 0 or alloc[j] >= caps[j]:
            continue
        m = alloc[j]
        pri = math.inf if m == 0 else nsigma / math.sqrt(m * (m + 1))
        heapq.heappush(heap, (-pri, -nsigma, s.id, j))
    remaining = total - base
    while remaining > 0 and heap:
        _, neg_nsigma, _, j = heapq.heappop(heap)
        alloc[j] += 1
        remaining -= 1
        if alloc[j] < caps[j]:
            nsigma = -neg_nsigma
            pri = nsigma / math.sqrt(alloc[j] * (alloc[j] + 1))
            heapq.heappush(heap, (-pri, neg_nsigma, stats[j].id, j))
    if remaining > 0:
        # Only zero-spread strata have room left; spread the residue there.
        for j, s in enumerate(stats):
            room = caps[j] - alloc[j]
            if room > 0:
                take = min(room, remaining)
                alloc[j] += take
                remaining -= take
                if remaining == 0:
                    break
    if remaining > 0:
        raise InfeasibleError("allocation could not place the full budget")
    return {s.id: alloc[j] for j, s in enumerate(stats)}


def exact_allocation(stats: Sequence[StratumStats], n: int,
                     min_per_stratum: int = 1) -> dict[str, int]:
    """Integer allocation summing exactly to ``n``.

    Every stratum starts at ``min_per_stratum`` (capped by its remaining
    population); the rest is awarded by the exact priority rule.  The
    result minimizes ``sum_s (N_s sd_s)^2 / n_s`` over integer allocations
    at this size.
    """
    caps = [s.population_size - s.already_sampled for s in stats]
    floors = [min(min_per_stratum, c) for c in caps]
    return _wright(stats, n, floors, caps)


@dataclass
class MultiwaveResult:
    """Wave allocation with the strata closed or capped along the way.

    ``first_wave`` marks an allocation made by :func:`exact_allocation`
    for a first wave, which closes and spills nothing itself.
    """

    draws: dict[str, int]
    closed: set[str] = field(default_factory=set)
    fractional: dict[str, float] = field(default_factory=dict)
    spilled: set[str] = field(default_factory=set)
    first_wave: bool = False

    @property
    def total(self) -> int:
        return sum(self.draws.values())


def multiwave(stats: Sequence[StratumStats], cumulative_target: int, *,
              min_per_stratum: int = 1,
              pre_closed: set[str] | frozenset[str] = frozenset()) -> MultiwaveResult:
    """Wave-k integer allocation for a cumulative budget.

    Computes the corrected Neyman allocation
    ``target * N_s sd_s / sum N_s sd_s - already_s`` over open strata;
    any stratum whose correction is negative is closed (draw 0) and the
    allocation is recomputed for the remaining budget until all open
    allocations are nonnegative.  Open draws are integerized exactly and
    capped by the remaining stratum populations; overflow spills to
    closed strata with room only when the open strata cannot absorb the
    budget.
    """
    by_id = {s.id: s for s in stats}
    if len(by_id) != len(stats):
        raise ValueError("duplicate stratum ids in stats")
    total_already = sum(s.already_sampled for s in stats)
    budget = cumulative_target - total_already
    if budget < 0:
        raise InfeasibleError(
            f"cumulative target {cumulative_target} is below the "
            f"{total_already} records already sampled")
    capacity = {s.id: s.population_size - s.already_sampled for s in stats}
    if budget > sum(capacity.values()):
        raise InfeasibleError(
            f"remaining population {sum(capacity.values())} cannot supply "
            f"a budget of {budget}")

    closed = {sid for sid in pre_closed}
    closed |= {s.id for s in stats if capacity[s.id] == 0}
    open_ids = [s.id for s in stats if s.id not in closed]

    fractional: dict[str, float] = {}
    for _ in range(len(stats) + 1):
        open_stats = [by_id[sid] for sid in open_ids]
        if not open_stats:
            break
        open_target = cumulative_target - sum(by_id[sid].already_sampled
                                              for sid in closed)
        weights = np.array([s.population_size * s.sd for s in open_stats])
        if weights.sum() <= 0:
            # Degenerate spread: keep every remaining stratum open and let
            # the integer stage fall back to size-proportional priorities.
            fractional = {s.id: math.nan for s in open_stats}
            break
        shares = open_target * weights / weights.sum()
        fractional = {
            s.id: float(share) - s.already_sampled
            for s, share in zip(open_stats, shares)
        }
        negative = [sid for sid, v in fractional.items() if v < 0]
        if not negative:
            break
        closed.update(negative)
        open_ids = [sid for sid in open_ids if sid not in negative]

    draws = {s.id: 0 for s in stats}
    if budget == 0:
        return MultiwaveResult(draws=draws, closed=closed, fractional=fractional)

    open_stats = [by_id[sid] for sid in open_ids]
    open_capacity = sum(capacity[sid] for sid in open_ids)
    spilled: set[str] = set()
    if open_capacity < budget:
        # The open strata cannot absorb the whole wave; closed strata with
        # remaining members take the overflow.
        spill_ids = sorted(sid for sid in closed if capacity[sid] > 0)
        spilled = set(spill_ids)
        open_stats = open_stats + [by_id[sid] for sid in spill_ids]

    if all(s.sd == 0 for s in open_stats):
        # Pure size-proportional emergency path.
        open_stats = [StratumStats(s.id, s.population_size, 1.0, s.already_sampled)
                      for s in open_stats]

    floors = [max(s.already_sampled, min(min_per_stratum,
                                         s.population_size))
              for s in open_stats]
    floors = [min(f, s.population_size) for f, s in zip(floors, open_stats)]
    caps = [s.population_size for s in open_stats]
    target = budget + sum(s.already_sampled for s in open_stats)
    cumulative = _wright(open_stats, target, floors, caps)
    for s in open_stats:
        draws[s.id] = cumulative[s.id] - s.already_sampled
    return MultiwaveResult(draws=draws, closed=closed, fractional=fractional,
                           spilled=spilled)


def allocate_wave(stats: Sequence[StratumStats], target: int, wave: int, *,
                  min_per_stratum: int = 1,
                  pre_closed: set[str] | frozenset[str] = frozenset()) -> MultiwaveResult:
    """The wave rule: exact allocation for a fresh first wave, multiwave after.

    Wave 1 with nothing sampled yet gets ``exact_allocation`` of
    ``target`` over the strata not in ``pre_closed``; those get 0 draws.
    Every other wave gets :func:`multiwave` for the cumulative ``target``.
    """
    if wave == 1 and all(s.already_sampled == 0 for s in stats):
        draws = {s.id: 0 for s in stats}
        draws.update(exact_allocation([s for s in stats if s.id not in pre_closed],
                                      target, min_per_stratum=min_per_stratum))
        return MultiwaveResult(draws=draws, closed=set(pre_closed), first_wave=True)
    return multiwave(stats, target, min_per_stratum=min_per_stratum,
                     pre_closed=pre_closed)


def influence_sd(h: np.ndarray, assignment: np.ndarray, ids: Sequence[str],
                 sizes: Sequence[int], already: Sequence[int], *,
                 validated: np.ndarray | None = None, shrink: float = 0.0,
                 ancestors: Sequence[Sequence[Sequence[int]]] | None = None,
                 ) -> list[StratumStats]:
    """Per-stratum influence SDs: the allocation inputs for one wave.

    Rows: ``h`` (influence), ``assignment`` (stratum index into ``ids``,
    ``sizes`` and ``already``) and ``validated`` are aligned, one entry
    per frame-member row.  Only ``validated`` rows count (all rows when
    it is None); within a stratum their values enter the SD in row
    order, so a fixed row order gives a bit-for-bit fixed result.

    A stratum with two or more values gets their sample SD (source
    ``stratum``).  ``shrink`` is a pseudo-count pulling each such
    variance toward the pooled variance of all counted rows (0: none).
    With fewer values, a stratum borrows the SD pooled over the first
    group in ``ancestors[s]`` (index lists, nearest ancestor first,
    pooled in the listed order) that holds two or more values (source
    ``parent``); failing that it takes the pooled SD (source
    ``proportional``), or 1.0 when fewer than two rows count at all.
    """
    mask = np.ones(h.size, dtype=bool) if validated is None else validated
    pooled = float(np.std(h[mask], ddof=1)) if mask.sum() >= 2 else 1.0
    per_stratum = [h[mask & (assignment == s)] for s in range(len(ids))]
    out = []
    for s, vals in enumerate(per_stratum):
        source = "stratum"
        if vals.size >= 2:
            v = float(np.var(vals, ddof=1))
            if shrink > 0:
                v = (vals.size * v + shrink * pooled ** 2) / (vals.size + shrink)
            sd = float(np.sqrt(v))
        else:
            sd, source = pooled, "proportional"
            for group in (ancestors[s] if ancestors else ()):
                pooled_vals = np.concatenate([per_stratum[j] for j in group])
                if pooled_vals.size >= 2:
                    sd, source = float(np.std(pooled_vals, ddof=1)), "parent"
                    break
        out.append(StratumStats(id=ids[s], population_size=int(sizes[s]), sd=sd,
                                already_sampled=int(already[s]), sd_source=source))
    return out


def stratum_sd(table: DyadTable, ledger: DesignLedger,
               values: np.ndarray) -> list[StratumStats]:
    """:func:`influence_sd` over a ledger's leaves and the frame rows of ``table``.

    ``values`` holds each row's influence value, aligned with ``table``;
    a row without one holds nan and does not count.  The counted values
    enter in row order.  Leaves with fewer than two values borrow from
    their ancestors' subtrees in the ledger.
    """
    rows, leaves, idx = leaf_index(table, ledger)
    h = values[rows]
    counted = ~np.isnan(h)
    index = {s.id: j for j, s in enumerate(leaves)}
    kids: dict[str | None, list[str]] = {}
    for s in ledger.strata.values():
        kids.setdefault(s.parent, []).append(s.id)

    def under(root: str) -> list[int]:  # leaves below root, depth first
        out, stack = [], [root]
        while stack:
            cur = stack.pop()
            if cur in index:
                out.append(index[cur])
            stack.extend(kids.get(cur, ()))
        return out

    def lineage(sid: str) -> list[str]:  # ancestors, nearest first
        parent = ledger.strata[sid].parent
        return [] if parent is None else [parent, *lineage(parent)]

    return influence_sd(
        h[counted], idx[counted], [s.id for s in leaves],
        [s.population_size for s in leaves], [s.total_sampled for s in leaves],
        ancestors=[[under(a) for a in lineage(s.id)] for s in leaves])


@dataclass
class DrawResult:
    """Record ids drawn per stratum in one wave."""

    wave: int
    by_stratum: dict[str, list[str]]
    overlap_ids: set[str] = field(default_factory=set)

    def all_ids(self) -> list[str]:
        return [rid for ids in self.by_stratum.values() for rid in ids]


def draw_within_strata(rng: np.random.Generator, assignment: np.ndarray,
                       ids: Sequence[str], draws: Mapping[str, int],
                       eligible: np.ndarray) -> list[np.ndarray]:
    """Stratified simple random sampling without replacement, on rows.

    Visits the strata in ``ids`` order (``assignment`` holds indices into
    ``ids``).  A stratum with ``draws[id] > 0`` takes that many of its
    ``eligible`` rows: the pool lists them in row order and one
    ``rng.choice(pool size, want, replace=False)`` call picks them, so
    the RNG is consumed stratum by stratum in ``ids`` order.  Returns the
    chosen rows per stratum, ascending (empty for a zero draw).
    """
    chosen = []
    for s, sid in enumerate(ids):
        want = int(draws.get(sid, 0))
        if want == 0:
            chosen.append(np.empty(0, dtype=np.intp))
            continue
        pool = np.flatnonzero(eligible & (assignment == s))
        if want > pool.size:
            raise InfeasibleError(
                f"stratum {sid!r}: allocation {want} exceeds the "
                f"{pool.size} remaining records")
        take = rng.choice(pool.size, size=want, replace=False)
        chosen.append(pool[np.sort(take)])
    return chosen


def draw_sample(table: DyadTable, ledger: DesignLedger,
                allocation: Mapping[str, int], seed: int, *,
                wave: int | None = None) -> DrawResult:
    """:func:`draw_within_strata` over a ledger's leaves and the rows of ``table``.

    Rows are the frame members sorted by id and strata are visited in
    leaf-id order; the RNG is ``SeedSequence([seed, wave])``.  Records
    already drawn in this frame are ineligible.  Records validated
    through the other frame remain drawable and are reported in
    ``overlap_ids`` (their validation is reused, not repeated).
    Deterministic for a given seed and ledger state.
    """
    wave = ledger.wave_count + 1 if wave is None else wave
    rows, leaves, idx = leaf_index(table, ledger)
    leaf_ids = sorted(s.id for s in leaves)
    for sid, want in sorted(allocation.items()):
        if int(want) and sid not in leaf_ids:
            raise LedgerError(f"allocation targets unknown leaf {sid!r}")
    position = {sid: k for k, sid in enumerate(leaf_ids)}
    member_ids = np.array([table.ids[r] for r in rows.tolist()], dtype=str)
    order = np.argsort(member_ids, kind="stable")
    ids = member_ids[order].tolist()
    assignment = np.array([position[s.id] for s in leaves], dtype=np.intp)[idx[order]]
    already = ledger.sampled_ids()
    eligible = np.fromiter((rid not in already for rid in ids), dtype=bool, count=len(ids))

    rng = np.random.default_rng(np.random.SeedSequence([seed, wave]))
    chosen = draw_within_strata(rng, assignment, leaf_ids, allocation, eligible)
    by_stratum = {sid: [ids[i] for i in rows]
                  for sid, rows in zip(leaf_ids, chosen) if int(allocation.get(sid, 0))}
    validated = table.columns["validated"][rows[order]]
    overlap = {ids[i] for drawn in chosen for i in drawn if validated[i]}
    return DrawResult(wave=wave, by_stratum=by_stratum, overlap_ids=overlap)
