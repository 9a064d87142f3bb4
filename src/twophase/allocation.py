"""Stratified validation-sample allocation.

Neyman allocation targets stratum draws proportional to ``N_s * sigma_s``
where ``sigma_s`` is the within-stratum standard deviation of the
influence function for the target coefficient.  One rule allocates every
wave, the first included: :func:`multiwave` allocates the cumulative
budget net of the records already sampled, closes strata that are
already over their share, and integerizes with :func:`exact_allocation`,
an exact priority algorithm that minimizes ``sum_s N_s^2 sigma_s^2 /
n_s`` for the fixed sample size.  A first wave is the case where nothing
is sampled yet.

One wave of the multi-wave design is three array functions, shared by the
experiment harness (``simulate.run_design``) and the CLI (``design
allocate`` / ``design draw``): :func:`influence_sd` (per-stratum SDs),
:func:`multiwave` (the wave rule) and :func:`draw_within_strata` (the
draw).  :func:`stratum_sd` and :func:`draw_sample` run the first and the
last over a ledger's leaves and the rows of a ``records.DyadTable``, as
``design allocate`` and ``design draw`` need them.

The SDs must come from influence values of every frame member.  An
influence file with values for the validated records only leaves about
ten values per stratum after a first wave, and allocates badly: over ten
simulated populations, four waves on such SDs came to 1.198 times the
variance objective of the optimal allocation, against 1.035 for four
waves on the multiply-imputed influence of every member and 1.029 for one
wave on the phase-1 influence.  For a later wave, allocate on the file
that ``estimate --method raking --aux mi --emit-mi-influence`` writes.
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
    "exact_allocation",
    "multiwave",
    "MultiwaveResult",
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


def exact_allocation(stats: Sequence[StratumStats], n: int,
                     min_per_stratum: int = 1) -> dict[str, int]:
    """The wave rule's integer stage: cumulative totals summing exactly to ``n``.

    Each stratum holds at least ``max(already_s, min(min_per_stratum,
    N_s))`` and at most ``N_s``.  The rest of ``n`` goes one unit at a
    time to the stratum with the largest ``N_s sd_s / sqrt(m (m+1))``
    priority, ``m`` its total so far; ties break on larger ``N_s sd_s``,
    then smaller stratum id.  The objective is separable and convex in
    each ``m_s``, so the result minimizes ``sum_s (N_s sd_s)^2 / m_s``
    within those bounds.  Units left once every stratum with spread is
    full fill the zero-spread strata with room, in list order.  With
    nothing sampled yet the totals are the wave's draws.
    """
    floors = [max(s.already_sampled, min(min_per_stratum, s.population_size))
              for s in stats]
    caps = [s.population_size for s in stats]
    base = sum(floors)
    if n < base:
        raise InfeasibleError(
            f"target {n} is below the {base} draws required by stratum floors")
    if n > sum(caps):
        raise InfeasibleError(
            f"target {n} exceeds the population {sum(caps)} of the strata")
    alloc = list(floors)
    heap = []
    for j, s in enumerate(stats):
        nsigma = s.population_size * s.sd
        if nsigma <= 0 or alloc[j] >= caps[j]:
            continue
        m = alloc[j]
        pri = math.inf if m == 0 else nsigma / math.sqrt(m * (m + 1))
        heapq.heappush(heap, (-pri, -nsigma, s.id, j))
    remaining = n - base
    while remaining > 0 and heap:
        _, neg_nsigma, _, j = heapq.heappop(heap)
        alloc[j] += 1
        remaining -= 1
        if alloc[j] < caps[j]:
            nsigma = -neg_nsigma
            pri = nsigma / math.sqrt(alloc[j] * (alloc[j] + 1))
            heapq.heappush(heap, (-pri, neg_nsigma, stats[j].id, j))
    for j in range(len(stats)):
        take = min(caps[j] - alloc[j], remaining)
        alloc[j] += take
        remaining -= take
    return {s.id: alloc[j] for j, s in enumerate(stats)}


@dataclass
class MultiwaveResult:
    """One wave's draws, with the strata closed and those spilled into."""

    draws: dict[str, int]
    closed: set[str] = field(default_factory=set)
    spilled: set[str] = field(default_factory=set)

    @property
    def total(self) -> int:
        return sum(self.draws.values())


def multiwave(stats: Sequence[StratumStats], cumulative_target: int, *,
              min_per_stratum: int = 1,
              pre_closed: set[str] | frozenset[str] = frozenset()) -> MultiwaveResult:
    """The wave rule: Neyman allocation of a cumulative budget, net of the
    records already sampled.

    Every wave runs it, the first included: with nothing sampled yet it
    is :func:`exact_allocation` of ``cumulative_target`` over the strata
    not in ``pre_closed``.  The wave's budget is ``cumulative_target``
    less the records already sampled.

    1. Closing.  Strata in ``pre_closed`` (closed by the user) and strata
       with no members left are closed.  Over the open ones, stratum
       ``s`` has the share ``T * N_s sd_s / sum N sd - already_s``, with
       ``T`` the cumulative target less the closed strata's records.  A
       stratum with a negative share is closed and the shares are
       recomputed until none is negative.
    2. Spill.  When the open strata's remaining members cannot supply
       the budget, the strata closed for a negative share that still
       have members join them (``spilled``).  In the integer stage they
       compete by priority exactly as the open strata do: they are not
       limited to the overflow the open strata cannot absorb, and may
       take more while open strata keep members.  Strata in
       ``pre_closed`` never receive draws.
    3. Integer stage: :func:`exact_allocation` of the cumulative total
       over the drawing strata; each draws its total less ``already_s``.

    Raises InfeasibleError when the target is below the records already
    sampled or when the strata not in ``pre_closed`` cannot supply the
    budget, and DegenerateDesignError when the budget is positive and
    every drawing stratum has zero spread.
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
    room = sum(c for sid, c in capacity.items() if sid not in pre_closed)
    if budget > room:
        raise InfeasibleError(
            f"remaining population {room} of the strata not closed by the user "
            f"cannot supply a budget of {budget}")

    closed = set(pre_closed) | {sid for sid, c in capacity.items() if c == 0}
    open_stats = [s for s in stats if s.id not in closed]
    while open_stats:
        weights = np.array([s.population_size * s.sd for s in open_stats])
        if weights.sum() <= 0:
            break
        open_target = cumulative_target - sum(by_id[sid].already_sampled
                                              for sid in closed)
        shares = open_target * weights / weights.sum()
        over = {s.id for s, share in zip(open_stats, shares)
                if float(share) - s.already_sampled < 0}
        if not over:
            break
        closed |= over
        open_stats = [s for s in open_stats if s.id not in over]

    draws = {s.id: 0 for s in stats}
    if budget == 0:
        return MultiwaveResult(draws=draws, closed=closed)
    spilled: set[str] = set()
    if sum(capacity[s.id] for s in open_stats) < budget:
        spilled = {sid for sid in closed - pre_closed if capacity[sid] > 0}
        open_stats = open_stats + [by_id[sid] for sid in sorted(spilled)]
    if all(s.sd == 0 for s in open_stats):
        raise DegenerateDesignError(
            "every stratum this wave can draw from has zero influence spread; "
            "Neyman allocation is undefined")
    target = budget + sum(s.already_sampled for s in open_stats)
    for sid, total in exact_allocation(open_stats, target, min_per_stratum).items():
        draws[sid] = total - by_id[sid].already_sampled
    return MultiwaveResult(draws=draws, closed=closed, spilled=spilled)


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
