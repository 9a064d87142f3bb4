"""Exhaustive allocation oracle for small instances, shared by the allocation tests."""

from __future__ import annotations

import math
from typing import Sequence

from twophase.allocation import StratumStats, allocation_variance
from twophase.errors import InfeasibleError

ORACLE_MAX_STRATA = 5
ORACLE_MAX_N = 30


def oracle_allocation(stats: Sequence[StratumStats], n: int,
                      min_per_stratum: int = 1) -> tuple[float, list[dict[str, int]]]:
    """Exhaustively enumerate integer allocations and return the optimum.

    Returns ``(best_value, minimizers)`` where ``minimizers`` holds every
    allocation achieving the optimal ``sum (N_s sd_s)^2 / n_s`` (ties are
    kept so exact-optimality checks can assert set membership).  Only
    small instances are supported.
    """
    if len(stats) > ORACLE_MAX_STRATA or n > ORACLE_MAX_N:
        raise InfeasibleError(
            f"oracle limited to {ORACLE_MAX_STRATA} strata and n <= {ORACLE_MAX_N}")
    caps = [s.population_size - s.already_sampled for s in stats]
    floors = [min(min_per_stratum, c) for c in caps]
    if sum(floors) > n:
        raise InfeasibleError("floors exceed the target size")
    if sum(caps) < n:
        raise InfeasibleError("population cannot supply the target size")
    k = len(stats)
    floor_suffix = [0] * (k + 1)
    cap_suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        floor_suffix[j] = floor_suffix[j + 1] + floors[j]
        cap_suffix[j] = cap_suffix[j + 1] + caps[j]

    def compositions(j, remaining, prefix):
        if j == k - 1:
            if floors[j] <= remaining <= caps[j]:
                yield prefix + (remaining,)
            return
        lo = max(floors[j], remaining - cap_suffix[j + 1])
        hi = min(caps[j], remaining - floor_suffix[j + 1])
        for v in range(lo, hi + 1):
            yield from compositions(j + 1, remaining - v, prefix + (v,))

    best = math.inf
    minimizers: list[dict[str, int]] = []
    for combo in compositions(0, n, ()):
        alloc = {s.id: m for s, m in zip(stats, combo)}
        val = allocation_variance(stats, alloc)
        if val < best:
            best = val
            minimizers = [alloc]
        elif val == best:
            minimizers.append(alloc)
    if not minimizers:
        raise InfeasibleError("no feasible allocation found")
    return best, minimizers
