"""The exhaustive maximum-weight basis over true weights, under a size guard.

The library never calls it: ``perfbench`` checks its builtin answers against
it, and the tests check greedy against it. Per-arm gaps at every size come
from :func:`.matroids.gaps`; the other enumerating references live in
``tests/reference.py``.
"""

from __future__ import annotations

import math

from .errors import CapacityError
from .matroids import ElementSet, Matroid, Weights, _weight

ENUMERATION_GUARD = 20


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"{what} limited to {limit} elements, got {n}")


def brute_force_opt(m: Matroid, weights: Weights) -> ElementSet:
    """Maximum-weight basis by exhaustive search over independent sets.

    An admissible branch-and-bound cutoff (sum of the largest remaining
    weights) skips branches that cannot win; tests pin it to a pure
    enumeration. Deterministic under ties (first maximum found in id-sorted
    DFS order).
    """
    _guard(m.size, ENUMERATION_GUARD, "brute-force optimum")
    k = m.full_rank
    order = sorted(m.ground, key=lambda e: (-_weight(weights, e), e))
    wvals = [_weight(weights, e) for e in order]

    best_weight = -math.inf
    best_set: ElementSet = frozenset()

    def bound(idx: int, current_weight: float, picked: int) -> float:
        # admissible: weights are sorted desc, so the next (k - picked)
        # entries bound anything still reachable from idx
        return current_weight + math.fsum(wvals[idx : idx + (k - picked)])

    def walk(idx: int, current: set[int], current_weight: float):
        nonlocal best_weight, best_set
        if current_weight > best_weight:
            best_weight = current_weight
            best_set = frozenset(current)
        if idx == len(order) or len(current) == k:
            return
        for j in range(idx, len(order)):
            if bound(j, current_weight, len(current)) <= best_weight - 1e-15:
                return
            e = order[j]
            if m.is_independent(current | {e}):
                current.add(e)
                walk(j + 1, current, current_weight + wvals[j])
                current.remove(e)

    walk(0, set(), 0.0)
    return best_set
