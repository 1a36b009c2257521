"""Brute-force ground-truth oracles over true weights.

Everything here enumerates, so hard guards cap the instance sizes. These
functions serve the CLI's ``verify`` and ``gaps``, the gap-floor check of
``make_instance``, and tests; the algorithms never call them. The
references that only tests use live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import CapacityError, DomainError, PreconditionError
from .matroids import (
    ElementSet,
    Matroid,
    Weights,
    _unhashable,
    _weight,
    basis_weight,
    greedy_max_basis,
    is_eps_optimal,
    is_eps_optimal_modified_cost,
)

ENUMERATION_GUARD = 20


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"{what} limited to {limit} elements, got {n}")


def _require_distinct(m: Matroid, weights: Weights) -> None:
    values = [_weight(weights, e) for e in m.ground]
    if len(set(values)) != len(values):
        raise PreconditionError("weights must be pairwise distinct")


def iter_independent_sets(m: Matroid):
    """Yield every independent set (as a frozenset), the empty set included."""
    _guard(m.size, ENUMERATION_GUARD, "independent-set enumeration")
    ground = m.ground

    def walk(start: int, current: set[int]):
        yield frozenset(current)
        for idx in range(start, len(ground)):
            e = ground[idx]
            if m.is_independent(current | {e}):
                current.add(e)
                yield from walk(idx + 1, current)
                current.remove(e)

    yield from walk(0, set())


def brute_force_opt(m: Matroid, weights: Weights, prune: bool = True) -> ElementSet:
    """Maximum-weight basis by exhaustive search over independent sets.

    ``prune`` enables an admissible branch-and-bound cutoff (sum of the
    largest remaining weights); disable it for a pure enumeration.
    Deterministic under ties (first maximum found in id-sorted DFS order).
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
        if prune and bound(idx, current_weight, len(current)) <= best_weight - 1e-15:
            return
        for j in range(idx, len(order)):
            if prune and bound(j, current_weight, len(current)) <= best_weight - 1e-15:
                return
            e = order[j]
            if m.is_independent(current | {e}):
                current.add(e)
                walk(j + 1, current, current_weight + wvals[j])
                current.remove(e)

    walk(0, set(), 0.0)
    return best_set


def brute_force_opt_weight(m: Matroid, weights: Weights) -> float:
    return basis_weight(brute_force_opt(m, weights), weights)


def _check_gap_args(m: Matroid, e: int, weights: Weights) -> None:
    """Both gap formulas' checks: size guard, distinct weights, ``e`` in the ground, no loop."""
    _guard(m.size, ENUMERATION_GUARD, "gap computation")
    _require_distinct(m, weights)
    try:
        inside = e in m.ground_set
    except TypeError:
        raise _unhashable(e) from None
    if not inside:
        raise DomainError(f"element {e} outside ground set")
    if m.rank({e}) == 0:
        raise DomainError(f"element {e} is a loop; its gap is undefined")


def gap(m: Matroid, e: int, weights: Weights) -> float:
    """Weight lost by excluding ``e`` (if optimal) or forcing it in (if not).

    Isolated elements get +inf. Loops have no defined gap.
    """
    _check_gap_args(m, e, weights)
    total = m.full_rank
    if m.rank(m.ground_set - {e}) < total:
        return math.inf
    opt = brute_force_opt(m, weights)
    opt_weight = basis_weight(opt, weights)
    if e in opt:
        return opt_weight - brute_force_opt_weight(m.restrict(m.ground_set - {e}), weights)
    forced = m.contract({e})
    return opt_weight - (brute_force_opt_weight(forced, weights) + _weight(weights, e))


def gap_alt(m: Matroid, e: int, weights: Weights) -> float:
    """The same gap through threshold sweeps over the blocking predicate.

    Blocking status only changes at weight differences, so the sweep visits
    exactly those candidates.
    """
    _check_gap_args(m, e, weights)
    we = _weight(weights, e)
    others = [a for a in m.ground if a != e]
    opt = brute_force_opt(m, weights)
    if e in opt:
        if not m.blocks(frozenset(others), e):
            return math.inf
        best = -math.inf
        for cand in sorted({we - _weight(weights, a) for a in others}):
            heavy = frozenset(a for a in others if _weight(weights, a) > we - cand)
            if not m.blocks(heavy, e):
                best = cand
        return best
    best = -math.inf
    for cand in sorted({_weight(weights, a) - we for a in others if _weight(weights, a) > we}):
        heavy = frozenset(a for a in others if _weight(weights, a) >= we + cand)
        if m.blocks(heavy, e):
            best = max(best, cand)
    return best


@dataclass(frozen=True)
class GapProfile:
    """Per-element gaps plus optimal-basis membership."""

    gaps: dict[int, float]
    optimal: ElementSet

    def min_gap(self) -> float:
        return min(self.gaps.values())


def gap_profile(m: Matroid, weights: Weights) -> GapProfile:
    opt = brute_force_opt(m, weights)
    return GapProfile({e: gap(m, e, weights) for e in m.ground}, opt)


def verify_instance(instance) -> list[tuple[str, bool, str]]:
    """Run the oracle suite on one instance; returns (check, ok, detail) rows.

    Enumeration-backed checks are skipped (reported as passed with a note)
    when the instance exceeds the relevant guard.
    """
    m = instance.matroid
    means = instance.true_means
    results: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    loops = m.loops()
    add("no_loops", not loops, f"loops={sorted(loops)}" if loops else "")
    distinct = len(set(means)) == len(means)
    add("distinct_means", distinct or instance.allow_ties, "")

    if m.size <= 10:
        sets = list(iter_independent_sets(m))
        ind = set(sets)
        ok = all(frozenset(s - {e}) in ind for s in sets for e in s)
        if len(sets) > 300:  # keep the pairwise exchange check affordable
            sets = random.Random(0).sample(sets, 300)
        for a in sets:
            for b in sets:
                if len(a) > len(b) and not any(
                    m.is_independent(b | {e}) for e in a - b
                ):
                    ok = False
        add("matroid_axioms", ok, "hereditary + exchange over independent sets")
    else:
        add("matroid_axioms", True, "skipped (instance above exhaustive guard)")

    if m.size <= ENUMERATION_GUARD and distinct:
        greedy = greedy_max_basis(m, means)
        brute = brute_force_opt(m, means)
        add("greedy_equals_brute_force", greedy == brute, "")
        gaps = [(gap(m, e, means), gap_alt(m, e, means)) for e in m.ground]
        dual = all(math.isclose(a, b, rel_tol=0, abs_tol=1e-12) for a, b in gaps)
        add("gap_duality", dual, "")
        if instance.gap_floor is not None:
            floor = min(a for a, _ in gaps)
            add("gap_floor", floor >= instance.gap_floor - 1e-9, f"min gap {floor}")
        basis = greedy
        routes = all(
            is_eps_optimal(m, basis, means, e) == is_eps_optimal_modified_cost(m, basis, means, e)
            for e in (0.0, 0.01, 0.1)
        )
        add("eps_optimality_route_agreement", routes, "")
    else:
        why = "instance above guard" if distinct else "means tie"
        add("greedy_equals_brute_force", True, f"skipped ({why})")
    return results
