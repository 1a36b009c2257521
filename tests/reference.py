"""Brute-force reference definitions that the tests check the library against.

The library never calls these: the algorithms need only the matroid oracles,
a sampler and the pruning step, and the harness judges with
``matroids.elementwise_within_eps`` and ``avg_within_eps``. Tests import this
module the way they import ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable

import numpy as np

from matroid_bandits.errors import DomainError, ValidationError, integer
from matroid_bandits.instances import Instance, _shuffled_uniform
from matroid_bandits.matroids import (
    Matroid,
    Weights,
    _checked_basis,
    _distinct_weights,
    _unhashable,
    _weight,
    avg_within_eps,
    basis_weight,
    elementwise_within_eps,
    greedy_max_basis,
    is_eps_optimal,
    unblocked,
)
from matroid_bandits.oracle import ENUMERATION_GUARD, _guard, brute_force_opt
from matroid_bandits.sampling import POINT, ArmTable, SamplingSession

APPROX_SUBSET_GUARD = 14


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


def iter_bases(m: Matroid):
    k = m.full_rank
    for ind in iter_independent_sets(m):
        if len(ind) == k:
            yield ind


def _check_gap_args(m: Matroid, e: int, weights: Weights) -> None:
    """Both gap formulas' checks: size guard, distinct weights, ``e`` in the ground, no loop."""
    _guard(m.size, ENUMERATION_GUARD, "gap computation")
    _distinct_weights(m, weights)
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
        rest = brute_force_opt(m.restrict(m.ground_set - {e}), weights)
        return opt_weight - basis_weight(rest, weights)
    forced = brute_force_opt(m.contract({e}), weights)
    return opt_weight - (basis_weight(forced, weights) + _weight(weights, e))


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


def is_eps_optimal_modified_cost(
    m: Matroid, basis: Iterable[int], weights: Weights, eps: float
) -> bool:
    """Same predicate via its definition: optimality under the lifted costs.

    Kept as an independent second route; tests cross-check it against
    :func:`is_eps_optimal` on small instances.
    """
    bset = _checked_basis(m, basis, eps)
    lifted = {
        e: _weight(weights, e) + (eps if e in bset else 0.0) for e in m.ground
    }
    best = greedy_max_basis(m, lifted)
    return basis_weight(bset, lifted) >= basis_weight(best, lifted) - 1e-12


def is_elementwise_eps_optimal(
    m: Matroid, basis: Iterable[int], weights: Weights, eps: float
) -> bool:
    """Sorted position-by-position comparison against the true optimum."""
    bset = _checked_basis(m, basis, eps)
    return elementwise_within_eps(bset, brute_force_opt(m, weights), weights, eps)


def is_avg_eps_optimal(m: Matroid, basis: Iterable[int], weights: Weights, eps: float) -> bool:
    """Mean weight within ``eps`` of the optimal mean weight."""
    bset = _checked_basis(m, basis, eps)
    return avg_within_eps(bset, brute_force_opt(m, weights), weights, eps)


def is_eps_approx_subset(
    m: Matroid, inner: Iterable[int], outer: Iterable[int], weights: Weights, eps: float
) -> bool:
    """True iff some independent subset of ``inner`` is eps-optimal for ``outer``."""
    if not eps >= 0:  # NaN too
        raise DomainError("eps must be >= 0")
    inner_set = m._as_subset(inner)
    outer_set = m._as_subset(outer)
    if not inner_set <= outer_set:
        raise DomainError("inner set must be contained in the outer set")
    _guard(len(outer_set), APPROX_SUBSET_GUARD, "approximate-subset test")
    m_outer = m.restrict(outer_set)
    k = m_outer.full_rank
    if m_outer.rank(inner_set) < k:
        return False
    inner_view = m_outer.restrict(inner_set) if inner_set != outer_set else m_outer
    for candidate in iter_independent_sets(inner_view):
        if len(candidate) == k and is_eps_optimal(m_outer, candidate, weights, eps):
            return True
    return False


def count_F_good(m: Matroid, sampled: Iterable[int], weights: Weights) -> int:
    """Number of elements not blocked by the strictly-heavier part of ``sampled``.

    Weights must be distinct, so for ``a != e`` "at least as heavy" is
    "strictly heavier".
    """
    _distinct_weights(m, weights)
    f_set = m._as_subset(sampled)
    thresholds = {e: _weight(weights, e) for e in m.ground}
    return len(unblocked(m, f_set, weights, thresholds))


def val(m: Matroid, subset, weights: Weights) -> float | None:
    """Average value of the best basis inside ``subset``.

    Returns ``None`` when the subset cannot span a full-rank basis (the
    conceptual minus-infinity case); callers must handle it explicitly.
    """
    chosen = m._as_subset(subset)
    k = m.full_rank
    if m.rank(chosen) < k:
        return None
    if k == 0:
        return 0.0
    best = greedy_max_basis(m.restrict(chosen), weights)
    return basis_weight(best, weights) / k


def point_mass(inst: Instance) -> Instance:
    """``inst`` with each arm replaced by a point mass at its mean."""
    means = inst.arms.means
    return replace(inst, name=f"{inst.name}-pointmass",
                   arms=ArmTable.from_columns((POINT,) * len(means), means))


def pull_counts(session: SamplingSession) -> list[int]:
    """The session's per-arm pull counts as a list of Python ints."""
    pulls = session.ledger()
    return pulls.tolist() if type(pulls) is np.ndarray else list(pulls)


def geometric_ladder_instance(n: int, k: int, min_gap: float, seed: int = 0) -> Instance:
    """Gaps grow geometrically from ``min_gap``, cycling to stay inside (0, 1)."""
    n, k = integer(n, "n", ValidationError), integer(k, "k", ValidationError)
    if not 0 < k < n:
        raise ValidationError("need 0 < k < n")
    if not 0 < min_gap < 1:
        raise ValidationError(f"min_gap must lie in (0, 1); got {min_gap}")
    strata = max(1, int(math.floor(math.log2(0.8 / min_gap))))
    eta = min_gap / (64.0 * n)
    means = []
    for i in range(k):
        off = min_gap * 2.0 ** (i % strata)
        means.append(0.5 + off - min_gap / 2.0 + i * eta)
    for j in range(n - k):
        off = min_gap * 2.0 ** (j % strata)
        means.append(0.5 - off + min_gap / 2.0 - j * eta)
    return _shuffled_uniform(f"ladder-n{n}-k{k}", k, means, seed,
                             notes=f"geometric gap ladder, minimum gap ~{min_gap}")
