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

from matroid_bandits.errors import DomainError, ValidationError
from matroid_bandits.instances import Instance, _shuffled_uniform
from matroid_bandits.matroids import (
    Matroid,
    Weights,
    _checked_basis,
    _integer,
    _weight,
    avg_within_eps,
    basis_weight,
    elementwise_within_eps,
    greedy_max_basis,
    is_eps_optimal,
    unblocked,
)
from matroid_bandits.oracle import _guard, _require_distinct, brute_force_opt, iter_independent_sets
from matroid_bandits.sampling import POINT, ArmTable, SamplingSession

APPROX_SUBSET_GUARD = 14


def iter_bases(m: Matroid):
    k = m.full_rank
    for ind in iter_independent_sets(m):
        if len(ind) == k:
            yield ind


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
    _require_distinct(m, weights)
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
    n, k = _integer(n, "n"), _integer(k, "k")
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
