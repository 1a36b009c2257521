"""Average-eps-optimal identification.

``naive_two`` spreads a union bound over all bases, so its per-arm count
shrinks with the rank. ``elimination`` discards ~90% of the arms while
losing at most eps of average value; ``avg_pac_recur_elim`` applies it
round by round at geometrically tightening parameters and finishes with
``naive_two`` on the small remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PreconditionError
from .matroids import (
    ElementSet, Matroid, Weights, basis_weight, greedy_max_basis, unblocked,
)
from .pac import ConstantsProfile, PacResult, pac_sample_prune
from .sampling import SamplingSession, _validate, ceil_pulls, sample_size

@dataclass(frozen=True)
class AvgRound:
    r: int
    size_before: int
    size_after: int
    eps_r: float
    delta_r: float
    samples_so_far: int
    kept: tuple[int, ...] = ()

    def to_record(self) -> dict:
        """This round as one ``--trace`` JSONL line, less the trial index."""
        return {"kind": "avg_round", "r": self.r, "size_before": self.size_before,
                "size_after": self.size_after, "eps_r": self.eps_r,
                "delta_r": self.delta_r, "samples": self.samples_so_far}


def ln_choose(n: int, k: int) -> float:
    """log of the binomial coefficient via log-gamma; safe for huge n."""
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def naive_two_pull_count(n: int, k: int, eps: float, delta: float) -> int:
    """Per-arm pulls so that every basis mean concentrates at once."""
    _validate(eps, delta)
    if k < 1:
        raise DomainError("rank must be >= 1")
    return ceil_pulls(
        lambda: 2.0 * eps**-2 * (math.log(2.0) + ln_choose(n, k) + math.log(1.0 / delta)) / k
    )


def naive_two(session: SamplingSession, m: Matroid, eps: float, delta: float) -> PacResult:
    """Uniformly sample with the basis-level union bound, then greedy."""
    _validate(eps, delta)
    start = session.total_samples
    k = m.full_rank
    if k == 0:
        return PacResult(frozenset(), 0)
    count = naive_two_pull_count(m.size, k, eps, delta)
    means = session.uniform_sample(m.ground, count)
    basis = greedy_max_basis(m, means)
    return PacResult(basis, session.total_samples - start)


def elimination_sample_prob(n: int, k: int, delta: float) -> float:
    """Per-element sampling probability; at most 1 under ``elimination_precondition``."""
    return 100.0 * (k + math.log(1.0 / delta) + math.log(6.0)) / n


def elimination_pull_count(beta: float, k: int, delta: float) -> int:
    return ceil_pulls(lambda: beta**-2 * max(math.log(6.0 / delta) / k, math.log(200.0) / 2.0))


def elimination_precondition(n: int, k: int, delta: float) -> bool:
    return n >= 100.0 * (k + math.log(1.0 / delta) + math.log(6.0))


def elimination(
    session: SamplingSession,
    m: Matroid,
    eps: float,
    delta: float,
    profile: ConstantsProfile,
) -> ElementSet:
    """Shrink the arm set to ~10% while losing at most eps of average value.

    Callers must ensure the ground set is large enough for the sampling
    probability to be a probability; see ``elimination_precondition``.
    """
    _validate(eps, delta)
    n = m.size
    k = m.full_rank
    if k == 0:
        return frozenset()
    if not elimination_precondition(n, k, delta):
        raise PreconditionError(
            f"elimination needs n >= 100*(k + ln(1/delta) + ln 6); got n={n}"
        )
    lam = alpha = beta = eps / 5.0
    p = elimination_sample_prob(n, k, delta)
    sampled = session.random_subset(m.ground, p)
    # delta is split into sixths, one per claim of the elimination analysis:
    # the subset-size bound, the pruning-power bound, the recursive PAC call,
    # the solution-side estimates, the value-loss event, the leftover count.
    inner = pac_sample_prune(session, m.restrict(sampled), lam, delta / 6.0, profile).basis
    means = session.uniform_sample(inner, sample_size(alpha, delta / (6.0 * k)))
    count = elimination_pull_count(beta, k, delta)
    means.update(session.uniform_sample(m.ground_set - inner, count))

    thresholds = {e: means[e] - lam - alpha - beta for e in m.ground if e not in inner}
    return inner | unblocked(m, inner, means, thresholds)


def recur_break_bound(k: int, delta_r: float) -> float:
    """Remaining-set size below which the final uniform stage takes over."""
    lg = math.log(1.0 / delta_r)
    return (lg + k + math.log(6.0)) * (100.0 + math.log(k) + lg)


def avg_pac_recur_elim(
    session: SamplingSession,
    m: Matroid,
    eps: float,
    delta: float,
    profile: ConstantsProfile,
) -> PacResult:
    """Average-eps-optimal basis with confidence 1 - delta."""
    _validate(eps, delta)
    start = session.total_samples
    k = m.full_rank
    if k == 0:
        return PacResult(frozenset(), 0)
    n = m.size
    if n / k <= 10.0 or math.log(1.0 / delta) > k * math.log(n / k):
        res = naive_two(session, m, eps, delta)
        return PacResult(res.basis, session.total_samples - start)

    transcript: list[AvgRound] = []
    current: ElementSet = m.ground_set
    r = 1
    while True:
        delta_r = delta / 2.0 ** (r + 1)
        eps_r = eps / 2.0 ** (r + 1)
        if len(current) <= recur_break_bound(k, delta_r):
            break
        before = len(current)
        current = elimination(session, m.restrict(current), eps_r, delta_r, profile)
        transcript.append(
            AvgRound(r, before, len(current), eps_r, delta_r,
                     session.total_samples - start, tuple(sorted(current)))
        )
        r += 1
    res = naive_two(session, m.restrict(current), eps / 2.0, delta / 2.0)
    return PacResult(res.basis, session.total_samples - start, tuple(transcript))


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
