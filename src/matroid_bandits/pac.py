"""Eps-optimal basis identification.

``naive_one`` samples everything uniformly and trusts the empirical greedy
optimum. ``pac_sample_prune`` recursively solves a small random subset and
uses its solution to prune arms that provably cannot matter, in the style of
randomized minimum-spanning-forest verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetError, InvariantError
from .matroids import ElementSet, Matroid, greedy_max_basis, unblocked
from .sampling import SamplingSession, _validate, sample_size


@dataclass(frozen=True)
class ConstantsProfile:
    """Tunable constants for the recursive algorithms.

    ``paper`` keeps the conservative constants the guarantees are proven for
    (the recursive branch is then unreachable below tens of thousands of
    arms, so only the base case runs at desk scale). ``desk`` shrinks the
    base-case threshold and raises the sampling probability so the recursion
    actually executes on two-digit instances; its guarantees are empirical.
    """

    name: str
    sample_prob: float
    base_mult: float
    base_log_coef: float
    max_depth: int = 64
    round_guard: int = 60
    pull_budget: Optional[int] = None

    def base_case_bound(self, delta: float, k: int) -> float:
        return self.base_mult * max(self.base_log_coef * math.log(8.0 / delta), k)


PAPER = ConstantsProfile("paper", sample_prob=0.01, base_mult=2 * 0.01**-2, base_log_coef=4.0)
DESK = ConstantsProfile("desk", sample_prob=0.3, base_mult=8.0, base_log_coef=1.0)
PROFILES = {"paper": PAPER, "desk": DESK}


@dataclass(frozen=True)
class PruneLevel:
    """Observables of one recursion level (sizes plus the surviving sets)."""

    depth: int
    ground: tuple[int, ...]
    sampled: tuple[int, ...] | None = None
    kept: tuple[int, ...] | None = None
    solved: tuple[int, ...] | None = None
    base_case: bool = False

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (
            len(self.ground),
            len(self.sampled) if self.sampled is not None else 0,
            len(self.kept) if self.kept is not None else 0,
        )

    def to_record(self) -> dict:
        """This level as one ``--trace`` JSONL line, less the trial index."""
        size, sampled, kept = self.sizes
        return {"kind": "prune_level", "depth": self.depth, "base_case": self.base_case,
                "size": size, "sampled": sampled, "kept": kept}


@dataclass(frozen=True)
class PacResult:
    basis: ElementSet
    samples: int
    transcript: tuple = field(default_factory=tuple)


def naive_one(session: SamplingSession, m: Matroid, eps: float, delta: float) -> PacResult:
    """Uniformly sample every arm at accuracy eps/2, then take the empirical optimum."""
    _validate(eps, delta)
    start = session.total_samples
    if m.size == 0:
        return PacResult(frozenset(), 0)
    means = session.uniform_sample(m.ground, sample_size(eps / 2.0, delta / m.size))
    basis = greedy_max_basis(m, means)
    return PacResult(basis, session.total_samples - start)


def pac_sample_prune(
    session: SamplingSession,
    m: Matroid,
    eps: float,
    delta: float,
    profile: ConstantsProfile,
) -> PacResult:
    """Recursive sampling-and-pruning solver for eps-optimal bases.

    Small inputs fall back to ``naive_one``. Otherwise: solve a random
    p-subset recursively at accuracy eps/3, estimate all arms coarsely, drop
    every arm blocked by the subset's solution at the shifted threshold, and
    recurse on the survivors.
    """
    _validate(eps, delta)
    transcript: list[PruneLevel] = []
    start = session.total_samples
    basis = _sample_prune(session, m, eps, delta, profile, 0, transcript)
    return PacResult(basis, session.total_samples - start, tuple(transcript))


def _sample_prune(
    session: SamplingSession,
    m: Matroid,
    eps: float,
    delta: float,
    profile: ConstantsProfile,
    depth: int,
    transcript: list[PruneLevel],
) -> ElementSet:
    if depth > profile.max_depth:
        raise BudgetError(f"recursion depth guard {profile.max_depth} exceeded", "depth")
    ground = m.ground
    k = m.full_rank
    if k == 0 or len(ground) <= profile.base_case_bound(delta, k):
        transcript.append(PruneLevel(depth, ground, base_case=True))
        return naive_one(session, m, eps, delta).basis

    sampled = session.random_subset(ground, profile.sample_prob)
    alpha = eps / 3.0
    lam = eps / 12.0
    inner = _sample_prune(
        session, m.restrict(sampled), alpha, delta / 8.0, profile, depth + 1, transcript
    )
    means = session.uniform_sample(
        ground, sample_size(lam, delta * profile.sample_prob / (8.0 * k))
    )

    thresholds = {e: means[e] - alpha - 2.0 * lam for e in ground if e not in inner}
    survivors = inner | unblocked(m, inner, means, thresholds)
    if m.rank(survivors) != k:
        raise InvariantError("pruning dropped the rank of the survivor set")
    transcript.append(
        PruneLevel(depth, ground, tuple(sorted(sampled)), tuple(sorted(survivors)),
                   tuple(sorted(inner)))
    )
    return _sample_prune(
        session, m.restrict(survivors), alpha, delta / 4.0, profile, depth + 1, transcript
    )
