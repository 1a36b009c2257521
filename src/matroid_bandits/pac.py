"""Eps-optimal basis identification.

``naive_one`` samples everything uniformly and trusts the empirical greedy
optimum. ``pac_sample_prune`` recursively solves a small random subset and
uses its solution to prune arms that provably cannot matter, in the style of
randomized minimum-spanning-forest verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Optional

from .errors import BudgetError, ConfigError, DomainError, InvariantError, integer, real
from .matroids import (
    ElementSet, Matroid, greedy_max_basis, shifted_thresholds, unblocked,
)
from .sampling import SamplingSession, _check_drawable, sample_size


@dataclass(frozen=True)
class ConstantsProfile:
    """Tunable constants for the recursive algorithms.

    ``paper`` keeps the conservative constants the guarantees are proven for
    (the recursive branch is then unreachable below tens of thousands of
    arms, so only the base case runs at desk scale). ``desk`` shrinks the
    base-case threshold and raises the sampling probability so the recursion
    actually executes on two-digit instances; its guarantees are empirical.
    Each number is checked, and stored as a Python number, when the profile
    is built; a value of the wrong kind or range is a ``ConfigError``.
    """

    name: str
    sample_prob: float
    base_mult: float
    base_log_coef: float
    max_depth: int = 64
    round_guard: int = 60
    pull_budget: Optional[int] = None

    def __post_init__(self):
        for name, value in (
            ("sample_prob", real(self.sample_prob, "sample_prob", ConfigError, "(0, 1]")),
            ("base_mult", real(self.base_mult, "base_mult", ConfigError, ">= 0")),
            ("base_log_coef", real(self.base_log_coef, "base_log_coef", ConfigError, ">= 0")),
            ("max_depth", integer(self.max_depth, "max_depth", ConfigError, 0)),
            ("round_guard", integer(self.round_guard, "round_guard", ConfigError, 0)),
            ("pull_budget", None if self.pull_budget is None
             else integer(self.pull_budget, "pull_budget", ConfigError, 0)),
        ):
            object.__setattr__(self, name, value)

    def base_case_bound(self, delta: float, k: int) -> float:
        return self.base_mult * max(self.base_log_coef * math.log(8.0 / delta), k)


PAPER = ConstantsProfile("paper", sample_prob=0.01, base_mult=2 * 0.01**-2, base_log_coef=4.0)
DESK = ConstantsProfile("desk", sample_prob=0.3, base_mult=8.0, base_log_coef=1.0)
PROFILES = {"paper": PAPER, "desk": DESK}


@dataclass(frozen=True)
class PruneLevel:
    """Observables of one recursion level (sizes plus the surviving sets).

    ``ground``, ``sampled`` and ``kept`` hold the level's ids in the form the
    session hands them out (``SamplingSession.sample_ids``): a sorted tuple on
    a small table, a sorted int64 array on a dense one.
    """

    depth: int
    ground: Collection[int]
    sampled: Collection[int] | None = None
    kept: Collection[int] | None = None
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
    """A returned basis and the algorithm's transcript; the session counts the samples."""

    basis: ElementSet
    transcript: tuple = field(default_factory=tuple)


def naive_one(session: SamplingSession, m: Matroid, eps: float, delta: float) -> PacResult:
    """Uniformly sample every arm at accuracy eps/2, then take the empirical optimum."""
    eps, delta = real(eps, "eps", DomainError, "> 0"), real(delta, "delta", DomainError, "(0, 1)")
    if m.size == 0:
        return PacResult(frozenset())
    means = session.uniform_sample(session.sample_ids(m), sample_size(eps / 2.0, delta / m.size))
    return PacResult(greedy_max_basis(m, means))


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
    eps, delta = real(eps, "eps", DomainError, "> 0"), real(delta, "delta", DomainError, "(0, 1)")
    transcript: list[PruneLevel] = []
    basis = _sample_prune(session, m, eps, delta, profile, 0, transcript)
    return PacResult(basis, tuple(transcript))


def _sample_prune(
    session: SamplingSession,
    m: Matroid,
    eps: float,
    delta: float,
    profile: ConstantsProfile,
    depth: int,
    transcript: list[PruneLevel],
) -> ElementSet:
    _check_drawable(delta)  # delta / 8 and delta / 4 underflow at the smallest confidences
    if depth > profile.max_depth:
        raise BudgetError(f"recursion depth guard {profile.max_depth} exceeded", "depth")
    ground = session.sample_ids(m)
    k = m.full_rank
    if k == 0 or len(ground) <= profile.base_case_bound(delta, k):
        transcript.append(PruneLevel(depth, ground, base_case=True))
        return naive_one(session, m, eps, delta).basis

    sampled = session.random_subset(ground, profile.sample_prob)
    alpha = eps / 3.0
    lam = eps / 12.0
    subset = m.restrict(sampled)
    inner = _sample_prune(session, subset, alpha, delta / 8.0, profile, depth + 1, transcript)
    means = session.uniform_sample(
        ground, sample_size(lam, delta * profile.sample_prob / (8.0 * k))
    )

    thresholds = shifted_thresholds(means, -alpha, -2.0 * lam, exclude=inner)
    rest = m.restrict(inner | unblocked(m, inner, means, thresholds))
    if rest.full_rank != k:
        raise InvariantError("pruning dropped the rank of the survivor set")
    transcript.append(PruneLevel(depth, ground, session.sample_ids(subset),
                                 session.sample_ids(rest), tuple(sorted(inner))))
    return _sample_prune(session, rest, alpha, delta / 4.0, profile, depth + 1, transcript)
