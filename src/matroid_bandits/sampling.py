"""Stochastic arm environment with exact per-arm sample accounting.

An :class:`ArmTable` holds an instance's arms as columns. A
:class:`SamplingSession` reads one and owns the RNG and the pull ledger for
one trial. Algorithms draw only through ``uniform_sample`` (a set of arms, a
fixed count each) and ``random_subset``; true means stay on the instance
side. ``pull_batch`` is the per-arm reference that tests pin
``uniform_sample`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# Imported by name so that numpy, which loads numpy.random lazily, loads it
# here once: trial workers forked after this import do not load it again.
from numpy.random import SeedSequence, default_rng

from .errors import BudgetError, DomainError, ValidationError

BERNOULLI = "bernoulli"
SCALED = "scaled"
POINT = "point"


@dataclass(frozen=True)
class Arm:
    """One reward source: Bernoulli, two-point scaled Bernoulli, or point mass.

    The validated record that instance files and constructors use; instances
    and sessions hold their arms as an :class:`ArmTable`.
    """

    kind: str
    mean: float
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (BERNOULLI, SCALED, POINT):
            raise ValidationError(f"unknown arm kind {self.kind!r}")
        if not 0.0 <= self.mean <= 1.0:
            raise ValidationError(f"arm mean {self.mean} outside [0, 1]")
        if self.kind == SCALED:
            if self.support is None:
                raise ValidationError("scaled arm needs a (lo, hi) support")
            lo, hi = self.support
            if not (0.0 <= lo < hi <= 1.0):
                raise ValidationError(f"scaled support {self.support} invalid")
            if not lo <= self.mean <= hi:
                raise ValidationError("scaled arm mean outside its support")
        elif self.support is not None:
            raise ValidationError(f"{self.kind} arm takes no support")


def bernoulli(mean: float) -> Arm:
    return Arm(BERNOULLI, mean)


def point(mean: float) -> Arm:
    return Arm(POINT, mean)


def scaled(lo: float, hi: float, mean: float) -> Arm:
    return Arm(SCALED, mean, (lo, hi))


@dataclass(frozen=True)
class ArmTable:
    """Arms as columns: a kind, a mean and a support (or None) per arm id.

    ``q`` is each arm's binomial success probability, computed once per
    table; a point mass takes no draw and has q = 0. ``all_bernoulli`` says
    whether every arm is Bernoulli, also decided once per table. Columns
    pickle as a few flat objects, where one ``Arm`` per arm would pickle as a
    record each.
    """

    kinds: tuple[str, ...]
    means: tuple[float, ...]
    supports: tuple[tuple[float, float] | None, ...]
    q: np.ndarray = field(compare=False, repr=False)
    all_bernoulli: bool = field(compare=False, repr=False)

    @classmethod
    def from_arms(cls, arms: Iterable[Arm]) -> "ArmTable":
        arms = tuple(arms)
        kinds = tuple([arm.kind for arm in arms])
        means = tuple([arm.mean for arm in arms])
        supports = tuple([arm.support for arm in arms])
        q = np.array(means, dtype=np.float64)  # a Bernoulli arm's q is its mean
        all_bernoulli = kinds.count(BERNOULLI) == len(kinds)
        if not all_bernoulli:
            for e, kind in enumerate(kinds):
                if kind == SCALED:
                    lo, hi = supports[e]
                    q[e] = (means[e] - lo) / (hi - lo)
                elif kind == POINT:
                    q[e] = 0.0
        return cls(kinds, means, supports, q, all_bernoulli)

    def __len__(self) -> int:
        return len(self.means)

    def batch_mean(self, e: int, count: int, hits: int) -> float:
        """Mean of ``count`` pulls of arm ``e`` with ``hits`` successes."""
        kind = self.kinds[e]
        if kind == POINT:
            return self.means[e]
        if kind == BERNOULLI:
            return hits / count
        lo, hi = self.supports[e]
        return (lo * (count - hits) + hi * hits) / count


def _validate(eps: float, delta: float) -> None:
    """Accuracy and confidence checks shared by every sampling algorithm."""
    if not eps > 0:
        raise DomainError("eps must be > 0")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")


def ceil_pulls(formula: Callable[[], float]) -> int:
    """``formula()`` pulls per arm, ceiled, minimum one; a float overflow is not drawable."""
    try:
        return max(1, math.ceil(formula()))
    except OverflowError:
        raise BudgetError("pull count overflows a float; the batch is not drawable",
                          "drawability") from None


def sample_size(eps: float, delta: float) -> int:
    """Per-arm pull count guaranteeing |empirical - true| < eps w.p. 1 - delta."""
    _validate(eps, delta)
    return ceil_pulls(lambda: eps**-2 * math.log(2.0 / delta) / 2.0)


class SamplingSession:
    """Seeded RNG plus exact per-arm pull counters for a single trial.

    Single-owner: one trial, one worker. Distinct sessions run concurrently
    without coordination. Identical seed implies an identical pull transcript
    and hence identical algorithm output.
    """

    def __init__(
        self,
        arms: ArmTable | Sequence[Arm],
        seed: int | SeedSequence,
        max_pulls: int | None = None,
    ):
        self._arms = arms if isinstance(arms, ArmTable) else ArmTable.from_arms(arms)
        self._rng = default_rng(seed)
        # plain Python ints: pull counts can exceed int64 in deep rounds
        self._pulls = [0] * len(self._arms)
        self._total = 0
        self._max_pulls = max_pulls

    @property
    def total_samples(self) -> int:
        return self._total

    def pull_counts(self) -> list[int]:
        return list(self._pulls)

    def _check_arm(self, e: int) -> None:
        if not 0 <= e < len(self._arms):
            raise DomainError(f"unknown arm {e}")

    def _check_batch(self, count: int, arms: int, stochastic: bool) -> None:
        """Refuse ``count`` pulls of ``arms`` arms, undrawable or over budget, before any draw."""
        if stochastic and count > 2**62:
            raise BudgetError(f"batch of {count} stochastic pulls is not drawable", "drawability")
        if self._max_pulls is not None and self._total + arms * count > self._max_pulls:
            raise BudgetError(f"pull budget {self._max_pulls} exhausted", "budget")

    def pull_batch(self, e: int, count: int) -> float:
        """Pull ``count`` fresh samples of one arm; return the batch mean.

        The per-arm reference for ``uniform_sample``: no algorithm calls it,
        and tests require the vector draw to give what one ``pull_batch``
        per arm in id order gives. A Bernoulli-type batch draws a single
        binomial variate, which is the same distribution as ``count``
        individual pulls.
        """
        if count < 1:
            raise DomainError("batch size must be >= 1")
        self._check_arm(e)
        arms = self._arms
        stochastic = arms.kinds[e] != POINT
        self._check_batch(count, 1, stochastic)
        hits = int(self._rng.binomial(count, arms.q[e])) if stochastic else 0
        self._pulls[e] += count
        self._total += count
        return arms.batch_mean(e, count, hits)

    def uniform_sample(self, elements: Iterable[int], count: int) -> dict[int, float]:
        """Pull every element exactly ``count`` fresh times; return the batch means.

        Earlier pulls of the same arms never leak into the estimate. The
        stochastic arms take one vector binomial draw in id order, which
        yields the values one ``pull_batch`` per arm would. A batch over the
        budget or past the drawability bound is refused whole with
        ``BudgetError``: nothing is drawn and nothing is recorded.
        """
        if count < 1:
            raise DomainError("batch size must be >= 1")
        ordered = sorted(set(elements))
        for e in ordered[:1] + ordered[-1:]:  # the ends bound every id
            self._check_arm(e)
        arms = self._arms
        kinds = arms.kinds
        stochastic = ordered if arms.all_bernoulli else [e for e in ordered if kinds[e] != POINT]
        self._check_batch(count, len(ordered), bool(stochastic))
        draws = self._rng.binomial(count, arms.q[stochastic]) if stochastic else None
        if arms.all_bernoulli and count <= 2**53 and stochastic:
            # hits and count are exact in float64 here, so each quotient is
            # rounded once, as Python's hits / count is
            means = dict(zip(ordered, (draws / count).tolist()))
        else:
            hits = iter(draws.tolist() if stochastic else ())
            means = {e: arms.batch_mean(e, count, 0 if kinds[e] == POINT else next(hits))
                     for e in ordered}
        pulls = self._pulls
        for e in ordered:
            pulls[e] += count
        self._total += len(ordered) * count
        return means

    def random_subset(self, elements: Iterable[int], p: float) -> frozenset[int]:
        """Keep each element independently with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise DomainError("p must lie in [0, 1]")
        ordered = sorted(set(elements))
        draws = self._rng.random(len(ordered))
        return frozenset(e for e, u in zip(ordered, draws.tolist()) if u < p)


def trial_seed(master_seed: int, trial_index: int) -> SeedSequence:
    """Deterministic per-trial stream, independent of worker scheduling."""
    return SeedSequence((int(master_seed), int(trial_index)))
