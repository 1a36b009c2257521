"""Stochastic arm environment with exact per-arm sample accounting.

An :class:`ArmTable` holds an instance's arms as columns. A
:class:`SamplingSession` reads one and owns the RNG and the pull ledger for
one trial. Algorithms draw only through ``uniform_sample`` (a set of arms, a
fixed count each) and ``random_subset``; true means stay on the instance
side. ``pull_batch`` is the per-arm reference that tests pin
``uniform_sample`` against.

A table of at least ``DENSE_MIN_ARMS`` arms is dense (``ArmTable.dense``, the
one place that size is compared). Its sessions keep an int64 ledger, which
turns into exact Python ints before the total could reach ``2**63``, return
each batch's means as one read-only float64 array indexed by arm id (NaN for
an arm outside the batch) and hand out ids (``sample_ids``) as sorted int64
arrays, such as ``Matroid.ground_ids``, for views of any size. A smaller
table's sessions keep a list ledger, return dicts and hand out tuples or
sets, which cost less than numpy's fixed per-call cost on a few arms. Both
forms draw the same numbers and record the same pulls.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import chain, compress
from numbers import Real
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Sequence

import numpy as np

# Imported by name so that numpy, which loads numpy.random lazily, loads it
# here once: trial workers forked after this import do not load it again.
from numpy.random import SeedSequence, default_rng

from .errors import BudgetError, DomainError, ValidationError

if TYPE_CHECKING:
    from .matroids import Matroid

BERNOULLI = "bernoulli"
SCALED = "scaled"
POINT = "point"
# Each kind mapped onto its constant, so that a table shares one string per kind.
_KINDS = {kind: kind for kind in (BERNOULLI, SCALED, POINT)}

# Tables of at least this many arms are dense (see the module docstring).
DENSE_MIN_ARMS = 256


@dataclass(frozen=True)
class Arm:
    """One reward source: Bernoulli, two-point scaled Bernoulli, or point mass.

    The record for code that builds arms one at a time, checked when built by
    :meth:`ArmTable.from_columns`, which holds every arm rule. Instances and
    sessions hold an :class:`ArmTable`, built from columns with no record per arm.
    """

    kind: str
    mean: float
    support: tuple[float, float] | None = None

    def __post_init__(self):
        ArmTable.from_columns([self.kind], [self.mean], [self.support])


def bernoulli(mean: float) -> Arm:
    return Arm(BERNOULLI, mean)


def point(mean: float) -> Arm:
    return Arm(POINT, mean)


def scaled(lo: float, hi: float, mean: float) -> Arm:
    return Arm(SCALED, mean, (lo, hi))


def _numbers(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as a new float64 array of ``shape``, each a real number and not
    a bool, as a numeric array's dtype or else the types of its (rows') elements
    show: no string is parsed. Anything else is a ``ValidationError``."""
    try:
        if isinstance(values, np.ndarray) and values.dtype != object:
            types = {values.dtype.type}
        else:
            types = set(map(type, chain.from_iterable(values) if len(shape) > 1 else values))
        bad = next((t for t in types if t is bool or not issubclass(t, (Real, Decimal))), None)
        array = None if bad else np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} are not numbers: {exc}") from None
    if bad:
        raise ValidationError(f"{what} must be real numbers, not {bad.__name__}")
    if array.shape != shape:
        raise ValidationError(f"{what} have shape {array.shape}, not {shape}")
    return array


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
    def from_columns(
        cls,
        kinds: Sequence[str] | None,
        means: Sequence[float] | np.ndarray,
        supports: Sequence[tuple[float, float] | None] | None = None,
    ) -> "ArmTable":
        """A table from one kind, mean and support (or None) per arm.

        The one checker of the arm rules, :class:`Arm` records included: it
        refuses each invalid row with ``ValidationError``, checking each column
        in vector form; ``kinds=None`` makes every arm Bernoulli and
        ``supports=None`` gives no arm a support. Kinds map onto the module
        constants, so that a table shares one string per kind however its kinds
        were read, and a scaled arm's support is stored as a pair of floats.
        """
        if kinds is None:  # the constant repeated: no lookup per arm
            kinds = (BERNOULLI,) * len(means)
        else:
            try:
                kinds = tuple(map(_KINDS.__getitem__, kinds))
            except (KeyError, TypeError):
                bad = next(k for k in kinds if not (isinstance(k, str) and k in _KINDS))
                raise ValidationError(f"unknown arm kind {bad!r}") from None
        n = len(kinds)
        q = _numbers(means, (n,), "arm means")  # a Bernoulli arm's q is its mean
        inside = (q >= 0.0) & (q <= 1.0)  # False for NaN
        if np.count_nonzero(inside) != n:
            raise ValidationError(f"arm mean {q[inside.argmin()]} outside [0, 1]")
        means = tuple(q.tolist())
        all_bernoulli = kinds.count(BERNOULLI) == n
        scaled = [] if all_bernoulli else [e for e, kind in enumerate(kinds) if kind is SCALED]
        if supports is None:
            supports, with_support = [None] * n, []
        else:
            supports = list(supports)
            if len(supports) != n:
                raise ValidationError(f"{len(supports)} supports for {n} arms")
            with_support = [e for e, support in enumerate(supports) if support is not None]
        if with_support != scaled:
            e = min(set(with_support).symmetric_difference(scaled))
            if kinds[e] is SCALED:
                raise ValidationError("scaled arm needs a (lo, hi) support")
            raise ValidationError(f"{kinds[e]} arm takes no support")
        if scaled:
            bounds = _numbers([supports[e] for e in scaled], (len(scaled), 2), "scaled supports")
            lo, hi = bounds.T
            if not ((0.0 <= lo) & (lo < hi) & (hi <= 1.0)).all():
                raise ValidationError("scaled support invalid")
            mu = q[scaled]
            if not ((lo <= mu) & (mu <= hi)).all():
                raise ValidationError("scaled arm mean outside its support")
            q[scaled] = (mu - lo) / (hi - lo)
            for e, support in zip(scaled, bounds.tolist()):
                supports[e] = tuple(support)
        if not all_bernoulli:
            q[[e for e, kind in enumerate(kinds) if kind is POINT]] = 0.0
        return cls(kinds, means, tuple(supports), q, all_bernoulli)

    @classmethod
    def from_arms(cls, arms: Iterable[Arm]) -> "ArmTable":
        arms = list(arms)
        return cls.from_columns([arm.kind for arm in arms], [arm.mean for arm in arms],
                                [arm.support for arm in arms])

    def __len__(self) -> int:
        return len(self.means)

    @property
    def dense(self) -> bool:
        """Whether sessions over this table keep an int64 ledger and return arrays of means."""
        return len(self.means) >= DENSE_MIN_ARMS

    def batch_mean(self, e: int, count: int, hits: int) -> float:
        """Mean of ``count`` pulls of arm ``e`` with ``hits`` successes."""
        kind = self.kinds[e]
        if kind == POINT:
            return self.means[e]
        if kind == BERNOULLI:
            return hits / count
        lo, hi = self.supports[e]
        return (lo * (count - hits) + hi * hits) / count


def _is_id(e) -> bool:
    """An arm id is a Python or numpy integer, and not a bool."""
    return type(e) is int or isinstance(e, np.integer)


# True for an iterable of Python int types only; anything else, numpy
# integers included, goes on to the per-element check of ``_check_ids``.
_ONLY_INTS = frozenset({int}).issuperset


def _check_ids(unique: Iterable) -> None:
    """Refuse any element that is not an integer arm id."""
    for e in unique:
        if not _is_id(e):
            raise DomainError(f"arm id {e!r} is not an integer")


def _sorted_ids(elements: Iterable[int], array: bool) -> np.ndarray | list[int]:
    """``elements`` as strictly increasing ids: an int64 array if ``array``, else a list.

    An integer array that already increases strictly is taken as it is, so
    that ``Matroid.ground_ids`` costs no sort.
    """
    if type(elements) is not np.ndarray:
        unique = set(elements)
        if not _ONLY_INTS(map(type, unique)):
            _check_ids(unique)
        ordered = sorted(unique)
        return np.array(ordered, dtype=np.int64) if array else ordered
    if elements.dtype.kind not in "iu":
        raise DomainError(f"arm ids must be integers, not {elements.dtype}")
    ids = elements.astype(np.int64, copy=False)
    if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
        ids = np.unique(ids)
    return ids if array else ids.tolist()


def _validate(eps: float, delta: float) -> None:
    """Accuracy and confidence checks shared by every sampling algorithm."""
    if not eps > 0:
        raise DomainError("eps must be > 0")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")


def _check_drawable(delta: float) -> None:
    """A derived confidence that underflowed to 0.0 asks for endless pulls: not drawable."""
    if delta == 0.0:
        raise BudgetError("confidence underflows to 0; the batch is not drawable", "drawability")


def ceil_pulls(formula: Callable[[], float]) -> int:
    """``formula()`` pulls per arm, ceiled, minimum one; a float overflow is not drawable."""
    try:
        return max(1, math.ceil(formula()))
    except OverflowError:
        raise BudgetError("pull count overflows a float; the batch is not drawable",
                          "drawability") from None


def sample_size(eps: float, delta: float) -> int:
    """Per-arm pull count guaranteeing |empirical - true| < eps w.p. 1 - delta;
    a ``delta`` of 0.0, which a quotient of a tiny confidence gives, is not drawable."""
    _check_drawable(delta)
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
        n = len(self._arms)
        self._dense = self._arms.dense
        # plain Python ints on a small table; a dense one's int64 ledger turns
        # into them before a count could pass int64 (see ``_add_pulls``)
        self._pulls = np.zeros(n, np.int64) if self._dense else [0] * n
        self._total = 0
        self._max_pulls = max_pulls

    @property
    def total_samples(self) -> int:
        return self._total

    def ledger(self) -> np.ndarray | tuple[int, ...]:
        """The per-arm pull counts in the session's own form: a dense session's
        int64 array itself, not a copy; a tuple of Python ints on a small
        table, and once the total could pass int64 (see ``_add_pulls``)."""
        pulls = self._pulls
        return pulls if type(pulls) is np.ndarray else tuple(pulls)

    def _check_ends(self, first: int, last: int) -> None:
        """Refuse ids from ``first`` up to ``last`` unless both ends, and so all of them, are arms."""
        if first < 0 or last >= len(self._arms):
            raise DomainError(f"unknown arm {first if first < 0 else last}")

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
        if not _is_id(e):
            raise DomainError(f"arm id {e!r} is not an integer")
        self._check_ends(e, e)
        arms = self._arms
        stochastic = arms.kinds[e] != POINT
        self._check_batch(count, 1, stochastic)
        hits = int(self._rng.binomial(count, arms.q[e])) if stochastic else 0
        self._add_pulls([e], count)
        return arms.batch_mean(e, count, hits)

    def _add_pulls(self, ids: Sequence[int] | np.ndarray, count: int) -> None:
        """Record ``count`` pulls of each of the distinct ``ids``.

        No arm's count exceeds the total, so an int64 ledger is exact while
        the total stays below ``2**63``; before it could reach that, the
        ledger turns into Python ints, once, for good.
        """
        total = self._total + len(ids) * count
        pulls = self._pulls
        if type(pulls) is np.ndarray:
            if total < 2**63:
                pulls[ids] += count
                self._total = total
                return
            self._pulls = pulls = pulls.tolist()
        for e in ids:
            pulls[e] += count
        self._total = total

    def sample_ids(self, m: Matroid, exclude: Collection[int] = frozenset()) -> Collection[int]:
        """The ground of ``m`` less ``exclude``, in the form this session draws from fastest.

        A dense session gets a sorted int64 array, ``m.ground_ids`` itself
        when nothing is excluded; a small one gets a tuple or a set, so that
        no array is built for a small table.
        """
        if not self._dense:
            return m.ground_set - exclude if exclude else m.ground
        ids = m.ground_ids
        return ids[~np.isin(ids, np.fromiter(exclude, np.int64, len(exclude)))] if exclude else ids

    def uniform_sample(self, elements: Iterable[int], count: int) -> dict[int, float] | np.ndarray:
        """Pull every element exactly ``count`` fresh times; return the batch means.

        Earlier pulls of the same arms never leak into the estimate. The
        stochastic arms take one vector binomial draw in id order, which
        yields the values one ``pull_batch`` per arm would. A batch over the
        budget or past the drawability bound is refused whole with
        ``BudgetError``: nothing is drawn and nothing is recorded. An id that
        is not an integer, or not an arm, is refused with ``DomainError``.

        A small table returns a dict. A dense one returns a read-only float64
        array over the whole table, NaN for every arm outside the batch, and
        takes a strictly increasing int64 array of ids as it is.
        """
        if count < 1:
            raise DomainError("batch size must be >= 1")
        ids = _sorted_ids(elements, self._dense)
        if len(ids):
            self._check_ends(ids[0], ids[-1])
        means = self._draw(ids, count)
        self._add_pulls(ids, count)
        if not self._dense:
            return dict(zip(ids, means.tolist()))
        dense = np.full(len(self._arms), np.nan)
        dense[ids] = means
        dense.flags.writeable = False
        return dense

    def _draw(self, ids: list[int] | np.ndarray, count: int) -> np.ndarray:
        """Check and draw one batch of the increasing ``ids``; their means in order, unrecorded."""
        arms, kinds = self._arms, self._arms.kinds
        if not arms.all_bernoulli and type(ids) is np.ndarray:
            ids = ids.tolist()  # the per-arm code below reads Python ints faster
        stochastic = ids if arms.all_bernoulli else [e for e in ids if kinds[e] != POINT]
        self._check_batch(count, len(ids), len(stochastic) > 0)
        draws = self._rng.binomial(count, arms.q[stochastic]) if len(stochastic) else np.zeros(0)
        if arms.all_bernoulli and count <= 2**53:
            # hits and count are exact in float64 here, so each quotient is
            # rounded once, as Python's hits / count is
            return draws / count
        hits = iter(draws.tolist())
        return np.array([arms.batch_mean(e, count, 0 if kinds[e] == POINT else next(hits))
                         for e in ids])

    def random_subset(self, elements: Iterable[int], p: float) -> frozenset[int]:
        """Keep each element independently with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise DomainError("p must lie in [0, 1]")
        ids = _sorted_ids(elements, self._dense)
        keep = self._rng.random(len(ids)) < p
        return frozenset(ids[keep].tolist() if self._dense else compress(ids, keep.tolist()))


def trial_seed(master_seed: int, trial_index: int) -> SeedSequence:
    """Deterministic per-trial stream, independent of worker scheduling."""
    return SeedSequence((int(master_seed), int(trial_index)))
