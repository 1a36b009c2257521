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
arrays, such as ``Matroid.ground_ids``, for views of any size; their
``random_subset`` returns its ids as such an array too, which
``Matroid.restrict`` keeps as the view's ground; a batch is one vector
binomial draw. A smaller table's sessions keep a list ledger, draw each
stochastic arm with one scalar ``binomial`` call in id order (the stream
that ``pull_batch`` draws), return dicts and hand out tuples or sets, which
cost less than numpy's fixed per-call cost on a few arms. Both forms draw
the same numbers and record the same pulls.

A ground reaches a session in one of the three forms that :mod:`.matroids`
holds: a family's ``range`` of 0..n-1, a view's sorted int64 array, or a
frozenset. An all-Bernoulli table holds its means as its ``q`` array, and no
Python object per arm.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import chain, compress
from numbers import Real
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Sequence

import numpy as np

# Imported by name so that numpy, which loads numpy.random lazily, loads it
# here once: trial workers forked after this import do not load it again.
from numpy.random import SeedSequence, default_rng

from .errors import BudgetError, DomainError, ValidationError, integer, real, seed_integer

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


@dataclass(frozen=True, eq=False)
class ArmTable:
    """Arms as columns: a kind, a mean and a support (or None) per arm id.

    ``mean_array`` holds the means as one read-only float64 array, and ``q``
    each arm's binomial success probability, computed once per table; a point
    mass takes no draw and has q = 0. In an all-Bernoulli table the two are
    one array, and no per-arm kind or support is held: ``kinds`` and
    ``supports`` are built on first use, as the ``means`` tuple is on every
    table. Tables compare by value and pickle as their columns, never as one
    record per arm or with what was built on first use.
    """

    q: np.ndarray = field(repr=False)
    mean_array: np.ndarray = field(repr=False)
    mixed_kinds: tuple[str, ...] | None  # None when every arm is Bernoulli
    mixed_supports: tuple[tuple[float, float] | None, ...] | None

    def __post_init__(self):  # unpickled arrays are writeable again
        self.q.setflags(write=False)
        self.mean_array.setflags(write=False)

    def __reduce__(self):
        return ArmTable, (self.q, self.mean_array, self.mixed_kinds, self.mixed_supports)

    def __eq__(self, other):
        if type(other) is not ArmTable:
            return NotImplemented
        return (self.mixed_kinds == other.mixed_kinds
                and self.mixed_supports == other.mixed_supports
                and np.array_equal(self.mean_array, other.mean_array))

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
        if kinds is not None:
            try:
                kinds = tuple(map(_KINDS.__getitem__, kinds))
            except (KeyError, TypeError):
                bad = next(k for k in kinds if not (isinstance(k, str) and k in _KINDS))
                raise ValidationError(f"unknown arm kind {bad!r}") from None
            if kinds.count(BERNOULLI) == len(kinds):
                kinds = None
        n = len(means) if kinds is None else len(kinds)
        q = _numbers(means, (n,), "arm means")  # a Bernoulli arm's q is its mean
        inside = (q >= 0.0) & (q <= 1.0)  # False for NaN
        if np.count_nonzero(inside) != n:
            raise ValidationError(f"arm mean {q[inside.argmin()]} outside [0, 1]")
        scaled = [] if kinds is None else [e for e, kind in enumerate(kinds) if kind is SCALED]
        if supports is None:
            supports, with_support = None if kinds is None else [None] * n, []
        else:
            supports = list(supports)
            if len(supports) != n:
                raise ValidationError(f"{len(supports)} supports for {n} arms")
            with_support = [e for e, support in enumerate(supports) if support is not None]
        if with_support != scaled:
            e = min(set(with_support).symmetric_difference(scaled))
            if kinds is not None and kinds[e] is SCALED:
                raise ValidationError("scaled arm needs a (lo, hi) support")
            raise ValidationError(f"{BERNOULLI if kinds is None else kinds[e]} arm takes no support")
        if kinds is None:
            return cls(q, q, None, None)
        means = q.copy()
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
        q[[e for e, kind in enumerate(kinds) if kind is POINT]] = 0.0
        return cls(q, means, kinds, tuple(supports))

    @classmethod
    def from_arms(cls, arms: Iterable[Arm]) -> "ArmTable":
        arms = list(arms)
        return cls.from_columns([arm.kind for arm in arms], [arm.mean for arm in arms],
                                [arm.support for arm in arms])

    def __len__(self) -> int:
        return len(self.q)

    @property
    def all_bernoulli(self) -> bool:
        """Whether every arm is Bernoulli, as decided once per table."""
        return self.mixed_kinds is None

    @cached_property
    def kinds(self) -> tuple[str, ...]:
        return (BERNOULLI,) * len(self) if self.mixed_kinds is None else self.mixed_kinds

    @cached_property
    def supports(self) -> tuple[tuple[float, float] | None, ...]:
        return (None,) * len(self) if self.mixed_supports is None else self.mixed_supports

    @cached_property
    def means(self) -> tuple[float, ...]:
        """The means as a tuple of Python floats."""
        return tuple(self.mean_array.tolist())

    @cached_property
    def q_values(self) -> tuple[float, ...]:
        """``q`` as a tuple of Python floats, which a per-arm draw reads faster."""
        return tuple(self.q.tolist())

    @property
    def dense(self) -> bool:
        """Whether sessions over this table keep an int64 ledger and return arrays of means."""
        return len(self.q) >= DENSE_MIN_ARMS

    def batch_mean(self, e: int, count: int, hits: int) -> float:
        """Mean of ``count`` pulls of arm ``e`` with ``hits`` successes."""
        kind = BERNOULLI if self.mixed_kinds is None else self.mixed_kinds[e]
        if kind == POINT:
            return float(self.mean_array[e])
        if kind == BERNOULLI:
            return hits / count
        lo, hi = self.supports[e]
        return (lo * (count - hits) + hi * hits) / count


# True for an iterable of Python int types only; anything else, numpy
# integers included, goes on to the per-element integer rule.
_ONLY_INTS = frozenset({int}).issuperset


def _sorted_ids(elements: Iterable[int], array: bool) -> np.ndarray | list[int]:
    """``elements`` as strictly increasing ids: an int64 array if ``array``, else a list.

    Each element is checked before duplicates merge, so that a bool equal to
    an id in the batch is refused, not merged into it. An integer array that
    already increases strictly is taken as it is, so that
    ``Matroid.ground_ids`` costs no sort.
    """
    if type(elements) is not np.ndarray:
        if iter(elements) is elements:  # an iterator, which one pass would use up
            elements = list(elements)
        if not _ONLY_INTS(map(type, elements)):
            elements = [integer(e, "arm id", DomainError) for e in elements]
        ordered = sorted(set(elements))
        return np.array(ordered, dtype=np.int64) if array else ordered
    if elements.dtype.kind not in "iu":
        raise DomainError(f"arm ids must be integers, not {elements.dtype}")
    ids = elements.astype(np.int64, copy=False)
    if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
        ids = np.unique(ids)
    return ids if array else ids.tolist()


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
    eps, delta = real(eps, "eps", DomainError, "> 0"), real(delta, "delta", DomainError, "(0, 1)")
    return ceil_pulls(lambda: eps**-2 * math.log(2.0 / delta) / 2.0)


class SamplingSession:
    """Seeded RNG plus exact per-arm pull counters for a single trial.

    Single-owner: one trial, one worker. Distinct sessions run concurrently
    without coordination. ``seed`` is a ``SeedSequence`` or an integer >= 0,
    never None (which would draw OS entropy), and ``max_pulls`` is None or an
    integer >= 0; anything else is a ``DomainError``. So an identical seed
    gives an identical pull transcript, and hence identical algorithm output.
    """

    def __init__(
        self,
        arms: ArmTable | Sequence[Arm],
        seed: int | SeedSequence,
        max_pulls: int | None = None,
    ):
        if not isinstance(seed, SeedSequence):
            seed = seed_integer(seed, DomainError)
        if max_pulls is not None:
            max_pulls = integer(max_pulls, "max_pulls", DomainError, 0)
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
        count = integer(count, "batch size", DomainError, 1)
        e = integer(e, "arm id", DomainError)
        self._check_ends(e, e)
        arms = self._arms
        stochastic = arms.all_bernoulli or arms.kinds[e] != POINT
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
        stochastic arms take one binomial variate each, in id order: one
        vector draw on a dense table, one scalar draw per arm on a small one.
        Either yields the values one ``pull_batch`` per arm would. A batch over the
        budget or past the drawability bound is refused whole with
        ``BudgetError``: nothing is drawn and nothing is recorded. An id that
        is not an integer, or not an arm, is refused with ``DomainError``, as
        is a ``count`` that is not an integer of at least 1.

        A small table returns a dict. A dense one returns a read-only float64
        array over the whole table, NaN for every arm outside the batch, and
        takes a strictly increasing int64 array of ids as it is.
        """
        count = integer(count, "batch size", DomainError, 1)
        ids = _sorted_ids(elements, self._dense)
        if len(ids):
            self._check_ends(ids[0], ids[-1])
        means = self._draw(ids, count)
        self._add_pulls(ids, count)
        if not self._dense:
            return dict(zip(ids, means))
        dense = np.full(len(self._arms), np.nan)
        dense[ids] = means
        dense.flags.writeable = False
        return dense

    def _draw(self, ids: list[int] | np.ndarray, count: int) -> list[float] | np.ndarray:
        """Check and draw one batch of the increasing ``ids``; their means in
        order, unrecorded: a list on a small table, an array on a dense one."""
        arms, kinds = self._arms, self._arms.mixed_kinds
        if kinds is not None and type(ids) is np.ndarray:
            ids = ids.tolist()  # the per-arm code below reads Python ints faster
        stochastic = ids if kinds is None else [e for e in ids if kinds[e] != POINT]
        self._check_batch(count, len(ids), len(stochastic) > 0)
        if self._dense:
            draws = self._rng.binomial(count, arms.q[stochastic]) if len(stochastic) else np.zeros(0)
            if kinds is None and count <= 2**53:
                # hits and count are exact in float64 here, so each quotient is
                # rounded once, as Python's hits / count is
                return draws / count
            hits = draws.tolist()
        else:
            binomial, q = self._rng.binomial, arms.q_values
            hits = [binomial(count, q[e]) for e in stochastic]
            if kinds is None:
                return [h / count for h in hits]
        hits = iter(hits)
        means = [arms.batch_mean(e, count, 0 if kinds and kinds[e] == POINT else next(hits))
                 for e in ids]
        return np.array(means) if self._dense else means

    def random_subset(self, elements: Iterable[int], p: float) -> frozenset[int] | np.ndarray:
        """Keep each element independently with probability ``p``; an id that
        is not an integer, or not an arm, is refused as by ``uniform_sample``,
        and so is a ``p`` that is not a real number in [0, 1].

        A small table returns a frozenset. A dense one returns the kept ids as
        a sorted, read-only int64 array, which ``Matroid.restrict`` holds as
        the view's ground as it is.
        """
        p = real(p, "p", DomainError, "[0, 1]")
        ids = _sorted_ids(elements, self._dense)
        if len(ids):
            self._check_ends(ids[0], ids[-1])
        keep = self._rng.random(len(ids)) < p
        if not self._dense:
            return frozenset(compress(ids, keep.tolist()))
        kept = ids[keep]
        kept.flags.writeable = False
        return kept


def trial_seed(master_seed: int, trial_index: int) -> SeedSequence:
    """Deterministic per-trial stream, independent of worker scheduling."""
    return SeedSequence((seed_integer(master_seed, DomainError, "master seed"),
                         seed_integer(trial_index, DomainError, "trial index")))
