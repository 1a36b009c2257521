"""Matroid oracles over integer ground sets.

Five concrete families (uniform, partition, laminar, graphic, transversal),
lazy restriction/contraction views, incremental independent sets, the
blocking predicate, greedy maximum weight basis, and optimality /
eps-optimality checkers.

Element ids are stable across views: a view exposes a subset of its parent's
ids and never renumbers.

Greedy, the pruning sweep's candidates and the eps-optimality check read
weights in vector form when they come as a float array indexed by element
id, which is what a dense sampling session returns; mappings and sequences
keep the per-element reference code, which tests pin the vector form
against. Both refuse a missing or NaN weight, and a negative id, which an
array or a sequence would read from its end. The form is the caller's:
:mod:`.sampling` decides a table's, and its sessions hand algorithms their
ids (``sample_ids``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import combinations, filterfalse
from numbers import Integral
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError

ElementSet = frozenset[int]

# Weight lookups accept anything indexable by element id (dict, list, array).
# A numpy array is read in vector form (see _read), in which NaN, or an id
# past either end, is a missing weight.
Weights = Mapping[int, float] | Sequence[float] | np.ndarray

# A DomainError names at most this many of the elements outside a ground set.
_NAMED_OUTSIDE = 10


def _outside_ground(bad: Collection) -> DomainError:
    """The error for ``bad`` elements outside a ground: the first few, sorted, and the count."""
    try:
        bad = sorted(bad)
    except TypeError:  # elements that do not compare, such as a string and a number
        bad = sorted(bad, key=repr)
    named = ", ".join(map(repr, bad[:_NAMED_OUTSIDE]))
    if len(bad) > _NAMED_OUTSIDE:
        named += f", ... ({len(bad)} in all)"
    return DomainError(f"elements [{named}] outside ground set")


def _integer(value, what: str) -> int:
    """``value`` as an int when it is an integer, numpy's included; a bool,
    a float or a string is a ``ValidationError``."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValidationError(f"{what} must be an integer, not {value!r}")
        value = int(value)
    return value


@contextmanager
def _reading(what: str):
    """Raise a missing or malformed field or container of ``what`` as a ``ValidationError``."""
    try:
        yield
    except ValidationError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__} {exc}") from None


def _capped_sets(pairs, owner: str) -> tuple[list[ElementSet], list[int]]:
    """Member sets and capacities from the ``(members, capacity)`` pairs of partition
    groups or laminar sets; ``owner`` names a set in the negative-capacity error."""
    sets, caps = [], []
    with _reading("(members, capacity) pairs"):
        for members, cap in pairs:
            sets.append(frozenset([_integer(e, "a member") for e in members]))
            caps.append(_integer(cap, "a capacity"))
    if min(caps, default=0) < 0:
        raise ValidationError(f"{owner} capacity must be >= 0")
    return sets, caps


def _unhashable(e) -> DomainError | None:
    """The error for an element that cannot be hashed, so lies in no ground
    set; None when ``e`` can be hashed."""
    try:
        hash(e)
    except TypeError:
        return DomainError(f"element {e!r} outside ground set: "
                           f"{type(e).__name__} is unhashable")
    return None


class IndependentSet:
    """An independent set grown one element at a time; see :meth:`Matroid.growing`.

    ``add(e)`` keeps ``e`` iff that raises the rank and says whether it did;
    ``spans(e)`` says whether ``e`` lies in the closure of the kept elements.
    Once it keeps ``full_rank`` elements it spans every element: greedy and
    :func:`unblocked` stop on that count and ask the set nothing more.
    Elements must lie in the matroid's ground set; callers check that once.
    This generic version asks ``rank`` once per query. A family may subclass
    it with a test that needs no ``rank`` call (a count or a union-find),
    updating its state in ``_keep``, and count its rank with it.
    """

    def __init__(self, m: "Matroid"):
        self._m = m
        self._kept: set[int] = set()

    def spans(self, e: int) -> bool:
        kept = self._kept
        return e in kept or self._m.rank(kept | {e}) == len(kept)

    def add(self, e: int) -> bool:
        try:
            if self.spans(e):
                return False
        except TypeError:
            error = _unhashable(e)
            if error is None:
                raise
            raise error from None
        self._keep(e)
        self._kept.add(e)
        return True

    def _keep(self, e: int) -> None:
        pass


class Matroid:
    """Base class: a concrete family implements ``rank``, ``growing`` or both.

    Independence, bases, blocking and the views derive from ``rank``; greedy,
    pruning, loops and contraction from the :class:`IndependentSet` that
    ``growing`` returns. Partition, laminar and graphic implement only that
    set and keep the base ``rank``, which counts what a fresh set keeps.
    A family or view that inherits ``rank``, ``restrict`` or ``contract``
    still names it in its own dict (``rank = Matroid.rank``), because
    perfbench's tracer wraps only what a class's own dict holds. Instances
    are immutable after construction and safe to share across concurrent
    workers.
    """

    _ground: tuple[int, ...]
    _ground_set: ElementSet
    _ground_ids: np.ndarray | None
    _full_rank: int | None

    def _init_ground(self, ground: Iterable[int]) -> None:
        """Set the ground from ``ground``; a frozenset is kept as it is, not copied,
        and a step-1 range, already sorted and distinct, is not sorted."""
        if type(ground) is range and ground.step == 1:
            self._ground = tuple(ground)
            self._ground_set = frozenset(self._ground)  # shares the tuple's int objects
        else:
            self._ground_set = frozenset(ground)
            self._ground = tuple(sorted(self._ground_set))
        self._ground_ids = None
        self._full_rank = None

    @property
    def ground(self) -> tuple[int, ...]:
        return self._ground

    @property
    def ground_ids(self) -> np.ndarray:
        """The ground set as a sorted, read-only int64 array, built on first use."""
        if self._ground_ids is None:
            ids = np.fromiter(self._ground, np.int64, len(self._ground))
            ids.flags.writeable = False
            self._ground_ids = ids
        return self._ground_ids

    @property
    def ground_set(self) -> ElementSet:
        return self._ground_set

    @property
    def size(self) -> int:
        return len(self._ground)

    @property
    def full_rank(self) -> int:
        """rank of the whole ground set (the common size of all bases)."""
        if self._full_rank is None:
            self._full_rank = self.rank(self._ground_set)
        return self._full_rank

    def _as_subset(self, elements: Iterable[int]) -> ElementSet:
        try:
            subset = frozenset(elements)
        except TypeError:
            if not isinstance(elements, Iterable):
                raise DomainError(f"expected an iterable of elements, not {elements!r}") from None
            # an iterator has passed the element that failed; name it when it can be found
            errors = filter(None, map(_unhashable, elements))
            raise next(errors, DomainError("an unhashable element is outside ground set")) from None
        if not subset <= self._ground_set:
            raise _outside_ground(subset - self._ground_set)
        return subset

    def rank(self, elements: Iterable[int]) -> int:
        """The number of ``elements`` that a fresh :meth:`growing` set keeps."""
        return sum(map(self.growing().add, self._as_subset(elements)))

    def growing(self) -> IndependentSet:
        """An empty independent set of this matroid, to grow by ``add``."""
        return IndependentSet(self)

    def is_independent(self, elements: Iterable[int]) -> bool:
        subset = self._as_subset(elements)
        return self.rank(subset) == len(subset)

    def is_basis(self, elements: Iterable[int]) -> bool:
        subset = self._as_subset(elements)
        return len(subset) == self.full_rank and self.is_independent(subset)

    def blocks(self, elements: Iterable[int], e: int) -> bool:
        """True iff adding ``e`` to ``elements`` does not raise the rank."""
        subset = self._as_subset(elements)
        try:
            inside = e in subset
        except TypeError:
            raise _unhashable(e) from None
        if inside:
            raise DomainError(f"element {e} is inside the blocking set")
        if e not in self._ground_set:
            raise DomainError(f"element {e} outside ground set")
        return self.rank(subset | {e}) == self.rank(subset)

    def restrict(self, keep: Iterable[int]) -> "Matroid":
        keep_set = self._as_subset(keep)
        if keep_set == self._ground_set:
            return self
        return _RestrictionView(self, keep_set)

    def contract(self, committed: Iterable[int]) -> "Matroid":
        committed_set = self._as_subset(committed)
        if not committed_set:
            return self
        return _ContractionView(self, committed_set)

    def loops(self) -> ElementSet:
        """Elements of rank zero, which lie in no basis: those the empty set spans."""
        empty = self.growing()
        return frozenset(e for e in self._ground if empty.spans(e))

    def isolated_and_loops(self) -> tuple[ElementSet, ElementSet]:
        """(elements in every basis, elements in no basis)."""
        total = self.full_rank
        isolated = frozenset(
            e for e in self._ground if self.rank(self._ground_set - {e}) < total
        )
        return isolated, self.loops()


class UniformMatroid(Matroid):
    """Independent sets are all subsets of size at most ``k``."""

    def __init__(self, n: int, k: int):
        n, k = _integer(n, "n"), _integer(k, "k")
        if n < 0 or k < 0:
            raise ValidationError("uniform matroid needs n >= 0 and k >= 0")
        self._init_ground(range(n))
        self.k = min(k, n)

    def rank(self, elements: Iterable[int]) -> int:
        subset = self._as_subset(elements)
        return min(len(subset), self.k)

    def growing(self) -> IndependentSet:
        return _UniformSet(self)

    def loops(self) -> ElementSet:
        """No element when ``k >= 1``; every element when ``k == 0``."""
        return frozenset() if self.k else self._ground_set


class _UniformSet(IndependentSet):
    """Spans everything once ``k`` elements are kept.

    Views hand back their parent's set, so a view's ground is spanned too.
    """

    def spans(self, e: int) -> bool:
        return len(self._kept) >= self._m.k or e in self._kept


class PartitionMatroid(Matroid):
    """Disjoint groups covering the ground set, each with a capacity."""

    def __init__(self, groups: Sequence[tuple[Iterable[int], int]]):
        members_by_group, caps = _capped_sets(groups, "group")
        ground = frozenset().union(*members_by_group)
        if len(ground) != sum(map(len, members_by_group)):
            raise ValidationError("partition groups must be disjoint")
        self._init_ground(ground)
        self._caps = tuple(caps)
        self._covers = {e: (gi,) for gi, mset in enumerate(members_by_group) for e in mset}
        self._groups = tuple(members_by_group)

    rank = Matroid.rank

    def growing(self) -> IndependentSet:
        return _CappedSet(self)


class LaminarMatroid(Matroid):
    """Capacity constraints over a nested (laminar) family of sets.

    A set is independent iff it meets every family set within that set's
    capacity. Elements not covered by any family set are unconstrained.
    """

    def __init__(self, n: int, sets: Sequence[tuple[Iterable[int], int]]):
        n = _integer(n, "n")
        if n < 0:
            raise ValidationError("laminar matroid needs n >= 0")
        self._init_ground(range(n))
        family, caps = _capped_sets(sets, "laminar")
        if not all(mset <= self._ground_set for mset in family):
            raise ValidationError("laminar set contains unknown elements")
        for a, b in combinations(family, 2):
            if a & b and not (a <= b or b <= a):
                raise ValidationError("laminar family must be nested")
        self._family = tuple(family)
        self._caps = tuple(caps)
        self._covers = {
            e: tuple(si for si, mset in enumerate(family) if e in mset)
            for e in self._ground
        }

    rank = Matroid.rank

    def growing(self) -> IndependentSet:
        return _CappedSet(self)


class _CappedSet(IndependentSet):
    """A count per capped set (a partition group or a laminar family set).

    ``e`` is spanned once a set covering it is full; ``m._covers[e]`` lists
    the indices of those sets and ``m._caps`` their capacities.
    """

    def __init__(self, m: PartitionMatroid | LaminarMatroid):
        super().__init__(m)
        self._counts = [0] * len(m._caps)

    def spans(self, e: int) -> bool:
        counts, caps = self._counts, self._m._caps
        for si in self._m._covers[e]:  # a loop, not any(): no generator per call
            if counts[si] >= caps[si]:
                return True
        return e in self._kept

    def _keep(self, e: int) -> None:
        for si in self._m._covers[e]:
            self._counts[si] += 1


class GraphicMatroid(Matroid):
    """Edges of a multigraph; independent sets are forests.

    Element ``i`` is the ``i``-th edge. Self-loops are matroid loops. The
    vertices that edges touch are numbered once, so that a forest's
    union-find is no longer than the edge list, whatever ``num_vertices`` is.
    """

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        num_vertices = _integer(num_vertices, "num_vertices")
        if num_vertices < 0:
            raise ValidationError("graphic matroid needs num_vertices >= 0")
        checked = []
        with _reading("edges, which must be pairs of endpoints"):
            for u, v in edges:
                u, v = _integer(u, "an endpoint"), _integer(v, "an endpoint")
                if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                    raise ValidationError(f"edge ({u}, {v}) has an unknown endpoint")
                checked.append((u, v))
        self.num_vertices = num_vertices
        self.edges = tuple(checked)
        touched: dict[int, int] = {}
        self._ends = tuple(
            (touched.setdefault(u, len(touched)), touched.setdefault(v, len(touched)))
            for u, v in self.edges
        )
        self._num_touched = len(touched)
        self._init_ground(range(len(self.edges)))

    rank = Matroid.rank

    def growing(self) -> IndependentSet:
        return _Forest(self)


class _Forest(IndependentSet):
    """Union-find over the touched vertices; an edge is spanned once its ends are joined."""

    def __init__(self, m: GraphicMatroid):
        super().__init__(m)
        self._parent = list(range(m._num_touched))

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def spans(self, e: int) -> bool:
        u, v = self._m._ends[e]
        return self._find(u) == self._find(v)

    def _keep(self, e: int) -> None:
        u, v = self._m._ends[e]
        self._parent[self._find(u)] = self._find(v)


class TransversalMatroid(Matroid):
    """Tasks matchable to distinct workers in a bipartite graph.

    Elements are tasks; ``workers[j]`` lists the tasks worker ``j`` can do.
    A task set is independent iff a matching saturates it. ``rank`` counts
    the tasks that augmenting paths match, and is all the family implements:
    its :class:`IndependentSet` is the generic one, one ``rank`` per query.
    An incremental matching would be the most code of any family, and
    nothing larger than the five-task ``transversal5`` builtin runs one.
    """

    def __init__(self, n: int, workers: Sequence[Iterable[int]]):
        n = _integer(n, "n")
        if n < 0:
            raise ValidationError("transversal matroid needs n >= 0")
        self._init_ground(range(n))
        with _reading("workers, which must be lists of tasks"):
            self.workers = tuple(tuple(sorted({_integer(t, "a task") for t in tasks}))
                                 for tasks in workers)
        adj: list[list[int]] = [[] for _ in range(n)]
        for wi, tasks in enumerate(self.workers):
            for t in tasks:
                if not 0 <= t < n:
                    raise ValidationError(f"worker {wi} references unknown task {t}")
                adj[t].append(wi)
        self._task_adj = tuple(map(tuple, adj))

    def rank(self, elements: Iterable[int]) -> int:
        subset = self._as_subset(elements)
        owner: dict[int, int] = {}

        def augment(root: int) -> bool:
            # Depth-first search for an augmenting path, kept on an explicit
            # stack: paths can be as long as the query set.
            seen: set[int] = set()
            tasks = [(root, iter(self._task_adj[root]))]
            via: list[int] = []  # via[i] is the worker leading from tasks[i]
            while tasks:
                for w in tasks[-1][1]:
                    if w not in seen:
                        break
                else:
                    tasks.pop()
                    if via:
                        via.pop()
                    continue
                seen.add(w)
                via.append(w)
                if w not in owner:
                    for (task, _), worker in zip(tasks, via):
                        owner[worker] = task
                    return True
                tasks.append((owner[w], iter(self._task_adj[owner[w]])))
            return False

        return sum(1 for t in sorted(subset) if augment(t))


class _RestrictionView(Matroid):
    """Sub-matroid on a subset of a parent's ground; the parent is never a restriction."""

    def __init__(self, parent: Matroid, keep: ElementSet):
        if isinstance(parent, _RestrictionView):
            parent = parent._parent
        self._parent = parent
        self._init_ground(keep)

    def rank(self, elements: Iterable[int]) -> int:
        return self._parent.rank(self._as_subset(elements))

    def growing(self) -> IndependentSet:
        return self._parent.growing()

    restrict = Matroid.restrict
    contract = Matroid.contract


class _ContractionView(Matroid):
    """Matroid conditioned on committing an independent set.

    The ground set drops the committed elements and everything they block,
    so contraction never introduces loops. The parent is never a contraction:
    contracting one commits both sets in one view over its parent.
    """

    def __init__(self, parent: Matroid, committed: ElementSet):
        """``committed`` is a subset of ``parent``'s ground, which every caller has checked."""
        if isinstance(parent, _ContractionView):
            # committed is independent in the contraction iff the union is in its parent
            parent, committed = parent._parent, parent._committed | committed
        if not parent.is_independent(committed):
            raise PreconditionError("can only contract an independent set")
        self._parent = parent
        self._committed = committed
        grown = self.growing()
        self._init_ground(
            e for e in parent.ground if e not in committed and not grown.spans(e)
        )

    def rank(self, elements: Iterable[int]) -> int:
        subset = self._as_subset(elements)
        return self._parent.rank(subset | self._committed) - len(self._committed)

    def growing(self) -> IndependentSet:
        """The parent's independent set, seeded with the committed elements."""
        grown = self._parent.growing()
        for e in self._committed:
            grown.add(e)
        return grown

    contract = Matroid.contract

    def restrict(self, keep: Iterable[int]) -> Matroid:
        keep_set = self._as_subset(keep)
        if keep_set == self._ground_set:
            return self
        inner = self._parent.restrict(keep_set | self._committed)
        return _ContractionView(inner, self._committed)


def _weight(weights: Weights, e: int) -> float:
    try:
        w = float(weights[e])
    except (KeyError, IndexError):
        w = math.nan
    # missing, NaN (which array-form weights also refuse), or a negative id
    # that a sequence would read from its end
    if w != w or (e < 0 and not isinstance(weights, Mapping)):
        raise DomainError(f"no weight defined for element {e}")
    return w


def _read(dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The weights of ``ids`` in ``dense``, once each of them has one: not NaN, not outside it."""
    if len(ids) and ids.min() < 0:  # numpy would read a negative id from the end
        raise DomainError(f"no weight defined for element {ids.min()}")
    try:
        w = dense[ids]
    except IndexError:
        raise DomainError(f"no weight defined for element {ids.max()}") from None
    missing = np.isnan(w)
    if missing.any():
        raise DomainError(f"no weight defined for element {ids[missing][0]}")
    return w


def shifted_thresholds(
    means: Mapping[int, float] | np.ndarray, first: float, *rest: float,
    exclude: Collection[int] = (),
) -> dict[int, float] | np.ndarray:
    """Each estimate plus the offsets, added one at a time, for every arm not in ``exclude``.

    The offsets go in left to right, as ``(m - alpha) - 2 * lam`` does; one
    sum of them could round differently. An array of means, NaN for an arm
    with none, gives a threshold array, NaN for every other id, that
    :func:`unblocked` reads in vector form; a mapping gives a dict.
    """
    if type(means) is np.ndarray:
        shifted = means + first
        for offset in rest:
            shifted += offset
        if exclude:
            shifted[np.fromiter(exclude, np.int64, len(exclude))] = np.nan
        return shifted
    thresholds = {e: t + first for e, t in means.items() if e not in exclude}
    for offset in rest:
        thresholds = {e: t + offset for e, t in thresholds.items()}
    return thresholds


def greedy_max_basis(m: Matroid, weights: Weights) -> ElementSet:
    """Maximum-weight basis by the greedy algorithm.

    Ties are broken by (weight desc, id asc), so the result is well defined
    even when empirical weights collide. With distinct weights this is the
    unique optimum. Array-form weights are ordered by one ``lexsort``.
    """
    if type(weights) is not np.ndarray:
        order = sorted(m.ground, key=lambda e: (-_weight(weights, e), e))
    else:
        ids = m.ground_ids
        order = ids[np.lexsort((ids, -_read(weights, ids)))].tolist()
    k = m.full_rank
    grown = m.growing()
    basis = []
    for e in order:
        if len(basis) == k:  # a basis spans every later element
            break
        if grown.add(e):
            basis.append(e)
    return frozenset(basis)


def basis_weight(basis: Iterable[int], weights: Weights) -> float:
    return math.fsum(_weight(weights, e) for e in basis)


class _Marked:
    """The ids that a boolean mask marks, with the three set operations that
    :func:`unblocked` applies to its low candidates; a Python set of them is
    built only when every one of them needs a ``spans``."""

    __slots__ = ("mask",)

    def __init__(self, mask: np.ndarray):
        self.mask = mask

    def __bool__(self) -> bool:
        return bool(self.mask.any())

    def difference(self, other: Collection[int]) -> set[int]:
        return set(np.flatnonzero(self.mask).tolist()).difference(other)

    def intersection(self, other: Iterable[int]) -> list[int]:
        mask = self.mask
        return [e for e in other if e < len(mask) and mask[e]]


def _split_array(m: Matroid, thresholds: np.ndarray, floor: float) -> tuple[list[int], _Marked]:
    """A threshold array's candidates above ``floor``, by descending threshold then id; and the rest."""
    n = len(thresholds)
    ids = m.ground_ids
    if not (len(ids) >= n and (n == 0 or ids[n - 1] == n - 1)):  # the ground is not all of 0..n-1
        outside = ~np.isnan(thresholds)
        lo, hi = np.searchsorted(ids, (0, n))  # a negative id would clear an entry from the end
        outside[ids[lo:hi]] = False
        if outside.any():
            raise _outside_ground(np.flatnonzero(outside).tolist())
    high = np.flatnonzero(thresholds > floor)
    high = high[np.argsort(-thresholds[high], kind="stable")]
    return high.tolist(), _Marked(thresholds <= floor)


def unblocked(
    m: Matroid, pool: Iterable[int], weights: Weights, thresholds: Mapping[int, float] | np.ndarray
) -> ElementSet:
    """Keys e of ``thresholds`` not blocked by {a in pool : a != e, weights[a] >= thresholds[e]}.

    The pruning step shared by every algorithm and optimality check, done as
    offline MSF verification in one sweep: candidates are visited by
    descending threshold while one :class:`IndependentSet` takes in the pool
    members at or above it (``heavy``) by descending weight. A candidate the
    set did not keep costs one ``spans``: outside ``heavy`` it is outside its
    blocking set, and a member the set refused was spanned by heavier ones.
    A member the set kept must leave itself out, so it costs one
    :meth:`Matroid.blocks`: at most rank(pool) of them per call.

    Only candidates above the pool's lightest weight are sorted and swept.
    Every other one faces the whole pool, so the set takes in the rest of the
    pool first. When it then holds ``full_rank`` members it spans every
    element, so only the members it kept need an answer.

    ``thresholds`` may also be a float array indexed by element id, NaN for
    an element that is no candidate: one mask splits its candidates at the
    pool's lightest weight, and a stable argsort orders the high ones. The
    pool's weights are read one element at a time in either form: every pool
    holds about rank(m) elements (an inner solution, or a basis to judge).
    """
    pool = m._as_subset(pool)
    pending = sorted((_weight(weights, a), a) for a in pool)  # the heaviest last
    floor = pending[0][0] if pending else math.inf
    if type(thresholds) is np.ndarray:
        high, low = _split_array(m, thresholds, floor)
    else:
        candidates = m._as_subset(thresholds)
        high = [e for e in candidates if thresholds[e] > floor]
        high.sort(key=thresholds.__getitem__, reverse=True)
        low = candidates.difference(high)
    grown = m.growing()
    heavy, taken, kept = set(), set(), set()
    for e in high:
        t = thresholds[e]
        while pending and pending[-1][0] >= t:
            a = pending.pop()[1]
            heavy.add(a)
            if grown.add(a):
                taken.add(a)
        if not (m.blocks(heavy - {e}, e) if e in taken else grown.spans(e)):
            kept.add(e)
    if not low:
        return frozenset(kept)
    for _, a in reversed(pending):  # every other candidate faces the whole pool
        if grown.add(a):
            taken.add(a)
    if len(taken) < m.full_rank:
        kept.update(filterfalse(grown.spans, low.difference(taken)))
    for e in low.intersection(taken):
        if not m.blocks(pool - {e}, e):
            kept.add(e)
    return frozenset(kept)


def elementwise_within_eps(
    basis: Iterable[int], opt: Iterable[int], weights: Weights, eps: float
) -> bool:
    """Sorted position-by-position comparison against the optimum ``opt``."""
    mine = sorted((_weight(weights, a) for a in basis), reverse=True)
    best = sorted((_weight(weights, a) for a in opt), reverse=True)
    return all(x >= y - eps - 1e-12 for x, y in zip(mine, best))


def avg_within_eps(
    basis: Collection[int], opt: Iterable[int], weights: Weights, eps: float
) -> bool:
    """Mean weight within ``eps`` of the mean weight of the optimum ``opt``."""
    k = len(basis)
    return k == 0 or (
        basis_weight(basis, weights) / k >= basis_weight(opt, weights) / k - eps - 1e-12
    )


def _checked_basis(m: Matroid, basis: Iterable[int], eps: float) -> ElementSet:
    """``basis`` as a set, once ``eps >= 0`` (so not NaN) and ``basis`` is a basis of ``m``."""
    if not eps >= 0:
        raise DomainError("eps must be >= 0")
    bset = m._as_subset(basis)
    if not m.is_basis(bset):
        raise PreconditionError("candidate set is not a basis")
    return bset


def is_optimal_basis(m: Matroid, basis: Iterable[int], weights: Weights) -> bool:
    """True iff every excluded element is blocked by its heavier part of the basis."""
    return is_eps_optimal(m, basis, weights, 0.0)


def is_eps_optimal(m: Matroid, basis: Iterable[int], weights: Weights, eps: float) -> bool:
    """True iff the basis becomes optimal once all its weights gain ``eps``.

    Checked through the blocking characterization: every excluded element
    must be blocked by basis elements of weight >= (its own weight - eps).
    Comparisons are exact float comparisons. Monotone in ``eps``.
    """
    bset = _checked_basis(m, basis, eps)
    if type(weights) is not np.ndarray:
        thresholds = {e: _weight(weights, e) - eps for e in m.ground if e not in bset}
    else:
        ids = m.ground_ids
        thresholds = np.full(len(weights), np.nan)
        thresholds[ids] = _read(weights, ids) - eps
        thresholds[np.fromiter(bset, np.int64, len(bset))] = np.nan
    return not unblocked(m, bset, weights, thresholds)


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
