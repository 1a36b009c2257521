"""Matroid oracles over integer ground sets.

Five concrete families (uniform, partition, laminar, graphic, transversal),
flat restriction/contraction views, incremental independent sets, the
blocking predicate, greedy maximum weight basis, per-element gaps, and
optimality / eps-optimality checkers.

Element ids are stable across views: a view exposes a subset of its family's
ids and never renumbers. A ground is held in one of three forms, and every
membership check reads the form it is held in:

- a family over 0..n-1 keeps its ``range``, and checks an id by its bounds;
- a view cut from an integer id array (:meth:`Matroid.restrict`), as a dense
  session's ``random_subset`` returns, keeps that array, sorted, read-only
  and int64, and checks ids by binary search;
- any other ground is a frozenset with its sorted tuple.

``ground`` (a tuple), ``ground_set`` (a frozenset) and ``ground_ids`` (an
array) give every ground in each form; a form that is not held is built on
first use and kept. Membership means what it means to a set of the ids, so
``True`` is the id 1 and ``np.int64(2)`` the id 2, in every form.

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
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError, integer, real

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
    groups or laminar sets; ``owner`` names a set in the capacity error."""
    sets, caps = [], []
    with _reading("(members, capacity) pairs"):
        for members, cap in pairs:
            sets.append(frozenset([integer(e, "a member", ValidationError) for e in members]))
            caps.append(integer(cap, f"{owner} capacity", ValidationError, 0))
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


def _int_id(e) -> int | None:
    """The int that ``e`` equals, which a set of ints would find it as (``True``
    is 1); None when no int equals it."""
    if type(e) is int:
        return e
    try:
        i = int(e)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == e else None


def _found(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which of the int64 ``values`` the sorted array ``ids`` holds: one binary search each."""
    pos = np.searchsorted(ids, values)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == values[hit]
    return hit


class IndependentSet:
    """An independent set grown one element at a time; see :meth:`Matroid.growing`.

    ``add(e)`` keeps ``e`` iff that raises the rank and says whether it did;
    ``spans(e)`` says whether ``e`` lies in the closure of the kept elements.
    Once it keeps ``full_rank`` elements it spans every element: greedy and
    :func:`unblocked` stop on that count and ask the set nothing more.
    Elements must lie in the matroid's ground set; callers check that once.
    This generic version counts one rank per query. A family may subclass
    it with a test that needs no rank (a count or a union-find), updating
    its state in ``_keep``, and count its rank with it.
    """

    def __init__(self, m: "Matroid"):
        self._m = m
        self._kept: set[int] = set()

    def spans(self, e: int) -> bool:
        kept = self._kept
        return e in kept or self._m._rank(kept | {e}) == len(kept)

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
    """Base class: a concrete family implements ``_rank``, ``growing`` or both.

    Independence, bases and blocking derive from ``_rank``, the rank of
    elements already checked to lie in the ground; ``rank`` checks them
    first. Greedy, pruning, loops and contraction derive from the
    :class:`IndependentSet` that ``growing`` returns. Partition, laminar and
    graphic implement only that set and keep the base ``_rank``, which counts
    what a fresh set keeps. ``restrict`` and ``contract`` serve families and
    views alike (see :class:`_RestrictionView`). Every family and view still
    names ``rank`` in its own dict (``rank = Matroid.rank``), and each view
    ``restrict`` and ``contract``, because perfbench's tracer wraps only what
    a class's own dict holds. Instances are immutable after construction,
    apart from the forms of the ground built on first use, and safe to share
    across concurrent workers.
    """

    _held: range | np.ndarray | ElementSet  # the ground, in the form it is held in
    _ground: tuple[int, ...] | None
    _ground_set: ElementSet | None
    _ground_ids: np.ndarray | None
    _full_rank: int | None
    _parent: "Matroid | None" = None  # a view's family; None on a family
    _committed: ElementSet = frozenset()  # what a view commits; nothing, on a family

    def _init_ground(self, ground: Iterable[int]) -> None:
        """Hold ``ground``: a step-1 range, or a sorted, read-only int64 array
        (:meth:`restrict`), as it is; anything else as a frozenset, kept as it
        is when it is one, with its sorted tuple."""
        if type(ground) is range or type(ground) is np.ndarray:
            self._held, self._ground, self._ground_set = ground, None, None
        else:
            self._held = self._ground_set = frozenset(ground)
            self._ground = tuple(sorted(self._ground_set))
        self._ground_ids = ground if type(ground) is np.ndarray else None
        self._full_rank = None

    def __getstate__(self) -> dict:
        """The ground as held, without the forms built from it on first use: a
        pickled family over 0..n-1 holds no bytes per element for its ground."""
        state, held = vars(self).copy(), self._held
        state["_ground_ids"] = held if type(held) is np.ndarray else None
        if type(held) is not frozenset:
            state["_ground"] = state["_ground_set"] = None
        return state

    def _members(self) -> Iterable[int]:
        """The ground's ids as Python ints in increasing order, read off the held form."""
        held = self._held
        if type(held) is np.ndarray:
            return held.tolist()
        return held if type(held) is range else self._ground

    @property
    def ground(self) -> tuple[int, ...]:
        """The ground as a sorted tuple, built on first use from a range or an array."""
        if self._ground is None:
            self._ground = tuple(self._members())
        return self._ground

    @property
    def ground_ids(self) -> np.ndarray:
        """The ground as a sorted, read-only int64 array, built on first use unless held as one."""
        if self._ground_ids is None:
            held = self._held
            ids = (np.arange(held.start, held.stop, dtype=np.int64) if type(held) is range
                   else np.fromiter(self._ground, np.int64, len(self._ground)))
            ids.flags.writeable = False
            self._ground_ids = ids
        return self._ground_ids

    @property
    def ground_set(self) -> ElementSet:
        """The ground as a frozenset, built on first use unless held as one."""
        if self._ground_set is None:
            self._ground_set = frozenset(self._members())
        return self._ground_set

    @property
    def size(self) -> int:
        return len(self._held)

    @property
    def ends(self) -> tuple[int, int] | None:
        """The least and the greatest id, read off the held form; None on an empty ground."""
        if not self.size:
            return None
        held = self._ground if type(self._held) is frozenset else self._held
        return int(held[0]), int(held[-1])

    @property
    def full_rank(self) -> int:
        """rank of the whole ground set (the common size of all bases), counted
        on the ground as held, which needs no check."""
        if self._full_rank is None:
            self._full_rank = self._rank(self._members())
        return self._full_rank

    def _outside(self, subset: ElementSet) -> Collection:
        """The members of ``subset`` outside the ground, found in the form it is held
        in, as a set of its ids would find them."""
        held = self._held
        if type(held) is frozenset:
            return subset - held
        if type(held) is range:
            return [e for e in subset if (i := _int_id(e)) is None or i not in held]
        if not len(held):
            return subset
        lo, hi = int(held[0]), int(held[-1])
        pairs = [(e, i) for e in subset
                 if (i := e if type(e) is int else _int_id(e)) is not None and lo <= i <= hi]
        values = np.fromiter((i for _, i in pairs), np.int64, len(pairs))
        return subset.difference([e for (e, _), hit in zip(pairs, _found(held, values)) if hit])

    def _as_subset(self, elements: Iterable[int]) -> ElementSet:
        if type(elements) is np.ndarray:
            elements = elements.tolist()  # Python numbers, as the ids they equal
        try:
            subset = frozenset(elements)
        except TypeError:
            if not isinstance(elements, Iterable):
                raise DomainError(f"expected an iterable of elements, not {elements!r}") from None
            # an iterator has passed the element that failed; name it when it can be found
            errors = filter(None, map(_unhashable, elements))
            raise next(errors, DomainError("an unhashable element is outside ground set")) from None
        held = self._held
        if type(held) is frozenset:
            if subset <= held:
                return subset
        elif type(held) is range:  # ints inside its bounds, by the loop that finds them fastest
            lo, hi = held.start, held.stop
            for e in subset:
                if type(e) is not int or not lo <= e < hi:
                    break
            else:
                return subset
        bad = self._outside(subset)
        if bad:
            raise _outside_ground(bad)
        return subset

    def _checked_ids(self, ids: np.ndarray) -> np.ndarray:
        """Integer ``ids`` as a sorted, read-only int64 array, once each lies in the
        ground, checked against ``ground_ids`` (or a range's bounds) in one vector
        step. A read-only int64 array already sorted is kept as it is."""
        if ids.dtype != np.int64 or ids.flags.writeable:
            ids = ids.astype(np.int64)
        if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        ids.flags.writeable = False
        held = self._held
        if type(held) is range:
            bad = ids[(ids < held.start) | (ids >= held.stop)]
        else:
            bad = ids[~_found(self.ground_ids, ids)]
        if len(bad):
            raise _outside_ground(bad.tolist())
        return ids

    def rank(self, elements: Iterable[int]) -> int:
        """The rank of ``elements``, once each is checked to lie in the ground."""
        return self._rank(self._as_subset(elements))

    def _rank(self, elements: Iterable[int]) -> int:
        """The rank of distinct ``elements`` of the ground, unchecked: the number
        that a fresh :meth:`growing` set keeps."""
        return sum(map(self.growing().add, elements))

    def growing(self) -> IndependentSet:
        """An empty independent set of this matroid, to grow by ``add``."""
        return IndependentSet(self)

    def is_independent(self, elements: Iterable[int]) -> bool:
        subset = self._as_subset(elements)
        return self._rank(subset) == len(subset)

    def is_basis(self, elements: Iterable[int]) -> bool:
        subset = self._as_subset(elements)
        return len(subset) == self.full_rank and self._rank(subset) == len(subset)

    def blocks(self, elements: Iterable[int], e: int) -> bool:
        """True iff adding ``e`` to ``elements`` does not raise the rank. The set
        and ``e`` are checked once; both ranks are then counted unchecked."""
        subset = self._as_subset(elements)
        try:
            inside = e in subset
        except TypeError:
            raise _unhashable(e) from None
        if inside:
            raise DomainError(f"element {e} is inside the blocking set")
        if self._outside(frozenset((e,))):
            raise DomainError(f"element {e} outside ground set")
        return self._rank(subset | {e}) == self._rank(subset)

    def restrict(self, keep: Iterable[int]) -> "Matroid":
        """This matroid on ``keep``: a view of its family that commits what this one does.

        An integer id array, as a dense session's ``random_subset`` returns, is
        checked in one vector step (:meth:`_checked_ids`) and held by the view.
        """
        if (type(keep) is np.ndarray and keep.ndim == 1 and keep.dtype.kind in "iu"
                and np.can_cast(keep.dtype, np.int64)):
            keep = self._checked_ids(keep)
        else:
            keep = self._as_subset(keep)
        if len(keep) == self.size:  # all of this ground
            return self
        view = _ContractionView if self._committed else _RestrictionView
        return view(self._parent or self, keep, self._committed)

    def contract(self, committed: Iterable[int]) -> "Matroid":
        """This matroid given the independent set ``committed``: a view of its family
        that commits both sets, over what they leave unspanned of this ground."""
        added = self._as_subset(committed)
        if not added:
            return self
        grown = self.growing()
        if not all(map(grown.add, added)):
            raise PreconditionError("can only contract an independent set")
        return _ContractionView(self._parent or self, filterfalse(grown.spans, self._members()),
                                self._committed | added)

    def loops(self) -> ElementSet:
        """Elements of rank zero, which lie in no basis: those the empty set spans."""
        return frozenset(filter(self.growing().spans, self._members()))

    def isolated_and_loops(self) -> tuple[ElementSet, ElementSet]:
        """(elements in every basis, elements in no basis)."""
        total, ground = self.full_rank, self.ground_set
        isolated = frozenset(e for e in self._members() if self.rank(ground - {e}) < total)
        return isolated, self.loops()


class UniformMatroid(Matroid):
    """Independent sets are all subsets of size at most ``k``."""

    def __init__(self, n: int, k: int):
        n, k = integer(n, "n", ValidationError, 0), integer(k, "k", ValidationError, 0)
        self._init_ground(range(n))
        self.k = min(k, n)

    rank = Matroid.rank

    def _rank(self, elements: Iterable[int]) -> int:
        return min(len(elements), self.k)

    def growing(self) -> IndependentSet:
        return _UniformSet(self)

    def loops(self) -> ElementSet:
        """No element when ``k >= 1``; every element when ``k == 0``."""
        return frozenset() if self.k else self.ground_set


class _UniformSet(IndependentSet):
    """Spans everything once ``k`` elements are kept.

    Views hand back their family's set, so a view's ground is spanned too.
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
        n = integer(n, "n", ValidationError, 0)
        self._init_ground(range(n))
        family, caps = _capped_sets(sets, "laminar")
        if any(mset and (min(mset) < 0 or max(mset) >= n) for mset in family):
            raise ValidationError("laminar set contains unknown elements")
        for a, b in combinations(family, 2):
            if a & b and not (a <= b or b <= a):
                raise ValidationError("laminar family must be nested")
        self._family = tuple(family)
        self._caps = tuple(caps)
        self._covers = {
            e: tuple(si for si, mset in enumerate(family) if e in mset)
            for e in range(n)
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
        num_vertices = integer(num_vertices, "num_vertices", ValidationError, 0)
        checked = []
        with _reading("edges, which must be pairs of endpoints"):
            for u, v in edges:
                u, v = (integer(end, "an endpoint", ValidationError) for end in (u, v))
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
    A task set is independent iff a matching saturates it. ``_rank`` counts
    the tasks that augmenting paths match, and is all the family implements:
    its :class:`IndependentSet` is the generic one, one rank per query.
    An incremental matching would be the most code of any family, and
    nothing larger than the five-task ``transversal5`` builtin runs one.
    """

    def __init__(self, n: int, workers: Sequence[Iterable[int]]):
        n = integer(n, "n", ValidationError, 0)
        self._init_ground(range(n))
        with _reading("workers, which must be lists of tasks"):
            self.workers = tuple(tuple(sorted({integer(t, "a task", ValidationError)
                                               for t in tasks})) for tasks in workers)
        adj: list[list[int]] = [[] for _ in range(n)]
        for wi, tasks in enumerate(self.workers):
            for t in tasks:
                if not 0 <= t < n:
                    raise ValidationError(f"worker {wi} references unknown task {t}")
                adj[t].append(wi)
        self._task_adj = tuple(map(tuple, adj))

    rank = Matroid.rank

    def _rank(self, elements: Iterable[int]) -> int:
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

        return sum(1 for t in sorted(elements) if augment(t))


class _RestrictionView(Matroid):
    """A family's matroid over part of its ground, given a committed set.

    ``_parent`` is the family and ``_committed`` an independent set of it,
    empty for a restriction: ``rank(S) = family.rank(S | committed) - |committed|``.
    Restricting or contracting a view gives another view of the same family
    (:meth:`Matroid.restrict`, :meth:`Matroid.contract`), never a view of a view.
    """

    def __init__(self, family: Matroid, ground: Iterable[int], committed: ElementSet):
        self._parent = family
        self._committed = committed
        self._init_ground(ground)

    def _rank(self, elements: Iterable[int]) -> int:
        committed = self._committed
        if not committed:
            return self._parent._rank(elements)
        return self._parent._rank(committed.union(elements)) - len(committed)

    def growing(self) -> IndependentSet:
        """The family's independent set, seeded with the committed elements."""
        grown = self._parent.growing()
        for e in self._committed:
            grown.add(e)
        return grown

    rank = Matroid.rank
    restrict = Matroid.restrict
    contract = Matroid.contract


class _ContractionView(_RestrictionView):
    """A view whose committed set is not empty. Its ground holds nothing that
    set spans, so contraction never introduces loops."""

    rank = Matroid.rank
    restrict = Matroid.restrict
    contract = Matroid.contract


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


def _distinct_weights(m: Matroid, weights: Weights) -> dict[int, float]:
    """Each element's weight, once no two of them are equal (a ``PreconditionError``)."""
    values = {e: _weight(weights, e) for e in m.ground}
    if len(set(values.values())) != len(values):
        raise PreconditionError("weights must be pairwise distinct")
    return values


def gaps(m: Matroid, weights: Weights) -> dict[int, float]:
    """Each element's gap, by the exchange property, with OPT the greedy basis.

    e outside OPT costs w(f) - w(e), f the lightest element of e's circuit in
    OPT + e: the one whose ``add`` first spans e as OPT grows heaviest first.
    e in OPT costs w(e) - w(g), g the heaviest element that OPT - e does not
    span; +inf if there is none. Ties and loops are refused as by ``gap`` in
    ``tests/reference.py``, the enumerating reference that tests pin this to.
    """
    w = _distinct_weights(m, weights)
    if loops := m.loops():
        raise DomainError(f"element {min(loops)} is a loop; its gap is undefined")
    opt = greedy_max_basis(m, w)
    inside = sorted(opt, key=w.__getitem__, reverse=True)  # heaviest first
    outside = sorted(m.ground_set - opt, key=w.__getitem__, reverse=True)
    result = dict.fromkeys(m.ground, math.inf)
    grown, pending = m.growing(), outside
    for f in inside:
        grown.add(f)
        spanned = set(filter(grown.spans, pending))
        result.update((e, w[f] - w[e]) for e in spanned)
        pending = [e for e in pending if e not in spanned]
    for e in inside:
        grown = m.growing()
        for a in filter(e.__ne__, inside):
            grown.add(a)
        g = next(filterfalse(grown.spans, outside), None)
        if g is not None:
            result[e] = w[e] - w[g]
    return result


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

    Once the set holds ``full_rank`` members it spans every element, so from
    then on only the members it kept need an answer. Only candidates above
    the pool's lightest weight are sorted and swept. Every other one faces
    the whole pool, so the set takes in the rest of the pool first.

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
    full = m.full_rank
    heavy, taken, kept = set(), set(), set()
    for e in high:
        t = thresholds[e]
        while pending and pending[-1][0] >= t:
            a = pending.pop()[1]
            heavy.add(a)
            if grown.add(a):
                taken.add(a)
        if e in taken:
            if not m.blocks(heavy - {e}, e):
                kept.add(e)
        elif len(taken) < full and not grown.spans(e):
            kept.add(e)
    if not low:
        return frozenset(kept)
    for _, a in reversed(pending):  # every other candidate faces the whole pool
        if grown.add(a):
            taken.add(a)
    if len(taken) < full:
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
    real(eps, "eps", DomainError, ">= 0")
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
