"""Matroid oracles over integer ground sets.

Five concrete families (uniform, partition, laminar, graphic, transversal),
lazy restriction/contraction views, incremental independent sets, the
blocking predicate, greedy maximum weight basis, and optimality /
eps-optimality checkers.

Element ids are stable across views: a view exposes a subset of its parent's
ids and never renumbers.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError, ValidationError

ElementSet = frozenset[int]

# Weight lookups accept anything indexable by element id (dict, list, array).
Weights = Mapping[int, float] | Sequence[float]


class IndependentSet:
    """An independent set grown one element at a time; see :meth:`Matroid.growing`.

    ``add(e)`` keeps ``e`` iff that raises the rank and says whether it did;
    ``spans(e)`` says whether ``e`` lies in the closure of the kept elements.
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
        if self.spans(e):
            return False
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
    set and take ``rank = Matroid._grown_rank``. Instances are immutable after
    construction and safe to share across concurrent workers.
    """

    _ground: tuple[int, ...]
    _ground_set: ElementSet
    _full_rank: int | None

    def _init_ground(self, ground: Iterable[int]) -> None:
        self._ground = tuple(sorted(set(ground)))
        self._ground_set = frozenset(self._ground)
        self._full_rank = None

    @property
    def ground(self) -> tuple[int, ...]:
        return self._ground

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
        subset = frozenset(elements)
        if not subset <= self._ground_set:
            bad = sorted(subset - self._ground_set)
            raise DomainError(f"elements {bad} outside ground set")
        return subset

    def rank(self, elements: Iterable[int]) -> int:
        raise NotImplementedError

    def _grown_rank(self, elements: Iterable[int]) -> int:
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
        if e in subset:
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
        if n < 0 or k < 0:
            raise ValidationError("uniform matroid needs n >= 0 and k >= 0")
        self._init_ground(range(n))
        self.k = min(k, n)

    def rank(self, elements: Iterable[int]) -> int:
        subset = self._as_subset(elements)
        return min(len(subset), self.k)

    def growing(self) -> IndependentSet:
        return _UniformSet(self)


class _UniformSet(IndependentSet):
    """Spans everything once ``k`` elements are kept."""

    def spans(self, e: int) -> bool:
        return len(self._kept) >= self._m.k or e in self._kept


class PartitionMatroid(Matroid):
    """Disjoint groups covering the ground set, each with a capacity."""

    def __init__(self, groups: Sequence[tuple[Iterable[int], int]]):
        members_by_group = []
        caps = []
        seen: set[int] = set()
        for members, cap in groups:
            mset = frozenset(members)
            if cap < 0:
                raise ValidationError("group capacity must be >= 0")
            if mset & seen:
                raise ValidationError("partition groups must be disjoint")
            seen |= mset
            members_by_group.append(mset)
            caps.append(cap)
        self._init_ground(seen)
        self._caps = tuple(caps)
        self._covers = {e: (gi,) for gi, mset in enumerate(members_by_group) for e in mset}
        self._groups = tuple(members_by_group)

    rank = Matroid._grown_rank

    def growing(self) -> IndependentSet:
        return _CappedSet(self)


class LaminarMatroid(Matroid):
    """Capacity constraints over a nested (laminar) family of sets.

    A set is independent iff it meets every family set within that set's
    capacity. Elements not covered by any family set are unconstrained.
    """

    def __init__(self, n: int, sets: Sequence[tuple[Iterable[int], int]]):
        if n < 0:
            raise ValidationError("laminar matroid needs n >= 0")
        self._init_ground(range(n))
        family = []
        caps = []
        for members, cap in sets:
            mset = frozenset(members)
            if not mset <= self._ground_set:
                raise ValidationError("laminar set contains unknown elements")
            if cap < 0:
                raise ValidationError("laminar capacity must be >= 0")
            family.append(mset)
            caps.append(cap)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                a, b = family[i], family[j]
                if a & b and not (a <= b or b <= a):
                    raise ValidationError("laminar family must be nested")
        self._family = tuple(family)
        self._caps = tuple(caps)
        self._covers = {
            e: tuple(si for si, mset in enumerate(family) if e in mset)
            for e in self._ground
        }

    rank = Matroid._grown_rank

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
        if num_vertices < 0:
            raise ValidationError("graphic matroid needs num_vertices >= 0")
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValidationError(f"edge ({u}, {v}) has an unknown endpoint")
        self.num_vertices = num_vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        touched: dict[int, int] = {}
        self._ends = tuple(
            (touched.setdefault(u, len(touched)), touched.setdefault(v, len(touched)))
            for u, v in self.edges
        )
        self._num_touched = len(touched)
        self._init_ground(range(len(self.edges)))

    rank = Matroid._grown_rank

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
        if n < 0:
            raise ValidationError("transversal matroid needs n >= 0")
        self._init_ground(range(n))
        adj: list[list[int]] = [[] for _ in range(n)]
        for wi, tasks in enumerate(workers):
            for t in tasks:
                if not 0 <= t < n:
                    raise ValidationError(f"worker {wi} references unknown task {t}")
                adj[t].append(wi)
        self.workers = tuple(tuple(sorted(set(ts))) for ts in workers)
        self._task_adj = tuple(tuple(sorted(set(ws))) for ws in adj)

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
    """Sub-matroid on a subset of the parent's ground set."""

    def __init__(self, parent: Matroid, keep: ElementSet):
        self._parent = parent
        self._init_ground(keep)

    def rank(self, elements: Iterable[int]) -> int:
        return self._parent.rank(self._as_subset(elements))

    def growing(self) -> IndependentSet:
        return self._parent.growing()

    def restrict(self, keep: Iterable[int]) -> Matroid:
        keep_set = self._as_subset(keep)
        if keep_set == self._ground_set:
            return self
        return _RestrictionView(self._parent, keep_set)

    def contract(self, committed: Iterable[int]) -> Matroid:
        committed_set = self._as_subset(committed)
        if not committed_set:
            return self
        return _ContractionView(self, committed_set)


class _ContractionView(Matroid):
    """Matroid conditioned on committing an independent set.

    The ground set drops the committed elements and everything they block,
    so contraction never introduces loops.
    """

    def __init__(self, parent: Matroid, committed: ElementSet):
        committed = parent._as_subset(committed)
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

    def contract(self, committed: Iterable[int]) -> Matroid:
        extra = self._as_subset(committed)
        if not extra:
            return self
        if not self.is_independent(extra):
            raise PreconditionError("can only contract an independent set")
        return _ContractionView(self._parent, self._committed | extra)

    def restrict(self, keep: Iterable[int]) -> Matroid:
        keep_set = self._as_subset(keep)
        if keep_set == self._ground_set:
            return self
        inner = self._parent.restrict(keep_set | self._committed)
        return _ContractionView(inner, self._committed)


def _weight(weights: Weights, e: int) -> float:
    try:
        return float(weights[e])
    except (KeyError, IndexError) as exc:
        raise DomainError(f"no weight defined for element {e}") from exc


def greedy_max_basis(m: Matroid, weights: Weights) -> ElementSet:
    """Maximum-weight basis by the greedy algorithm.

    Ties are broken by (weight desc, id asc), so the result is well defined
    even when empirical weights collide. With distinct weights this is the
    unique optimum.
    """
    order = sorted(m.ground, key=lambda e: (-_weight(weights, e), e))
    grown = m.growing()
    return frozenset(e for e in order if grown.add(e))


def basis_weight(basis: Iterable[int], weights: Weights) -> float:
    return math.fsum(_weight(weights, e) for e in basis)


def unblocked(
    m: Matroid, pool: Iterable[int], weights: Weights, thresholds: Mapping[int, float]
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
    """
    pending = sorted((_weight(weights, a), a) for a in m._as_subset(pool))  # the heaviest last
    grown = m.growing()
    heavy, taken, kept = set(), set(), set()
    for e in sorted(m._as_subset(thresholds), key=thresholds.__getitem__, reverse=True):
        t = thresholds[e]
        while pending and pending[-1][0] >= t:
            a = pending.pop()[1]
            heavy.add(a)
            if grown.add(a):
                taken.add(a)
        if not (m.blocks(heavy - {e}, e) if e in taken else grown.spans(e)):
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
    """``basis`` as a set, once ``eps >= 0`` and ``basis`` is a basis of ``m``."""
    if eps < 0:
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
    thresholds = {e: _weight(weights, e) - eps for e in m.ground if e not in bset}
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
