import copy
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILY_NAMES,
    builtin_instances,
    loop_free,
    random_distinct_weights,
    random_matroid,
)
from matroid_bandits import matroids
from matroid_bandits.errors import DomainError, PreconditionError, ValidationError
from matroid_bandits.instances import big_uniform_instance, builtin
from matroid_bandits.matroids import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    _UniformSet,
    basis_weight,
    greedy_max_basis,
    is_eps_optimal,
    is_optimal_basis,
    shifted_thresholds,
    unblocked,
)
from reference import is_eps_optimal_modified_cost, iter_bases, iter_independent_sets

PROP1_MEANS = (0.91, 0.9, 0.89, 0.875)


def triangle():
    return GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])


def test_is_independent_examples():
    m = UniformMatroid(4, 2)
    assert not m.is_independent({0, 1, 2})
    assert m.is_independent(set())
    assert not triangle().is_independent({0, 1, 2})


def test_rank_examples():
    assert UniformMatroid(5, 3).rank({0, 1, 2, 3, 4}) == 3
    assert triangle().rank({0, 1, 2}) == 2


def test_transversal_rank_matches_matching_enumeration():
    rng = np.random.default_rng(42)

    def brute_matching(workers, tasks):
        tasks = sorted(tasks)

        def best(i, used):
            if i == len(tasks):
                return 0
            skip = best(i + 1, used)
            take = 0
            for wi, ts in enumerate(workers):
                if wi not in used and tasks[i] in ts:
                    take = max(take, 1 + best(i + 1, used | {wi}))
            return max(skip, take)

        return best(0, frozenset())

    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = random_matroid(rng, "transversal", n, allow_loops=True)
        for _ in range(8):
            subset = frozenset(
                int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            )
            assert m.rank(subset) == brute_matching(m.workers, subset)


def test_transversal_rank_on_a_long_augmenting_chain():
    # worker j covers tasks {j, j + 1}, so the augmenting search for task t
    # passes through every earlier task
    n = 1500
    m = TransversalMatroid(n, [[j, j + 1] for j in range(n - 1)] + [[n - 1]])
    assert m.rank(m.ground_set) == n


def test_blocks_examples():
    m = UniformMatroid(4, 2)
    assert m.blocks({0, 1}, 2)
    assert not m.blocks(set(), 1)
    assert triangle().blocks({0, 1}, 2)


def test_blocks_rejects_member_element():
    m = UniformMatroid(4, 2)
    with pytest.raises(DomainError):
        m.blocks({0, 1}, 0)


def test_outside_ground_raises():
    m = UniformMatroid(3, 2)
    with pytest.raises(DomainError):
        m.rank({5})
    with pytest.raises(DomainError):
        m.blocks({0}, 9)


def test_an_outside_ground_error_names_the_first_ten_elements_and_the_count():
    m = UniformMatroid(5, 2)
    thresholds = np.full(100100, 0.5)
    thresholds[:100] = np.nan
    for check in (lambda: m.rank(range(100, 100100)),
                  lambda: unblocked(m, (), [], thresholds)):
        with pytest.raises(DomainError) as raised:
            check()
        message = str(raised.value)
        assert len(message) < 300
        assert "[100, 101, 102, 103, 104, 105, 106, 107, 108, 109, ..." in message
        assert "100000" in message
    with pytest.raises(DomainError, match=r"\['a', 1\.5\]"):  # elements that do not compare
        m.rank(["a", 1.5])


@pytest.mark.parametrize("m", [
    UniformMatroid(3, 2),
    PartitionMatroid([({0, 1}, 1), ({2}, 1)]),
    GraphicMatroid(3, [(0, 1), (1, 2)]),
    TransversalMatroid(2, [[0], [1]]),
    UniformMatroid(4, 2).restrict({0, 1, 2}),
], ids=["uniform", "partition", "graphic", "transversal", "view"])
def test_an_unhashable_element_is_a_domain_error_that_names_it(m):
    for check in (lambda: m.rank([[1]]), lambda: m.is_basis([0, [1]]),
                  lambda: m.growing().add([1]), lambda: m.blocks({0}, [1])):
        with pytest.raises(DomainError, match=r"element \[1\] outside ground set"):
            check()
    with pytest.raises(DomainError, match="an iterable of elements, not 5"):
        m.rank(5)
    with pytest.raises(DomainError, match="unhashable"):  # a one-shot iterator
        m.rank(iter([0, {1}]))


def test_restriction_examples():
    m = UniformMatroid(4, 2)
    view = m.restrict({0, 1})
    assert view.ground == (0, 1)
    assert view.rank(view.ground_set) == 2


def test_contraction_examples():
    m = UniformMatroid(4, 2)
    view = m.contract({0})
    assert view.ground == (1, 2, 3)
    assert view.full_rank == 1

    g = triangle().contract({0})  # edges 1 and 2 become parallel
    assert g.ground == (1, 2)
    assert not g.is_independent({1, 2})


def test_contract_dependent_set_rejected():
    with pytest.raises(PreconditionError):
        triangle().contract({0, 1, 2})


def test_view_invariants_random():
    rng = np.random.default_rng(7)
    for family in FAMILY_NAMES:
        for _ in range(6):
            n = int(rng.integers(4, 9))
            m = random_matroid(rng, family, n)
            ground = list(m.ground)
            keep = frozenset(
                int(e) for e in rng.choice(ground, size=int(rng.integers(1, n + 1)), replace=False)
            )
            view = m.restrict(keep)
            for ind in iter_independent_sets(view):
                assert ind <= keep and m.is_independent(ind)
            basis = next(iter_bases(m.restrict(keep)))
            committed = frozenset(
                list(basis)[: int(rng.integers(0, len(basis) + 1))]
            )
            if not committed:
                continue
            cview = m.contract(committed)
            for e in cview.ground:
                assert m.rank(committed | {e}) > len(committed)
            for ind in iter_independent_sets(cview):
                assert m.is_independent(ind | committed)
                assert cview.rank(ind) == m.rank(ind | committed) - len(committed)


def test_view_composition_collapses():
    m = UniformMatroid(8, 4)
    doubly = m.restrict(range(6)).restrict(range(4))
    assert doubly.ground == (0, 1, 2, 3)
    assert doubly._parent is m  # restrict(restrict(...)) keeps one layer
    contracted = m.contract({0}).contract({1, 2})
    assert contracted._parent is m  # contract(contract(...)) keeps one layer too
    assert contracted._committed == {0, 1, 2}

    nested = m.restrict(range(7)).contract({0}).restrict({1, 2, 3}).contract({1})
    assert nested.ground == (2, 3)
    assert nested._parent is m  # a contraction's restriction is a view of the family too
    assert nested._committed == {0, 1}
    assert nested.full_rank == 2
    # behavior matches the unfused chain
    assert nested.rank({2, 3}) == 2
    assert nested.is_independent({2, 3})


def test_every_chain_of_restrictions_and_contractions_is_one_view_of_the_family():
    rng = np.random.default_rng(29)
    for family in FAMILY_NAMES:
        for _ in range(6):
            m = random_matroid(rng, family, int(rng.integers(4, 10)), allow_loops=True)
            view, committed = m, frozenset()
            for _ in range(int(rng.integers(1, 7))):
                ground = sorted(view.ground)
                if rng.random() < 0.5:
                    keep = [e for e in ground if rng.random() < 0.7]
                    view = view.restrict(keep)
                    assert view.ground_set == set(keep)
                else:
                    added, grown = set(), view.growing()
                    for e in rng.permutation(ground).tolist():
                        if rng.random() < 0.5 and grown.add(e):
                            added.add(e)
                    view, committed = view.contract(added), committed | added
                    assert all(m.rank(committed | {e}) > len(committed) for e in view.ground)
                if view is m:
                    continue
                assert view._parent is m
                assert view._committed == committed
                assert isinstance(view, matroids._ContractionView) == bool(committed)
                for _ in range(4):
                    subset = {e for e in view.ground if rng.random() < 0.5}
                    assert view.rank(subset) == m.rank(subset | committed) - len(committed)


def test_restricting_a_contraction_asks_the_family_nothing(monkeypatch):
    rng = np.random.default_rng(31)
    asked = []

    def counting(name, real):
        def counted(self, *args):
            asked.append(name)
            return real(self, *args)
        return counted

    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 12)
        contraction = m.contract({0})
        while contraction.size < 2:
            m = random_matroid(rng, family, 12)
            contraction = m.contract({0})
        keep = contraction.ground[1:]
        with monkeypatch.context() as patch:
            patch.setattr(Matroid, "is_independent",
                          counting("is_independent", Matroid.is_independent))
            patch.setattr(type(m), "rank", counting("rank", vars(type(m))["rank"]))
            for cls in (matroids.IndependentSet, _UniformSet, matroids._CappedSet,
                        matroids._Forest):
                patch.setattr(cls, "spans", counting("spans", vars(cls)["spans"]))
            restricted = contraction.restrict(keep)
        assert asked == [], family
        assert restricted._parent is m and restricted._committed == {0}
        assert restricted.ground == keep


def test_axioms_hold_per_family():
    rng = np.random.default_rng(11)
    cases = [(family, random_matroid(rng, family, int(rng.integers(4, 9)), allow_loops=True))
             for family in FAMILY_NAMES for _ in range(2)]
    cases += [(inst.name, inst.matroid) for inst in builtin_instances()]
    for name, m in cases:
        independents = list(iter_independent_sets(m))
        as_set = set(independents)
        assert frozenset() in as_set
        for ind in independents:
            for e in ind:
                assert frozenset(ind - {e}) in as_set  # hereditary
        for a in independents:
            for b in independents:
                if len(a) > len(b):
                    assert any(
                        m.is_independent(b | {e}) for e in a - b
                    ), f"exchange fails for {name}"


def _independent_by_definition(family, m, s):
    """Each family's independence as it is defined, not through ``rank``."""
    if family == "uniform":
        return len(s) <= m.k
    if family == "partition":
        return all(len(s & group) <= cap for group, cap in zip(m._groups, m._caps))
    if family == "laminar":
        return all(len(s & members) <= cap for members, cap in zip(m._family, m._caps))
    # graphic: a forest has one edge fewer than vertices in each component it spans
    neighbours = {}
    for eid in s:
        u, v = m.edges[eid]
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    seen = set()
    for start in neighbours:
        if start in seen:
            continue
        component, queue = {start}, deque([start])
        while queue:
            for nxt in neighbours[queue.popleft()]:
                if nxt not in component:
                    component.add(nxt)
                    queue.append(nxt)
        seen |= component
        if sum(1 for eid in s if m.edges[eid][0] in component) != len(component) - 1:
            return False
    return True


def test_is_independent_matches_family_definitions():
    rng = np.random.default_rng(43)

    def random_subset(pool):
        p = rng.random()
        return frozenset(e for e in pool if rng.random() < p)

    outcomes = set()
    for family in ("uniform", "partition", "laminar", "graphic"):
        for _ in range(12):
            n = int(rng.integers(2, 10))
            m = random_matroid(rng, family, n)
            view = m.restrict(random_subset(m.ground))
            committed = random_subset(greedy_max_basis(m, random_distinct_weights(rng, n)))
            cview = m.contract(committed)
            for _ in range(20):
                s = random_subset(m.ground)
                outcomes.add(m.is_independent(s))
                assert m.is_independent(s) == _independent_by_definition(family, m, s)
                r = random_subset(view.ground)
                assert view.is_independent(r) == _independent_by_definition(family, m, r)
                c = random_subset(cview.ground)
                assert cview.is_independent(c) == _independent_by_definition(
                    family, m, c | committed
                )
    assert outcomes == {True, False}


def _set_form(m):
    """``m`` with its ground held as a frozenset: the form the other two are pinned to."""
    twin = copy.copy(m)
    twin._init_ground(frozenset(m.ground))
    return twin


def _answer(call):
    """What ``call`` returns, a matroid as its ground and rank, or the text of
    the DomainError it raises."""
    try:
        result = call()
    except DomainError as exc:
        return f"DomainError: {exc}"
    return (result.ground, result.full_rank) if isinstance(result, Matroid) else result


def _odd_elements(n):
    """Elements that are not plain ids of 0..n-1: bools, numpy integers in and
    outside the ground, a fraction, ids past either end, and an unhashable one."""
    return [True, False, np.int64(n - 1), np.int64(n + 4), np.int32(0), 1.5,
            n + 3, -1, 2**70, [0]]


def _answers(m, probes):
    """Every answer of ``m`` that the form of its ground could change, on ``probes``."""
    ids = m.ground_ids
    out = [m.ground, m.ground_set, ids.tolist(), ids.dtype, ids.flags.writeable,
           m.size, m.ends, m.full_rank, m.loops(), m.isolated_and_loops()]
    for subset, e in probes:
        out += [_answer(lambda: m.rank(subset)), _answer(lambda: m.is_basis(subset)),
                _answer(lambda: m.is_independent(subset)),
                _answer(lambda: m.blocks(subset, e))]
        for keep in (subset, np.array(sorted(subset, key=repr), dtype=object)):
            out.append(_answer(lambda: m.restrict(keep)))
    return out


def test_every_ground_form_answers_as_the_set_form():
    # a family's range, a view cut from a sorted int64 id array, and a
    # frozenset give one answer (or one DomainError) to every query
    rng = np.random.default_rng(47)
    seen_views = 0
    for family in FAMILY_NAMES:
        for _ in range(6):
            n = int(rng.integers(2, 12))
            m = random_matroid(rng, family, n, allow_loops=True)
            assert type(m._held) is (frozenset if family == "partition" else range)
            odd = _odd_elements(n)

            def probes(ground):
                out = []
                for _ in range(8):
                    subset = frozenset(e for e in ground if rng.random() < 0.5)
                    extra = odd[int(rng.integers(len(odd)))]
                    e = int(rng.integers(n)) if rng.random() < 0.5 else extra
                    if rng.random() < 0.3 and not isinstance(extra, list):
                        subset |= {extra}
                    out.append((subset, e))
                return out + [(frozenset(), odd[-1]), (frozenset(ground), 0)]

            basis = sorted(greedy_max_basis(m, random_distinct_weights(rng, n)))
            committed = [e for e in basis if rng.random() < 0.5]
            contraction = m.contract(committed)
            cases = [(m, _set_form(m))]
            for parent in (m, contraction):
                keep = sorted(e for e in parent.ground if rng.random() < 0.6)
                ids = np.array(keep, dtype=np.int64)
                ids.flags.writeable = False
                by_array = parent.restrict(ids)
                assert by_array.ground_ids is ids or len(keep) == parent.size
                shuffled = np.array(keep + keep[:1], dtype=np.int32)[::-1]
                cases += [(by_array, parent.restrict(frozenset(keep))),
                          (parent.restrict(shuffled), _set_form(by_array))]
                seen_views += type(by_array._held) is np.ndarray
            for form, reference in cases:
                assert form.ground_ids.dtype == np.int64 and not form.ground_ids.flags.writeable
                shared = probes(reference.ground) + probes(range(n))
                assert _answers(form, shared) == _answers(reference, shared)
                for keep in ([n], [n + 3], [0, n + 3], [n - 1, 0], [True], [-2]):
                    assert (_answer(lambda: form.restrict(np.array(keep)))
                            == _answer(lambda: reference.restrict(frozenset(keep))))
    assert seen_views > 20


def test_rank_monotone_and_submodular():
    rng = np.random.default_rng(13)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 8, allow_loops=True)
        for _ in range(60):
            a = frozenset(int(e) for e in rng.choice(8, size=int(rng.integers(0, 9)), replace=False))
            extra = frozenset(int(e) for e in rng.choice(8, size=int(rng.integers(0, 9)), replace=False))
            b = a | extra
            assert m.rank(a) <= m.rank(b)
            for e in m.ground:
                if e in b:
                    continue
                gain_small = m.rank(a | {e}) - m.rank(a)
                gain_big = m.rank(b | {e}) - m.rank(b)
                assert gain_small >= gain_big


def test_blocking_monotone_in_the_set():
    rng = np.random.default_rng(17)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 8, allow_loops=True)
        for _ in range(40):
            a = frozenset(int(e) for e in rng.choice(8, size=int(rng.integers(0, 8)), replace=False))
            rest = [e for e in m.ground if e not in a]
            if not rest:
                continue
            e = int(rng.choice(rest))
            b = a | frozenset(
                int(x) for x in rng.choice(rest, size=int(rng.integers(0, len(rest))), replace=False)
            ) - {e}
            if m.blocks(a, e):
                assert m.blocks(a | b, e)


def test_every_basis_of_blocking_set_blocks():
    rng = np.random.default_rng(19)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 7, allow_loops=True)
        for _ in range(25):
            a = frozenset(int(x) for x in rng.choice(7, size=int(rng.integers(1, 8)), replace=False))
            outside = [e for e in m.ground if e not in a]
            if not outside:
                continue
            e = int(rng.choice(outside))
            if not m.blocks(a, e):
                continue
            for basis in iter_bases(m.restrict(a)):
                assert m.blocks(basis, e)


def test_isolated_and_loops():
    m = UniformMatroid(5, 5)
    isolated, loops = m.isolated_and_loops()
    assert isolated == frozenset(range(5)) and not loops

    g = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])
    isolated, loops = g.isolated_and_loops()
    assert loops == {1}
    assert isolated == {0, 2}  # bridges

    p = PartitionMatroid([([0], 1), ([1, 2], 1)])
    isolated, loops = p.isolated_and_loops()
    assert 0 in isolated
    # cross-check against enumeration of all bases
    bases = list(iter_bases(p))
    assert isolated == frozenset.intersection(*bases)
    assert loops == p.ground_set - frozenset.union(*bases)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_uniform_loops_are_every_element_exactly_when_k_is_zero(n):
    for k in range(n + 2):
        m = UniformMatroid(n, k)
        assert m.loops() == Matroid.loops(m)  # the per-element reference
        assert m.loops() == (m.ground_set if k == 0 else frozenset())
        assert m.isolated_and_loops()[1] == m.loops()


def test_loops_match_isolated_and_loops_and_rank_zero():
    rng = np.random.default_rng(41)
    seen_loops = 0
    for family in FAMILY_NAMES:
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m = random_matroid(rng, family, n, allow_loops=True)
            keep = frozenset(int(e) for e in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                       replace=False))
            for view in (m, m.restrict(keep)):
                loops = view.loops()
                assert loops == view.isolated_and_loops()[1]
                assert loops == {e for e in view.ground if view.rank({e}) == 0}
                seen_loops += len(loops)
    assert seen_loops  # the samplers do produce loops, so both cases are covered


def test_empty_matroid_degenerate():
    m = UniformMatroid(0, 0)
    assert m.full_rank == 0
    assert m.is_basis(frozenset())
    assert greedy_max_basis(m, {}) == frozenset()


def test_greedy_examples():
    m = UniformMatroid(4, 2)
    assert greedy_max_basis(m, PROP1_MEANS) == {0, 1}

    lam = LaminarMatroid(4, [([0, 1, 2, 3], 2), ([0, 1], 1)])
    w = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}
    basis = greedy_max_basis(lam, w)
    assert lam.is_basis(basis)
    assert basis_weight(basis, w) == pytest.approx(len(basis) * 0.5)


def test_greedy_tie_break_is_weight_desc_then_id_asc():
    m = UniformMatroid(4, 2)
    assert greedy_max_basis(m, {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}) == {0, 1}
    assert greedy_max_basis(m, {0: 0.1, 1: 0.5, 2: 0.5, 3: 0.5}) == {1, 2}


def test_greedy_missing_weight_raises():
    with pytest.raises(DomainError):
        greedy_max_basis(UniformMatroid(3, 2), {0: 0.1, 1: 0.2})
    # a NaN weight is missing on the per-element path, as it is in array form
    m = builtin("ladder10").matroid
    w = [0.85, math.nan, 0.65, 0.6, 0.55, 0.5, 0.45, 0.35, 0.25, 0.1]
    for weights in (w, dict(enumerate(w)), np.array(w)):
        with pytest.raises(DomainError, match="element 1"):
            greedy_max_basis(m, weights)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=6, max_size=6, unique=True))
def test_greedy_dominates_every_independent_set(weights):
    m = PartitionMatroid([([0, 1, 2], 2), ([3, 4, 5], 1)])
    best = basis_weight(greedy_max_basis(m, weights), weights)
    for ind in iter_independent_sets(m):
        assert basis_weight(ind, weights) <= best + 1e-12


def test_unblocked_matches_per_element_blocks(monkeypatch):
    blocked_for = []
    real_blocks = Matroid.blocks

    def counted_blocks(self, elements, e):
        blocked_for.append(e)
        return real_blocks(self, elements, e)

    monkeypatch.setattr(Matroid, "blocks", counted_blocks)
    rng = np.random.default_rng(37)
    for family in FAMILY_NAMES:
        for _ in range(8):
            n = int(rng.integers(2, 10))
            m = random_matroid(rng, family, n, allow_loops=True)
            # a coarse grid makes weights and thresholds tie, probing the >= boundary
            w = (rng.integers(0, 4, size=n) / 4).tolist()
            for view, _, _ in _kernel_views(rng, m):
                ground = view.ground_set
                pool = frozenset(e for e in ground if rng.random() < 0.5)
                queries = [
                    (pool, {e: w[e] + float(rng.choice([-0.25, 0.0, 0.25])) for e in candidates})
                    for candidates in (ground - pool, ground)
                ]
                # the selection shape: the whole ground is both pool and candidates
                selection = {e: w[e] - float(rng.choice([0.0, 0.25])) for e in ground}
                queries.append((ground, selection))
                for pool, thresholds in queries:
                    direct = frozenset(
                        e for e, t in thresholds.items()
                        if not view.blocks(frozenset(a for a in pool if a != e and w[a] >= t), e)
                    )
                    blocked_for.clear()
                    assert unblocked(view, pool, w, thresholds) == direct
                    assert len(blocked_for) <= view.rank(pool)


def _reference_greedy(m, w):
    order = sorted(m.ground, key=lambda e: (-w[e], e))
    chosen = set()
    for e in order:
        if m.is_independent(chosen | {e}):
            chosen.add(e)
    return frozenset(chosen)


def _kernel_views(rng, m):
    """(view, parent, committed): the matroid, a random restriction, and
    contractions of both by a random independent set ``committed`` (left
    uncontracted when it comes out empty)."""
    n = m.size
    keep = frozenset(int(e) for e in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                               replace=False))
    restricted = m.restrict(keep)
    views = [(m, m, set()), (restricted, restricted, set())]
    for parent in (m, restricted):
        committed = set()
        for e in rng.permutation(sorted(parent.ground)).tolist():
            if rng.random() < 0.5 and parent.is_independent(committed | {e}):
                committed.add(e)
        views.append((parent.contract(committed), parent, committed))
    return views


def test_growing_set_matches_rank_greedy_loops_and_contraction():
    rng = np.random.default_rng(53)
    for family in FAMILY_NAMES:
        for _ in range(8):
            n = int(rng.integers(2, 10))
            m = random_matroid(rng, family, n, allow_loops=True)
            w = (rng.integers(0, 4, size=n) / 4).tolist()  # a coarse grid: many ties
            for view, parent, committed in _kernel_views(rng, m):
                if committed:
                    assert view.ground_set == {
                        e for e in parent.ground
                        if e not in committed and not parent.blocks(committed, e)
                    }
                ground = sorted(view.ground)
                grown, added = view.growing(), set()
                for e in rng.choice(ground, size=2 * len(ground)).tolist() if ground else []:
                    spanned = view.rank(added | {e}) == view.rank(added)
                    assert grown.spans(e) == spanned
                    assert grown.add(e) == (not spanned)
                    added.add(e)
                assert greedy_max_basis(view, w) == _reference_greedy(view, w)
                assert view.loops() == {e for e in view.ground if view.rank({e}) == 0}


def test_graphic_queries_allocate_for_the_edges_not_the_vertices():
    m = GraphicMatroid(10**6, [(0, 999_999), (999_999, 500_000), (500_000, 0)])
    tracemalloc.start()
    try:
        assert m.rank(m.ground_set) == 2
        grown = m.growing()
        assert [grown.add(e) for e in m.ground] == [True, True, False]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("family", ["uniform", "partition", "laminar", "graphic"])
def test_fast_families_prune_and_greedy_without_rank(family, monkeypatch):
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(6):
        n = int(rng.integers(2, 12))
        m = random_matroid(rng, family, n, allow_loops=True)
        keep = frozenset(int(e) for e in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                   replace=False))
        for view in (m, m.restrict(keep)):
            w = (rng.integers(0, 4, size=n) / 4).tolist()
            pool = frozenset(e for e in view.ground if rng.random() < 0.5)
            thresholds = {e: w[e] + float(rng.choice([-0.25, 0.0, 0.25]))
                          for e in view.ground_set - pool}
            direct = frozenset(
                e for e, t in thresholds.items()
                if not view.blocks(frozenset(a for a in pool if w[a] >= t), e)
            )
            cases.append((view, pool, w, thresholds, direct, _reference_greedy(view, w)))
            view.full_rank  # cached once per matroid: the queries below read it, never rank

    def no_rank(self, elements):
        raise AssertionError("the fast path called rank")

    monkeypatch.setattr(type(cases[0][0]), "rank", no_rank)
    for view, pool, w, thresholds, direct, greedy in cases:
        assert unblocked(view, pool, w, thresholds) == direct
        assert greedy_max_basis(view, w) == greedy


def _blocked_one_by_one(m, pool, w, thresholds):
    """``unblocked`` by its definition: one ``blocks`` call per candidate."""
    return frozenset(
        e for e, t in thresholds.items()
        if not m.blocks(frozenset(a for a in pool if a != e and w[a] >= t), e)
    )


def _tie_some_at_the_floor(rng, pool, w, thresholds):
    """``thresholds`` with about a fifth set exactly to the pool's lightest weight."""
    if not pool:
        return thresholds
    floor = min(w[a] for a in pool)
    return {e: floor if rng.random() < 0.2 else t for e, t in thresholds.items()}


def test_split_sweep_matches_per_element_blocks_at_size():
    rng = np.random.default_rng(61)
    narrow = UniformMatroid(300, 50).restrict(rng.choice(300, size=30, replace=False).tolist())
    cases = [UniformMatroid(300, k) for k in (1, 3, 8)]  # the set saturates
    # |ground| < k: the set stops at the view's own full_rank, not at the parent's k
    cases += [narrow, narrow.contract(narrow.ground[:4])]
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 40 if family == "transversal" else 150, allow_loops=True)
        cases += [view for view, _, _ in _kernel_views(rng, m)]
    for m in cases:
        w = (rng.integers(0, 20, size=300) / 20).tolist()  # a coarse grid: many ties
        ground = m.ground_set
        sampled = frozenset(e for e in ground if rng.random() < 0.3)
        inner = greedy_max_basis(m.restrict(sampled), w)
        basis = greedy_max_basis(m, rng.random(300).tolist())  # a basis, seldom the optimum
        shift = float(rng.choice([0.0, 0.05, 0.25]))
        judged = {e: w[e] - shift for e in ground - basis}
        queries = [
            (inner, {e: w[e] - shift for e in ground - inner}),  # a pac level
            (basis, judged),  # the judge's one call
            (ground, {e: w[e] - shift for e in ground}),  # exact's selection round
        ]
        for pool, thresholds in queries:
            thresholds = _tie_some_at_the_floor(rng, pool, w, thresholds)
            assert unblocked(m, pool, w, thresholds) == _blocked_one_by_one(m, pool, w, thresholds)
        assert is_eps_optimal(m, basis, w, shift) == (
            not _blocked_one_by_one(m, basis, w, judged)
        )


def test_pruning_and_judge_work_is_bounded_by_the_candidates_above_the_pool(monkeypatch):
    inst = big_uniform_instance(2000, 10)
    m, means = inst.matroid, list(inst.true_means)
    rng = np.random.default_rng(67)
    inner = greedy_max_basis(m.restrict(rng.choice(2000, size=200, replace=False).tolist()), means)
    # a pac level at eps = 0.02: thresholds sit alpha + 2 lambda = eps / 2 below the means
    thresholds = {e: means[e] - 0.01 for e in m.ground if e not in inner}
    floor = min(means[a] for a in inner)
    above = sum(t > floor for t in thresholds.values())
    assert 0 < above < len(thresholds) // 10
    direct = _blocked_one_by_one(m, inner, means, thresholds)

    asked = []
    real_spans = _UniformSet.spans

    def counted_spans(self, e):
        asked.append(e)
        return real_spans(self, e)

    monkeypatch.setattr(_UniformSet, "spans", counted_spans)
    assert unblocked(m, inner, means, thresholds) == direct
    # add() asks spans of pool members too; only the candidates' calls are the sweep's
    assert sum(e in thresholds for e in asked) <= above

    asked.clear()
    opt = greedy_max_basis(m, means)
    assert len(asked) == m.k  # greedy stops once its set spans everything

    # the array form reads no weight per element: at most the pool's, through _weight
    estimates = np.array(means)
    dense_thresholds = shifted_thresholds(estimates, -0.01, exclude=inner)
    read = []
    real_weight = matroids._weight

    def counted_weight(weights, e):
        read.append(e)
        return real_weight(weights, e)

    monkeypatch.setattr(matroids, "_weight", counted_weight)
    asked.clear()
    assert unblocked(m, inner, estimates, dense_thresholds) == direct
    assert sum(e in thresholds for e in asked) <= above
    assert len(read) <= len(inner)
    read.clear()
    assert greedy_max_basis(m, estimates) == opt
    assert is_eps_optimal(m, opt, estimates, 0.1)
    assert len(read) <= len(opt)

    # the judge hands unblocked every excluded element; a basis spans those at or below its floor
    floor = min(means[a] for a in opt)
    judged_above = sum(means[e] - 0.1 > floor for e in m.ground if e not in opt)
    for weights in (means, estimates):
        asked.clear()
        assert is_eps_optimal(m, opt, weights, 0.1)
        assert sum(e not in opt for e in asked) <= judged_above


def test_greedy_adds_nothing_after_the_last_element_of_its_basis(monkeypatch):
    rng = np.random.default_rng(71)
    added = []
    real_add = matroids.IndependentSet.add

    def counted_add(self, e):
        added.append(e)
        return real_add(self, e)

    monkeypatch.setattr(matroids.IndependentSet, "add", counted_add)
    for family in FAMILY_NAMES:
        views = [view for view, _, _ in _kernel_views(rng, random_matroid(rng, family, 12))]
        assert any(isinstance(v, matroids._RestrictionView) for v in views)
        assert any(isinstance(v, matroids._ContractionView) for v in views)
        for view in views:
            w = rng.random(12).tolist()
            view.full_rank  # cached once per matroid, as every caller of greedy has it
            added.clear()
            basis = greedy_max_basis(view, w)
            # a contraction's set is seeded with the committed elements first
            assert added[-1] in basis if basis else not set(added) & view.ground_set
            assert basis == _reference_greedy(view, w)


def test_pruning_asks_no_spans_at_or_below_the_floor_of_a_full_rank_pool(monkeypatch):
    rng = np.random.default_rng(73)
    asked = []
    for cls in (matroids.IndependentSet, _UniformSet, matroids._CappedSet, matroids._Forest):
        def counted_spans(self, e, real=vars(cls)["spans"]):
            asked.append(e)
            return real(self, e)

        monkeypatch.setattr(cls, "spans", counted_spans)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 40)
        low_seen = 0
        for view, _, _ in _kernel_views(rng, m):
            w = rng.random(40).tolist()
            pool = greedy_max_basis(view, w)  # full rank: it holds a basis
            floor = min((w[a] for a in pool), default=math.inf)
            pool |= {e for e in view.ground if w[e] > floor and rng.random() < 0.3}
            thresholds = {e: w[e] - 0.1 for e in view.ground_set - pool}
            low = {e for e, t in thresholds.items() if t <= floor}
            low_seen += len(low)
            direct = _blocked_one_by_one(view, pool, w, thresholds)
            dense_thresholds = np.full(40, np.nan)
            dense_thresholds[list(thresholds)] = list(thresholds.values())
            for weights, candidates in ((w, thresholds), (np.array(w), dense_thresholds)):
                asked.clear()
                assert unblocked(view, pool, weights, candidates) == direct
                assert not low.intersection(asked)
        assert low_seen, family


def test_the_high_sweep_asks_no_spans_once_its_set_has_full_rank(monkeypatch):
    rng = np.random.default_rng(79)
    asked = []
    for cls in (matroids.IndependentSet, _UniformSet, matroids._CappedSet, matroids._Forest):
        def counted_spans(self, e, real=vars(cls)["spans"]):
            asked.append(e)
            return real(self, e)

        monkeypatch.setattr(cls, "spans", counted_spans)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 40)
        late_seen = 0
        for view, _, _ in _kernel_views(rng, m):
            w = rng.random(40).tolist()
            pool = greedy_max_basis(view, w) | {e for e in view.ground if rng.random() < 0.3}
            # the sweep's set has full rank once it holds the pool down to weight `full`
            heaviest = sorted(pool, key=w.__getitem__, reverse=True)
            full = next((w[a] for i, a in enumerate(heaviest, 1)
                         if view.rank(heaviest[:i]) == view.full_rank), math.inf)
            floor = min((w[a] for a in pool), default=math.inf)
            thresholds = {e: w[e] - 0.1 for e in view.ground}  # pool members included
            # swept after that point; `add` asks `spans` of the pool's own members
            late = {e for e, t in thresholds.items() if floor < t <= full} - pool
            late_seen += len(late)
            direct = _blocked_one_by_one(view, pool, w, thresholds)
            dense_thresholds = np.full(40, np.nan)
            dense_thresholds[list(thresholds)] = list(thresholds.values())
            for weights, candidates in ((w, thresholds), (np.array(w), dense_thresholds)):
                asked.clear()
                assert unblocked(view, pool, weights, candidates) == direct
                assert not late.intersection(asked)
        assert late_seen, family


def _array_forms(w, size):
    """``w`` (a list over ids 0..len(w)-1) as a read-only array, as a dense session returns
    its means, and as a writable one, both ``size`` long."""
    dense = np.full(size, np.nan)
    dense[: len(w)] = w
    frozen = dense.copy()
    frozen.flags.writeable = False
    return [frozen, dense]


def _as_array(thresholds, size):
    dense = np.full(size, np.nan)
    dense[list(thresholds)] = list(thresholds.values())
    return dense


def test_array_forms_match_the_mapping_reference():
    rng = np.random.default_rng(71)
    for family in FAMILY_NAMES:
        for _ in range(8):
            n = int(rng.integers(2, 12))
            m = random_matroid(rng, family, n, allow_loops=True)
            w = (rng.integers(0, 4, size=n) / 4).tolist()  # a coarse grid: many ties
            forms = _array_forms(w, n + 3)
            for view, _, _ in _kernel_views(rng, m):
                ground = view.ground_set
                for weights in forms:
                    assert greedy_max_basis(view, weights) == greedy_max_basis(view, w)
                pool = frozenset(e for e in ground if rng.random() < 0.5)
                queries = [(pool, {e: w[e] + float(rng.choice([-0.25, 0.0, 0.25]))
                                   for e in candidates}) for candidates in (ground - pool, ground)]
                queries.append((ground, {e: w[e] - float(rng.choice([0.0, 0.25])) for e in ground}))
                for pool, thresholds in queries:
                    expected = unblocked(view, pool, w, thresholds)
                    dense = _as_array(thresholds, n + 3)
                    assert unblocked(view, pool, w, dense) == expected
                    for weights in forms:
                        assert unblocked(view, pool, weights, thresholds) == expected
                        assert unblocked(view, pool, weights, dense) == expected
                for basis in (greedy_max_basis(view, w),
                              greedy_max_basis(view, rng.random(n).tolist())):
                    for eps in (0.0, 0.25, 0.5):
                        expected = is_eps_optimal(view, basis, w, eps)
                        assert all(is_eps_optimal(view, basis, weights, eps) == expected
                                   for weights in forms)


def test_shifted_thresholds_add_the_offsets_left_to_right_in_both_forms():
    rng = np.random.default_rng(73)
    batch = {e: float(rng.random()) for e in range(0, 3000, 3)}
    exclude = frozenset(rng.choice(3000, size=40).tolist())
    for offsets in ((-0.1 / 3.0, -2.0 * 0.1 / 12.0), (-0.02, -0.02, -0.02), (1.5 * 0.01,)):
        expected = {}
        for e, mean in batch.items():
            if e not in exclude:
                for offset in offsets:  # never one sum: (m - a) - b can differ from m - (a + b)
                    mean = mean + offset
                expected[e] = mean
        assert shifted_thresholds(batch, *offsets, exclude=exclude) == expected
        dense = shifted_thresholds(_as_array(batch, 3001), *offsets, exclude=exclude)
        assert np.array_equal(dense, _as_array(expected, 3001), equal_nan=True)
    summed = shifted_thresholds(batch, -0.1 / 3.0 + -2.0 * 0.1 / 12.0)
    assert summed != shifted_thresholds(batch, -0.1 / 3.0, -2.0 * 0.1 / 12.0)


def test_array_weights_missing_an_element_raise_domain_error():
    m = UniformMatroid(6, 2)
    full = np.linspace(0.9, 0.4, 6)
    holed = full.copy()
    holed[4] = np.nan
    for weights in (holed, full[:4]):  # a NaN, or ids past the array's end
        with pytest.raises(DomainError):
            greedy_max_basis(m, weights)
        with pytest.raises(DomainError):
            is_eps_optimal(m, {0, 1}, weights, 0.0)
        with pytest.raises(DomainError):
            unblocked(m, {1, 4}, weights, _as_array({0: 0.5}, 6))


def test_a_negative_id_has_no_weight_in_an_array_or_a_sequence():
    # an array or a list would read id -1 from its end; a dict keyed by it has its weight
    m = PartitionMatroid([([-1, 0], 1), ([1, 2], 1)])
    for weights in (np.array([0.1, 0.2, 0.9]), [0.1, 0.2, 0.9]):
        for check in (lambda: greedy_max_basis(m, weights),
                      lambda: basis_weight([-1], weights),
                      lambda: is_eps_optimal(m, {0, 2}, weights, 0.0),
                      lambda: unblocked(m, {-1, 2}, weights, {0: 0.5})):
            with pytest.raises(DomainError, match="element -1"):
                check()
    # nor may a negative ground id clear threshold 3, outside the ground, from the end
    with pytest.raises(DomainError, match=r"\[3\]"):
        unblocked(m, (), [], np.array([np.nan, np.nan, np.nan, 0.5]))
    keyed = {-1: 0.9, 0: 0.1, 1: 0.2, 2: 0.3}
    assert greedy_max_basis(m, keyed) == {-1, 2}
    assert basis_weight([-1], keyed) == 0.9


def test_array_thresholds_outside_the_ground_raise_domain_error():
    view = UniformMatroid(6, 2).restrict({0, 1, 2})
    for thresholds in ({4: 0.1}, _as_array({4: 0.1}, 6)):
        with pytest.raises(DomainError):
            unblocked(view, {0}, list(np.linspace(0.9, 0.4, 6)), thresholds)


def test_judge_missing_weight_raises_domain_error():
    m = UniformMatroid(4, 2)
    # the first two lack excluded element 3's weight, the third basis element 0's;
    # the last four hold a NaN, which is no weight either
    for weights in ({0: 0.9, 1: 0.8, 2: 0.95}, [0.9, 0.8, 0.95], {1: 0.8, 2: 0.7, 3: 0.1},
                    {0: 0.9, 1: 0.8, 2: 0.95, 3: math.nan}, [0.9, 0.8, 0.95, math.nan],
                    {0: math.nan, 1: 0.8, 2: 0.7, 3: 0.1}, [math.nan, 0.8, 0.7, 0.1]):
        with pytest.raises(DomainError):
            is_eps_optimal(m, {0, 1}, weights, 0.0)


def test_is_optimal_basis_examples():
    m = UniformMatroid(4, 2)
    assert is_optimal_basis(m, {0, 1}, PROP1_MEANS)
    assert not is_optimal_basis(m, {2, 3}, PROP1_MEANS)
    with pytest.raises(PreconditionError):
        is_optimal_basis(m, {0}, PROP1_MEANS)


def test_is_eps_optimal_examples_and_monotonicity():
    m = UniformMatroid(4, 2)
    assert is_eps_optimal(m, {0, 1}, PROP1_MEANS, 0.0)
    assert is_eps_optimal(m, {0, 1}, PROP1_MEANS, 0.7)
    # boundary for {2, 3} sits at the 0.91 - 0.875 = 0.035 spread
    assert not is_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.03)
    assert not is_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.034)
    assert is_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.036)
    with pytest.raises(DomainError):
        is_eps_optimal(m, {0, 1}, PROP1_MEANS, -0.1)


def test_eps_optimal_routes_agree_on_all_bases():
    rng = np.random.default_rng(23)
    grid = (0.0, 0.02, 0.1, 0.5)
    cases = []
    for family in FAMILY_NAMES:
        for _ in range(3):
            n = int(rng.integers(4, 9))
            cases.append((random_matroid(rng, family, n), random_distinct_weights(rng, n), grid))
    # the builtins' means differ by multiples of 0.005, so the grid would put eps
    # exactly at their ties, where w - eps rounds either way; step just off them
    cases += [(inst.matroid, inst.true_means, [eps + 1e-9 for eps in grid])
              for inst in builtin_instances()]
    for m, w, epsilons in cases:
        for basis in iter_bases(m):
            for eps in epsilons:
                assert is_eps_optimal(m, basis, w, eps) == is_eps_optimal_modified_cost(
                    m, basis, w, eps
                )


def test_optimality_characterizations_agree():
    rng = np.random.default_rng(29)
    for family in FAMILY_NAMES:
        for _ in range(3):
            n = int(rng.integers(4, 9))
            m = random_matroid(rng, family, n)
            if not loop_free(m):
                continue
            w = random_distinct_weights(rng, n)
            greedy = greedy_max_basis(m, w)
            for basis in iter_bases(m):
                via_blocking = is_optimal_basis(m, basis, w)
                via_unblocked_members = all(
                    not m.blocks(
                        frozenset(a for a in m.ground if a != e and w[a] > w[e]), e
                    )
                    for e in basis
                )
                assert via_blocking == via_unblocked_members == (basis == greedy)


def test_transversal_rank_is_safe_under_threads():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(31)
    m = random_matroid(rng, "transversal", 8)
    queries = [
        frozenset(int(e) for e in rng.choice(8, size=int(rng.integers(0, 9)), replace=False))
        for _ in range(300)
    ]
    serial = [m.rank(q) for q in queries]
    fresh = TransversalMatroid(8, m.workers)
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(fresh.rank, queries))
    assert serial == threaded


def test_family_validation_errors():
    with pytest.raises(ValidationError):
        PartitionMatroid([([0, 1], 1), ([1, 2], 1)])  # overlap
    with pytest.raises(ValidationError):
        LaminarMatroid(4, [([0, 1], 1), ([1, 2], 1)])  # crossing
    with pytest.raises(ValidationError):
        GraphicMatroid(2, [(0, 5)])
    with pytest.raises(ValidationError):
        TransversalMatroid(2, [[0, 7]])


@pytest.mark.parametrize("make", [
    lambda: UniformMatroid(5, 2.5),
    lambda: UniformMatroid(5, True),
    lambda: PartitionMatroid([([0, 1, 2], 1.5)]),
    lambda: PartitionMatroid([([0, 1.0], 2)]),
    lambda: LaminarMatroid(2.5, []),
    lambda: LaminarMatroid(3, [([0, "1"], 1)]),
    lambda: GraphicMatroid(3.5, [(0, 1)]),
    lambda: GraphicMatroid(3, [(0, 1.5)]),
    lambda: GraphicMatroid(3, [(0, 1, 2)]),
    lambda: GraphicMatroid(3, [(0,)]),
    lambda: GraphicMatroid(3, [5]),
    lambda: TransversalMatroid(3.0, [[0]]),
    lambda: TransversalMatroid(3, [[1.0]]),
    lambda: TransversalMatroid(3, [[np.bool_(True)]]),
], ids=["uniform-k-float", "uniform-k-bool", "partition-capacity-float",
        "partition-member-float", "laminar-n-float", "laminar-member-string",
        "graphic-vertices-float", "graphic-endpoint-float", "graphic-edge-a-triple",
        "graphic-edge-a-single", "graphic-edge-a-number", "transversal-n-float",
        "transversal-task-float", "transversal-task-numpy-bool"])
def test_constructors_refuse_a_value_that_is_not_an_integer(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("make", [
    lambda: PartitionMatroid([5]),
    lambda: LaminarMatroid(3, [([0], 1, 2)]),
    lambda: GraphicMatroid(3, None),
    lambda: TransversalMatroid(3, [5]),
    lambda: PartitionMatroid([(5, 1)]),
    lambda: LaminarMatroid(3, [(None, 1)]),
], ids=["partition-group-a-number", "laminar-set-a-triple", "graphic-edges-none",
        "transversal-worker-a-number", "partition-members-a-number", "laminar-members-none"])
def test_constructors_refuse_a_malformed_container(make):
    with pytest.raises(ValidationError):
        make()


def test_constructors_take_numpy_integers_as_python_ints():
    i = np.int64
    built = [UniformMatroid(i(5), np.int32(2)),
             PartitionMatroid([([i(0), i(1)], i(1)), ([2], 1)]),
             LaminarMatroid(i(3), [([i(0), i(1)], i(1))]),
             GraphicMatroid(i(3), [(i(0), i(1)), (1, i(2))]),
             TransversalMatroid(i(3), [[i(2), 0, i(2)], [1]])]
    assert [m.full_rank for m in built] == [2, 2, 2, 2, 2]
    for m in built:
        assert all(type(e) is int for e in m.ground)
    assert built[0].k == 2 and type(built[0].k) is int
    assert built[3].edges == ((0, 1), (1, 2)) and all(type(u) is int for u, _ in built[3].edges)
    assert built[4].workers == ((0, 2), (1,))
    assert all(type(t) is int for tasks in built[4].workers for t in tasks)


def test_a_contraction_view_refuses_a_dependent_extra_with_the_same_message():
    view = triangle().contract({0})  # edges 1 and 2 become parallel
    with pytest.raises(PreconditionError, match="can only contract an independent set"):
        view.contract({1, 2})
    assert view.contract({1}).ground == ()
