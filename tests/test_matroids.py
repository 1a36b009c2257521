import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_NAMES, loop_free, random_distinct_weights, random_matroid
from matroid_bandits.errors import DomainError, PreconditionError, ValidationError
from matroid_bandits.matroids import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    basis_weight,
    greedy_max_basis,
    is_eps_optimal,
    is_eps_optimal_modified_cost,
    is_optimal_basis,
    unblocked,
)
from matroid_bandits.oracle import iter_bases, iter_independent_sets

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

    nested = m.restrict(range(7)).contract({0}).restrict({1, 2, 3}).contract({1})
    assert nested.ground == (2, 3)
    assert nested.full_rank == 2
    # behavior matches the unfused chain
    assert nested.rank({2, 3}) == 2
    assert nested.is_independent({2, 3})


def test_axioms_hold_per_family():
    rng = np.random.default_rng(11)
    for family in FAMILY_NAMES:
        for _ in range(2):
            n = int(rng.integers(4, 9))
            m = random_matroid(rng, family, n, allow_loops=True)
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
                        ), f"exchange fails for {family}"


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

    def no_rank(self, elements):
        raise AssertionError("the fast path called rank")

    monkeypatch.setattr(type(cases[0][0]), "rank", no_rank)
    for view, pool, w, thresholds, direct, greedy in cases:
        assert unblocked(view, pool, w, thresholds) == direct
        assert greedy_max_basis(view, w) == greedy


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
    for family in FAMILY_NAMES:
        for _ in range(3):
            n = int(rng.integers(4, 9))
            m = random_matroid(rng, family, n)
            w = random_distinct_weights(rng, n)
            for basis in iter_bases(m):
                for eps in (0.0, 0.02, 0.1, 0.5):
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
