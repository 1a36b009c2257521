import math

import numpy as np
import pytest

from conftest import FAMILY_NAMES, loop_free, random_distinct_weights, random_matroid
from matroid_bandits.errors import CapacityError, DomainError, PreconditionError
from matroid_bandits.instances import builtin
from matroid_bandits.matroids import (
    GraphicMatroid,
    UniformMatroid,
    greedy_max_basis,
    is_eps_optimal,
    is_eps_optimal_modified_cost,
)
from matroid_bandits.oracle import (
    brute_force_opt,
    gap,
    gap_alt,
    gap_profile,
    verify_instance,
)
from reference import (
    count_F_good,
    is_avg_eps_optimal,
    is_elementwise_eps_optimal,
    is_eps_approx_subset,
    iter_bases,
)

PROP1_MEANS = (0.91, 0.9, 0.89, 0.875)


def prop1_matroid():
    return UniformMatroid(4, 2)


def test_brute_force_examples():
    assert brute_force_opt(prop1_matroid(), PROP1_MEANS) == {0, 1}
    assert brute_force_opt(UniformMatroid(1, 1), [0.4]) == {0}


def test_brute_force_guard():
    with pytest.raises(CapacityError):
        brute_force_opt(UniformMatroid(25, 3), [0.5] * 25)


def test_brute_force_pruning_matches_pure_enumeration():
    rng = np.random.default_rng(3)
    for family in FAMILY_NAMES:
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = random_matroid(rng, family, n, allow_loops=True)
            w = random_distinct_weights(rng, n)
            assert brute_force_opt(m, w, prune=True) == brute_force_opt(m, w, prune=False)


def test_greedy_agrees_with_brute_force():
    rng = np.random.default_rng(5)
    for family in FAMILY_NAMES:
        for _ in range(60):
            n = int(rng.integers(4, 13))
            m = random_matroid(rng, family, n, allow_loops=True)
            w = random_distinct_weights(rng, n)
            assert greedy_max_basis(m, w) == brute_force_opt(m, w)


def test_gap_values_on_the_four_arm_instance():
    m = prop1_matroid()
    expected = {0: 0.02, 1: 0.01, 2: 0.01, 3: 0.025}
    for e, want in expected.items():
        assert gap(m, e, PROP1_MEANS) == pytest.approx(want, abs=1e-12)
    # pick-k shortcut: mean minus the (k+1)-th / k-th order statistic
    for e in range(4):
        shortcut = PROP1_MEANS[e] - 0.89 if e < 2 else 0.9 - PROP1_MEANS[e]
        assert gap(m, e, PROP1_MEANS) == pytest.approx(shortcut, abs=1e-12)


def test_gap_isolated_is_infinite():
    path = GraphicMatroid(3, [(0, 1), (1, 2)])  # both edges are bridges
    assert gap(path, 0, [0.3, 0.6]) == math.inf
    assert gap_alt(path, 0, [0.3, 0.6]) == math.inf


def test_gap_rejects_loops():
    g = GraphicMatroid(2, [(0, 0), (0, 1)])
    with pytest.raises(DomainError):
        gap(g, 0, [0.3, 0.6])


@pytest.mark.parametrize("formula", [gap, gap_alt])
def test_gap_formulas_refuse_an_unhashable_element_as_outside_the_ground(formula):
    with pytest.raises(DomainError, match="list is unhashable"):
        formula(UniformMatroid(3, 1), [0], [0.1, 0.2, 0.3])


def test_gap_equals_gap_alt_random():
    rng = np.random.default_rng(7)
    checked = 0
    for family in FAMILY_NAMES:
        for _ in range(25):
            n = int(rng.integers(3, 11))
            m = random_matroid(rng, family, n)
            if not loop_free(m):
                continue
            w = random_distinct_weights(rng, n)
            for e in m.ground:
                a, b = gap(m, e, w), gap_alt(m, e, w)
                assert (a == b == math.inf) or abs(a - b) <= 1e-12
                checked += 1
    assert checked > 300


def test_gap_profile_flags_membership():
    profile = gap_profile(prop1_matroid(), PROP1_MEANS)
    assert profile.optimal == {0, 1}
    assert profile.min_gap() == pytest.approx(0.01, abs=1e-12)
    assert all(v > 0 for v in profile.gaps.values())


def test_elementwise_examples():
    m = prop1_matroid()
    assert is_elementwise_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.3)
    assert is_elementwise_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.03)
    assert not is_elementwise_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.02)
    assert is_elementwise_eps_optimal(m, {0, 1}, PROP1_MEANS, 0.0)


def test_eps_optimal_implies_elementwise():
    rng = np.random.default_rng(11)

    checked = 0
    for family in FAMILY_NAMES:
        for _ in range(30):
            n = int(rng.integers(3, 10))
            m = random_matroid(rng, family, n)
            w = random_distinct_weights(rng, n)
            eps = float(rng.random())
            for basis in iter_bases(m):
                if is_eps_optimal(m, basis, w, eps):
                    assert is_elementwise_eps_optimal(m, basis, w, eps)
                    checked += 1
    assert checked >= 500


def test_avg_examples_and_boundary():
    m = prop1_matroid()
    assert is_avg_eps_optimal(m, {0, 1}, PROP1_MEANS, 0.0)
    # avg({2,3}) = 0.8825 vs optimal 0.905: the deficit is exactly 0.0225,
    # and the predicate is monotone in eps
    assert is_avg_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.0225)
    assert is_avg_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.03)
    assert is_avg_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.05)
    assert not is_avg_eps_optimal(m, {2, 3}, PROP1_MEANS, 0.02)


def test_eps_optimal_implies_avg_optimal():
    rng = np.random.default_rng(13)

    for family in FAMILY_NAMES:
        for _ in range(10):
            n = int(rng.integers(3, 10))
            m = random_matroid(rng, family, n)
            w = random_distinct_weights(rng, n)
            eps = float(rng.random())
            for basis in iter_bases(m):
                if is_eps_optimal(m, basis, w, eps):
                    assert is_avg_eps_optimal(m, basis, w, eps)


def test_approx_subset_basics():
    m = UniformMatroid(6, 2)
    w = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    full = frozenset(range(6))
    assert is_eps_approx_subset(m, full, full, w, 0.0)
    assert not is_eps_approx_subset(m, frozenset({5}), full, w, 5.0)  # rank deficit
    assert is_eps_approx_subset(m, frozenset({0, 1, 5}), full, w, 0.0)
    # {2, 3} carries weights (0.7, 0.6); its weakest member must reach 0.9 - eps,
    # so the boundary sits at eps = 0.3 (tested off-boundary: comparisons are raw floats)
    assert is_eps_approx_subset(m, frozenset({2, 3}), full, w, 0.31)
    assert not is_eps_approx_subset(m, frozenset({2, 3}), full, w, 0.29)
    with pytest.raises(DomainError):
        is_eps_approx_subset(m, frozenset({0, 1, 2}), frozenset({0, 1}), w, 0.1)


def test_every_judge_refuses_a_nan_eps():
    inst = builtin("ladder10")
    m, w, basis = inst.matroid, inst.true_means, [9, 8, 7]
    for judge in (is_eps_optimal, is_eps_optimal_modified_cost, is_elementwise_eps_optimal,
                  is_avg_eps_optimal):
        with pytest.raises(DomainError, match="eps"):
            judge(m, basis, w, math.nan)
    with pytest.raises(DomainError, match="eps"):
        is_eps_approx_subset(m, m.ground_set, m.ground_set, w, math.nan)


def test_approx_subset_transitivity():
    rng = np.random.default_rng(17)
    grid = (0.0, 0.05, 0.1, 0.2, 0.4)
    nonvacuous = 0
    trials = 0
    while trials < 500:
        family = FAMILY_NAMES[trials % len(FAMILY_NAMES)]
        n = int(rng.integers(4, 9))
        m = random_matroid(rng, family, n)
        w = random_distinct_weights(rng, n)
        c = m.ground_set
        b = frozenset(int(e) for e in rng.choice(m.ground, size=int(rng.integers(1, n + 1)), replace=False))
        a = frozenset(int(e) for e in rng.choice(sorted(b), size=int(rng.integers(1, len(b) + 1)), replace=False))
        trials += 1
        eps1 = float(rng.choice(grid))
        eps2 = float(rng.choice(grid))
        if not is_eps_approx_subset(m, a, b, w, eps1):
            continue
        if not is_eps_approx_subset(m, b, c, w, eps2):
            continue
        nonvacuous += 1
        assert is_eps_approx_subset(m, a, c, w, eps1 + eps2)
    assert nonvacuous >= 50


def test_count_F_good_examples():
    m = prop1_matroid()
    full = m.ground_set
    assert count_F_good(m, full, PROP1_MEANS) == 2  # exactly the optimal arms
    assert count_F_good(m, frozenset(), PROP1_MEANS) == 4  # no loops here

    g = GraphicMatroid(2, [(0, 0), (0, 1)])
    assert count_F_good(g, frozenset(), [0.3, 0.6]) == 1  # the self-loop is never good


def test_count_F_good_matches_optimum_membership():
    rng = np.random.default_rng(19)
    for family in FAMILY_NAMES:
        m = random_matroid(rng, family, 8)
        w = random_distinct_weights(rng, 8)
        assert count_F_good(m, m.ground_set, w) == len(brute_force_opt(m, w))


def test_count_F_good_requires_distinct_weights():
    with pytest.raises(PreconditionError):
        count_F_good(prop1_matroid(), frozenset({0}), [0.5, 0.5, 0.2, 0.1])


def test_verify_instance_passes_on_builtins():
    for name in ("prop1", "ladder10", "graphic_k4", "transversal5", "laminar6", "partition6"):
        rows = verify_instance(builtin(name))
        assert all(ok for _, ok, _ in rows), (name, rows)
