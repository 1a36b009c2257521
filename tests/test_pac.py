import dataclasses
import math
import statistics

import numpy as np
import pytest

from matroid_bandits.errors import BudgetError, DomainError
from matroid_bandits.harness import success_flags
from matroid_bandits.instances import (
    big_uniform_instance, builtin, random_means, uniform_gap_instance,
)
from matroid_bandits.matroids import UniformMatroid, greedy_max_basis
from matroid_bandits.oracle import count_F_good, iter_bases
from matroid_bandits.pac import DESK, PAPER, ConstantsProfile, naive_one, pac_sample_prune
from matroid_bandits.sampling import SamplingSession, point, trial_seed


def point_session(means, seed=0):
    return SamplingSession([point(mu) for mu in means], seed=seed)


def test_naive_one_point_mass_is_exact():
    means = (0.91, 0.9, 0.89, 0.875)
    m = UniformMatroid(4, 2)
    res = naive_one(point_session(means), m, 0.5, 0.5)
    assert res.basis == {0, 1}


def test_naive_one_sample_count_formula():
    # uniform sampling runs at accuracy eps/2 and confidence delta/n
    means = (0.5, 0.6, 0.7, 0.8)
    session = point_session(means)
    res = naive_one(session, UniformMatroid(4, 2), 0.2, 0.1)
    per_arm = math.ceil((0.2 / 2) ** -2 * math.log(2 * 4 / 0.1) / 2)
    assert per_arm == 220
    assert res.samples == 4 * per_arm == 880
    assert res.samples == session.total_samples


def test_naive_one_validates_parameters():
    session = point_session((0.5,))
    with pytest.raises(DomainError):
        naive_one(session, UniformMatroid(1, 1), 0.0, 0.5)
    with pytest.raises(DomainError):
        naive_one(session, UniformMatroid(1, 1), 0.1, 0.0)


def test_naive_one_empty_matroid():
    res = naive_one(point_session(()), UniformMatroid(0, 0), 0.1, 0.1)
    assert res.basis == frozenset() and res.samples == 0


def test_profiles_have_declared_constants():
    assert PAPER.sample_prob == 0.01
    assert PAPER.base_case_bound(0.1, 5) == 2 * 0.01**-2 * max(4 * math.log(80), 5)
    assert DESK.sample_prob == 0.3
    assert DESK.base_case_bound(0.1, 5) == pytest.approx(8 * max(math.log(80), 5))
    # desk recursion genuinely fires at n = 60, k = 5
    assert DESK.base_case_bound(0.1, 5) < 60


def test_paper_profile_base_case_matches_naive_one():
    inst = builtin("prop1")
    a = inst.trial_session(5, 0)
    b = inst.trial_session(5, 0)
    res_pac = pac_sample_prune(a, inst.matroid, 0.1, 0.1, PAPER)
    res_naive = naive_one(b, inst.matroid, 0.1, 0.1)
    assert res_pac.basis == res_naive.basis
    assert res_pac.samples == res_naive.samples
    assert a.pull_counts() == b.pull_counts()
    assert len(res_pac.transcript) == 1 and res_pac.transcript[0].base_case


def test_desk_recursion_noiseless_keeps_optimum_each_level():
    inst = uniform_gap_instance(60, 5, 0.1, seed=2).with_point_mass_arms()
    session = inst.trial_session(3, 0)
    opt = greedy_max_basis(inst.matroid, inst.true_means)
    res = pac_sample_prune(session, inst.matroid, 0.15, 0.1, DESK)
    assert res.basis == opt
    recursive_levels = [lv for lv in res.transcript if not lv.base_case]
    assert recursive_levels, "recursion should fire at n=60 under the desk profile"
    for level in recursive_levels:
        ground = frozenset(level.ground)
        kept = frozenset(level.kept)
        assert frozenset(level.solved) <= kept  # the subset's solution is never pruned
        level_opt = greedy_max_basis(
            inst.matroid.restrict(ground), inst.true_means
        )
        assert level_opt <= kept  # no optimal arm of the level is pruned
    assert res.samples == session.total_samples


def test_desk_noisy_success_rate_smoke():
    inst = uniform_gap_instance(60, 5, 0.1, seed=2)
    hits = 0
    for i in range(30):
        session = inst.trial_session(31, i)
        res = pac_sample_prune(session, inst.matroid, 0.15, 0.1, DESK)
        flags = success_flags(inst.matroid, inst.true_means, res.basis, 0.15)
        hits += flags["eps_optimal"]
    assert hits >= 27


def test_sampled_subset_prunes_most_arms():
    # mean count of unprunable elements stays near rank/probability
    rng = np.random.default_rng(9)
    m = UniformMatroid(40, 4)
    means = np.linspace(0.05, 0.95, 40)
    rng.shuffle(means)
    p = 0.3
    counts = []
    for _ in range(300):
        mask = rng.random(40) < p
        sampled = frozenset(int(e) for e in np.nonzero(mask)[0])
        counts.append(count_F_good(m, sampled, means))
    assert np.mean(counts) <= 1.2 * 4 / p


def test_unpruned_elements_are_blocked_at_shifted_threshold():
    # with exact weights, any alpha-optimal solution of the sampled subset
    # blocks every prunable outside element at threshold (weight - alpha)
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = 10
        m = UniformMatroid(n, 3)
        w = [float(x) for x in rng.permutation(np.linspace(0.1, 0.9, n))]
        mask = rng.random(n) < 0.5
        sampled = frozenset(int(e) for e in np.nonzero(mask)[0])
        if not sampled:
            continue
        sub = m.restrict(sampled)
        for alpha in (0.01, 0.05, 0.2):
            for basis in iter_bases(sub):
                # keep only the alpha-optimal bases of the subset
                from matroid_bandits.matroids import is_eps_optimal

                if not is_eps_optimal(sub, basis, w, alpha):
                    continue
                for e in m.ground:
                    if e in basis:
                        continue
                    heavier = frozenset(a for a in sampled if a != e and w[a] > w[e])
                    if m.blocks(heavier, e):  # e is prunable
                        shifted = frozenset(a for a in basis if w[a] >= w[e] - alpha)
                        assert m.blocks(shifted, e)


def test_sample_scaling_quarter_eps():
    inst = uniform_gap_instance(60, 5, 0.1, seed=2)
    ratios = []
    for i in range(12):
        a = inst.trial_session(41, i)
        pac_sample_prune(a, inst.matroid, 0.2, 0.1, DESK)
        b = inst.trial_session(41, 1000 + i)
        pac_sample_prune(b, inst.matroid, 0.1, 0.1, DESK)
        ratios.append(b.total_samples / a.total_samples)
    assert 3.2 <= statistics.median(ratios) <= 4.8

    # the uniform baseline scales deterministically
    x = inst.trial_session(43, 0)
    naive_one(x, inst.matroid, 0.2, 0.1)
    y = inst.trial_session(43, 1)
    naive_one(y, inst.matroid, 0.1, 0.1)
    assert 3.8 <= y.total_samples / x.total_samples <= 4.2


def test_depth_guard_raises_budget_error():
    profile = ConstantsProfile("tiny", sample_prob=0.5, base_mult=0.0,
                               base_log_coef=1.0, max_depth=3)
    inst = builtin("prop1").with_point_mass_arms()
    session = inst.trial_session(1, 0)
    with pytest.raises(BudgetError):
        pac_sample_prune(session, inst.matroid, 0.1, 0.1, profile)


def test_zero_rank_matroid_returns_empty():
    session = point_session((0.5, 0.6))
    res = pac_sample_prune(session, UniformMatroid(2, 0), 0.1, 0.1, DESK)
    assert res.basis == frozenset()


def test_result_samples_match_ledger_exactly():
    inst = uniform_gap_instance(30, 3, 0.1, seed=4)
    session = inst.trial_session(8, 0)
    res = pac_sample_prune(session, inst.matroid, 0.3, 0.2, DESK)
    assert res.samples == session.total_samples
    assert inst.matroid.is_basis(res.basis)


def test_custom_profile_round_trip():
    prof = dataclasses.replace(DESK, pull_budget=10)
    inst = builtin("prop1")
    session = inst.trial_session(2, 0, max_pulls=prof.pull_budget)
    with pytest.raises(BudgetError):
        pac_sample_prune(session, inst.matroid, 0.1, 0.1, prof)


# Both tests below fail until the generators stop drawing from the trial-0 stream.
_SEED_COLLISION = (
    "ROADMAP item 1: the generators seed default_rng(seed), which draws the same "
    "numbers as trial_seed(seed, 0), so trial 0 samples from the numbers that set the means"
)


@pytest.mark.xfail(strict=True, reason=_SEED_COLLISION)
def test_no_generator_stream_is_a_trial_stream():
    for seed in (0, 1, 5):
        made = big_uniform_instance(50, 5, seed=seed).true_means
        for trial in range(3):
            drawn = random_means(np.random.default_rng(trial_seed(seed, trial)), 50)
            assert made != tuple(drawn.tolist()), (seed, trial)


@pytest.mark.xfail(strict=True, reason=_SEED_COLLISION)
def test_pac_trial_0_prunes_like_the_other_trials():
    # At the colliding seeds trial 0 keeps 3326 of 5000 arms at depth 0; trials 1 and 2 keep 20.
    inst = big_uniform_instance(5000, 20, seed=0)
    kept = []
    for trial in range(3):
        result = pac_sample_prune(inst.trial_session(0, trial), inst.matroid, 0.1, 0.1, DESK)
        (top,) = [level for level in result.transcript if level.depth == 0]
        kept.append(len(top.kept))
    assert max(kept) <= 2 * min(kept), kept
