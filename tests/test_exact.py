import dataclasses
import math

import numpy as np
import pytest

from conftest import FAMILY_NAMES, loop_free, random_distinct_weights, random_matroid
from matroid_bandits.errors import BudgetError, DomainError, InvariantError
from matroid_bandits.exact import ELIMINATION, FINAL_SELECT, SELECTION, exact_exp_gap, round_schedule
from matroid_bandits.instances import builtin, make_instance
from matroid_bandits.matroids import GraphicMatroid, UniformMatroid, greedy_max_basis
from matroid_bandits.oracle import brute_force_opt, gap
from matroid_bandits.pac import DESK, PAPER
from matroid_bandits.sampling import SamplingSession, bernoulli, point
from reference import point_mass


def test_round_schedule_values():
    delta = 0.4
    assert round_schedule(1, delta) == (0.125, delta / 100)
    assert round_schedule(2, delta) == (0.0625, delta / 800)
    with pytest.raises(DomainError):
        round_schedule(0, delta)


def test_round_schedule_union_bound_partial_sum():
    delta = 1.0 - 1e-9
    total = sum(4 * round_schedule(r, delta)[1] for r in range(1, 200_000))
    assert total <= delta / 5


def test_noiseless_four_arm_trace():
    inst = point_mass(builtin("prop1"))
    session = inst.trial_session(0, 0)
    res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
    assert res.basis == {0, 1}
    # n_opt = n_bad = 2 initially, so the first round eliminates
    assert res.transcript[0].kind == ELIMINATION
    kinds = [rec.kind for rec in res.transcript]
    assert SELECTION in kinds or FINAL_SELECT in kinds


def test_noiseless_rounds_are_sound_across_builtins():
    for name in ("prop1", "ladder10", "graphic_k4", "transversal5", "laminar6", "partition6"):
        inst = point_mass(builtin(name))
        opt = greedy_max_basis(inst.matroid, inst.true_means)
        session = inst.trial_session(1, 0)
        res = exact_exp_gap(session, inst.matroid, 0.1, DESK)
        assert res.basis == opt, name
        for rec in res.transcript:
            if rec.kind == ELIMINATION:
                removed = set(rec.ground) - set(rec.changed)
                assert removed.isdisjoint(opt)  # only suboptimal arms leave
            else:
                assert set(rec.changed) <= opt  # only optimal arms are committed


def test_all_arms_optimal_returns_without_sampling():
    inst = make_instance(
        "allopt",
        {"family": "uniform", "n": 3, "k": 3},
        [bernoulli(0.3), bernoulli(0.5), bernoulli(0.7)],
    )
    session = inst.trial_session(0, 0)
    res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
    assert res.basis == {0, 1, 2}
    assert session.total_samples == 0
    assert res.transcript[0].kind == FINAL_SELECT


def test_empty_matroid_returns_empty():
    session = SamplingSession([], seed=0)
    res = exact_exp_gap(session, UniformMatroid(0, 0), 0.1, PAPER)
    assert res.basis == frozenset()
    assert session.total_samples == 0


def test_noisy_four_arm_monte_carlo():
    inst = builtin("prop1")
    opt = greedy_max_basis(inst.matroid, inst.true_means)
    hits = 0
    for i in range(30):
        session = inst.trial_session(51, i)
        res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
        hits += res.basis == opt
    assert hits >= 26


def test_gap_never_shrinks_under_restrict_and_contract():
    rng = np.random.default_rng(61)
    for family in FAMILY_NAMES:
        for _ in range(8):
            n = int(rng.integers(4, 9))
            m = random_matroid(rng, family, n)
            if not loop_free(m):
                continue
            w = random_distinct_weights(rng, n)
            opt = brute_force_opt(m, w)
            committed = frozenset(
                int(e) for e in rng.choice(sorted(opt), size=int(rng.integers(0, len(opt) + 1)), replace=False)
            )
            bad = [e for e in m.ground if e not in opt]
            dropped = frozenset(
                int(e) for e in rng.choice(bad, size=int(rng.integers(0, len(bad) + 1)), replace=False)
            ) if bad else frozenset()
            view = m.restrict(m.ground_set - dropped).contract(committed)
            for e in view.ground:
                if view.rank({e}) == 0:
                    continue
                g_view = gap(view, e, w)
                g_base = gap(m, e, w)
                assert g_view >= g_base - 1e-12 or g_view == math.inf


def test_bridges_have_infinite_gap_and_are_selected():
    # path graph: both edges sit in every spanning forest
    inst = make_instance(
        "path",
        {"family": "graphic", "num_vertices": 3, "edges": [[0, 1], [1, 2]]},
        [bernoulli(0.3), bernoulli(0.6)],
    )
    assert gap(inst.matroid, 0, inst.true_means) == math.inf
    session = inst.trial_session(0, 0)
    res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
    assert res.basis == {0, 1}
    assert session.total_samples == 0  # n_bad = 0 immediately


def test_isolated_elements_appearing_mid_run_are_fine():
    # one bad arm plus a bridge: the bridge is isolated from the start
    inst = point_mass(make_instance(
        "bridge-plus",
        {"family": "graphic", "num_vertices": 3,
         "edges": [[0, 1], [1, 2], [1, 2]]},
        [bernoulli(0.8), bernoulli(0.6), bernoulli(0.3)],
    ))
    session = inst.trial_session(0, 0)
    res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
    assert res.basis == {0, 1}


def test_selection_rounds_commit_by_gap_stratum():
    # minimum gap 0.01 >= 2^-7, so every optimal arm should be committed by
    # selection round 7 in nearly all trials
    inst = builtin("prop1")
    opt = greedy_max_basis(inst.matroid, inst.true_means)
    good = 0
    trials = 40
    for i in range(trials):
        session = inst.trial_session(71, i)
        res = exact_exp_gap(session, inst.matroid, 0.1, PAPER)
        if res.basis != opt:
            continue
        entered: dict[int, int] = {}
        for rec in res.transcript:
            if rec.kind in (SELECTION, FINAL_SELECT):
                for e in rec.changed:
                    entered.setdefault(e, rec.r)
        if all(entered.get(e, 99) <= 7 for e in opt):
            good += 1
    assert good >= int(0.9 * trials)


def test_round_guard_triggers_budget_error():
    # two arms 1e-7 apart keep eliminating; three nearly tied arms of which two
    # are optimal keep selecting
    cases = [
        ({"family": "uniform", "n": 2, "k": 1}, [0.5, 0.5 + 1e-7], "elimination"),
        ({"family": "uniform", "n": 3, "k": 2}, [0.5, 0.5 + 1e-7, 0.5 + 2e-7], "selection"),
    ]
    profile = dataclasses.replace(DESK, round_guard=5)
    for matroid_config, means, kind in cases:
        inst = make_instance("needle", matroid_config, [point(mu) for mu in means])
        session = inst.trial_session(0, 0)
        with pytest.raises(BudgetError, match=f"^{kind} round guard 5 exceeded$"):
            exact_exp_gap(session, inst.matroid, 0.1, profile)


def test_loops_rejected_by_runtime_assertion():
    g = GraphicMatroid(2, [(0, 0), (0, 1)])
    session = SamplingSession([point(0.4), point(0.6)], seed=0)
    with pytest.raises(InvariantError):
        exact_exp_gap(session, g, 0.1, PAPER)


def test_delta_validation():
    session = SamplingSession([point(0.4)], seed=0)
    with pytest.raises(DomainError):
        exact_exp_gap(session, UniformMatroid(1, 1), 1.5, PAPER)
