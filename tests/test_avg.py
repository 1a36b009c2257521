import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_bandits import avg
from matroid_bandits.avg import (
    avg_pac_recur_elim,
    elimination,
    elimination_precondition,
    elimination_pull_count,
    elimination_sample_prob,
    ln_choose,
    naive_two,
    naive_two_pull_count,
    recur_break_bound,
)
from matroid_bandits.errors import DomainError, InvariantError, PreconditionError
from matroid_bandits.harness import success_flags
from matroid_bandits.instances import big_uniform_instance, builtin, make_instance
from matroid_bandits.matroids import GraphicMatroid, UniformMatroid, greedy_max_basis
from matroid_bandits.oracle import brute_force_opt_weight
from matroid_bandits.pac import DESK, PAPER, PacResult
from matroid_bandits.sampling import SamplingSession, bernoulli, point, trial_seed
from reference import point_mass, pull_counts, val


def test_ln_choose_matches_exact_values():
    assert ln_choose(10, 2) == pytest.approx(math.log(45), abs=1e-12)
    assert ln_choose(2000, 3) == pytest.approx(math.log(math.comb(2000, 3)), rel=1e-12)
    with pytest.raises(DomainError):
        ln_choose(3, 5)


def test_naive_two_pull_count_example():
    assert naive_two_pull_count(10, 2, 0.2, 0.1) == 171


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=1e-6, max_value=0.5),
)
def test_naive_two_count_monotonicity(k, delta):
    n = 40
    q = naive_two_pull_count(n, k, 0.2, delta)
    if k < n:
        assert naive_two_pull_count(n, k + 1, 0.2, delta) <= q
    assert naive_two_pull_count(n, k, 0.2, delta / 2) >= q


def test_naive_two_point_mass_exact_and_degenerate():
    inst = point_mass(builtin("laminar6"))
    session = inst.trial_session(0, 0)
    res = naive_two(session, inst.matroid, 0.2, 0.1)
    assert res.basis == greedy_max_basis(inst.matroid, inst.true_means)

    rank0 = UniformMatroid(3, 0)
    session = SamplingSession([point(0.2), point(0.4), point(0.6)], seed=0)
    res = naive_two(session, rank0, 0.2, 0.1)
    assert res.basis == frozenset() and session.total_samples == 0


def test_val_examples():
    m = UniformMatroid(4, 2)
    w = (0.91, 0.9, 0.89, 0.875)
    assert val(m, m.ground_set, w) == pytest.approx(1.81 / 2)

    path = GraphicMatroid(3, [(0, 1), (1, 2), (0, 1)])
    # dropping the bridge (edge 1) leaves rank 1 < 2
    assert val(path, {0, 2}, [0.5, 0.6, 0.4]) is None


def test_val_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, n + 1))
        m = UniformMatroid(n, k)
        w = [float(x) for x in rng.random(n)]
        subset = frozenset(int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        got = val(m, subset, w)
        if m.rank(subset) < k:
            assert got is None
        else:
            assert got == pytest.approx(
                brute_force_opt_weight(m.restrict(subset), w) / k, abs=1e-12
            )


def test_elimination_sample_prob_formula():
    p = elimination_sample_prob(10_000, 5, 0.1)
    assert 0.0 < p < 1.0
    assert p == pytest.approx(100 * (5 + math.log(10) + math.log(6)) / 10_000)


def test_elimination_pull_count_floor_term():
    # for large k the per-arm count bottoms out at beta^-2 * ln(200)/2
    beta = 0.05
    assert elimination_pull_count(beta, 10**6, 0.5) == math.ceil(beta**-2 * math.log(200) / 2)


def test_elimination_that_drops_the_rank_is_an_invariant_error(monkeypatch):
    # a broken pass (an inner solution short of a basis, and a pruning step
    # that keeps nothing) is a bug, not a statistical failure
    inst = big_uniform_instance(1000, 2, seed=1)
    monkeypatch.setattr(avg, "pac_sample_prune",
                        lambda session, m, *args: PacResult(frozenset(m.ground[:1])))
    monkeypatch.setattr(avg, "unblocked", lambda m, pool, weights, thresholds: frozenset())
    with pytest.raises(InvariantError, match="rank"):
        elimination(inst.trial_session(0, 0), inst.matroid, 0.1, 0.1, DESK)


def test_elimination_precondition_enforced():
    inst = builtin("prop1")
    session = inst.trial_session(0, 0)
    with pytest.raises(PreconditionError):
        elimination(session, inst.matroid, 0.3, 0.2, PAPER)


def test_elimination_noiseless_preserves_value():
    inst = point_mass(big_uniform_instance(1200, 3, seed=9))
    m = inst.matroid
    w = inst.true_means
    session = inst.trial_session(5, 0)
    eps = 0.3
    survivors = elimination(session, m, eps, 0.2, PAPER)
    assert m.rank(survivors) == m.full_rank
    assert len(survivors) <= 0.1 * m.size
    assert val(m, survivors, w) >= val(m, m.ground_set, w) - eps - 1e-12


def test_elimination_noisy_shrinkage_and_value():
    inst = big_uniform_instance(1200, 3, seed=11)
    m = inst.matroid
    w = inst.true_means
    full_val = val(m, m.ground_set, w)
    good = 0
    ratios = []
    trials = 40
    for i in range(trials):
        session = inst.trial_session(13, i)
        survivors = elimination(session, m, 0.3, 0.2, PAPER)
        ratios.append(len(survivors) / m.size)
        v = val(m, survivors, w)
        if len(survivors) <= 0.1 * m.size and v is not None and v >= full_val - 0.3:
            good += 1
    assert good >= int(0.8 * trials)
    assert float(np.quantile(ratios, 0.9)) <= 0.1 + 0.05


def test_recur_elim_base_case_is_naive_two():
    inst = big_uniform_instance(30, 5, seed=21)  # 30/5 <= 10 triggers the base case
    a = inst.trial_session(7, 0)
    b = inst.trial_session(7, 0)
    res_rec = avg_pac_recur_elim(a, inst.matroid, 0.2, 0.1, PAPER)
    res_naive = naive_two(b, inst.matroid, 0.2, 0.1)
    assert res_rec.basis == res_naive.basis
    assert pull_counts(a) == pull_counts(b)


def test_recur_elim_noiseless_value_chain():
    # dense near-substitute means: identity of the optimum is not preserved
    # by pruning, but the value chain is
    inst = point_mass(big_uniform_instance(2000, 3, seed=23))
    m = inst.matroid
    w = inst.true_means
    session = inst.trial_session(0, 0)
    eps = 0.3
    res = avg_pac_recur_elim(session, m, eps, 0.2, PAPER)
    assert res.transcript, "at least one elimination round should run at n=2000"
    full_val = val(m, m.ground_set, w)
    budget = 0.0
    for rec in res.transcript:
        budget += rec.eps_r
        v = val(m, frozenset(rec.kept), w)
        assert v is not None and v >= full_val - budget - 1e-12
    assert budget <= eps / 2 + 1e-12
    flags = success_flags(m, w, res.basis, eps)
    assert flags["avg"]


def _separated_instance(n: int, k: int) -> "object":
    # top arms far above everything else, so no pruning threshold can
    # block them with substitutes
    top = [0.9 - 0.01 * i for i in range(k)]
    rest = np.linspace(0.05, 0.5, n - k).tolist()
    return make_instance(
        "separated",
        {"family": "uniform", "n": n, "k": k},
        [point(mu) for mu in top + rest],
    )


def test_recur_elim_noiseless_separated_instance_recovers_optimum():
    inst = _separated_instance(2000, 3)
    m = inst.matroid
    w = inst.true_means
    session = inst.trial_session(0, 0)
    res = avg_pac_recur_elim(session, m, 0.3, 0.2, PAPER)
    assert res.transcript, "elimination rounds should run"
    assert res.basis == greedy_max_basis(m, w) == frozenset({0, 1, 2})
    for rec in res.transcript:
        assert {0, 1, 2} <= set(rec.kept)


class _RecordingSession(SamplingSession):
    """Logs every (arm, count, batch mean) that ``uniform_sample`` returns, in draw order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = []

    def uniform_sample(self, elements, count):
        means = super().uniform_sample(elements, count)
        ids = np.flatnonzero(~np.isnan(means))  # a dense session: NaN outside the batch
        self.draws += [[e, count, mean] for e, mean in zip(ids.tolist(), means[ids].tolist())]
        return means


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_recur_elim_fixed_seed_output_through_elimination():
    # the builtins all fall back to naive_two, so this is the fixed-seed pin
    # for elimination's draws: one round, then naive_two on the survivors.
    # At ~1e8 pulls an arm the pruning is too sure to notice a changed stream,
    # so the draws themselves are pinned too.
    inst = big_uniform_instance(1000, 2, seed=1)
    session = _RecordingSession(inst.arms, trial_seed(1, 0))
    res = avg_pac_recur_elim(session, inst.matroid, 0.1, 0.1, DESK)
    assert [(rec.r, rec.size_before, rec.size_after) for rec in res.transcript] == [(1, 1000, 251)]
    assert sorted(res.basis) == [186, 932]
    assert session.total_samples == 95_495_200_445
    assert _sha256(pull_counts(session)) == (
        "f6d07f4e0430adc571ec5627f8eee7dd6f4c7d1340165a452402e3a132774cf4")
    assert len(session.draws) == 2270
    assert _sha256(session.draws) == (
        "a6fd573296ab197b0feae88478af02723e3c19344e5efd834e771430a695d677")


def test_recur_elim_break_bound_formula():
    k, delta_r = 3, 0.05
    expected = (math.log(1 / delta_r) + k + math.log(6)) * (100 + math.log(k) + math.log(1 / delta_r))
    assert recur_break_bound(k, delta_r) == pytest.approx(expected)


def test_recur_elim_noisy_smoke():
    inst = big_uniform_instance(2000, 3, seed=25)
    hits = 0
    for i in range(10):
        session = inst.trial_session(17, i)
        res = avg_pac_recur_elim(session, inst.matroid, 0.3, 0.2, PAPER)
        flags = success_flags(inst.matroid, inst.true_means, res.basis, 0.3)
        hits += flags["avg"]
    assert hits >= 9


def test_rank_zero_matroid_short_circuits():
    session = SamplingSession([point(0.5)], seed=0)
    res = avg_pac_recur_elim(session, UniformMatroid(1, 0), 0.1, 0.1, PAPER)
    assert res.basis == frozenset() and session.total_samples == 0


def test_precondition_helper_matches_formula():
    assert elimination_precondition(1000, 3, 0.2)
    assert not elimination_precondition(100, 3, 0.2)
