import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_bandits.errors import BudgetError, DomainError, ValidationError
from matroid_bandits.instances import (
    big_uniform_instance, builtin, load_instance, make_instance, save_instance,
)
from matroid_bandits.sampling import (
    Arm,
    ArmTable,
    SamplingSession,
    bernoulli,
    point,
    sample_size,
    scaled,
    trial_seed,
)


def test_arm_validation():
    with pytest.raises(ValidationError):
        Arm("bernoulli", 1.5)
    with pytest.raises(ValidationError):
        Arm("gaussian", 0.5)
    with pytest.raises(ValidationError):
        Arm("scaled", 0.5)  # support required
    with pytest.raises(ValidationError):
        scaled(0.6, 0.4, 0.5)  # lo >= hi
    with pytest.raises(ValidationError):
        scaled(0.2, 0.4, 0.5)  # mean outside support
    with pytest.raises(ValidationError):
        Arm("point", 0.5, (0.1, 0.9))


def test_arm_table_columns():
    table = ArmTable.from_arms([bernoulli(0.3), point(0.2), scaled(0.2, 0.9, 0.5)])
    assert table.kinds == ("bernoulli", "point", "scaled")
    assert table.means == (0.3, 0.2, 0.5)
    assert table.supports == (None, None, (0.2, 0.9))
    assert table.q.tolist() == [0.3, 0.0, (0.5 - 0.2) / (0.9 - 0.2)]
    assert len(table) == 3


def test_pickled_instance_holds_columns_and_draws_alike():
    inst = big_uniform_instance(5000, 20, seed=0)
    classes = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            classes.add(name)
            return super().find_class(module, name)

    copy = Recorder(io.BytesIO(pickle.dumps(inst))).load()
    assert "ArmTable" in classes and "Arm" not in classes
    assert copy.true_means == inst.true_means
    assert copy.arms == inst.arms

    def draw(instance):
        return instance.trial_session(4, 2).uniform_sample(range(0, 5000, 7), 50)

    assert draw(copy) == draw(inst)


def test_loaded_table_shares_the_kind_constants(tmp_path):
    arms = [bernoulli(0.2), scaled(0.1, 0.9, 0.5), point(0.7), bernoulli(0.6)]
    made = make_instance("mixed", {"family": "uniform", "n": 4, "k": 2}, arms)
    for inst in (made, big_uniform_instance(5000, 20, seed=0)):
        path = tmp_path / f"{inst.name}.json"
        save_instance(inst, path)
        loaded = load_instance(path).arms
        assert all(a is b for a, b in zip(loaded.kinds, inst.arms.kinds))
        assert loaded == inst.arms and loaded.all_bernoulli == inst.arms.all_bernoulli
        assert len(pickle.dumps(loaded)) == len(pickle.dumps(inst.arms))


def test_point_mass_instance_draws_nothing():
    inst = builtin("ladder10").with_point_mass_arms()
    assert set(inst.arms.kinds) == {"point"} and not inst.arms.q.any()
    session = inst.trial_session(0, 0)
    assert session.uniform_sample(range(10), 10**6) == dict(enumerate(inst.true_means))
    assert _next_draws(session) == _next_draws(inst.trial_session(0, 0))


def test_point_mass_pull_is_exact():
    session = SamplingSession([point(0.5)], seed=0)
    assert all(session.uniform_sample({0}, 1) == {0: 0.5} for _ in range(10))
    assert session.uniform_sample({0}, 1000) == {0: 0.5}
    assert session.pull_batch(0, 1000) == 0.5
    assert session.pull_counts() == [2010]


def test_bernoulli_extremes():
    session = SamplingSession([bernoulli(1.0), bernoulli(0.0)], seed=0)
    for count in (1, 10, 10**6):
        assert session.uniform_sample({0, 1}, count) == {0: 1.0, 1: 0.0}
        assert (session.pull_batch(0, count), session.pull_batch(1, count)) == (1.0, 0.0)


def test_bernoulli_mean_within_four_sigma():
    session = SamplingSession([bernoulli(0.3)], seed=123)
    mean = session.pull_batch(0, 100_000)
    assert abs(mean - 0.3) < 0.006  # 4 * sqrt(0.21 / 1e5)


def test_single_pulls_match_distribution():
    session = SamplingSession([bernoulli(0.4)] * 10_000, seed=7)
    values = list(session.uniform_sample(range(10_000), 1).values())
    values += [session.uniform_sample({0}, 1)[0] for _ in range(10_000)]
    assert set(values) <= {0.0, 1.0}
    assert abs(np.mean(values) - 0.4) < 5 * math.sqrt(0.24 / 20_000)


def test_scaled_arm_support_and_mean():
    session = SamplingSession([scaled(0.2, 0.6, 0.5)] * 2000, seed=11)
    values = list(session.uniform_sample(range(2000), 1).values())
    assert set(values) == {0.2, 0.6}
    q = (0.5 - 0.2) / 0.4
    sigma = 0.4 * math.sqrt(q * (1 - q))
    mean = session.pull_batch(0, 100_000)
    assert abs(mean - 0.5) < 4 * sigma / math.sqrt(100_000)


def test_unknown_arm_rejected():
    session = SamplingSession([point(0.5)], seed=0)
    with pytest.raises(DomainError):
        session.pull_batch(3, 1)
    with pytest.raises(DomainError):
        session.uniform_sample({3}, 1)


def test_sample_size_examples():
    assert sample_size(0.1, 0.05) == 185
    assert sample_size(1.0, 1.0 / (2.0 * math.e**2)) == math.ceil(math.log(4 * math.e**2) / 2)
    assert sample_size(10.0, 0.9) == 1  # floor of one pull
    with pytest.raises(DomainError):
        sample_size(0.0, 0.5)
    with pytest.raises(DomainError):
        sample_size(0.1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_sample_size_monotone(eps, delta):
    q = sample_size(eps, delta)
    assert q >= 1
    assert sample_size(eps / 2, delta) >= q
    assert sample_size(eps, delta / 2) >= q


def test_uniform_sample_counts_and_total():
    session = SamplingSession([point(0.2), point(0.4), point(0.6), point(0.8)], seed=0)
    means = session.uniform_sample({0, 1, 2}, 185)
    assert means == {0: 0.2, 1: 0.4, 2: 0.6}
    assert session.pull_counts() == [185, 185, 185, 0]
    assert session.total_samples == 555
    session.uniform_sample({3}, 185)
    assert session.total_samples == 555 + 185  # ledger additivity


def test_uniform_sample_fresh_batches():
    session = SamplingSession([bernoulli(0.5)], seed=5)
    reference = SamplingSession([bernoulli(0.5)], seed=5)
    first = session.uniform_sample({0}, 1000)[0]
    second = session.uniform_sample({0}, 1)[0]
    assert session.pull_counts() == [1001]
    assert 0.4 < first < 0.6
    # the returned mean is computed from this batch's single pull only
    assert second in (0.0, 1.0)
    assert (first, second) == (reference.pull_batch(0, 1000), reference.pull_batch(0, 1))


def test_uniform_sample_validates_parameters():
    session = SamplingSession([point(0.5)], seed=0)
    for count in (0, -5):
        with pytest.raises(DomainError):
            session.uniform_sample({0}, count)
        with pytest.raises(DomainError):
            session.pull_batch(0, count)
    assert session.total_samples == 0


def test_fresh_session_has_zero_samples():
    assert SamplingSession([point(0.5)], seed=0).total_samples == 0


def test_determinism_same_seed():
    def transcript(seed):
        s = SamplingSession([bernoulli(0.3), bernoulli(0.7)], seed=seed)
        out = [s.uniform_sample({0}, 1)[0] for _ in range(50)]
        out += list(s.uniform_sample({0, 1}, 12).values())
        out.append(tuple(sorted(s.random_subset({0, 1}, 0.5))))
        return out

    assert transcript(42) == transcript(42)
    assert transcript(42) != transcript(43)


def test_trial_seed_derivation_is_stable():
    a = SamplingSession([bernoulli(0.5)], trial_seed(99, 3))
    b = SamplingSession([bernoulli(0.5)], trial_seed(99, 3))
    c = SamplingSession([bernoulli(0.5)], trial_seed(99, 4))
    seq_a = [a.uniform_sample({0}, 1)[0] for _ in range(20)]
    seq_b = [b.uniform_sample({0}, 1)[0] for _ in range(20)]
    seq_c = [c.uniform_sample({0}, 1)[0] for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_random_subset_probability():
    session = SamplingSession([point(0.5)], seed=1)
    sizes = [len(session.random_subset(range(200), 0.3)) for _ in range(200)]
    assert abs(np.mean(sizes) - 60) < 4 * math.sqrt(200 * 0.3 * 0.7 / 200) + 1


def test_budget_enforced():
    session = SamplingSession([bernoulli(0.5)], seed=0, max_pulls=100)
    with pytest.raises(BudgetError):
        session.pull_batch(0, 101)
    with pytest.raises(BudgetError):
        session.uniform_sample({0}, 101)
    assert session.total_samples == 0


def test_budget_is_checked_before_drawing():
    session = SamplingSession([bernoulli(0.5)], seed=0, max_pulls=100)
    session.pull_batch(0, 60)
    with pytest.raises(BudgetError):
        session.pull_batch(0, 60)
    assert session.total_samples == 60
    assert session.pull_counts() == [60]


def _next_draws(session):
    """The generator's next draws, read through the session's own subset draw."""
    return session.random_subset(range(50), 0.5)


def test_uniform_sample_over_budget_draws_nothing():
    count = sample_size(0.2, 0.1)
    session = SamplingSession([bernoulli(0.5)] * 5, seed=3, max_pulls=5 * count - 1)
    session.uniform_sample([1], count)
    with pytest.raises(BudgetError, match="exhausted"):
        session.uniform_sample([4, 2, 0, 3], count)  # one pull over the budget
    assert session.pull_counts() == [0, count, 0, 0, 0]
    assert session.total_samples == count
    # the refused batch took no draw from the generator
    reference = SamplingSession([bernoulli(0.5)] * 5, seed=3)
    reference.uniform_sample([1], count)
    assert _next_draws(session) == _next_draws(reference)
    # a batch that exactly fits what is left is drawn
    assert len(session.uniform_sample([4, 2, 0], count)) == 3
    assert session.pull_counts() == [count, count, count, 0, count]
    assert session.total_samples == 4 * count


def test_uniform_sample_refuses_an_undrawable_batch_whole():
    count = sample_size(1e-10, 0.1)
    assert count > 2**62
    session = SamplingSession([point(0.2), point(0.4), bernoulli(0.5), point(0.6)], seed=0)
    with pytest.raises(BudgetError, match="not drawable"):
        session.uniform_sample(range(4), count)
    assert session.pull_counts() == [0, 0, 0, 0]
    assert session.total_samples == 0
    assert _next_draws(session) == _next_draws(SamplingSession([point(0.2)], seed=0))
    # point arms alone take no draw, so any count is drawable
    assert session.uniform_sample([0, 1, 3], count) == {0: 0.2, 1: 0.4, 3: 0.6}
    assert session.pull_counts() == [count, count, 0, count]


def test_uniform_sample_draws_what_pull_batch_per_arm_draws():
    arms = [point(0.4), bernoulli(0.3), scaled(0.2, 0.9, 0.5), bernoulli(0.0),
            bernoulli(1.0), scaled(0.1, 0.3, 0.3), bernoulli(0.77)]
    for count in (1, 19, 185, 1_500_000_000_000, 2**62, 2**62 + 1):
        vector = SamplingSession(arms, seed=11)
        scalar = SamplingSession(arms, seed=11)
        if count > 2**62:  # the batch holds stochastic arms, so none of it is drawn
            with pytest.raises(BudgetError, match="not drawable"):
                vector.uniform_sample([6, 0, 2, 1, 3, 4, 5, 2], count)
            with pytest.raises(BudgetError, match="not drawable"):
                scalar.pull_batch(1, count)
            assert vector.pull_counts() == [0] * len(arms)
            assert vector.total_samples == 0
        else:
            means = vector.uniform_sample([6, 0, 2, 1, 3, 4, 5, 2], count)
            assert means == {e: scalar.pull_batch(e, count) for e in range(len(arms))}
            assert list(means) == sorted(means)
        assert vector.pull_counts() == scalar.pull_counts()
        assert vector.total_samples == scalar.total_samples
        # the generator is left where the per-arm draws leave it
        assert _next_draws(vector) == _next_draws(scalar)


def test_all_bernoulli_uniform_sample_draws_what_pull_batch_per_arm_draws():
    # every arm Bernoulli: the means come from one array division up to 2**53
    # pulls, and from the per-arm path above it
    arms = [bernoulli(mu) for mu in (0.0, 0.013, 0.3, 1 / 3, 0.5, 0.61, 0.77, 0.9, 0.999, 1.0)]
    assert ArmTable.from_arms(arms).all_bernoulli
    for count in (1, 19, 185, 2**53, 2**53 + 1, 2**62):
        vector = SamplingSession(arms, seed=5)
        scalar = SamplingSession(arms, seed=5)
        means = vector.uniform_sample([9, 3, 0, 1, 2, 4, 5, 6, 7, 8, 3], count)
        assert means == {e: scalar.pull_batch(e, count) for e in range(len(arms))}
        assert list(means) == sorted(means)
        assert vector.pull_counts() == scalar.pull_counts() == [count] * len(arms)
        assert vector.total_samples == scalar.total_samples
        assert _next_draws(vector) == _next_draws(scalar)


def test_uniform_sample_rejects_unknown_arms_before_drawing():
    session = SamplingSession([bernoulli(0.5)] * 3, seed=0)
    for bad in ([0, 1, 3], [-1, 0]):
        with pytest.raises(DomainError):
            session.uniform_sample(bad, 94)
    assert session.total_samples == 0


def test_concentration_rate_within_declared_delta():
    eps, delta = 0.2, 0.1
    misses = 0
    reps = 1000
    session = SamplingSession([bernoulli(0.5)], seed=77)
    for _ in range(reps):
        mean = session.uniform_sample({0}, sample_size(eps, delta))[0]
        if abs(mean - 0.5) >= eps:
            misses += 1
    slack = 3 * math.sqrt(delta * (1 - delta) / reps)
    assert misses / reps <= delta + slack
