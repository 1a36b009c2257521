import io
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_bandits.errors import BudgetError, DomainError, ValidationError
from matroid_bandits.instances import (
    big_uniform_instance, builtin, load_instance, make_instance, save_instance,
)
from matroid_bandits import sampling
from matroid_bandits.matroids import IndependentSet, UniformMatroid
from matroid_bandits.sampling import (
    DENSE_MIN_ARMS,
    POINT,
    Arm,
    ArmTable,
    SamplingSession,
    bernoulli,
    point,
    sample_size,
    scaled,
    trial_seed,
)
from reference import point_mass, pull_counts


def _means(batch):
    """A batch's means as a dict; a dense session's array holds NaN for each arm outside it."""
    if type(batch) is not np.ndarray:
        return batch
    ids = np.flatnonzero(~np.isnan(batch))
    return dict(zip(ids.tolist(), batch[ids].tolist()))


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
        return _means(instance.trial_session(4, 2).uniform_sample(range(0, 5000, 7), 50))

    assert draw(copy) == draw(inst)


def test_a_table_compares_and_pickles_by_value_and_holds_each_column_once():
    means = [0.5, 0.25, 0.75, 0.125]
    table = ArmTable.from_columns(None, means)
    # an all-Bernoulli table holds its means as q, and no kind or support per arm
    assert table.mean_array is table.q and table.mixed_kinds is table.mixed_supports is None
    assert not table.q.flags.writeable and table.all_bernoulli
    assert table == ArmTable.from_columns(["bernoulli"] * 4, np.array(means), [None] * 4)
    pickled = pickle.dumps(table)
    assert (table.means, table.kinds, table.supports) == (
        tuple(means), ("bernoulli",) * 4, (None,) * 4)
    assert pickle.dumps(table) == pickled  # what was built on first use stays behind
    copy = pickle.loads(pickled)
    assert copy == table and copy.mean_array is copy.q and not copy.q.flags.writeable
    assert table != ArmTable.from_columns(None, [0.5, 0.25, 0.75, 0.25])
    mixed = ArmTable.from_arms([bernoulli(0.5), point(0.25), scaled(0.5, 1.0, 0.75), bernoulli(0.125)])
    assert mixed != table and mixed.means == table.means
    assert pickle.loads(pickle.dumps(mixed)) == mixed
    assert mixed.mean_array.tolist() == means and mixed.q.tolist() == [0.5, 0.0, 0.5, 0.125]
    inst = big_uniform_instance(DENSE_MIN_ARMS, 3, seed=2)
    twin = pickle.loads(pickle.dumps(inst))
    assert twin.arms == inst.arms and twin.true_means == inst.true_means
    assert type(inst.true_means) is tuple and inst.true_weights is inst.arms.mean_array


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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tables_of_every_kind_and_form_save_and_load_exactly(tmp_path_factory, data):
    n = data.draw(st.one_of(st.integers(1, 12),
                            st.integers(DENSE_MIN_ARMS - 3, DENSE_MIN_ARMS + 3)), "n")
    present = data.draw(st.sets(st.sampled_from(("bernoulli", "point", "scaled")), min_size=1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    kinds = rng.choice(sorted(present), n).tolist()
    means = rng.uniform(0.01, 0.99, n)
    # a few awkward floats in front, to check that every mean round-trips through repr
    head = data.draw(st.lists(st.floats(1e-300, 1.0, exclude_max=True), max_size=min(n, 6)))
    means[:len(head)] = head
    lows, highs = means * rng.random(n), means + (1.0 - means) * rng.random(n)
    supports = [(lo, hi) if kind == "scaled" else None
                for kind, lo, hi in zip(kinds, lows.tolist(), highs.tolist())]
    table = ArmTable.from_columns(kinds, means, supports)
    inst = make_instance("mix", {"family": "uniform", "n": n, "k": 1}, table, allow_ties=True)
    path = tmp_path_factory.mktemp("round-trip") / "mix.json"
    save_instance(inst, path)
    loaded = load_instance(path).arms
    assert loaded == table and np.array_equal(loaded.q, table.q)
    assert (loaded.dense, loaded.all_bernoulli) == (table.dense, table.all_bernoulli)
    constants = {sampling.BERNOULLI, sampling.POINT, sampling.SCALED}
    assert {id(kind) for kind in loaded.kinds} <= {id(kind) for kind in constants}
    assert len(pickle.dumps(loaded)) == len(pickle.dumps(table))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_building_and_loading_a_large_instance_makes_no_arm_records_and_no_spans(
        tmp_path, monkeypatch):
    path = tmp_path / "uniform.json"
    save_instance(big_uniform_instance(5000, 20, seed=0), path)
    calls = {"Arm": 0, "spans": 0}

    def counting(owner, name, key):
        original = vars(owner)[name]

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Arm, "__post_init__", "Arm")
    for owner in (IndependentSet, *_subclasses(IndependentSet)):
        if "spans" in vars(owner):
            counting(owner, "spans", "spans")
    loaded = load_instance(path)
    made = big_uniform_instance(5000, 20, seed=0)
    assert calls == {"Arm": 0, "spans": 0}
    assert loaded.arms == made.arms and loaded.size == 5000
    bernoulli(0.5)  # the counters do see a record
    assert calls["Arm"] == 1


_VALID_ROWS = [("bernoulli", 0.3, None), ("bernoulli", 0.0, None), ("bernoulli", 1.0, None),
               ("point", 0.4, None), ("point", 1.0, None), ("scaled", 0.5, (0.2, 0.9)),
               ("scaled", 0.2, (0.2, 0.9)), ("scaled", 0.9, (0.2, 0.9)), ("scaled", 0.0, (0.0, 1.0))]
_INVALID_ROWS = {
    "unknown-kind": ("gaussian", 0.5, None),
    "nan-mean": ("bernoulli", float("nan"), None),
    "negative-mean": ("bernoulli", -0.01, None),
    "mean-above-one": ("point", 1.01, None),
    "scaled-without-support": ("scaled", 0.5, None),
    "support-lo-not-below-hi": ("scaled", 0.5, (0.5, 0.5)),
    "support-reversed": ("scaled", 0.5, (0.9, 0.2)),
    "support-below-zero": ("scaled", 0.1, (-0.1, 0.5)),
    "support-above-one": ("scaled", 0.9, (0.5, 1.1)),
    "support-nan": ("scaled", 0.5, (float("nan"), 0.9)),
    "support-of-three": ("scaled", 0.5, (0.2, 0.4, 0.9)),
    "mean-outside-support": ("scaled", 0.5, (0.2, 0.4)),
    "point-with-support": ("point", 0.5, (0.1, 0.9)),
    "bernoulli-with-support": ("bernoulli", 0.5, (0.1, 0.9)),
    # each is a number only when parsed or cast, so each is refused
    "string-mean": ("bernoulli", "0.5", None),
    "bool-mean": ("point", True, None),
    "string-support-bound": ("scaled", 0.5, ("0.2", 0.9)),
    "bool-support-bound": ("scaled", 0.5, (0.2, True)),
}


def _table_or_refusal(build):
    try:
        return build()
    except ValidationError:
        return None


def _rows_both_ways(rows):
    """The table of ``rows`` from ``Arm`` records and from columns; None where refused."""
    records = _table_or_refusal(lambda: ArmTable.from_arms([Arm(*row) for row in rows]))
    columns = _table_or_refusal(lambda: ArmTable.from_columns(
        [row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows]))
    return records, columns


@st.composite
def _scaled_rows(draw):
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    mean = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    return ("scaled", mean, (lo, hi))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(_VALID_ROWS),
    st.tuples(st.sampled_from(["bernoulli", "point"]), st.floats(0.0, 1.0), st.none()),
    _scaled_rows(),
), max_size=12), st.lists(st.tuples(st.integers(0, 12), st.one_of(
    st.sampled_from(list(_INVALID_ROWS.values())),
    st.tuples(st.just("scaled"), st.floats(0.0, 1.0), st.tuples(st.floats(0.0, 1.0),
                                                                 st.floats(0.0, 1.0))),
)), max_size=2))
def test_columns_and_records_make_the_same_table(rows, inserted):
    for at, row in inserted:  # none, one or two rows that may be invalid
        rows.insert(at, row)
    records, columns = _rows_both_ways(rows)
    assert (records is None) == (columns is None)
    if columns is None:
        return
    # the per-arm reference for each arm's binomial success probability
    q = [0.0 if kind == "point" else mean if kind == "bernoulli"
         else (mean - support[0]) / (support[1] - support[0]) for kind, mean, support in rows]
    assert columns == records
    assert columns.q.tobytes() == records.q.tobytes() == np.array(q, dtype=np.float64).tobytes()
    assert columns.all_bernoulli == records.all_bernoulli == all(r[0] == "bernoulli" for r in rows)
    assert len(pickle.dumps(columns)) == len(pickle.dumps(records))
    if all(row[2] is None for row in rows):
        assert ArmTable.from_columns([r[0] for r in rows], [r[1] for r in rows]) == columns

    def draws(table):
        return SamplingSession(table, seed=8).uniform_sample(range(len(rows)), 37)

    assert draws(columns) == draws(records)


@pytest.mark.parametrize("row", list(_INVALID_ROWS.values()), ids=list(_INVALID_ROWS))
def test_columns_and_records_refuse_each_invalid_row(row):
    assert _rows_both_ways([*_VALID_ROWS[:4], row, *_VALID_ROWS[4:]]) == (None, None)


@pytest.mark.parametrize("value", ["0.5", True, np.bool_(False), None],
                         ids=["string", "bool", "numpy-bool", "none"])
def test_each_arm_route_refuses_a_mean_or_bound_that_is_not_a_real_number(value):
    routes = [lambda: bernoulli(value), lambda: point(value), lambda: scaled(value, 0.9, 0.5),
              lambda: scaled(0.1, value, 0.5), lambda: scaled(0.1, 0.9, value),
              lambda: ArmTable.from_columns(None, [0.5, value]),
              lambda: ArmTable.from_columns(None, np.array([0.5, value], dtype=object)),
              lambda: ArmTable.from_columns(["scaled"], [0.5], [(0.1, value)])]
    for route in routes:
        with pytest.raises(ValidationError):
            route()


def test_arrays_of_strings_or_bools_are_refused_by_their_dtype():
    for means in (np.array(["0.25", "0.75"]), np.array([False, True]),
                  np.array([0.5 + 0j, 0.25 + 0j])):
        with pytest.raises(ValidationError, match="must be real numbers"):
            ArmTable.from_columns(None, means)


def test_any_real_number_is_a_mean_or_bound():
    for value in (1, np.int64(0), 0.5, np.float32(0.5), Fraction(1, 2), Decimal("0.5")):
        table = ArmTable.from_arms([bernoulli(value), point(value), scaled(0, 1, value)])
        assert table.means == (float(value),) * 3 and table.supports[2] == (0.0, 1.0)
    for means in (np.array([0, 1]), np.array([0.5], dtype=np.float32), [np.float64(0.5), 1]):
        assert ArmTable.from_columns(None, means).means == tuple(map(float, means))


def test_point_mass_instance_draws_nothing():
    inst = point_mass(builtin("ladder10"))
    assert set(inst.arms.kinds) == {"point"} and not inst.arms.q.any()
    session = inst.trial_session(0, 0)
    assert session.uniform_sample(range(10), 10**6) == dict(enumerate(inst.true_means))
    assert _next_draws(session) == _next_draws(inst.trial_session(0, 0))


def test_point_mass_pull_is_exact():
    session = SamplingSession([point(0.5)], seed=0)
    assert all(session.uniform_sample({0}, 1) == {0: 0.5} for _ in range(10))
    assert session.uniform_sample({0}, 1000) == {0: 0.5}
    assert session.pull_batch(0, 1000) == 0.5
    assert pull_counts(session) == [2010]


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
    values = list(_means(session.uniform_sample(range(10_000), 1)).values())
    values += [session.uniform_sample({0}, 1)[0] for _ in range(10_000)]
    assert set(values) <= {0.0, 1.0}
    assert abs(np.mean(values) - 0.4) < 5 * math.sqrt(0.24 / 20_000)


def test_scaled_arm_support_and_mean():
    session = SamplingSession([scaled(0.2, 0.6, 0.5)] * 2000, seed=11)
    values = list(_means(session.uniform_sample(range(2000), 1)).values())
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
    assert pull_counts(session) == [185, 185, 185, 0]
    assert session.total_samples == 555
    session.uniform_sample({3}, 185)
    assert session.total_samples == 555 + 185  # ledger additivity


def test_uniform_sample_fresh_batches():
    session = SamplingSession([bernoulli(0.5)], seed=5)
    reference = SamplingSession([bernoulli(0.5)], seed=5)
    first = session.uniform_sample({0}, 1000)[0]
    second = session.uniform_sample({0}, 1)[0]
    assert pull_counts(session) == [1001]
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


@pytest.mark.parametrize("n", [3, DENSE_MIN_ARMS + 44], ids=["reference", "dense"])
def test_a_count_or_p_of_the_wrong_type_is_refused_before_any_draw(n):
    # a float count used to be drawn as its floor and divided as itself
    session = SamplingSession(ArmTable.from_columns(None, [0.5] * n), 0)
    state = session._rng.bit_generator.state

    def refused(call, *args, match):
        with pytest.raises(DomainError, match=match):
            call(*args)
        assert session._rng.bit_generator.state == state
        assert session.total_samples == 0 and pull_counts(session) == [0] * n

    for bad in (2.5, 2.0, np.float64(2.0), "2", None, True, np.bool_(True)):
        refused(session.uniform_sample, [0, 1], bad, match="batch size must be an integer")
        refused(session.pull_batch, 1, bad, match="batch size must be an integer")
    for bad in ("0.5", None, True, np.bool_(False), [0.5]):
        refused(session.random_subset, [0, 1], bad, match="p must be a real number")
    twin = SamplingSession(ArmTable.from_columns(None, [0.5] * n), 0)
    assert (_means(session.uniform_sample([0, 1], np.int64(2)))
            == _means(twin.uniform_sample([0, 1], 2)))
    assert session.pull_batch(2, np.uint8(3)) == twin.pull_batch(2, 3)
    assert (sorted(session.random_subset(range(n), np.float64(0.5)))
            == sorted(twin.random_subset(range(n), 0.5)))
    assert type(session.total_samples) is int and session.total_samples == 7


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
    session = SamplingSession([point(0.5)] * 200, seed=1)
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
    assert pull_counts(session) == [60]


def _next_draws(session):
    """The generator's next 50 draws, read through the session's own subset draw of arm 0."""
    return [sorted(session.random_subset([0], 0.5)) for _ in range(50)]


def test_uniform_sample_over_budget_draws_nothing():
    count = sample_size(0.2, 0.1)
    session = SamplingSession([bernoulli(0.5)] * 5, seed=3, max_pulls=5 * count - 1)
    session.uniform_sample([1], count)
    with pytest.raises(BudgetError, match="exhausted"):
        session.uniform_sample([4, 2, 0, 3], count)  # one pull over the budget
    assert pull_counts(session) == [0, count, 0, 0, 0]
    assert session.total_samples == count
    # the refused batch took no draw from the generator
    reference = SamplingSession([bernoulli(0.5)] * 5, seed=3)
    reference.uniform_sample([1], count)
    assert _next_draws(session) == _next_draws(reference)
    # a batch that exactly fits what is left is drawn
    assert len(session.uniform_sample([4, 2, 0], count)) == 3
    assert pull_counts(session) == [count, count, count, 0, count]
    assert session.total_samples == 4 * count


def test_uniform_sample_refuses_an_undrawable_batch_whole():
    count = sample_size(1e-10, 0.1)
    assert count > 2**62
    session = SamplingSession([point(0.2), point(0.4), bernoulli(0.5), point(0.6)], seed=0)
    with pytest.raises(BudgetError, match="not drawable"):
        session.uniform_sample(range(4), count)
    assert pull_counts(session) == [0, 0, 0, 0]
    assert session.total_samples == 0
    assert _next_draws(session) == _next_draws(SamplingSession([point(0.2)], seed=0))
    # point arms alone take no draw, so any count is drawable
    assert session.uniform_sample([0, 1, 3], count) == {0: 0.2, 1: 0.4, 3: 0.6}
    assert pull_counts(session) == [count, count, 0, count]


def _session(arms, dense, monkeypatch, seed=13, max_pulls=None):
    """A session over ``arms`` on the dense path or on the reference path."""
    monkeypatch.setattr(sampling, "DENSE_MIN_ARMS", 1 if dense else 10**9)
    session = SamplingSession(arms, seed=seed, max_pulls=max_pulls)
    monkeypatch.undo()
    return session


def test_uniform_sample_draws_what_pull_batch_per_arm_draws(monkeypatch):
    # on both session forms: a dict and a list ledger, an array and an int64 ledger
    arms = [point(0.4), bernoulli(0.3), scaled(0.2, 0.9, 0.5), bernoulli(0.0),
            bernoulli(1.0), scaled(0.1, 0.3, 0.3), bernoulli(0.77)]
    for dense, count in product((False, True), (1, 19, 185, 1_500_000_000_000, 2**62, 2**62 + 1)):
        vector = _session(arms, dense, monkeypatch, seed=11)
        scalar = _session(arms, dense, monkeypatch, seed=11)
        if count > 2**62:  # the batch holds stochastic arms, so none of it is drawn
            with pytest.raises(BudgetError, match="not drawable"):
                vector.uniform_sample([6, 0, 2, 1, 3, 4, 5, 2], count)
            with pytest.raises(BudgetError, match="not drawable"):
                scalar.pull_batch(1, count)
            assert pull_counts(vector) == [0] * len(arms)
            assert vector.total_samples == 0
        else:
            means = vector.uniform_sample([6, 0, 2, 1, 3, 4, 5, 2], count)
            assert type(means) is (np.ndarray if dense else dict)
            assert _means(means) == {e: scalar.pull_batch(e, count) for e in range(len(arms))}
            assert list(_means(means)) == sorted(_means(means))
        assert pull_counts(vector) == pull_counts(scalar)
        assert vector.total_samples == scalar.total_samples
        # the generator is left where the per-arm draws leave it
        assert _next_draws(vector) == _next_draws(scalar)


def test_all_bernoulli_uniform_sample_draws_what_pull_batch_per_arm_draws(monkeypatch):
    # every arm Bernoulli: the means come from one array division up to 2**53
    # pulls, and from the per-arm path above it, on both session forms
    arms = [bernoulli(mu) for mu in (0.0, 0.013, 0.3, 1 / 3, 0.5, 0.61, 0.77, 0.9, 0.999, 1.0)]
    assert ArmTable.from_arms(arms).all_bernoulli
    for dense, count in product((False, True), (1, 19, 185, 2**53, 2**53 + 1, 2**62)):
        vector = _session(arms, dense, monkeypatch, seed=5)
        scalar = _session(arms, dense, monkeypatch, seed=5)
        means = vector.uniform_sample([9, 3, 0, 1, 2, 4, 5, 6, 7, 8, 3], count)
        assert type(means) is (np.ndarray if dense else dict)
        assert _means(means) == {e: scalar.pull_batch(e, count) for e in range(len(arms))}
        assert list(_means(means)) == sorted(_means(means))
        assert pull_counts(vector) == pull_counts(scalar) == [count] * len(arms)
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


_MIXED = [point(0.4), bernoulli(0.3), scaled(0.2, 0.9, 0.5), bernoulli(0.0),
          bernoulli(1.0), scaled(0.1, 0.3, 0.3), bernoulli(0.77)] * 6
_BERNOULLI = [bernoulli(mu) for mu in np.linspace(0.0, 1.0, 41).tolist()]


def _script(session, n):
    """Batches of every input shape and size regime; every result, then the ledger."""
    out = []
    for elements, count in (([5, 3, 3, 0], 7), (range(n), 185), (np.arange(0, n, 3), 1),
                            ({n - 1, 1}, 2**53 + 1), (np.array([4, 2, 9, 4]), 11),
                            (np.array([], dtype=np.int64), 5), ([], 3), (range(n), 2**62)):
        out.append(_means(session.uniform_sample(elements, count)))
    out.append(sorted(session.random_subset(np.arange(n), 0.3)))
    out.append(sorted(session.random_subset(range(n), 0.6)))
    with pytest.raises(BudgetError, match="not drawable"):
        session.uniform_sample([0, 1, 2], 2**62 + 1)
    return out, pull_counts(session), session.total_samples, _next_draws(session)


@pytest.mark.parametrize("arms", [_MIXED, _BERNOULLI], ids=["mixed", "bernoulli"])
def test_dense_session_draws_and_records_what_the_reference_does(arms, monkeypatch):
    reference = _session(arms, False, monkeypatch)
    dense = _session(arms, True, monkeypatch)
    assert type(reference.uniform_sample([1], 1)) is dict
    assert type(dense.uniform_sample([1], 1)) is np.ndarray
    assert _script(dense, len(arms)) == _script(reference, len(arms))


class _RecordingGenerator:
    """A session's generator, recording the ``p`` of each ``binomial`` call."""

    def __init__(self, rng):
        self._rng = rng
        self.binomial_ps = []

    def binomial(self, n, p):
        self.binomial_ps.append(p)
        return self._rng.binomial(n, p)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("arms", [_MIXED, _BERNOULLI], ids=["mixed", "bernoulli"])
@pytest.mark.parametrize("dense", [False, True], ids=["small", "dense"])
def test_a_small_session_draws_each_arm_alone_and_a_dense_one_in_one_call(arms, dense,
                                                                          monkeypatch):
    table = ArmTable.from_arms(arms)
    twin = _session(arms, dense, monkeypatch)
    session = _session(arms, dense, monkeypatch)
    session._rng = recorder = _RecordingGenerator(session._rng)
    for elements, count in (([5, 3, 3, 0], 7), (range(len(arms)), 185), ([0, 7], 2**60),
                            (np.arange(1, len(arms), 4), 2**53 + 1)):
        stochastic = [e for e in sorted(set(map(int, elements))) if table.kinds[e] != POINT]
        recorder.binomial_ps.clear()
        means = session.uniform_sample(elements, count)
        assert _means(means) == _means(twin.uniform_sample(elements, count))
        ps = recorder.binomial_ps
        if dense:
            assert len(ps) == (1 if stochastic else 0)
            assert all(type(p) is np.ndarray and p.tolist() == table.q[stochastic].tolist()
                       for p in ps)
        else:
            assert ps == [table.q_values[e] for e in stochastic]
            assert all(type(p) is float for p in ps)
    assert pull_counts(session) == pull_counts(twin)
    assert _next_draws(session) == _next_draws(twin)


def test_a_tables_q_tuple_is_built_on_first_use_and_not_pickled():
    table = ArmTable.from_arms([bernoulli(0.5), point(0.25), scaled(0.5, 1.0, 0.75)])
    pickled = pickle.dumps(table)
    assert "q_values" not in vars(table)
    assert table.q_values == (0.5, 0.0, 0.5) and table.q_values is table.q_values
    assert pickle.dumps(table) == pickled
    assert "q_values" not in vars(pickle.loads(pickled))


@pytest.mark.parametrize("dense", [False, True], ids=["reference", "dense"])
def test_non_integer_arm_ids_are_refused_before_any_draw(dense, monkeypatch):
    session = _session(_MIXED, dense, monkeypatch)
    # [1, True] and [0, np.bool_(False)]: a bool equal to an id in the batch is
    # refused, not merged into that id
    for bad in ([1.5], [1.0], ["a"], [True], [2, True], [1, True], [np.bool_(False)],
                [0, np.bool_(False)], iter([1, True]),
                np.array([1.5]), np.array([True]), np.array(["a"])):
        with pytest.raises(DomainError, match="arm id must be an integer|must be integers"):
            session.uniform_sample(bad, 3)
    for bad in (1.5, 1.0, "a", True, np.bool_(True)):
        with pytest.raises(DomainError):
            session.pull_batch(bad, 3)
    assert session.total_samples == 0 and not any(pull_counts(session))
    assert _next_draws(session) == _next_draws(_session(_MIXED, dense, monkeypatch))
    twin = _session(_MIXED, dense, monkeypatch)
    numpy_ids = [np.int64(1), np.int32(4), np.uint8(2)]
    assert _means(session.uniform_sample(numpy_ids, 3)) == _means(twin.uniform_sample([1, 4, 2], 3))
    assert session.pull_batch(np.int64(6), 5) == twin.pull_batch(6, 5)


@pytest.mark.parametrize("dense", [False, True], ids=["reference", "dense"])
def test_random_subset_refuses_ids_that_are_not_arms(dense, monkeypatch):
    session = _session(_MIXED, dense, monkeypatch)
    twin = _session(_MIXED, dense, monkeypatch)
    n = len(_MIXED)
    for bad in ([5, n + 2], [-1, 3], np.array([n]), [1.5], [0, np.bool_(False)], [1, True]):
        with pytest.raises(DomainError):
            session.random_subset(bad, 0.5)
    assert session.total_samples == 0 and not any(pull_counts(session))
    assert _next_draws(session) == _next_draws(twin)
    assert sorted(session.random_subset(range(n), 0.5)) == sorted(twin.random_subset(range(n), 0.5))
    small = SamplingSession(ArmTable.from_columns(None, [0.5, 0.6]), 0)
    with pytest.raises(DomainError, match="unknown arm 7"):
        small.random_subset([5, 7], 0.5)


@pytest.mark.parametrize("n", [20, DENSE_MIN_ARMS])
def test_sample_ids_take_the_form_of_the_session(n):
    # a dense session gets an int64 array even for a view under DENSE_MIN_ARMS
    # elements; a small one gets the view's tuple, or a set
    session = SamplingSession([bernoulli(0.5)] * n, seed=0)
    view = UniformMatroid(n, 3).restrict(range(0, 20, 2))
    ids, rest = session.sample_ids(view), session.sample_ids(view, {4, 8})
    if n >= DENSE_MIN_ARMS:
        assert ids is view.ground_ids
        assert type(rest) is np.ndarray and rest.dtype == np.int64
        assert type(session.uniform_sample(ids, 3)) is np.ndarray
    else:
        assert ids is view.ground
        assert isinstance(rest, (set, frozenset))
        assert type(session.uniform_sample(ids, 3)) is dict
    assert list(ids) == list(range(0, 20, 2))
    assert sorted(rest) == [0, 2, 6, 10, 12, 14, 16, 18]


def test_only_sampling_names_the_dense_size():
    package = Path(sampling.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if "DENSE_MIN_ARMS" in path.read_text(encoding="utf-8")]
    assert naming == ["sampling.py"]
    source = Path(sampling.__file__).read_text(encoding="utf-8")
    assert len(re.findall(r"[<>]=?\s*DENSE_MIN_ARMS|DENSE_MIN_ARMS\s*[<>]", source)) == 1


def test_a_dense_batch_is_a_read_only_array_over_the_whole_table(monkeypatch):
    vector = _session(_MIXED, True, monkeypatch, seed=3)
    scalar = _session(_MIXED, True, monkeypatch, seed=3)
    batch = [0, 2, 5, 11, 40]
    means = vector.uniform_sample([40, 5, 0, 11, 2, 5], 17)
    assert type(means) is np.ndarray and means.dtype == np.float64
    assert means.shape == (len(_MIXED),) and not means.flags.writeable
    with pytest.raises(ValueError):
        means[2] = 0.0
    outside = np.ones(len(_MIXED), dtype=bool)
    outside[batch] = False
    assert np.isnan(means[outside]).all()
    assert means[batch].tolist() == [scalar.pull_batch(e, 17) for e in batch]


def test_dense_ledger_stays_exact_past_int64():
    n = DENSE_MIN_ARMS
    arms = [point(0.25 + e / (4 * n)) for e in range(n)]  # a point mass has no 2**62 cap
    session = SamplingSession(arms, seed=0)
    expected = [0] * n
    for elements, count in ((range(n), 2**54), ([0, 7], 2**62), ([7], 2**70),
                            (np.arange(n), 3)):
        means = session.uniform_sample(elements, count)
        assert _means(means) == {e: arms[e].mean for e in elements}
        for e in elements:
            expected[e] += count
        assert pull_counts(session) == expected
    assert session.pull_batch(9, 2**64) == arms[9].mean
    expected[9] += 2**64
    counts = pull_counts(session)
    assert counts == expected and all(type(c) is int for c in counts)
    assert session.total_samples == sum(expected) > 2**64
    assert type(session.total_samples) is int
