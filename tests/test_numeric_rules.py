"""The two rules for numeric arguments (``errors.integer`` and ``errors.real``),
checked at every site that applies them: each refuses a value of the wrong
kind with its own package error before any draw, and stores a numpy scalar
as a Python number."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from matroid_bandits.avg import naive_two_pull_count
from matroid_bandits.errors import (
    ConfigError, DomainError, ValidationError, integer, real, seed_integer,
)
from matroid_bandits.exact import round_schedule
from matroid_bandits.harness import ALGORITHMS, RunConfig, run_algorithm
from matroid_bandits.instances import (
    big_uniform_instance, builtin, make_instance, uniform_gap_instance,
)
from matroid_bandits.matroids import PartitionMatroid, UniformMatroid, is_eps_optimal
from matroid_bandits.pac import DESK
from matroid_bandits.sampling import ArmTable, SamplingSession, bernoulli, sample_size, trial_seed

_INST = builtin("prop1")
_M = _INST.matroid
_TABLE = ArmTable.from_columns(None, [0.5, 0.6, 0.7])
_ALL_COLOOPS = {"family": "uniform", "n": 3, "k": 3}


def _after(_, stored):
    """``stored``, read once the call that the first argument made has run."""
    return stored


def _config(name, value):
    fields = dict(instance=_INST, algo="pac", eps=0.1, delta=0.1, trials=1, seed=0, profile=DESK)
    return getattr(RunConfig(**{**fields, name: value}), name)


def _profile(name, value):
    return getattr(dataclasses.replace(DESK, **{name: value}), name)


def _run(algo, name):
    """A call that runs ``algo`` on prop1 with ``v`` as its ``eps`` or its ``delta``."""
    def call(v, s):
        accuracy = {"eps": 0.1, "delta": 0.1, name: v}
        return _after(run_algorithm(s, _M, algo, accuracy["eps"], accuracy["delta"], DESK), None)
    return call


# Each site: its package error, the rule it applies (int or float), a call
# that hands it the value under test (``v``) and returns what it stores from
# it (None where it stores nothing), given a session ``s`` over prop1's arms,
# and a numpy scalar that it takes.
SITES = {
    "matroid-size": (ValidationError, int, lambda v, s: UniformMatroid(4, v).k, np.int64(2)),
    "matroid-capacity": (ValidationError, int,
                         lambda v, s: PartitionMatroid([([0, 1], v)]).full_rank, np.int32(1)),
    "uniform_sample-count": (DomainError, int,
                             lambda v, s: _after(s.uniform_sample([0, 1], v), s.total_samples),
                             np.int64(2)),
    "pull_batch-count": (DomainError, int,
                         lambda v, s: _after(s.pull_batch(0, v), s.total_samples), np.uint8(3)),
    "uniform_sample-id": (DomainError, int, lambda v, s: next(iter(s.uniform_sample([v], 1))),
                          np.int32(1)),
    "pull_batch-id": (DomainError, int, lambda v, s: _after(s.pull_batch(v, 1), None),
                      np.int64(2)),
    "random_subset-p": (DomainError, float,
                        lambda v, s: _after(s.random_subset([0, 1, 2], v), None), np.float64(0.5)),
    "sample_size-eps": (DomainError, float, lambda v, s: _after(sample_size(v, 0.1), None),
                        np.float32(0.1)),
    "sample_size-delta": (DomainError, float, lambda v, s: _after(sample_size(0.1, v), None),
                          np.float64(0.1)),
    "naive_two_pull_count-eps": (DomainError, float,
                                 lambda v, s: _after(naive_two_pull_count(4, 2, v, 0.1), None),
                                 np.float64(0.2)),
    **{f"{algo}-eps": (DomainError, float, _run(algo, "eps"), np.float64(0.1))
       for algo in ALGORITHMS if algo != "exact"},  # exact takes no eps
    **{f"{algo}-delta": (DomainError, float, _run(algo, "delta"), np.float32(0.1))
       for algo in ALGORITHMS},
    "round_schedule-r": (DomainError, int, lambda v, s: _after(round_schedule(v, 0.1), None),
                         np.int64(2)),
    "round_schedule-delta": (DomainError, float,
                             lambda v, s: _after(round_schedule(1, v), None), np.float64(0.1)),
    "judge-eps": (DomainError, float,
                  lambda v, s: _after(is_eps_optimal(_M, [0, 1], _INST.true_means, v), None),
                  np.float64(0.0)),
    **{f"RunConfig-{name}": (ConfigError, rule, lambda v, s, name=name: _config(name, v), good)
       for name, rule, good in (("seed", int, np.uint32(5)), ("trials", int, np.int64(2)),
                                ("jobs", int, np.int8(1)), ("eps", float, np.float32(0.1)),
                                ("delta", float, np.float16(0.5)))},
    **{f"ConstantsProfile-{name}": (ConfigError, rule,
                                    lambda v, s, name=name: _profile(name, v), good)
       for name, rule, good in (("sample_prob", float, np.float64(0.3)),
                                ("base_mult", float, np.int64(8)),
                                ("base_log_coef", float, np.float32(1.0)),
                                ("max_depth", int, np.int64(3)),
                                ("round_guard", int, np.int32(5)),
                                ("pull_budget", int, np.int64(10)))},
    "generator-seed": (ValidationError, int,
                       lambda v, s: _after(big_uniform_instance(10, 2, seed=v), None), np.int64(3)),
    "uniform_gap_instance-eps": (ValidationError, float,
                                 lambda v, s: _after(uniform_gap_instance(10, 3, v), None),
                                 np.float64(0.1)),
    "make_instance-gap_floor": (ValidationError, float, lambda v, s: make_instance(
        "x", _ALL_COLOOPS, [bernoulli(0.2), bernoulli(0.4), bernoulli(0.6)],
        gap_floor=v).gap_floor, np.float32(0.05)),
    "trial_session-master_seed": (DomainError, int,
                                  lambda v, s: _after(_INST.trial_session(v, 0), None),
                                  np.int64(1)),
    "trial_session-index": (DomainError, int,
                            lambda v, s: _after(_INST.trial_session(0, v), None), np.int64(1)),
    "trial_seed-master_seed": (DomainError, int, lambda v, s: trial_seed(v, 0).entropy[0],
                               np.uint16(9)),
    "trial_seed-index": (DomainError, int, lambda v, s: trial_seed(0, v).entropy[1],
                         np.int64(4)),
    "SamplingSession-seed": (DomainError, int,
                             lambda v, s: _after(SamplingSession(_TABLE, v), None), np.int64(7)),
    "SamplingSession-max_pulls": (DomainError, int,
                                  lambda v, s: SamplingSession(_TABLE, 0, max_pulls=v)._max_pulls,
                                  np.int64(10)),
}

# None means "no limit" or "no floor" here: a valid value, not a refused one.
_TAKES_NONE = {"ConstantsProfile-pull_budget", "SamplingSession-max_pulls",
               "make_instance-gap_floor"}

_WRONG = {
    int: ["3", None, True, np.bool_(True), 1.5],
    float: ["0.1", None, True, np.bool_(True), math.nan],
}


@pytest.mark.parametrize("site, bad", [
    (site, bad) for site, (_, rule, _, _) in SITES.items() for bad in _WRONG[rule]
    if not (bad is None and site in _TAKES_NONE)
], ids=lambda value: value if value in SITES else repr(value))
def test_every_site_refuses_a_number_of_the_wrong_kind_before_any_draw(site, bad, monkeypatch):
    # each used to pass as a number, raise a bare TypeError, or fail after a batch had run
    error, _, call, _ = SITES[site]
    session = SamplingSession(_INST.arms, 0)
    state = session._rng.bit_generator.state

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was seeded before its arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(error, match=" must be "):
        call(bad, session)
    assert session._rng.bit_generator.state == state
    assert session.total_samples == 0 and session.ledger() == (0, 0, 0, 0)


@pytest.mark.parametrize("site", SITES)
def test_every_site_takes_a_numpy_scalar_and_stores_a_python_number(site):
    _, rule, call, good = SITES[site]
    stored = call(good, SamplingSession(_INST.arms, 0))
    assert stored is None or type(stored) is rule


def test_trial_session_refuses_a_float_or_string_seed_that_it_used_to_coerce():
    # int() made (1.5, 0) replay seed 1's stream and parsed "3"
    for seed in (1.5, "3"):
        with pytest.raises(DomainError, match="master seed must be a non-negative integer"):
            _INST.trial_session(seed, 0)
    with pytest.raises(DomainError, match="seed must be a non-negative integer, not None"):
        SamplingSession(_TABLE, None)  # would draw OS entropy


@pytest.mark.parametrize("value, expected", [
    (3, 3), (np.int64(3), 3), (np.uint8(3), 3), (10**30, 10**30),
], ids=["int", "int64", "uint8", "big-int"])
def test_the_integer_rule_returns_a_python_int(value, expected):
    out = integer(value, "n", ValidationError, 0)
    assert type(out) is int and out == expected
    assert seed_integer(value, ConfigError) == expected


@pytest.mark.parametrize("value", [-1, np.int64(-1), 2.0, Fraction(2), Decimal(2), "2", None,
                                   False, np.bool_(True), [2]])
def test_the_integer_rule_refuses_a_non_integer_or_one_below_least(value):
    with pytest.raises(ConfigError, match=r"^n must be an integer >= 0, not "):
        integer(value, "n", ConfigError, 0)
    with pytest.raises(DomainError, match=r"^seed must be a non-negative integer, not "):
        seed_integer(value, DomainError)


@pytest.mark.parametrize("value, expected", [
    (0.25, 0.25), (1, 1.0), (np.float32(0.25), 0.25), (np.int64(1), 1.0),
    (Fraction(1, 4), 0.25), (Decimal("0.25"), 0.25),
], ids=["float", "int", "float32", "int64", "fraction", "decimal"])
def test_the_real_rule_returns_a_python_float(value, expected):
    out = real(value, "p", DomainError, "[0, 1]")
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, Decimal("sNaN"), Decimal("NaN"),
                                   "0.5", None, True, np.bool_(False), 1j, [0.5]],
                         ids=repr)
def test_the_real_rule_refuses_nan_infinity_and_non_reals(value):
    with pytest.raises(ValidationError, match=r"^gap_floor must be a finite real number, not "):
        real(value, "gap_floor", ValidationError, "finite")
