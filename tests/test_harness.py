import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from matroid_bandits import harness
from matroid_bandits.cli import main
from matroid_bandits.errors import (
    BudgetError, CapacityError, ConfigError, InvariantError, ValidationError,
)
from matroid_bandits.harness import (
    ALGORITHMS,
    RunConfig,
    binomial_lcb,
    profile_by_name,
    run_trials,
    success_flags,
    write_report,
)
from matroid_bandits.instances import (
    Instance,
    big_uniform_instance,
    builtin,
    geometric_ladder_instance,
    instance_from_config,
    load_instance,
    make_instance,
    random_graphic_instance,
    resolve_instance,
    save_instance,
    uniform_gap_instance,
)
from matroid_bandits.matroids import GraphicMatroid, UniformMatroid
from matroid_bandits.oracle import gap_profile
from matroid_bandits.pac import DESK, PAPER, ConstantsProfile
from matroid_bandits.sampling import (
    BERNOULLI, POINT, SCALED, ArmTable, bernoulli, point, scaled,
)


def test_builtin_prop1_values():
    inst = builtin("prop1")
    assert inst.true_means == (0.91, 0.9, 0.89, 0.875)
    assert inst.matroid.full_rank == 2
    with pytest.raises(ValidationError):
        builtin("nope")


def test_instance_file_round_trip(tmp_path):
    mixed = make_instance("mixed", {"family": "uniform", "n": 3, "k": 1},
                          [bernoulli(0.3), point(0.2), scaled(0.1, 0.9, 0.25)])
    cfg = mixed.to_config()
    assert {key: cfg[key] for key in ("schema_version", "means", "kinds", "supports")} == {
        "schema_version": 2, "means": [0.3, 0.2, 0.25], "kinds": ["bernoulli", "point", "scaled"],
        "supports": [None, None, [0.1, 0.9]],
    }
    assert "arms" not in cfg
    # the optional columns are left out when every arm is Bernoulli or none is scaled
    assert builtin("graphic_k4").to_config().keys().isdisjoint({"kinds", "supports"})
    assert "supports" not in mixed.with_point_mass_arms().to_config()
    for inst in (builtin("graphic_k4"), mixed):
        path, again = tmp_path / "inst.json", tmp_path / "again.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.to_config() == inst.to_config()
        assert loaded.true_means == inst.true_means
        assert loaded.matroid.full_rank == inst.matroid.full_rank
        assert resolve_instance(str(path)).name == inst.name
        save_instance(loaded, again)  # a loaded instance saves the same bytes
        assert again.read_bytes() == path.read_bytes()


def test_instance_validation_errors():
    with pytest.raises(ValidationError):
        make_instance("bad", {"family": "uniform", "n": 2, "k": 1},
                      [bernoulli(0.5), bernoulli(0.5)])  # tie
    make_instance("ok", {"family": "uniform", "n": 2, "k": 1},
                  [bernoulli(0.5), bernoulli(0.5)], allow_ties=True)
    with pytest.raises(ValidationError):
        make_instance("bad", {"family": "uniform", "n": 2, "k": 1},
                      [bernoulli(1.0), bernoulli(0.5)])  # mean at the boundary
    with pytest.raises(ValidationError):
        make_instance("bad", {"family": "uniform", "n": 3, "k": 1},
                      [bernoulli(0.5), bernoulli(0.6)])  # arm count mismatch
    with pytest.raises(ValidationError):
        make_instance(
            "loopy",
            {"family": "graphic", "num_vertices": 2, "edges": [[0, 0], [0, 1]]},
            [bernoulli(0.4), bernoulli(0.6)],
        )
    with pytest.raises(ValidationError):
        instance_from_config({"schema_version": 99, "matroid": {}, "arms": []})


_TWO_ARMS = {"schema_version": 1, "matroid": {"family": "uniform", "n": 2, "k": 1},
             "arms": [["bernoulli", 0.4], ["bernoulli", 0.6]]}
_TWO_MEANS = {"schema_version": 2, "matroid": {"family": "uniform", "n": 2, "k": 1},
              "means": [0.4, 0.6]}
# Header fields of the wrong JSON type, refused in both schema versions.
_LOOSE_HEADERS = {
    "allow-ties-a-string": {"allow_ties": "false"},
    "k-a-float": {"matroid": {"family": "uniform", "n": 2, "k": 1.9}},
    "k-a-string": {"matroid": {"family": "uniform", "n": 2, "k": "1"}},
    "capacity-a-float": {"matroid": {"family": "partition",
                                     "groups": [{"members": [0, 1], "capacity": 1.9}]}},
    "endpoint-a-float": {"matroid": {"family": "graphic", "num_vertices": 3,
                                     "edges": [[0, 1], [0, 1.5]]}},
    "name-a-number": {"name": 5},
    "notes-a-list": {"notes": ["x"]},
    "gap-floor-a-string": {"gap_floor": "0.01"},
    "gap-floor-a-bool": {"gap_floor": True},
    "gap-floor-nan": {"gap_floor": float("nan")},
    "gap-floor-infinite": {"gap_floor": float("inf")},
    "gap-floor-minus-infinity": {"gap_floor": -float("inf")},
}
_COLUMN_CASES = {
    "v2-with-arms": dict(_TWO_MEANS, arms=_TWO_ARMS["arms"]),
    "v2-without-means": {key: value for key, value in _TWO_MEANS.items() if key != "means"},
    "v1-with-means": dict(_TWO_ARMS, means=[0.4, 0.6]),
    "means-a-mapping": dict(_TWO_MEANS, means={"0": 0.4, "1": 0.6}),
    "kinds-a-mapping": dict(_TWO_MEANS, kinds={"bernoulli": 0, "point": 1}),
    "supports-null": dict(_TWO_MEANS, supports=None),
    "kinds-too-short": dict(_TWO_MEANS, kinds=["point"]),
    "supports-too-long": dict(_TWO_MEANS, kinds=["scaled", "bernoulli"],
                              supports=[[0.1, 0.9], None, None]),
    "v2-scaled-without-support": dict(_TWO_MEANS, kinds=["scaled", "bernoulli"]),
    "v2-unknown-kind": dict(_TWO_MEANS, kinds=["gaussian", "bernoulli"]),
    "v2-mean-not-a-number": dict(_TWO_MEANS, means=["abc", 0.6]),
    "version-3": dict(_TWO_MEANS, schema_version=3),
    "version-true": dict(_TWO_ARMS, schema_version=True),
    "v1-tied-means-allow-ties-a-string": dict(
        _TWO_ARMS, allow_ties="false", arms=[["bernoulli", 0.5], ["bernoulli", 0.5]]),
}
_HEADER_CASES = {f"v{base['schema_version']}-{name}": dict(base, **fields)
                 for base in (_TWO_ARMS, _TWO_MEANS) for name, fields in _LOOSE_HEADERS.items()}


@pytest.mark.parametrize("cfg", [*_HEADER_CASES.values(), *_COLUMN_CASES.values(),
    dict(_TWO_ARMS, matroid={"family": "uniform", "n": 2}),
    {key: value for key, value in _TWO_ARMS.items() if key != "arms"},
    dict(_TWO_ARMS, arms=[["bernoulli"], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["bernoulli", "abc"], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, matroid={"family": "graphic", "num_vertices": 2, "edges": [[0], [0, 1]]}),
    [_TWO_ARMS],
    dict(_TWO_ARMS, gap_floor="abc"),
    dict(_TWO_ARMS, arms=[["bernoulli", None], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["bernoulli", float("nan")], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["bernoulli", 10**400], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["gaussian", 0.4], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[[["bernoulli"], 0.4], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["scaled", 0.4], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["scaled", 0.4, [0.1]], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["scaled", 0.4, ["lo", "hi"]], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["point", 0.4, [0.1, 0.9]], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms=[["bernoulli", 0.4, None, None], ["bernoulli", 0.6]]),
    dict(_TWO_ARMS, arms={"0": ["bernoulli", 0.4], "1": ["bernoulli", 0.6]}),
    dict(_TWO_ARMS, arms="bernoulli"),
    dict(_TWO_ARMS, arms=[0.4, 0.6]),
    dict(_TWO_MEANS, means=[0.1, 0.2, 0.3, 0.4], matroid={"family": "partition", "groups": [
        {"members": [0, 1], "capacity": 1}, {"members": [5, 7], "capacity": 1}]}),
], ids=[*_HEADER_CASES, *_COLUMN_CASES, "uniform-without-k", "no-arms", "arm-without-mean", "arm-mean-not-a-number",
        "one-ended-edge", "top-level-list", "gap-floor-not-a-number", "null-mean", "nan-mean",
        "mean-past-a-float", "unknown-kind", "unhashable-kind", "scaled-without-support",
        "scaled-support-one-number", "scaled-support-not-numbers", "point-with-support",
        "four-item-entry", "arms-a-mapping", "arms-a-string", "arms-bare-numbers",
        "ground-not-the-arm-ids"])
def test_malformed_instance_files_are_validation_errors(cfg, tmp_path, capsys):
    with pytest.raises(ValidationError):
        instance_from_config(cfg)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    # main returns rather than raising, so `python -m` would print no traceback
    assert main(["verify", "--instance", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_file_that_is_not_utf8_json_is_a_validation_error(tmp_path, capsys):
    text = json.dumps(_TWO_MEANS)
    for name, data in (("utf16", text.encode("utf-16")), ("cut", text[:-1].encode())):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)  # UTF-16 starts with the bytes ff fe
        with pytest.raises(ValidationError, match="UTF-8 JSON"):
            load_instance(path)
        assert main(["verify", "--instance", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


DATA = Path(__file__).parent / "data"


def test_a_version_1_file_loads_as_its_version_2_twin(tmp_path):
    # No writer produces version 1 any more: this fixture is its reader's only positive test.
    old, new = load_instance(DATA / "instance_v1.json"), load_instance(DATA / "instance_v2.json")
    assert [json.loads((DATA / f"instance_v{v}.json").read_text())["schema_version"]
            for v in (1, 2)] == [1, 2]
    assert old.arms == new.arms and np.array_equal(old.arms.q, new.arms.q)
    assert old.arms.kinds == (BERNOULLI, POINT, SCALED, BERNOULLI, POINT)
    assert all(a is b for a, b in zip(old.arms.kinds, new.arms.kinds))
    assert old.arms.supports[2] == (0.2, 0.9)
    assert old.matroid_config == new.matroid_config
    assert (old.matroid.edges, old.matroid.ground) == (new.matroid.edges, new.matroid.ground)
    assert (old.name, old.notes, old.gap_floor, old.allow_ties) == (
        new.name, new.notes, new.gap_floor, new.allow_ties) == (
        "mixed-graphic", "mixed kinds on a five-edge graph", 0.1, False)
    resaved = tmp_path / "resaved.json"
    save_instance(old, resaved)  # a version-1 file re-saves as version 2
    assert resaved.read_bytes() == (DATA / "instance_v2.json").read_bytes()


def test_the_readme_instance_example_loads_and_saves_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Instance files\n", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert instance_from_config(example).to_config() == example


def test_generators_store_python_ints_and_a_failed_save_leaves_no_file(tmp_path):
    made = [big_uniform_instance(np.int64(300), np.int64(5)),
            uniform_gap_instance(np.int64(12), np.int64(3), 0.1),
            geometric_ladder_instance(np.int64(12), np.int64(3), 0.05),
            random_graphic_instance(np.int64(6), np.int64(9))]
    for inst in made:
        cfg = inst.matroid_config
        assert all(type(cfg[key]) is int for key in cfg if key not in ("family", "edges"))
        path = tmp_path / f"{inst.name}.json"
        save_instance(inst, path)
        assert load_instance(path).to_config() == inst.to_config()
    bad = dataclasses.replace(made[0], matroid_config=dict(made[0].matroid_config,
                                                           n=np.int64(300)))
    fresh, old = tmp_path / "fresh.json", tmp_path / f"{made[0].name}.json"
    before = old.read_bytes()
    for path in (fresh, old):
        with pytest.raises(ValidationError, match="int64"):
            save_instance(bad, path)
    assert not fresh.exists() and old.read_bytes() == before


def test_gap_floor_above_the_enumeration_guard_is_a_capacity_error(tmp_path, capsys):
    cfg = dict(big_uniform_instance(21, 3, seed=4).to_config(), gap_floor=0.001)
    with pytest.raises(CapacityError):
        instance_from_config(cfg)
    path = tmp_path / "gap21.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--instance", str(path)]) == 1
    assert "limited to 20 elements" in capsys.readouterr().err


def test_uniform_gap_generator_hits_target_band():
    inst = uniform_gap_instance(20, 4, 0.1, seed=1)
    profile = gap_profile(inst.matroid, inst.true_means)
    assert all(0.09 <= g <= 0.11 for g in profile.gaps.values())


def test_generators_are_reproducible():
    a = uniform_gap_instance(20, 4, 0.1, seed=7).to_config()
    b = uniform_gap_instance(20, 4, 0.1, seed=7).to_config()
    assert a == b
    c = geometric_ladder_instance(12, 3, 0.05, seed=7)
    d = geometric_ladder_instance(12, 3, 0.05, seed=7)
    assert c.to_config() == d.to_config()
    prof = gap_profile(c.matroid, c.true_means)
    assert prof.min_gap() >= 0.05 - 1e-9


@pytest.mark.parametrize("make", [
    lambda: random_graphic_instance(1, 3),  # extra edges need two vertices: used to hang
    lambda: random_graphic_instance(0, 1),
    lambda: random_graphic_instance(5, -1),
    lambda: geometric_ladder_instance(10, 3, 0.0),
    lambda: geometric_ladder_instance(10, 3, -0.1),
    lambda: geometric_ladder_instance(10, 3, float("nan")),
    lambda: geometric_ladder_instance(10, 3, float("inf")),
    lambda: uniform_gap_instance(10, 3, -0.1),
    lambda: uniform_gap_instance(10, 3, float("nan")),
])
def test_generators_reject_bad_arguments_before_any_draw(make, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the generator drew before checking its arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValidationError):
        make()


def test_run_config_validation():
    inst = builtin("prop1")
    with pytest.raises(ConfigError):
        RunConfig(inst, "bogus", 0.1, 0.1, 1, 0, PAPER)
    with pytest.raises(ConfigError):
        RunConfig(inst, "pac", -0.1, 0.1, 1, 0, PAPER)
    with pytest.raises(ConfigError):
        RunConfig(inst, "pac", 0.1, 1.1, 1, 0, PAPER)
    with pytest.raises(ConfigError):
        profile_by_name("unknown")


def test_extreme_eps_and_delta_are_typed_errors(tmp_path, capsys):
    def run(algo, eps, delta):
        return main(["run", "--instance", "builtin:prop1", "--algo", algo, "--eps", eps,
                     "--delta", delta, "--trials", "2", "--out", str(tmp_path / "r.json")])

    assert run("naive1", "nan", "0.1") == 1
    assert capsys.readouterr().err.startswith("error: eps must be > 0")
    # pull counts too large for a float fail each trial with BudgetError
    for algo, eps, delta in [("naive1", "1e-200", "0.1"), ("naive2", "1e-200", "0.1"),
                             ("pac", "1e-200", "0.1"), ("avgpac", "1e-200", "0.1"),
                             *((algo, "0.1", "1e-320") for algo in ALGORITHMS)]:
        assert run(algo, eps, delta) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["summary"]["failures"] == 2, (algo, eps, delta)
        assert all("not drawable" in trial["error"] for trial in report["trials"])


def test_zero_trials_is_a_valid_batch():
    config = RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 0, 0, PAPER)
    result = run_trials(config)
    assert result["summary"]["trials"] == 0
    assert result["summary"]["success"]["exact"]["rate"] is None
    assert result["reports"] == []


def test_point_mass_runs_succeed_everywhere():
    inst = builtin("partition6").with_point_mass_arms()
    config = RunConfig(inst, "naive1", 0.1, 0.1, 5, 3, PAPER)
    result = run_trials(config)
    assert result["summary"]["success"]["exact"]["rate"] == 1.0
    assert result["summary"]["failures"] == 0
    assert result["summary"]["failures_by_guard"] == {}


def test_success_flags_reject_non_basis():
    m = UniformMatroid(4, 2)
    flags = success_flags(m, (0.9, 0.8, 0.7, 0.6), frozenset({0}), 0.1)
    assert flags == {"exact": False, "eps_optimal": False, "elementwise": False, "avg": False}


def _scrub(node):
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if not k.startswith("wall_time")}
    if isinstance(node, list):
        return [_scrub(x) for x in node]
    return node


def test_reports_are_deterministic_and_jobs_invariant(tmp_path):
    inst = builtin("prop1")

    def produce(path, jobs):
        config = RunConfig(inst, "pac", 0.1, 0.1, 8, 99, DESK, jobs=jobs)
        write_report(run_trials(config), path)
        data = json.loads(path.read_text())
        return json.dumps(_scrub(data), sort_keys=True)

    first = produce(tmp_path / "a.json", jobs=1)
    second = produce(tmp_path / "b.json", jobs=1)
    parallel = produce(tmp_path / "c.json", jobs=2)
    assert first == second == parallel
    # CSV summaries carry no timing and are byte-identical
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    assert not (tmp_path / "a.trace.jsonl").exists()  # only a traced run writes one

    # recursive pac runs on 300 arms, traced: each worker gets the batch and
    # its share of the indices, and must still produce the serial reports and traces
    big = big_uniform_instance(300, 5, seed=4)

    def produce_traced(path, jobs):
        config = RunConfig(big, "pac", 0.1, 0.1, 6, 7, DESK, jobs=jobs, trace=True)
        write_report(run_trials(config), path)
        data = json.loads(path.read_text())
        return json.dumps(_scrub(data), sort_keys=True), path.with_suffix(".trace.jsonl")

    serial, serial_trace = produce_traced(tmp_path / "d.json", jobs=1)
    parallel, parallel_trace = produce_traced(tmp_path / "e.json", jobs=2)
    assert serial == parallel
    records = [json.loads(line) for line in serial_trace.read_text().splitlines()]
    assert any(r["kind"] == "prune_level" and not r["base_case"] for r in records)
    assert serial_trace.read_bytes() == parallel_trace.read_bytes()


def test_budget_failures_count_as_non_successes():
    inst = builtin("prop1")
    starved = dataclasses.replace(PAPER, pull_budget=10)
    config = RunConfig(inst, "exact", 0.1, 0.1, 4, 0, starved)
    result = run_trials(config)
    assert result["summary"]["failures"] == 4
    assert result["summary"]["success"]["exact"]["count"] == 0
    assert all(r.error is not None for r in result["reports"])


def test_broken_invariant_aborts_the_batch():
    # make_instance rejects loops, so the looped instance is built directly
    edges = [(0, 0), (0, 1)]
    loopy = Instance(
        "loopy", GraphicMatroid(2, edges), ArmTable.from_arms([bernoulli(0.4), bernoulli(0.6)]),
        {"family": "graphic", "num_vertices": 2, "edges": [list(e) for e in edges]},
    )
    config = RunConfig(loopy, "exact", 0.1, 0.1, 2, 0, PAPER)
    with pytest.raises(InvariantError, match="loop 0"):
        run_trials(config)


def test_csv_header_row(tmp_path):
    out = tmp_path / "report.json"
    write_report(run_trials(RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 2, 0, PAPER)), out)
    header, row, *rest = out.with_suffix(".csv").read_text().splitlines()
    assert header == (
        "instance,algo,eps,delta,trials,seed,constants,failures,"
        "exact_rate,exact_lcb95,eps_optimal_rate,eps_optimal_lcb95,"
        "elementwise_rate,elementwise_lcb95,avg_rate,avg_lcb95,"
        "samples_min,samples_median,samples_p90,samples_max"
    )
    assert row.startswith("prop1,naive1,0.1,0.1,2,0,paper,0,")
    assert not rest


def test_sample_extremes_stay_exact_above_two_to_the_53(tmp_path):
    totals = [7, 2**53 + 1, 2**60 + 3]
    config = RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, len(totals), 0, PAPER)
    reports = [
        harness.TrialReport(i, (0, i), "naive1", (0, 1), total, (total, 0, 0, 0),
                            dict.fromkeys(harness.FLAGS, True), None, 0.0)
        for i, total in enumerate(totals)
    ]
    result = harness.summarize(config, reports)
    assert (result["summary"]["samples"]["min"], result["summary"]["samples"]["max"]) == (
        7, 2**60 + 3)
    out = tmp_path / "report.json"
    write_report(result, out)
    samples = json.loads(out.read_text())["summary"]["samples"]
    assert (samples["min"], samples["max"]) == (7, 2**60 + 3)
    header, row = out.with_suffix(".csv").read_text().splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert (columns["samples_min"], columns["samples_max"]) == ("7", str(2**60 + 3))


def test_per_arm_mean_pulls_match_stacking_the_ledgers_as_an_array():
    config = RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 4, 0, PAPER)
    ledgers = [(3, 0, 7, 1), (2**63 + 1, 5, 0, 2**53 + 1), (2**64 + 12345, 2**70 * 3 + 7, 9, 0),
               (10**30 + 1, 1, 1, 2**63 - 1)]  # the last three hold Python ints past int64
    reports = [
        harness.TrialReport(i, (0, i), "naive1", (0, 1), sum(per_arm), per_arm,
                            dict.fromkeys(harness.FLAGS, True), None, 0.0)
        for i, per_arm in enumerate(ledgers)
    ]
    for batch in (reports[:1], reports):
        expected = np.array([r.per_arm for r in batch], dtype=np.float64).mean(axis=0)
        got = harness.summarize(config, batch)["summary"]["per_arm_mean_pulls"]
        assert np.array(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("config", [
    RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 0, 0, PAPER),
    RunConfig(builtin("prop1"), "exact", 0.1, 0.1, 3, 0,
              dataclasses.replace(PAPER, pull_budget=10)),
    RunConfig(big_uniform_instance(300, 5, seed=4), "pac", 0.1, 0.1, 4, 7, DESK, trace=True),
], ids=["no-trials", "budget-failed", "traced"])
def test_report_is_the_summary_and_one_trial_per_line(config, tmp_path):
    out = tmp_path / "report.json"
    result = run_trials(config)
    reports = result["reports"]
    write_report(result, out)
    text = out.read_text()
    parsed = json.loads(text)
    assert parsed == {"summary": result["summary"], "trials": [r.to_json() for r in reports]}
    assert json.dumps(parsed) == json.dumps(parsed, sort_keys=True)  # every object key-sorted
    first, opening, *trials, closing = text.splitlines()
    assert first.startswith('{"summary": {') and first.endswith("},")
    assert (opening, closing) == ('"trials": [', "]}")
    assert [json.loads(line.removesuffix(",")) for line in trials] == parsed["trials"]
    assert out.with_suffix(".trace.jsonl").exists() == config.trace
    starved = config.algo == "exact"  # every trial of that batch runs out of pulls
    assert parsed["summary"]["failures_by_guard"] == ({"budget": 3} if starved else {})


def test_binomial_lcb_behaviour():
    assert binomial_lcb(0, 100) == 0.0
    assert binomial_lcb(0, 0) == 0.0
    assert 0.95 < binomial_lcb(200, 200) < 1.0
    assert binomial_lcb(95, 100) < binomial_lcb(99, 100)
    assert binomial_lcb(95, 100) == pytest.approx(0.8968, abs=2e-3)


@pytest.mark.parametrize("successes, trials, expected", [
    (95, 100, 0.8977466223567255),
    (37, 50, 0.6187364440267683),
    (1, 1000, 5.129197890901781e-05),
    (200, 200, 0.9851329607687279),
])
def test_binomial_lcb_exact_values(successes, trials, expected):
    assert binomial_lcb(successes, trials) == pytest.approx(expected, rel=0, abs=1e-12)


def test_cli_import_loads_numpy_random_but_not_scipy():
    # numpy.random must be loaded before trial workers fork, or each loads it anew
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, matroid_bandits.cli; "
             "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["False", "True"]


def test_cli_run_and_gaps_and_verify(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "run", "--instance", "builtin:prop1", "--algo", "naive1",
        "--eps", "0.2", "--delta", "0.1", "--trials", "3",
        "--seed", "5", "--constants", "paper", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["trials"] == 3
    assert len(payload["trials"]) == 3
    assert out.with_suffix(".csv").exists()

    assert main(["verify", "--instance", "builtin:prop1"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out

    assert main(["gaps", "--instance", "builtin:prop1"]) == 0
    captured = capsys.readouterr()
    assert "gap 0.02" in captured.out


def test_cli_trace_writes_round_records(tmp_path):
    # n/k must exceed 10 and the break bound for an avgpac elimination round to run
    big = tmp_path / "big.json"
    save_instance(big_uniform_instance(2000, 3, seed=23).with_point_mass_arms(), big)
    cases = {
        "exact": ("builtin:prop1",
                  {"schema_version", "trial", "kind", "r", "size", "n_opt", "n_bad", "changed",
                   "samples"}),
        "pac": ("builtin:prop1",
                {"schema_version", "trial", "kind", "depth", "base_case", "size", "sampled",
                 "kept"}),
        "avgpac": (str(big), {"schema_version", "trial", "kind", "r", "size_before",
                              "size_after", "eps_r", "delta_r", "samples"}),
    }
    for algo, (instance, keys) in cases.items():
        out = tmp_path / f"{algo}.json"
        code = main([
            "run", "--instance", instance, "--algo", algo,
            "--eps", "0.1", "--delta", "0.1", "--trials", "2",
            "--seed", "5", "--out", str(out), "--trace",
        ])
        assert code == 0
        lines = out.with_suffix(".trace.jsonl").read_text().strip().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {r["trial"] for r in records} == {0, 1}
        assert {r["schema_version"] for r in records} == {1}
        assert all(set(r) == keys for r in records), algo


def test_cli_error_codes(tmp_path):
    # config errors exit 1
    assert main(["run", "--instance", "builtin:prop1", "--algo", "bogus",
                 "--eps", "0.1", "--delta", "0.1", "--trials", "1",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["verify", "--instance", "builtin:doesnotexist"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["verify", "--instance", str(bad)]) == 1
    # missing files are I/O errors and exit 2
    assert main(["verify", "--instance", str(tmp_path / "missing.json")]) == 2


def test_cli_run_on_instance_file(tmp_path):
    inst = uniform_gap_instance(12, 3, 0.1, seed=2)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out = tmp_path / "out.json"
    code = main([
        "run", "--instance", str(path), "--algo", "pac",
        "--eps", "0.2", "--delta", "0.1", "--trials", "2",
        "--constants", "desk", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["instance"] == inst.name


def test_tied_means_are_a_typed_error_for_gaps_and_a_noted_skip_for_verify(tmp_path, capsys):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(dict(_TWO_ARMS, allow_ties=True,
                                    arms=[["bernoulli", 0.5], ["bernoulli", 0.5]])))
    assert main(["gaps", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == "error: weights must be pairwise distinct\n"
    assert main(["verify", "--instance", str(path)]) == 0
    assert "PASS greedy_equals_brute_force (skipped (means tie))" in capsys.readouterr().out


_NEEDLE_PAIR = ({"family": "uniform", "n": 2, "k": 1}, [0.5, 0.5 + 1e-7])
_NEEDLE_TRIPLE = ({"family": "uniform", "n": 3, "k": 2}, [0.5, 0.5 + 1e-7, 0.5 + 2e-7])


@pytest.mark.parametrize("guard, instance, algo, eps, profile", [
    ("budget", builtin("prop1"), "exact", 0.1, dataclasses.replace(PAPER, pull_budget=10)),
    ("drawability", builtin("prop1"), "naive1", 1e-200, PAPER),  # the count overflows a float
    ("drawability", builtin("prop1"), "naive1", 1e-10, PAPER),  # more than 2**62 pulls
    ("depth", builtin("prop1").with_point_mass_arms(), "pac", 0.1,
     ConstantsProfile("tiny", sample_prob=0.5, base_mult=0.0, base_log_coef=1.0, max_depth=3)),
    ("elimination_round", make_instance("needle", _NEEDLE_PAIR[0], map(point, _NEEDLE_PAIR[1])),
     "exact", 0.1, dataclasses.replace(DESK, round_guard=5)),
    ("selection_round", make_instance("needle", _NEEDLE_TRIPLE[0], map(point, _NEEDLE_TRIPLE[1])),
     "exact", 0.1, dataclasses.replace(DESK, round_guard=5)),
], ids=["budget", "drawability-overflow", "drawability-2**62", "depth", "elimination-round",
        "selection-round"])
def test_failures_are_counted_by_guard(guard, instance, algo, eps, profile):
    result = run_trials(RunConfig(instance, algo, eps, 0.1, 3, 0, profile))
    assert result["summary"]["failures"] == 3
    assert result["summary"]["failures_by_guard"] == {guard: 3}
    assert all(rep.guard == guard for rep in result["reports"])
    # the guard survives pickling, as a BudgetError crossing a process would
    exc = pickle.loads(pickle.dumps(BudgetError("message", guard)))
    assert (str(exc), exc.guard) == ("message", guard)


def _body(result) -> str:
    """A batch's report without its timings."""
    payload = {"summary": result["summary"], "trials": [r.to_json() for r in result["reports"]]}
    return json.dumps(_scrub(payload), sort_keys=True)


def _serial_and_parallel(config, jobs):
    serial = _body(run_trials(dataclasses.replace(config, jobs=1)))
    return serial, _body(run_trials(dataclasses.replace(config, jobs=jobs)))


def test_pool_serves_back_to_back_batches_like_the_serial_path():
    # a worker that kept a stale batch would answer the next one from it
    batches = [
        RunConfig(builtin("prop1"), "pac", 0.1, 0.1, 6, 3, DESK),
        RunConfig(builtin("ladder10"), "exact", 0.1, 0.1, 5, 4, DESK),
        RunConfig(big_uniform_instance(300, 5), "avgpac", 0.1, 0.1, 4, 5, DESK),
    ]
    serial = [_body(run_trials(config)) for config in batches]
    parallel = [_body(run_trials(dataclasses.replace(config, jobs=2))) for config in batches]
    assert parallel == serial


def test_pool_is_reused_and_replaced_when_jobs_changes():
    config = RunConfig(builtin("partition6"), "pac", 0.1, 0.1, 5, 8, DESK)
    for jobs in (2, 3, 2):
        serial, parallel = _serial_and_parallel(config, jobs)
        assert parallel == serial
        jobs_now, pool = harness._pool
        assert jobs_now == jobs
        serial, parallel = _serial_and_parallel(config, jobs)
        assert parallel == serial
        assert harness._pool[1] is pool  # the same jobs keeps the pool
    run_trials(dataclasses.replace(config, jobs=3))
    with pytest.raises(RuntimeError, match="shutdown"):  # the replaced pool was shut down
        pool.submit(os.getpid)


@pytest.mark.parametrize("trials, jobs", [(2, 3), (1, 2)])
def test_parallel_batches_smaller_than_the_pool(trials, jobs):
    config = RunConfig(builtin("graphic_k4"), "exact", 0.1, 0.1, trials, 2, DESK)
    serial, parallel = _serial_and_parallel(config, jobs)
    assert parallel == serial
    assert len(json.loads(parallel)["trials"]) == trials


def _wait_until_dead(pid: int, timeout: float = 10.0) -> None:
    """Return once ``pid`` has exited (a zombie counts); fail after ``timeout`` seconds."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                return
        except FileNotFoundError:
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} still alive after {timeout} s")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
def test_killed_worker_breaks_one_batch_and_the_next_starts_a_fresh_pool():
    config = RunConfig(builtin("ladder10"), "pac", 0.1, 0.1, 6, 1, DESK)
    serial, parallel = _serial_and_parallel(config, 2)
    assert parallel == serial
    pid = harness._pool[1].submit(os.getpid).result(timeout=30)
    os.kill(pid, signal.SIGKILL)
    _wait_until_dead(pid)
    with pytest.raises(BrokenProcessPool):
        run_trials(dataclasses.replace(config, jobs=2))
    assert harness._pool is None
    serial, parallel = _serial_and_parallel(config, 2)
    assert parallel == serial
