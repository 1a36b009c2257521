import base64
import csv
import dataclasses
import gc
import io
import json
import multiprocessing
import os
import pickle
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from matroid_bandits import harness, instances
from matroid_bandits.cli import main
from matroid_bandits.errors import (
    BudgetError, ConfigError, InvariantError, ValidationError,
)
from matroid_bandits.harness import (
    ALGORITHMS,
    RunConfig,
    binomial_lcb,
    load_pulls,
    profile_by_name,
    run_trials,
    success_flags,
    write_report,
)
from matroid_bandits.instances import (
    Instance,
    big_uniform_instance,
    builtin,
    instance_from_config,
    load_instance,
    make_instance,
    random_graphic_instance,
    resolve_instance,
    save_instance,
    uniform_gap_instance,
)
from matroid_bandits.matroids import GraphicMatroid, UniformMatroid, gaps
from matroid_bandits.pac import DESK, PAPER, ConstantsProfile
from matroid_bandits.sampling import (
    BERNOULLI, DENSE_MIN_ARMS, POINT, SCALED, ArmTable, bernoulli, point, sample_size, scaled,
)
from reference import (
    geometric_ladder_instance, is_eps_optimal_modified_cost, iter_bases, point_mass,
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
    assert "supports" not in point_mass(mixed).to_config()
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


def _binary(*means) -> str:
    """Version 3's ``means``: base64 of little-endian float64s."""
    return base64.b64encode(np.array(means, dtype="<f8").tobytes()).decode("ascii")


_TWO_BINARY = dict(_TWO_MEANS, schema_version=3, means=_binary(0.4, 0.6))
# Header fields of the wrong JSON type, refused in every schema version.
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
    "gap-floor-an-int-past-float": {"gap_floor": 10**400},
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
    "v2-means-strings": dict(_TWO_MEANS, means=["0.4", "0.6"]),
    "v1-mean-a-string": dict(_TWO_ARMS, arms=[["bernoulli", "0.4"], ["bernoulli", 0.6]]),
    "v3-means-a-list": dict(_TWO_MEANS, schema_version=3),
    "v3-means-a-number": dict(_TWO_BINARY, means=0.4),
    # a lenient decoder would skip the "*" and read the two means
    "v3-means-not-base64": dict(_TWO_BINARY, means="*" + _TWO_BINARY["means"]),
    "v3-means-not-ascii": dict(_TWO_BINARY, means="\u00e9" * 4),
    "v3-means-a-partial-float64": dict(_TWO_BINARY, means=base64.b64encode(bytes(12)).decode()),
    "v3-three-means-for-two-arms": dict(_TWO_BINARY, means=_binary(0.4, 0.6, 0.5)),
    "v3-kinds-too-short": dict(_TWO_BINARY, kinds=["point"]),
    "v3-supports-too-long": dict(_TWO_BINARY, kinds=["scaled", "bernoulli"],
                                 supports=[[0.1, 0.9], None, None]),
    "v3-with-arms": dict(_TWO_BINARY, arms=_TWO_ARMS["arms"]),
    "v3-nan-mean": dict(_TWO_BINARY, means=_binary(float("nan"), 0.6)),
    "v3-mean-past-one": dict(_TWO_BINARY, means=_binary(1.5, 0.6)),
    "version-4": dict(_TWO_MEANS, schema_version=4),
    "version-true": dict(_TWO_ARMS, schema_version=True),
    "v1-tied-means-allow-ties-a-string": dict(
        _TWO_ARMS, allow_ties="false", arms=[["bernoulli", 0.5], ["bernoulli", 0.5]]),
}
_HEADER_CASES = {f"v{base['schema_version']}-{name}": dict(base, **fields)
                 for base in (_TWO_ARMS, _TWO_MEANS, _TWO_BINARY)
                 for name, fields in _LOOSE_HEADERS.items()}


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


def test_a_file_nested_too_deeply_to_decode_is_a_validation_error(tmp_path, capsys):
    deep = "[" * 5000 + "]" * 5000  # json decodes nesting recursively
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(_TWO_MEANS, notes="NOTES")).replace('"NOTES"', deep))
    with pytest.raises(ValidationError, match="nests too deeply"):
        load_instance(path)
    for command in (["verify"], ["gaps"], ["run", "--algo", "naive1", "--eps", "0.1",
                                          "--delta", "0.1", "--trials", "1",
                                          "--out", str(tmp_path / "report.json")]):
        assert main([*command, "--instance", str(path)]) == 1
        assert capsys.readouterr().err == "error: instance file nests too deeply to decode\n"


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


def _dense_instances() -> dict[str, Instance]:
    n = DENSE_MIN_ARMS
    # means with no short decimal, which only a bit-exact encoding keeps
    means = np.nextafter(0.1 + 0.8 * np.arange(n) / n, 1.0)
    matroid = {"family": "uniform", "n": n, "k": 5}
    plain = make_instance("dense", matroid, ArmTable.from_columns(None, means))
    kinds = [(BERNOULLI, POINT, SCALED)[e % 3] for e in range(n)]
    supports = [(0.05, 0.95) if kind == SCALED else None for kind in kinds]
    mixed = make_instance("dense-mixed", matroid, ArmTable.from_columns(kinds, means, supports))
    return {"bernoulli": plain, "point": point_mass(plain), "mixed": mixed}


@pytest.mark.parametrize("arms", ["bernoulli", "point", "mixed"])
def test_a_dense_instance_saves_as_version_3_and_loads_bit_for_bit(arms, tmp_path):
    inst = _dense_instances()[arms]
    path, again = tmp_path / "inst.json", tmp_path / "again.json"
    save_instance(inst, path)
    cfg = json.loads(path.read_text())
    assert cfg["schema_version"] == 3
    assert base64.b64decode(cfg["means"]) == np.array(inst.true_means, dtype="<f8").tobytes()
    assert ("kinds" in cfg, "supports" in cfg) == {"bernoulli": (False, False),
                                                   "point": (True, False),
                                                   "mixed": (True, True)}[arms]
    loaded = load_instance(path)
    assert loaded.arms == inst.arms and loaded.arms.q.tobytes() == inst.arms.q.tobytes()
    assert all(a is b for a, b in zip(loaded.arms.kinds, inst.arms.kinds))
    save_instance(loaded, again)  # a loaded instance saves the same bytes
    assert again.read_bytes() == path.read_bytes()
    # the same table as version-2 text loads to an equal instance, which saves as version 3
    twin = instance_from_config(dict(cfg, schema_version=2, means=list(inst.true_means)))
    assert twin.arms == loaded.arms and twin.arms.q.tobytes() == loaded.arms.q.tobytes()
    assert twin.to_config() == cfg


def test_a_table_below_the_dense_size_saves_as_version_2_text():
    small, dense = (big_uniform_instance(n, 5).to_config()
                    for n in (DENSE_MIN_ARMS - 1, DENSE_MIN_ARMS))
    assert small["schema_version"] == 2 and len(small["means"]) == DENSE_MIN_ARMS - 1
    assert all(type(mean) is float for mean in small["means"])
    assert dense["schema_version"] == 3 and type(dense["means"]) is str


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
    # a set is the one value here that JSON cannot encode
    bad = dataclasses.replace(made[0], matroid_config=dict(made[0].matroid_config, n={300}))
    fresh, old = tmp_path / "fresh.json", tmp_path / f"{made[0].name}.json"
    before = old.read_bytes()
    for path in (fresh, old):
        with pytest.raises(ValidationError, match="set is not JSON serializable"):
            save_instance(bad, path)
    assert not fresh.exists() and old.read_bytes() == before


def test_an_instance_with_numpy_integers_in_its_config_saves_and_loads_back(tmp_path):
    i = np.int64
    configs = [{"family": "uniform", "n": i(3), "k": i(2)},
               {"family": "partition", "groups": [{"members": [i(0), 1], "capacity": i(1)},
                                                  {"members": [2], "capacity": 1}]},
               {"family": "graphic", "num_vertices": i(4), "edges": [[0, i(1)], [1, 2], [2, 3]]}]
    for cfg in configs:
        inst = make_instance("numpy-ints", cfg, [bernoulli(0.2), bernoulli(0.5), bernoulli(0.7)])
        path = tmp_path / f"{cfg['family']}.json"
        save_instance(inst, path)
        assert load_instance(path).to_config() == inst.to_config()


def test_make_instance_keeps_only_containers_that_load_back(tmp_path):
    arms = [bernoulli(0.2), bernoulli(0.5), bernoulli(0.7)]
    partition = {"family": "partition", "groups": [{"members": {0, 1}, "capacity": 1},
                                                   {"members": [2], "capacity": 1}]}
    with pytest.raises(ValidationError, match="a set at matroid.groups.members"):
        make_instance("set", partition, arms)
    edges = [(0, 1), (1, 2), (2, 3)]
    generated = {"family": "graphic", "num_vertices": 4, "edges": (e for e in edges)}
    with pytest.raises(ValidationError, match="a generator at matroid.edges"):
        make_instance("generator", generated, arms)
    inst = make_instance("tuples", {"family": "graphic", "num_vertices": 4, "edges": tuple(edges)},
                         arms)
    assert inst.matroid_config["edges"] == [[0, 1], [1, 2], [2, 3]]
    path = tmp_path / "tuples.json"
    save_instance(inst, path)
    assert load_instance(path).to_config() == inst.to_config()
    nested = []
    for _ in range(980):  # as deep as a JSON file loads; the walk stops where no family nests
        nested = [nested]
    with pytest.raises(ValidationError, match="malformed edges"):
        make_instance("deep", {"family": "graphic", "num_vertices": 4, "edges": nested}, arms)


@pytest.mark.parametrize("n", [21, 1000])
def test_gap_floor_is_checked_above_the_enumeration_guard(n, tmp_path, capsys):
    inst = big_uniform_instance(n, 3, seed=4)
    cfg = inst.to_config()
    top = sorted(inst.true_means, reverse=True)
    floor = top[2] - top[3]  # pick 3: the least gap is the 3rd mean less the 4th
    with pytest.raises(ValidationError, match="actual minimum gap"):
        instance_from_config(dict(cfg, gap_floor=floor + 1e-6))
    cfg["gap_floor"] = floor
    assert instance_from_config(cfg).gap_floor == floor
    path = tmp_path / f"gap{n}.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--instance", str(path)]) == 0
    assert f"PASS gap_floor (min gap {floor})" in capsys.readouterr().out
    assert main(["gaps", "--instance", str(path)]) == 0
    arms = [line for line in capsys.readouterr().out.splitlines() if line.startswith("arm ")]
    assert [line.split(":")[0] for line in arms] == [f"arm {e}" for e in range(n)]


@pytest.mark.parametrize("make", [lambda: builtin("ladder10"),
                                  lambda: uniform_gap_instance(1000, 10, 0.1)],
                         ids=["ladder10", "uniform-1000"])
def test_make_instance_and_verify_agree_at_the_floor(make, tmp_path, capsys):
    inst = make()
    least = min(gaps(inst.matroid, inst.true_means).values())
    cfg = inst.to_config()
    with pytest.raises(ValidationError, match="actual minimum gap"):
        instance_from_config(dict(cfg, gap_floor=least + 1e-6))
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(dict(cfg, gap_floor=least)))
    assert main(["verify", "--instance", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS no_loops", "PASS distinct_means", f"PASS gap_floor (min gap {least})"]


def test_a_gap_floor_on_tied_means_is_a_validation_error(tmp_path):
    arms = [bernoulli(0.2), bernoulli(0.4), bernoulli(0.4)]
    config = {"family": "uniform", "n": 3, "k": 1}
    with pytest.raises(ValidationError, match="gap_floor.*allow_ties"):
        make_instance("tied", config, arms, gap_floor=0.01, allow_ties=True)
    tied = make_instance("tied", config, arms, allow_ties=True)
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(dict(tied.to_config(), gap_floor=0.01)))
    with pytest.raises(ValidationError, match="gap_floor.*allow_ties"):
        load_instance(path)
    untied = make_instance("untied", config, arms[:2] + [bernoulli(0.3)],
                           gap_floor=0.1, allow_ties=True)
    assert untied.gap_floor_check() == (True, pytest.approx(0.1))


def test_an_empty_instance_holds_any_gap_floor(tmp_path, capsys):
    inst = make_instance("empty", {"family": "uniform", "n": 0, "k": 0}, [], gap_floor=0.1)
    assert inst.gap_floor_check() == (True, float("inf"))
    path = tmp_path / "empty.json"
    save_instance(inst, path)
    assert main(["gaps", "--instance", str(path)]) == 0
    assert capsys.readouterr().out == "instance empty: rank 0, 0 arms\n"
    assert main(["verify", "--instance", str(path)]) == 0
    assert "PASS gap_floor (min gap inf)" in capsys.readouterr().out


_ALL_COLOOPS = {"family": "uniform", "n": 3, "k": 3}  # every gap is infinite


@pytest.mark.parametrize("gap_floor", [False, True, "0.1", float("nan"),
                                       float("inf"), 10**400, -(10**400)],
                         ids=["false", "true", "string", "nan", "inf",
                              "int-past-float", "negative-int-past-float"])
def test_make_instance_refuses_a_gap_floor_that_is_not_a_finite_int_or_float(gap_floor):
    with pytest.raises(ValidationError, match="gap_floor"):
        make_instance("x", _ALL_COLOOPS, [bernoulli(0.2), bernoulli(0.4), bernoulli(0.6)],
                      gap_floor=gap_floor)


@pytest.mark.parametrize("gap_floor", [1, 0.05, np.float64(0.05), Fraction(1, 10)],
                         ids=["int", "float", "numpy-float", "fraction"])
def test_a_gap_floor_is_kept_as_a_float_and_loads_back_equal(gap_floor, tmp_path):
    inst = make_instance("x", _ALL_COLOOPS, [bernoulli(0.2), bernoulli(0.4), bernoulli(0.6)],
                         gap_floor=gap_floor)
    assert type(inst.gap_floor) is float and inst.gap_floor == float(gap_floor)
    path = tmp_path / "floor.json"
    save_instance(inst, path)
    assert json.loads(path.read_text())["gap_floor"] == float(gap_floor)
    back = load_instance(path)
    assert type(back.gap_floor) is float and back.to_config() == inst.to_config()
    save_instance(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_uniform_gap_generator_hits_target_band():
    inst = uniform_gap_instance(20, 4, 0.1, seed=1)
    assert all(0.09 <= g <= 0.11 for g in gaps(inst.matroid, inst.true_means).values())


def test_generators_are_reproducible():
    a = uniform_gap_instance(20, 4, 0.1, seed=7).to_config()
    b = uniform_gap_instance(20, 4, 0.1, seed=7).to_config()
    assert a == b
    c = geometric_ladder_instance(12, 3, 0.05, seed=7)
    d = geometric_ladder_instance(12, 3, 0.05, seed=7)
    assert c.to_config() == d.to_config()
    assert min(gaps(c.matroid, c.true_means).values()) >= 0.05 - 1e-9


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
    # sizes follow the matroid constructors' integer rule
    lambda: big_uniform_instance(300.0, 5),
    lambda: uniform_gap_instance(12, 3.0, 0.1),
    lambda: big_uniform_instance(True, 1),
    lambda: geometric_ladder_instance(12, "3", 0.05),
    lambda: random_graphic_instance(5, 7.0),
])
def test_generators_reject_bad_arguments_before_any_draw(make, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the generator drew before checking its arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("make", [
    lambda seed: uniform_gap_instance(10, 3, 0.1, seed=seed),
    lambda seed: geometric_ladder_instance(10, 3, 0.05, seed=seed),
    lambda seed: random_graphic_instance(5, 7, seed=seed),
    lambda seed: big_uniform_instance(300, 5, seed=seed),
], ids=["uniform-gap", "ladder", "graphic", "big-uniform"])
@pytest.mark.parametrize("seed", [-1, 1.5, None, True])
def test_generators_refuse_a_negative_or_non_integer_seed_before_any_draw(make, seed, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the generator drew before checking its seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        make(seed)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_run_config_refuses_a_negative_or_non_integer_seed(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        RunConfig(builtin("prop1"), "pac", 0.1, 0.1, 1, seed, PAPER)


def test_cli_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--instance", "builtin:prop1", "--algo", "pac", "--eps", "0.1",
                 "--delta", "0.1", "--trials", "2", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True), ("trials", "2"),
                                          ("jobs", 1.5), ("jobs", True), ("jobs", "2")])
def test_run_config_refuses_a_trial_or_job_count_that_is_not_an_int(field, value):
    # a float count used to pass the range check and fail in run_trials with a TypeError
    config = dict(trials=1, jobs=1)
    config[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        RunConfig(builtin("prop1"), "pac", 0.1, 0.1, seed=0, profile=PAPER, **config)


@pytest.mark.parametrize("field, value", [("eps", "0.1"), ("eps", None), ("eps", True),
                                          ("delta", "0.1"), ("delta", None), ("delta", False),
                                          ("instance", None), ("instance", "builtin:prop1"),
                                          ("profile", None), ("profile", "paper")])
def test_run_config_refuses_a_field_of_the_wrong_type(field, value):
    # each used to raise a bare TypeError, pass as a number, or fail later inside run_trials
    config = dict(instance=builtin("prop1"), algo="pac", eps=0.1, delta=0.1, trials=1, seed=0,
                  profile=PAPER)
    config[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be"):
        RunConfig(**config)


@pytest.mark.parametrize("eps, delta", [(np.float64(0.1), np.float32(0.1)), (1, 0.1),
                                        (np.int64(1), np.float64(0.5))])
def test_run_config_takes_numpy_floats_and_ints_for_eps_and_delta(eps, delta):
    assert RunConfig(builtin("prop1"), "pac", eps, delta, 1, 0, PAPER).eps == eps


@pytest.mark.parametrize("eps, delta", [(0.1, np.float32(0.1)), (np.int64(1), 0.1),
                                        (Fraction(1, 10), 0.1)],
                         ids=["float32-delta", "int64-eps", "fraction-eps"])
def test_a_report_of_a_numpy_or_fraction_eps_or_delta_holds_plain_numbers(eps, delta, tmp_path):
    # the JSON report used to fail with a TypeError after the whole batch had run
    config = RunConfig(builtin("ladder10"), "pac", eps, delta, 3, 0, DESK)
    assert type(config.eps) is float and type(config.delta) is float
    out = tmp_path / "r.json"
    result = run_trials(config)
    write_report(result, out)
    summary = json.loads(out.read_text())["summary"]
    assert (summary["eps"], summary["delta"]) == (float(eps), float(delta))
    with open(out.with_suffix(".csv"), newline="", encoding="utf-8") as handle:
        row = next(csv.DictReader(handle))
    assert (row["eps"], row["delta"]) == (repr(float(eps)), repr(float(delta)))
    plain = run_trials(RunConfig(builtin("ladder10"), "pac", float(eps), float(delta), 3, 0, DESK))
    assert [(r.basis, r.per_arm) for r in result["reports"]] == [
        (r.basis, r.per_arm) for r in plain["reports"]]


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
                             *((algo, "0.1", "1e-320") for algo in ALGORITHMS),
                             # the smallest delta: a derived confidence underflows to 0.0
                             *((algo, "0.1", "5e-324") for algo in ALGORITHMS)]:
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
    inst = point_mass(builtin("partition6"))
    config = RunConfig(inst, "naive1", 0.1, 0.1, 5, 3, PAPER)
    result = run_trials(config)
    assert result["summary"]["success"]["exact"]["rate"] == 1.0
    assert result["summary"]["failures"] == 0
    assert result["summary"]["failures_by_guard"] == {}


def test_success_flags_reject_non_basis():
    m = UniformMatroid(4, 2)
    flags = success_flags(m, (0.9, 0.8, 0.7, 0.6), frozenset({0}), 0.1)
    assert flags == {"exact": False, "eps_optimal": False, "elementwise": False, "avg": False}


def test_the_judge_counts_a_basis_tied_at_eps_as_the_lifted_cost_definition_does():
    # {0, 2, 5} and {1, 2, 5} of laminar6 lift to 2.8, the optimum's weight, at
    # eps 0.1; yet 0.8 - 0.1 rounds to 0.7000000000000001 > 0.7
    inst = builtin("laminar6")
    for basis in ({0, 2, 5}, {1, 2, 5}):
        assert is_eps_optimal_modified_cost(inst.matroid, basis, inst.true_weights, 0.1)
        assert success_flags(inst.matroid, inst.true_weights, frozenset(basis), 0.1,
                             inst.optimum)["eps_optimal"]
    for name in sorted(instances.BUILTINS):
        inst = builtin(name)
        m, means = inst.matroid, inst.true_weights
        for basis in iter_bases(m):
            for eps in (0.0, 0.01, 0.02, 0.05, 0.1, 0.5):
                judged = success_flags(m, means, frozenset(basis), eps, inst.optimum)
                assert judged["eps_optimal"] == is_eps_optimal_modified_cost(
                    m, basis, means, eps), (name, sorted(basis), eps)


def test_each_distinct_basis_is_judged_once_per_share_and_each_report_owns_its_flags(
        monkeypatch):
    calls = []

    def counting(matroid, means, basis, eps, opt=None):
        calls.append((frozenset(basis), eps))
        return success_flags(matroid, means, basis, eps, opt)

    monkeypatch.setattr(harness, "success_flags", counting)
    shared = 0
    for name in sorted(instances.BUILTINS):
        inst = builtin(name)
        for algo in ALGORITHMS:
            for eps in (0.1, 0.3):  # a second batch at another eps judges afresh
                calls.clear()
                reports = run_trials(RunConfig(inst, algo, eps, 0.1, 20, 0, DESK))["reports"]
                judged = [frozenset(rep.basis) for rep in reports if rep.error is None]
                assert Counter(calls) == Counter((basis, eps) for basis in set(judged))
                direct = [success_flags(inst.matroid, inst.true_means, rep.basis, eps)
                          for rep in reports]
                assert [rep.flags for rep in reports] == direct
                shared += judged.count(judged[0]) > 1
                reports[0].flags.clear()
                assert [rep.flags for rep in reports[1:]] == direct[1:], (name, algo, eps)
    assert shared  # some batches hand one verdict to several reports


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


def _points(n: int):
    """n point-mass arms with distinct means: any pull count takes no draw."""
    means = [0.05 + 0.9 * (i + 0.5) / n for i in range(n)]
    return make_instance(f"points{n}", {"family": "uniform", "n": n, "k": 3},
                         ArmTable.from_columns([POINT] * n, means))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_dense_ledger_past_int64_stays_exact(jobs, tmp_path):
    # naive1 pulls each of 256 arms `count` times; 256 * count passes 2**63,
    # so the session's int64 ledger turns into Python ints
    inst, eps = _points(256), 1e-8
    count = sample_size(eps / 2.0, 0.1 / 256)
    assert count < 2**63 <= 256 * count
    result = run_trials(RunConfig(inst, "naive1", eps, 0.1, 2, 0, DESK, jobs=jobs))
    for rep in result["reports"]:
        assert rep.error is None and rep.total_samples == 256 * count
        assert type(rep.pulls) is tuple and rep.per_arm == (count,) * 256
    out = tmp_path / "report.json"
    write_report(result, out)
    pulls = load_pulls(out.with_suffix(".pulls.npy"))
    assert pulls.dtype == np.int64 and pulls.tolist() == [[count] * 256] * 2
    assert _is_the_stacked_matrix(out, result)


def _sidecar(out: Path):
    return load_pulls(out.with_suffix(".pulls.npy"))


def _is_the_stacked_matrix(out: Path, result: dict) -> bool:
    """Whether the sidecar holds what ``np.save`` writes of the batch's stacked ledgers."""
    stacked = io.BytesIO()
    np.save(stacked, harness._pull_matrix(result["reports"], result["summary"]["arms"]),
            allow_pickle=False)
    return out.with_suffix(".pulls.npy").read_bytes() == stacked.getvalue()


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("inst", [builtin("prop1"), big_uniform_instance(300, 5, seed=2)],
                         ids=["small", "dense"])
def test_the_pulls_sidecar_holds_one_ledger_per_trial_in_order(inst, jobs, tmp_path):
    result = run_trials(RunConfig(inst, "pac", 0.1, 0.1, 5, 1, DESK, jobs=jobs))
    out = tmp_path / "report.json"
    write_report(result, out)
    pulls = _sidecar(out)
    assert type(pulls) is np.ndarray and pulls.dtype == np.int64
    assert pulls.shape == (5, inst.size) and pulls.flags.c_contiguous
    assert [tuple(row) for row in pulls.tolist()] == [rep.per_arm for rep in result["reports"]]
    assert "per_arm_samples" not in out.read_text()
    # a dense batch's ledgers are written a row at a time, as np.save writes their matrix
    assert _is_the_stacked_matrix(out, result)


@pytest.mark.parametrize("inst", [builtin("prop1"), big_uniform_instance(300, 5, seed=2)],
                         ids=["small", "dense"])
def test_a_zero_trial_batch_writes_an_empty_row_per_arm_matrix(inst, tmp_path):
    out = tmp_path / "report.json"
    result = run_trials(RunConfig(inst, "naive1", 0.1, 0.1, 0, 0, PAPER))
    write_report(result, out)
    pulls = _sidecar(out)
    assert pulls.dtype == np.int64 and pulls.shape == (0, inst.size)
    assert _is_the_stacked_matrix(out, result)
    assert json.loads(out.read_text())["summary"]["arms"] == inst.size


@pytest.mark.parametrize("jobs", [1, 2])
def test_counts_past_int64_come_back_exact_from_the_sidecar(jobs, tmp_path):
    # each of 256 point-mass arms is pulled about 1.7e19 times, past 2**63
    inst, eps = _points(256), 1e-9
    count = sample_size(eps / 2.0, 0.1 / 256)
    assert 2**63 < count < 2**64
    result = run_trials(RunConfig(inst, "naive1", eps, 0.1, 2, 0, DESK, jobs=jobs))
    assert all(rep.error is None for rep in result["reports"])
    out = tmp_path / "report.json"
    write_report(result, out)
    assert np.load(out.with_suffix(".pulls.npy"), allow_pickle=False).dtype.kind == "U"
    assert _sidecar(out) == ((count,) * 256,) * 2 == tuple(r.per_arm for r in result["reports"])
    assert _is_the_stacked_matrix(out, result)


def test_hand_built_ledgers_round_trip_through_the_sidecar(tmp_path):
    config = RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 5, 0, PAPER)
    ledgers = [(3, 0, 7, 1), (2**63 + 1, 5, 0, 2**53 + 1), (2**64 + 12345, 2**70 * 3 + 7, 9, 0),
               (10**30 + 1, 1, 1, 2**63 - 1),  # these three hold Python ints past int64
               np.array([2**53 + 1, 2**62 + 3, 2**63 - 1, 5], dtype=np.int64)]  # a dense ledger
    reports = [
        harness.TrialReport(i, (0, i), "naive1", (0, 1), sum(map(int, per_arm)), per_arm,
                            dict.fromkeys(harness.FLAGS, True), None, 0.0)
        for i, per_arm in enumerate(ledgers)
    ]
    out = tmp_path / "report.json"
    for batch, fits in ((reports[:1], True), (reports[-1:], True), (reports[-2:], False),
                        (reports, False)):
        result = harness.summarize(config, batch)
        write_report(result, out)
        assert _is_the_stacked_matrix(out, result)
        pulls = _sidecar(out)
        expected = tuple(r.per_arm for r in batch)
        if fits:
            assert pulls.dtype == np.int64 and tuple(map(tuple, pulls.tolist())) == expected
        else:
            assert pulls == expected and {type(c) for row in pulls for c in row} == {int}


def test_report_text_does_not_grow_with_the_arms(tmp_path):
    inst = big_uniform_instance(5000, 20, seed=0)
    sidecars = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        write_report(run_trials(RunConfig(inst, "pac", 0.1, 0.1, 4, 0, DESK, jobs=jobs)), out)
        summary, opening, *trials, closing = out.read_text().splitlines()
        assert len(trials) == 4
        assert max(len(line.encode()) for line in (summary, *trials)) < 1000
        sidecars.append(out.with_suffix(".pulls.npy").read_bytes())
    assert sidecars[0] == sidecars[1]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("inst, dense", [
    (builtin("prop1"), False), (big_uniform_instance(300, 5, seed=2), True),
], ids=["small", "dense"])
def test_a_report_holds_the_ledger_in_the_sessions_form(inst, dense, jobs):
    reports = run_trials(RunConfig(inst, "pac", 0.1, 0.1, 3, 1, DESK, jobs=jobs))["reports"]
    for rep in reports:
        if dense:
            assert type(rep.pulls) is np.ndarray and rep.pulls.dtype == np.int64
            assert rep.pulls.shape == (300,) and not rep.pulls.flags.writeable
        else:
            assert type(rep.pulls) is tuple
        assert type(rep.per_arm) is tuple and {type(c) for c in rep.per_arm} == {int}
        assert sum(rep.per_arm) == rep.total_samples
        copy = pickle.loads(pickle.dumps(rep))
        assert copy == rep and copy.per_arm == rep.per_arm
        assert type(copy.pulls) is type(rep.pulls)
        if dense:
            assert not copy.pulls.flags.writeable
    rep = reports[0]
    assert rep != dataclasses.replace(rep, pulls=tuple(c + 1 for c in rep.per_arm))


def test_a_report_makes_a_writable_ledger_read_only_without_touching_it():
    ledger = np.arange(300, dtype=np.int64)
    rep = harness.TrialReport(0, (0, 0), "naive1", (), int(ledger.sum()), ledger,
                              dict.fromkeys(harness.FLAGS, False), None, 0.0)
    with pytest.raises(ValueError):
        rep.pulls[0] = 7
    assert ledger.flags.writeable and rep.per_arm == tuple(range(300))
    assert rep == dataclasses.replace(rep, pulls=tuple(range(300)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_held_reports_of_a_dense_batch_cost_about_eight_bytes_per_arm(jobs):
    # each held ledger is one int64 array; as Python ints it held about 36 B per arm
    n, trials = 2000, 8
    config = RunConfig(big_uniform_instance(n, 5, seed=3), "naive1", 0.1, 0.1, trials, 0, DESK,
                       jobs=jobs)
    tracemalloc.start()
    try:
        run_trials(config)  # a first batch starts the pool and fills every cache
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        reports = run_trials(config)["reports"]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == trials and all(len(rep.per_arm) == n for rep in reports)
    assert held / (n * trials) < 12, held


def test_writing_a_dense_batch_builds_no_matrix_of_its_ledgers(tmp_path):
    # 4000 arms, so that the matrix outweighs the 128 KiB record buffer that
    # the csv module's writer allocates for the summary row
    n, trials = 4000, 8
    result = run_trials(RunConfig(big_uniform_instance(n, 5, seed=3), "naive1", 0.1, 0.1,
                                  trials, 0, DESK))
    write_report(result, tmp_path / "first.json")  # any first-use cost is paid here
    tracemalloc.start()
    try:
        write_report(result, tmp_path / "report.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * trials, peak  # the stacked int64 matrix of the batch


def test_a_worker_reply_is_received_without_a_second_copy_of_its_ledgers(monkeypatch):
    # at jobs 2 the worker's share is 4 ledgers; received as one pickle, they
    # were held twice at once: in the received bytes and in the arrays
    n, trials = 2000, 8
    config = RunConfig(big_uniform_instance(n, 5, seed=3), "naive1", 0.1, 0.1, trials, 0, DESK,
                       jobs=2)
    run_trials(config)  # a first batch starts the pool and fills every cache
    caller, run_chunk, summarize, receive = os.getpid(), harness._run_chunk, harness.summarize, []

    def caller_share_then_reset(config, indices):
        reports = run_chunk(config, indices)
        if os.getpid() == caller:  # the caller's own share is done: its receive starts
            receive.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return reports

    def peak_then_summarize(config, reports):
        receive.append(tracemalloc.get_traced_memory()[1])
        return summarize(config, reports)

    monkeypatch.setattr(harness, "_run_chunk", caller_share_then_reset)
    monkeypatch.setattr(harness, "summarize", peak_then_summarize)
    tracemalloc.start()
    try:
        reports = run_trials(config)["reports"]
    finally:
        tracemalloc.stop()
    assert [rep.index for rep in reports] == list(range(trials))
    before, peak = receive
    share = 8 * n * (trials // 2)
    assert peak - before < 2 * share, (peak - before, share)


@pytest.mark.parametrize("inst", [
    builtin("ladder10"), big_uniform_instance(DENSE_MIN_ARMS + 10, 4, seed=5),
], ids=["small", "dense"])
def test_a_second_batch_on_an_instance_does_not_compute_its_optimum_again(inst, monkeypatch):
    on_true_means = []
    greedy = harness.greedy_max_basis

    def spy(m, weights):
        if isinstance(weights, (tuple, np.ndarray)) and np.array_equal(weights, inst.true_means):
            on_true_means.append(weights)
        return greedy(m, weights)

    for module in (harness, instances):
        monkeypatch.setattr(module, "greedy_max_basis", spy)
    for algo in ("naive1", "pac", "naive1"):
        run_trials(RunConfig(inst, algo, 0.1, 0.1, 3, 0, DESK))
    # once, on the table's own weights; a pickled instance, as a worker gets
    # it, carries the optimum along
    assert len(on_true_means) == 1 and on_true_means[0] is inst.true_weights
    assert vars(pickle.loads(pickle.dumps(inst)))["optimum"] == inst.optimum


def test_a_dense_instance_holds_no_python_object_per_arm():
    # a range ground, the means as the table's q array, and views cut as id
    # arrays; about 131 B per arm when each arm was a Python int and float
    n = 2 * 10**5
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        inst = big_uniform_instance(n, 10)
        built = tracemalloc.get_traced_memory()[0] - start
        built_pickle = len(pickle.dumps(inst))
        result = run_trials(RunConfig(inst, "pac", 0.1, 0.1, 3, 0, DESK, jobs=1))
        assert result["summary"]["success"]["eps_optimal"]["count"] == 3
        del result
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert built / n <= 32 and after / n <= 32, (built / n, after / n)
    assert built_pickle / n <= 12 and len(pickle.dumps(inst)) / n <= 12


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


def test_a_csv_report_path_is_refused_before_anything_runs_or_is_written(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["run", "--instance", "builtin:prop1", "--algo", "pac", "--eps", "0.1",
                 "--delta", "0.1", "--trials", "2", "--out", str(out)]) == 1
    assert "ends in .csv" in capsys.readouterr().err
    result = run_trials(RunConfig(builtin("prop1"), "naive1", 0.1, 0.1, 2, 0, PAPER))
    with pytest.raises(ConfigError, match="ends in .csv"):
        write_report(result, out)
    assert list(tmp_path.iterdir()) == []


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


def test_binomial_lcb_of_all_successes_is_the_bisection_within_one_ulp():
    for n in range(1, 3001):
        closed, bisected = binomial_lcb(n, n), harness._bisect_lcb(n, n, 1.0 - 0.95)
        assert abs(closed - bisected) <= np.spacing(bisected), n


def _loaded_by_import(module: str, *names: str) -> list[bool]:
    """Whether each of ``names`` is in ``sys.modules`` after ``import module`` in a fresh
    interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = f"import sys, {module}; print(*[name in sys.modules for name in {names!r}])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return [word == "True" for word in done.stdout.split()]


def test_cli_import_loads_numpy_random_but_not_scipy():
    # numpy.random must be loaded before trial workers fork, or each loads it anew
    assert _loaded_by_import("matroid_bandits.cli", "scipy", "numpy.random") == [False, True]


def test_importing_the_package_leaves_the_enumerating_oracle_unloaded():
    assert _loaded_by_import("matroid_bandits", "matroid_bandits.oracle") == [False]


def test_importing_the_cli_leaves_the_enumerating_oracle_unloaded():
    assert _loaded_by_import("matroid_bandits.cli", "matroid_bandits.oracle") == [False]


_FAILING_VERIFY = "cli.verify_instance = lambda instance: [('forced', False, '')]; "


@pytest.mark.parametrize("patch, argv, code", [
    ("", ["gaps", "--instance", "builtin:ladder10"], 0),
    ("", ["verify", "--instance", "builtin:ladder10"], 0),
    (_FAILING_VERIFY, ["verify", "--instance", "builtin:prop1"], 1),
    ("", ["run", "--instance", "builtin:prop1", "--algo", "naive1", "--eps", "0.2",
          "--delta", "0.1", "--trials", "2", "--out", "{out}"], 0),
], ids=["gaps", "verify-pass", "verify-fail", "run"])
def test_a_closed_stdout_ends_the_output_quietly_with_the_same_code(patch, argv, code, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [arg.format(out=tmp_path / "report.json") for arg in argv]
    probe = f"import sys; from matroid_bandits import cli; {patch}sys.exit(cli.main({argv!r}))"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes a byte
    try:
        done = subprocess.run([sys.executable, "-c", probe], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


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


def test_cli_run_writes_and_names_the_pulls_sidecar(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--instance", "builtin:prop1", "--algo", "naive1", "--eps", "0.2",
                 "--delta", "0.1", "--trials", "3", "--out", str(out)]) == 0
    sidecar = out.with_suffix(".pulls.npy")
    assert load_pulls(sidecar).shape == (3, 4)
    assert capsys.readouterr().out.endswith(
        f"report written to {out}, per-arm pulls to {sidecar}\n")


def test_cli_trace_writes_round_records(tmp_path):
    # n/k must exceed 10 and the break bound for an avgpac elimination round to run
    big = tmp_path / "big.json"
    save_instance(point_mass(big_uniform_instance(2000, 3, seed=23)), big)
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


def test_tied_means_are_a_typed_error_for_gaps_and_pass_verify_under_allow_ties(
        tmp_path, capsys):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(dict(_TWO_ARMS, allow_ties=True,
                                    arms=[["bernoulli", 0.5], ["bernoulli", 0.5]])))
    assert main(["gaps", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == "error: weights must be pairwise distinct\n"
    assert main(["verify", "--instance", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS no_loops", "PASS distinct_means"]


_NEEDLE_PAIR = ({"family": "uniform", "n": 2, "k": 1}, [0.5, 0.5 + 1e-7])
_NEEDLE_TRIPLE = ({"family": "uniform", "n": 3, "k": 2}, [0.5, 0.5 + 1e-7, 0.5 + 2e-7])


@pytest.mark.parametrize("guard, instance, algo, eps, profile", [
    ("budget", builtin("prop1"), "exact", 0.1, dataclasses.replace(PAPER, pull_budget=10)),
    ("drawability", builtin("prop1"), "naive1", 1e-200, PAPER),  # the count overflows a float
    ("drawability", builtin("prop1"), "naive1", 1e-10, PAPER),  # more than 2**62 pulls
    ("depth", point_mass(builtin("prop1")), "pac", 0.1,
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


def _worker_pids() -> list[int]:
    return [process.pid for process, _ in harness._pool[1]]


def test_pool_is_reused_and_replaced_when_jobs_changes():
    config = RunConfig(builtin("partition6"), "pac", 0.1, 0.1, 5, 8, DESK)
    for jobs in (2, 3, 2):
        serial, parallel = _serial_and_parallel(config, jobs)
        assert parallel == serial
        jobs_now, workers = harness._pool
        assert jobs_now == jobs and len(workers) == jobs - 1  # the caller runs a share too
        pids = _worker_pids()
        serial, parallel = _serial_and_parallel(config, jobs)
        assert parallel == serial
        assert _worker_pids() == pids  # the same jobs keeps the workers
    run_trials(dataclasses.replace(config, jobs=3))
    for process, _ in workers:  # the replaced workers were stopped
        assert process.exitcode is not None


def test_the_pool_starts_only_the_workers_that_a_batch_shares_among():
    config = RunConfig(builtin("graphic_k4"), "pac", 0.1, 0.1, 2, 6, DESK)
    for trials, workers in ((2, 1), (8, 7), (2, 7)):
        serial, parallel = _serial_and_parallel(dataclasses.replace(config, trials=trials), 8)
        assert parallel == serial
        assert harness._pool[0] == 8 and len(_worker_pids()) == workers


@pytest.mark.parametrize("trials, jobs", [(2, 3), (1, 2)])
def test_parallel_batches_smaller_than_the_pool(trials, jobs):
    config = RunConfig(builtin("graphic_k4"), "exact", 0.1, 0.1, trials, 2, DESK)
    serial, parallel = _serial_and_parallel(config, jobs)
    assert parallel == serial
    assert len(json.loads(parallel)["trials"]) == trials


@pytest.mark.parametrize("trials", [1, 2])
def test_a_batch_of_fewer_trials_than_jobs_matches_serial(trials):
    config = RunConfig(builtin("prop1"), "pac", 0.1, 0.1, trials, 6, DESK)
    serial, parallel = _serial_and_parallel(config, 3)
    assert parallel == serial
    assert len(json.loads(parallel)["trials"]) == trials


@dataclasses.dataclass(frozen=True)
class _BrokenTrial(Instance):
    """An instance whose trial ``broken`` raises InvariantError, in whichever process runs it."""

    broken: int = -1

    def trial_session(self, master_seed, trial_index, max_pulls=None):
        if trial_index == self.broken:
            raise InvariantError(f"trial {trial_index} is broken")
        return super().trial_session(master_seed, trial_index, max_pulls)


@pytest.mark.parametrize("broken, runs_it", [(1, "a worker"), (2, "the caller")])
def test_an_error_in_any_share_keeps_its_type_and_the_workers_serve_the_next_batch(
        broken, runs_it):
    base = builtin("ladder10")
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    config = RunConfig(_BrokenTrial(**fields, broken=broken), "pac", 0.1, 0.1, 6, 2, DESK)
    serial, parallel = _serial_and_parallel(RunConfig(base, "pac", 0.1, 0.1, 6, 2, DESK), 2)
    pids = _worker_pids()
    # at jobs 2 the caller runs the even indices and the worker the odd ones
    with pytest.raises(InvariantError, match=f"trial {broken} is broken") as raised:
        run_trials(dataclasses.replace(config, jobs=2))
    if runs_it == "a worker":  # the worker's traceback comes along as the cause
        assert "in trial_session" in str(raised.value.__cause__)
    assert _worker_pids() == pids
    after = _body(run_trials(dataclasses.replace(config, instance=base, jobs=2)))
    assert after == parallel == serial
    assert _worker_pids() == pids


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


def _die_mid_reply(partial: bool):
    """``Connection.send_bytes`` for a forked worker that exits as it starts
    sending the raw bytes of its first ledger: after sending the length and
    half the bytes of that message if ``partial``, else before any of it."""
    caller, send_bytes = os.getpid(), Connection.send_bytes

    def send_then_die(self, buf, offset=0, size=None):
        if os.getpid() == caller:
            return send_bytes(self, buf, offset, size)
        if partial:  # CPython's framing: a 4-byte big-endian length, then the bytes
            view = memoryview(buf).cast("B")
            os.write(self.fileno(),
                     struct.pack("!i", view.nbytes) + view[: view.nbytes // 2].tobytes())
        os._exit(1)

    return send_then_die


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
@pytest.mark.parametrize("dies", ["idle", "before its ledgers", "inside a ledger"])
def test_killed_worker_breaks_one_batch_and_the_next_starts_a_fresh_pool(dies, monkeypatch):
    # a dense batch, so that each reply carries its ledgers' raw bytes
    config = RunConfig(big_uniform_instance(300, 5, seed=6), "pac", 0.1, 0.1, 6, 1, DESK)
    serial, parallel = _serial_and_parallel(config, 2)
    assert parallel == serial
    if dies == "idle":
        [pid] = _worker_pids()
        os.kill(pid, signal.SIGKILL)
        _wait_until_dead(pid)
    else:  # only workers forked after the patch send through it
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a worker inherits the patch only when forked")
        harness._stop_workers(harness._pool[1], harness._STOP_TIMEOUT_S)
        harness._pool = None
    with monkeypatch.context() as patch:
        if dies != "idle":
            patch.setattr(Connection, "send_bytes", _die_mid_reply(dies == "inside a ledger"))
        with pytest.raises(BrokenProcessPool):
            run_trials(dataclasses.replace(config, jobs=2))
    assert harness._pool is None
    serial, parallel = _serial_and_parallel(config, 2)
    assert parallel == serial


_ORPHANED_WORKERS = """
import sys, time
from matroid_bandits import harness
from matroid_bandits.harness import RunConfig, run_trials
from matroid_bandits.instances import builtin
from matroid_bandits.pac import DESK
for trials in (2, 4):  # one worker, then a second beside it
    run_trials(RunConfig(builtin("prop1"), "pac", 0.1, 0.1, trials, 0, DESK, jobs=3))
print(*[process.pid for process, _ in harness._pool[1]], flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
def test_workers_exit_when_their_caller_is_killed():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    caller = subprocess.Popen([sys.executable, "-c", _ORPHANED_WORKERS], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in caller.stdout.readline().split()]
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
    assert len(pids) == 2
    for pid in pids:
        _wait_until_dead(pid)
