"""Fixed-seed golden outputs for every algorithm, on the builtins and at dense size.

``tests/data/golden_builtins.json`` pins, per trial, the returned basis, the
total and per-arm pulls, the success flags, the error and the ``--trace``
records of every builtin instance under every algorithm.
``tests/data/golden_dense.json`` pins the same for two instances of at least
``DENSE_MIN_ARMS`` elements, built from fixed formulas rather than from the
seeded generators; their per-arm pulls are stored as a SHA-256 digest. A
change that keeps fixed-seed behaviour must leave both identical.
Regenerate them only on purpose, from the root of the repository:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from matroid_bandits import sampling
from matroid_bandits.harness import ALGORITHMS, RunConfig, run_trials
from matroid_bandits.instances import BUILTINS, builtin, make_instance
from matroid_bandits.pac import DESK
from matroid_bandits.sampling import bernoulli

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_builtins.json"
GOLDEN_DENSE = DATA / "golden_dense.json"


def _formula_means(n: int, stride: int) -> list[float]:
    """n distinct means in (0.05, 0.95): arm i ranks (i * stride) % n, stride prime to n."""
    return [0.05 + 0.9 * ((i * stride) % n + 0.5) / n for i in range(n)]


def dense_uniform():
    """1200 arms, k = 3: pac recurses and avgpac runs one elimination round."""
    n = 1200
    return make_instance("dense-uniform", {"family": "uniform", "n": n, "k": 3},
                         [bernoulli(mu) for mu in _formula_means(n, 7)])


def dense_graphic():
    """300 edges on 20 vertices: a spanning path, then edges picked by formula."""
    vertices, size = 20, 300
    edges = [[v - 1, v] for v in range(1, vertices)]
    j = 0
    while len(edges) < size:
        u, v = (7 * j) % vertices, (13 * j + 5) % vertices
        if u != v:
            edges.append([u, v])
        j += 1
    return make_instance("dense-graphic",
                         {"family": "graphic", "num_vertices": vertices, "edges": edges},
                         [bernoulli(mu) for mu in _formula_means(size, 7)])


def _batches(instances, digest_per_arm: bool) -> dict:
    batches = {}
    for inst in instances:
        for algo in ALGORITHMS:
            config = RunConfig(inst, algo, 0.1, 0.1, 3, 0, DESK, jobs=1, trace=True)
            batches[f"{inst.name}/{algo}"] = [
                {
                    "basis": list(rep.basis),
                    "total_samples": rep.total_samples,
                    "per_arm": (hashlib.sha256(json.dumps(list(rep.per_arm)).encode()).hexdigest()
                                if digest_per_arm else list(rep.per_arm)),
                    "flags": rep.flags,
                    "error": rep.error,
                    "trace": [record.to_record() for record in rep.trace],
                }
                for rep in run_trials(config)["reports"]
            ]
    return batches


def golden_builtins() -> dict:
    return _batches([builtin(name) for name in sorted(BUILTINS)], digest_per_arm=False)


def golden_dense() -> dict:
    return _batches([dense_uniform(), dense_graphic()], digest_per_arm=True)


def test_builtin_outputs_match_golden_fixture():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(golden_builtins())) == expected


def test_dense_outputs_match_golden_fixture():
    expected = json.loads(GOLDEN_DENSE.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(golden_dense())) == expected


@pytest.mark.parametrize("dense_min_arms, record, path", [
    (1, golden_builtins, GOLDEN), (10**9, golden_dense, GOLDEN_DENSE),
], ids=["builtins-dense", "dense-size-reference"])
def test_the_other_path_gives_the_same_output(dense_min_arms, record, path, monkeypatch):
    # the builtins through dense sessions, and the dense-size instances
    # through the reference path, reproduce their fixtures; the session and
    # the judge both read the table's one flag
    monkeypatch.setattr(sampling, "DENSE_MIN_ARMS", dense_min_arms)
    assert json.loads(json.dumps(record())) == json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for path, record in ((GOLDEN, golden_builtins), (GOLDEN_DENSE, golden_dense)):
        path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
