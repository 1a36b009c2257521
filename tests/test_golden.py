"""Fixed-seed golden outputs for every builtin instance under every algorithm.

``tests/data/golden_builtins.json`` pins, per trial, the returned basis, the
total and per-arm pulls, the success flags, the error and the ``--trace``
records. A change that keeps fixed-seed behaviour must leave it identical.
Regenerate it only on purpose, from the root of the repository:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from matroid_bandits.harness import ALGORITHMS, RunConfig, run_trials
from matroid_bandits.instances import BUILTINS, builtin
from matroid_bandits.pac import DESK

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_builtins.json"


def golden_builtins() -> dict:
    batches = {}
    for name in sorted(BUILTINS):
        inst = builtin(name)
        for algo in ALGORITHMS:
            config = RunConfig(inst, algo, 0.1, 0.1, 3, 0, DESK, jobs=1, trace=True)
            batches[f"{name}/{algo}"] = [
                {
                    "basis": list(rep.basis),
                    "total_samples": rep.total_samples,
                    "per_arm": list(rep.per_arm),
                    "flags": rep.flags,
                    "error": rep.error,
                    "trace": [record.to_record() for record in rep.trace],
                }
                for rep in run_trials(config)["reports"]
            ]
    return batches


def test_builtin_outputs_match_golden_fixture():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(golden_builtins())) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_builtins(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
