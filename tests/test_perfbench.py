"""The benchmark's tooling still runs against the package: the span tracer
resolves every name it wraps, and one serial pass of each workload at the
stored seed reproduces the stored output digest."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from matroid_bandits import harness, instances

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_tracer_instruments_every_target_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    holders = [owner for owner, *_ in tracer.TARGETS]
    holders += [mod for name, mod in sys.modules.items() if name.startswith("matroid_bandits")]
    before = [dict(vars(holder)) for holder in holders]
    undo = tracer.instrument(tracer.Tracer())  # KeyError if a target name is gone
    try:
        wrapped = {(id(holder), key) for holder, key, _ in undo}
        assert all((id(owner), attr) in wrapped for owner, attr, *_ in tracer.TARGETS)
    finally:
        tracer.uninstrument(undo)
    assert [dict(vars(holder)) for holder in holders] == before


def test_one_serial_pass_of_each_workload_matches_the_stored_digest(tmp_path, monkeypatch):
    # FOUND: bench.py imports scipy only to print its version, although the
    # package no longer depends on it; until that import is optional the
    # benchmark, and so this test, needs scipy installed.
    pytest.importorskip("scipy")

    def load(name):
        # registered under the bare name by which bench.py imports its siblings
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    load("tracer")
    workloads = load("workloads")
    bench = load("bench")
    stored = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    seed = stored["seed"]
    profile = harness.profile_by_name(workloads.CONSTANTS)
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        batches = workload.make_batches(seed, workdir)
        configs = [harness.RunConfig(instances.resolve_instance(b.ref), b.algo, workloads.EPS,
                                     workloads.DELTA, b.trials, seed, profile)
                   for b in batches]
        done = bench.sweep(configs, workdir)
        assert bench.digest(done.results) == stored["digests"][name], name
