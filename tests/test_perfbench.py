"""The benchmark's span tracer still resolves every name it wraps."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
