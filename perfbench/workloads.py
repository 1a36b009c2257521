"""The benchmark's workloads: seeded inputs and the trial batches run on them.

Every workload uses eps = delta = 0.1 and the ``desk`` constants, and feeds
its seed both to the instance generators and to ``RunConfig.seed``. Inputs
are generated and saved to instance files before any timing starts, so the
measured code receives only what ``matroid-bandits run --instance`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from matroid_bandits.harness import ALGORITHMS
from matroid_bandits.instances import BUILTINS, big_uniform_instance, save_instance

EPS = 0.1
DELTA = 0.1
CONSTANTS = "desk"


@dataclass(frozen=True)
class Batch:
    """One ``run_trials`` call: an instance reference, an algorithm, a trial count."""

    ref: str
    algo: str
    trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    make_batches: Callable[[int, Path], list[Batch]]


def builtin_sweep(seed: int, workdir: Path) -> list[Batch]:
    """Every builtin x every algorithm, the shape of scripts/run_success_rates.py."""
    return [
        Batch(f"builtin:{name}", algo, 50)
        for name in sorted(BUILTINS)
        for algo in ALGORITHMS
    ]


def uniform_pac(seed: int, workdir: Path) -> list[Batch]:
    """pac on 5000 arms, k=20, plus a smaller avgpac batch on the same arms.

    Every builtin has n/k <= 10, where avgpac falls back to naive_two; here
    n/k = 250, so avgpac's elimination rounds run too.
    """
    path = workdir / "uniform.json"
    save_instance(big_uniform_instance(5000, 20, seed), path)
    return [Batch(str(path), "pac", 40), Batch(str(path), "avgpac", 10)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("builtin-sweep", 2, builtin_sweep),
        Workload("uniform-pac", 2, uniform_pac),
    )
}
