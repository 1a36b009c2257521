"""Shared random-instance samplers for the property suites."""

from __future__ import annotations

import numpy as np

from matroid_bandits.instances import BUILTINS, builtin
from matroid_bandits.matroids import (
    GraphicMatroid,
    LaminarMatroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
)

FAMILY_NAMES = ("uniform", "partition", "laminar", "graphic", "transversal")


def random_matroid(rng: np.random.Generator, family: str, n: int, allow_loops: bool = False):
    if family == "uniform":
        return UniformMatroid(n, int(rng.integers(1, n + 1)))
    if family == "partition":
        cuts = sorted({0, n, *map(int, rng.integers(1, n, size=max(1, n // 3)))})
        groups = [
            (list(range(lo, hi)), int(rng.integers(1, hi - lo + 1)))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        return PartitionMatroid(groups)
    if family == "laminar":
        sets = [(list(range(n)), int(rng.integers(1, n + 1)))]
        cuts = sorted({0, n, *map(int, rng.integers(1, n, size=max(1, n // 3)))})
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo >= 2:
                sets.append((list(range(lo, hi)), int(rng.integers(1, hi - lo + 1))))
        return LaminarMatroid(n, sets)
    if family == "graphic":
        nv = int(rng.integers(2, max(3, n)))
        edges = []
        while len(edges) < n:
            u, v = map(int, rng.integers(0, nv, size=2))
            if u != v or allow_loops:
                edges.append((u, v))
        return GraphicMatroid(nv, edges)
    if family == "transversal":
        nw = int(rng.integers(1, n + 1))
        workers = [
            sorted(set(map(int, rng.integers(0, n, size=int(rng.integers(0, n + 1))))))
            for _ in range(nw)
        ]
        m = TransversalMatroid(n, workers)
        if not allow_loops:
            uncovered = [e for e in range(n) if m.rank({e}) == 0]
            if uncovered:
                extra = list(uncovered)
                return TransversalMatroid(n, list(workers) + [extra[i : i + 1] for i in range(len(extra))])
        return m
    raise ValueError(family)


def random_distinct_weights(rng: np.random.Generator, n: int) -> list[float]:
    while True:
        w = rng.random(n)
        if len(set(w.tolist())) == n:
            return [float(x) for x in w]


def builtin_instances():
    """The six builtins, each built anew, in name order."""
    return [builtin(name) for name in sorted(BUILTINS)]


def loop_free(m) -> bool:
    return all(m.rank({e}) > 0 for e in m.ground)
