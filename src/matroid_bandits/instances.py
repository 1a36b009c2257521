"""Problem instances: a matroid plus arm distributions, with file round-trip.

The on-disk form is JSON with a versioned schema. Generators cover the
worked four-arm example, uniform-gap hard instances, geometric gap ladders,
random graphic instances and large random uniform instances.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .matroids import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
)
from .sampling import BERNOULLI, POINT, ArmTable, SamplingSession, trial_seed

SCHEMA_VERSION = 1


@contextmanager
def _reading(what: str):
    """Raise a missing or malformed field of ``what`` as a ``ValidationError``."""
    try:
        yield
    except ValidationError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__} {exc}") from None


def matroid_from_config(cfg: dict) -> Matroid:
    with _reading("matroid"):
        family = cfg.get("family")
        if family == "uniform":
            return UniformMatroid(int(cfg["n"]), int(cfg["k"]))
        if family == "partition":
            groups = [(g["members"], int(g["capacity"])) for g in cfg["groups"]]
            return PartitionMatroid(groups)
        if family == "laminar":
            sets = [(s["members"], int(s["capacity"])) for s in cfg["sets"]]
            return LaminarMatroid(int(cfg["n"]), sets)
        if family == "graphic":
            edges = [tuple(e) for e in cfg["edges"]]
            return GraphicMatroid(int(cfg["num_vertices"]), edges)
        if family == "transversal":
            return TransversalMatroid(int(cfg["n"]), cfg["workers"])
    raise ValidationError(f"unknown matroid family {family!r}")


def _arms_from_entries(entries) -> ArmTable:
    """A file's ``[kind, mean]`` and ``[kind, mean, [lo, hi]]`` entries, read as columns."""
    if not isinstance(entries, (list, tuple)):
        raise ValidationError(f"arms must be a list, not {type(entries).__name__}")
    lengths = set(map(len, entries))
    if not lengths <= {2, 3}:
        raise ValidationError("an arm entry is [kind, mean] or [kind, mean, [lo, hi]]")
    supports = None
    if 3 in lengths:
        supports = [entry[2] if len(entry) == 3 else None for entry in entries]
    return ArmTable.from_columns(list(map(itemgetter(0), entries)),
                                 list(map(itemgetter(1), entries)), supports)


def _bernoulli_arms(means) -> ArmTable:
    return ArmTable.from_columns((BERNOULLI,) * len(means), means)


def _arm_entries(arms: ArmTable) -> list:
    return [
        [kind, mean] if support is None else [kind, mean, list(support)]
        for kind, mean, support in zip(arms.kinds, arms.means, arms.supports)
    ]


@dataclass(frozen=True)
class Instance:
    """A named matroid over stochastic arms; true means live here, not in sessions."""

    name: str
    matroid: Matroid
    arms: ArmTable
    matroid_config: dict
    notes: str = ""
    gap_floor: float | None = None
    allow_ties: bool = False

    @property
    def size(self) -> int:
        return len(self.arms)

    @property
    def true_means(self) -> tuple[float, ...]:
        return self.arms.means

    def trial_session(self, master_seed: int, trial_index: int,
                      max_pulls: int | None = None) -> SamplingSession:
        return SamplingSession(
            self.arms, trial_seed(master_seed, trial_index), max_pulls=max_pulls
        )

    def with_point_mass_arms(self) -> "Instance":
        means = self.arms.means
        return replace(self, name=f"{self.name}-pointmass",
                       arms=ArmTable.from_columns((POINT,) * len(means), means))

    def to_config(self) -> dict:
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "matroid": self.matroid_config,
            "arms": _arm_entries(self.arms),
        }
        if self.notes:
            cfg["notes"] = self.notes
        if self.gap_floor is not None:
            cfg["gap_floor"] = self.gap_floor
        if self.allow_ties:
            cfg["allow_ties"] = True
        return cfg


def make_instance(
    name: str,
    matroid_config: dict,
    arms,
    notes: str = "",
    gap_floor: float | None = None,
    allow_ties: bool = False,
) -> Instance:
    """An instance over ``arms``: an :class:`ArmTable`, or ``Arm`` records."""
    matroid = matroid_from_config(matroid_config)
    if not isinstance(arms, ArmTable):
        arms = ArmTable.from_arms(arms)
    if len(arms) != matroid.size:
        raise ValidationError(
            f"{len(arms)} arms for a matroid over {matroid.size} elements"
        )
    # The table has no NaN mean, and an all-Bernoulli one has its means as q.
    means = np.sort(arms.q if arms.all_bernoulli else np.array(arms.means))
    if len(means) and not 0.0 < means[0] <= means[-1] < 1.0:
        mu = means[0] if means[0] <= 0.0 else means[-1]
        raise ValidationError(f"instance means must lie in (0, 1); got {mu}")
    if not allow_ties and np.count_nonzero(means[1:] == means[:-1]):
        raise ValidationError("instance means must be pairwise distinct")
    loops = matroid.loops()
    if loops:
        raise ValidationError(f"instance matroid has loops: {sorted(loops)}")
    inst = Instance(name, matroid, arms, dict(matroid_config), notes, gap_floor, allow_ties)
    if gap_floor is not None:
        _check_gap_floor(inst)
    return inst


def _check_gap_floor(inst: Instance) -> None:
    from .oracle import gap_profile  # deferred: oracle imports matroids too

    profile = gap_profile(inst.matroid, inst.true_means)
    floor = profile.min_gap()
    if floor < inst.gap_floor - 1e-9:
        raise ValidationError(
            f"declared gap floor {inst.gap_floor} but actual minimum gap is {floor}"
        )


def instance_from_config(cfg: dict) -> Instance:
    with _reading("instance"):
        version = cfg.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {version!r}")
        matroid_config = cfg["matroid"]
    with _reading("gap_floor"):
        gap_floor = None if cfg.get("gap_floor") is None else float(cfg["gap_floor"])
    with _reading("arms"):
        arms = _arms_from_entries(cfg["arms"])
    return make_instance(
        name=cfg.get("name", "unnamed"),
        matroid_config=matroid_config,
        arms=arms,
        notes=cfg.get("notes", ""),
        gap_floor=gap_floor,
        allow_ties=bool(cfg.get("allow_ties", False)),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_config(json.load(handle))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inst.to_config(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def resolve_instance(ref: str) -> Instance:
    """Accept ``builtin:NAME`` or a path to an instance file."""
    if ref.startswith("builtin:"):
        return builtin(ref.split(":", 1)[1])
    return load_instance(Path(ref))


# ---------------------------------------------------------------------------
# Generators


def uniform_gap_instance(n: int, k: int, eps: float, seed: int = 0) -> Instance:
    """Top-k instance where every arm's gap is eps up to a small jitter."""
    if not 0 < k < n:
        raise ValidationError("need 0 < k < n")
    if not eps > 0:
        raise ValidationError(f"eps must be > 0; got {eps}")
    eta = eps / (20.0 * n)
    top = [0.5 + eps / 2.0 + i * eta for i in range(1, k + 1)]
    bottom = [0.5 - eps / 2.0 - j * eta for j in range(1, n - k + 1)]
    means = top + bottom
    if min(means) <= 0.0 or max(means) >= 1.0:
        raise ValidationError("eps too large for means to stay inside (0, 1)")
    rng = np.random.default_rng(seed)
    assigned = np.empty(n)
    assigned[rng.permutation(n)] = means
    gap_floor = 0.9 * eps if n <= 20 else None
    return make_instance(
        name=f"uniform-gap-n{n}-k{k}",
        matroid_config={"family": "uniform", "n": n, "k": k},
        arms=_bernoulli_arms(assigned),
        notes=f"all gaps within ~10% of {eps}",
        gap_floor=gap_floor,
    )


def geometric_ladder_instance(n: int, k: int, min_gap: float, seed: int = 0) -> Instance:
    """Gaps grow geometrically from ``min_gap``, cycling to stay inside (0, 1)."""
    if not 0 < k < n:
        raise ValidationError("need 0 < k < n")
    if not 0 < min_gap < 1:
        raise ValidationError(f"min_gap must lie in (0, 1); got {min_gap}")
    strata = max(1, int(math.floor(math.log2(0.8 / min_gap))))
    eta = min_gap / (64.0 * n)
    means = []
    for i in range(k):
        off = min_gap * 2.0 ** (i % strata)
        means.append(0.5 + off - min_gap / 2.0 + i * eta)
    for j in range(n - k):
        off = min_gap * 2.0 ** (j % strata)
        means.append(0.5 - off + min_gap / 2.0 - j * eta)
    if min(means) <= 0.0 or max(means) >= 1.0:
        raise ValidationError("min_gap too large for this ladder")
    rng = np.random.default_rng(seed)
    assigned = np.empty(n)
    assigned[rng.permutation(n)] = means
    return make_instance(
        name=f"ladder-n{n}-k{k}",
        matroid_config={"family": "uniform", "n": n, "k": k},
        arms=_bernoulli_arms(assigned),
        notes=f"geometric gap ladder, minimum gap ~{min_gap}",
    )


def random_means(rng: np.random.Generator, n: int, lo: float = 0.05, hi: float = 0.95):
    """Distinct means, comfortably inside (0, 1), as one float64 array."""
    while True:
        means = lo + (hi - lo) * rng.random(n)
        if len(np.unique(means)) == n:
            return means


def random_graphic_instance(num_vertices: int, num_edges: int, seed: int = 0) -> Instance:
    if num_edges < 0 or (num_edges > 0 and num_vertices < 2):
        raise ValidationError("need num_edges >= 0, and two vertices for any edge")
    rng = np.random.default_rng(seed)
    edges = []
    # spanning path first so no vertex is stranded, then random extras
    for v in range(1, min(num_vertices, num_edges + 1)):
        edges.append((v - 1, v))
    while len(edges) < num_edges:
        u, v = rng.integers(0, num_vertices, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return make_instance(
        name=f"graphic-v{num_vertices}-e{num_edges}",
        matroid_config={"family": "graphic", "num_vertices": num_vertices,
                        "edges": [list(e) for e in edges]},
        arms=_bernoulli_arms(random_means(rng, num_edges)),
    )


def big_uniform_instance(n: int, k: int, seed: int = 0) -> Instance:
    rng = np.random.default_rng(seed)
    return make_instance(
        name=f"big-uniform-n{n}-k{k}",
        matroid_config={"family": "uniform", "n": n, "k": k},
        arms=_bernoulli_arms(random_means(rng, n)),
    )


# ---------------------------------------------------------------------------
# Builtins


def _builtin_prop1() -> Instance:
    return make_instance(
        name="prop1",
        matroid_config={"family": "uniform", "n": 4, "k": 2},
        arms=_bernoulli_arms((0.91, 0.9, 0.89, 0.875)),
        notes="four-arm pick-2 example separating the optimality notions",
    )


def _builtin_ladder10() -> Instance:
    means = (0.85, 0.75, 0.65, 0.6, 0.55, 0.5, 0.45, 0.35, 0.25, 0.1)
    return make_instance(
        name="ladder10",
        matroid_config={"family": "uniform", "n": 10, "k": 3},
        arms=_bernoulli_arms(means),
        notes="ten arms, pick 3, minimum gap 0.05",
        gap_floor=0.05,
    )


def _builtin_graphic_k4() -> Instance:
    edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    return make_instance(
        name="graphic_k4",
        matroid_config={"family": "graphic", "num_vertices": 4, "edges": edges},
        arms=_bernoulli_arms((0.9, 0.82, 0.74, 0.66, 0.58, 0.5)),
        notes="complete graph on 4 vertices; bases are spanning trees",
    )


def _builtin_transversal5() -> Instance:
    return make_instance(
        name="transversal5",
        matroid_config={"family": "transversal", "n": 5,
                        "workers": [[0, 1, 2], [1, 3], [2, 4]]},
        arms=_bernoulli_arms((0.9, 0.85, 0.8, 0.7, 0.6)),
        notes="five tasks, three workers",
    )


def _builtin_laminar6() -> Instance:
    sets = [
        {"members": [0, 1, 2, 3, 4, 5], "capacity": 3},
        {"members": [0, 1, 2], "capacity": 2},
        {"members": [0, 1], "capacity": 1},
    ]
    return make_instance(
        name="laminar6",
        matroid_config={"family": "laminar", "n": 6, "sets": sets},
        arms=_bernoulli_arms((0.95, 0.9, 0.85, 0.8, 0.75, 0.7)),
        notes="nested capacities over six arms",
    )


def _builtin_partition6() -> Instance:
    groups = [
        {"members": [0, 1, 2], "capacity": 1},
        {"members": [3, 4, 5], "capacity": 2},
    ]
    return make_instance(
        name="partition6",
        matroid_config={"family": "partition", "groups": groups},
        arms=_bernoulli_arms((0.9, 0.8, 0.7, 0.6, 0.5, 0.4)),
        notes="two groups with capacities 1 and 2",
    )


BUILTINS = {
    "prop1": _builtin_prop1,
    "ladder10": _builtin_ladder10,
    "graphic_k4": _builtin_graphic_k4,
    "transversal5": _builtin_transversal5,
    "laminar6": _builtin_laminar6,
    "partition6": _builtin_partition6,
}


def builtin(name: str) -> Instance:
    try:
        factory = BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin instance {name!r}; available: {sorted(BUILTINS)}"
        ) from None
    return factory()
