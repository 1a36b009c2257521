"""Problem instances: a matroid plus arm distributions, with file round-trip.

The on-disk form is JSON with a versioned schema that keeps the arms as
columns: a ``means`` column, a ``kinds`` list only when some arm is not
Bernoulli, and a ``supports`` list (``null`` for every arm that is not
scaled) only when some arm is scaled. ``save_instance`` writes a dense table
(``ArmTable.dense``) as version 3, whose ``means`` is one base64 string of
little-endian float64s, so that a large file is read without decoding a
number per arm; a smaller table as version 2, whose ``means`` is a JSON list.
Version 1, one ``[kind, mean]`` or ``[kind, mean, [lo, hi]]`` entry per arm
under ``arms``, is still read. Every version reads into one
``ArmTable.from_columns`` call.
Generators cover the worked four-arm example, uniform-gap hard instances,
random graphic instances and large random uniform instances.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ValidationError, integer, real, seed_integer
from .matroids import (
    ElementSet,
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    _reading,
    gaps,
    greedy_max_basis,
)
from .sampling import SCALED, ArmTable, SamplingSession, trial_seed


def _seeded_rng(seed) -> np.random.Generator:
    """A generator's stream; a seed that is not a non-negative integer is a ``ValidationError``."""
    return np.random.default_rng(seed_integer(seed, ValidationError))


def matroid_from_config(cfg: dict) -> Matroid:
    """The matroid that ``cfg`` describes; its constructor checks every value."""
    with _reading("matroid"):
        family = cfg.get("family")
        if family == "uniform":
            return UniformMatroid(cfg["n"], cfg["k"])
        if family == "partition":
            return PartitionMatroid([(g["members"], g["capacity"]) for g in cfg["groups"]])
        if family == "laminar":
            return LaminarMatroid(cfg["n"], [(s["members"], s["capacity"]) for s in cfg["sets"]])
        if family == "graphic":
            return GraphicMatroid(cfg["num_vertices"], cfg["edges"])
        if family == "transversal":
            return TransversalMatroid(cfg["n"], cfg["workers"])
    raise ValidationError(f"unknown matroid family {family!r}")


# Partition's group members are the deepest container of any family's config.
_CONFIG_DEPTH = 3
_SCALARS = frozenset({int, float, str, bool, type(None)})  # kept without a call


def _listed(value, where: str, depth: int = 0):
    """``value`` with each tuple made a list, the form in which a saved config
    loads back. A set, a generator or any other iterable but a list, a tuple,
    a dict or a string is a ``ValidationError`` that names ``where``. Values
    deeper than any family keeps a container are left for its constructor."""
    if depth > _CONFIG_DEPTH:
        return value
    if isinstance(value, dict):
        return {key: item if type(item) in _SCALARS else _listed(item, f"{where}.{key}", depth + 1)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS else _listed(item, where, depth + 1)
                for item in value]
    if isinstance(value, str) or not isinstance(value, Iterable):
        return value
    raise ValidationError(f"a {type(value).__name__} at {where}: "
                          "a matroid config keeps its containers as lists")


def _arms_from_entries(cfg: dict) -> ArmTable:
    """Version 1: ``[kind, mean]`` and ``[kind, mean, [lo, hi]]`` entries, read as columns."""
    if "means" in cfg:
        raise ValidationError('a version-1 file keeps its arms as "arms" entries, not columns')
    entries = cfg["arms"]
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
    return ArmTable.from_columns(None, means)


def _encoded_means(means) -> str:
    """Version 3's ``means``: base64 of the means as little-endian float64s."""
    return base64.b64encode(np.asarray(means, dtype="<f8").tobytes()).decode("ascii")


def _decoded_means(text) -> np.ndarray:
    """Version 3's ``means`` read back; anything but strict base64 of whole float64s is refused."""
    if not isinstance(text, str):
        raise ValidationError(
            f"version-3 means must be a base64 string, not {type(text).__name__}")
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), "<f8")
    except ValueError as exc:  # not strict base64, not ASCII, or not whole float64s
        raise ValidationError(f"version-3 means are not base64 of float64s: {exc}") from None


def _arms_from_columns(cfg: dict) -> ArmTable:
    """Versions 2 and 3: a ``means`` column, with optional ``kinds`` and ``supports`` beside it.

    Version 2's means are a JSON list, version 3's one base64 string; either
    goes to ``from_columns``, which checks every mean and each column's length.
    """
    version = cfg["schema_version"]
    if "arms" in cfg:
        raise ValidationError(
            f'a version-{version} file keeps its arms as columns, not "arms" entries')
    means = cfg["means"]
    if version == 3:
        means = _decoded_means(means)
    elif not isinstance(means, list):
        raise ValidationError(f"means must be a list, not {type(means).__name__}")
    columns = {name: cfg[name] for name in ("kinds", "supports") if name in cfg}
    for name, column in columns.items():
        if not isinstance(column, list):
            raise ValidationError(f"{name} must be a list, not {type(column).__name__}")
    return ArmTable.from_columns(columns.get("kinds"), means, columns.get("supports"))


_ARM_READERS = {1: _arms_from_entries, 2: _arms_from_columns, 3: _arms_from_columns}


@dataclass(frozen=True)
class Instance:
    """A named matroid over stochastic arms; true means live here, not in sessions.

    The judge's optimum is computed once per instance, on first use, and a
    pickled instance carries it to the worker that receives it.
    """

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

    @property
    def true_weights(self) -> np.ndarray | tuple[float, ...]:
        """The true means as the judge reads them: the table's own float array on
        a dense table, which greedy and the judge read in vector form; the tuple
        on a smaller one."""
        return self.arms.mean_array if self.arms.dense else self.arms.means

    @cached_property
    def optimum(self) -> ElementSet:
        """The greedy maximum-weight basis over the true means."""
        return greedy_max_basis(self.matroid, self.true_weights)

    def gap_floor_check(self) -> tuple[bool, float]:
        """Whether the arms' gaps (:func:`.matroids.gaps`) hold the declared
        ``gap_floor``, up to a rounding tolerance, and their minimum: +inf on
        an empty ground, where any floor holds."""
        least = min(gaps(self.matroid, self.true_means).values(), default=math.inf)
        return least >= self.gap_floor - 1e-9, least

    def trial_session(self, master_seed: int, trial_index: int,
                      max_pulls: int | None = None) -> SamplingSession:
        return SamplingSession(
            self.arms, trial_seed(master_seed, trial_index), max_pulls=max_pulls
        )

    def to_config(self) -> dict:
        """The file form: version 3 for a dense table, version 2 for a smaller one."""
        dense = self.arms.dense
        cfg = {
            "schema_version": 3 if dense else 2,
            "name": self.name,
            "matroid": self.matroid_config,
            "means": _encoded_means(self.arms.mean_array) if dense else list(self.arms.means),
        }
        if not self.arms.all_bernoulli:
            cfg["kinds"] = list(self.arms.kinds)
            if SCALED in self.arms.kinds:
                cfg["supports"] = [None if support is None else list(support)
                                   for support in self.arms.supports]
        if self.notes:
            cfg["notes"] = self.notes
        if self.gap_floor is not None:
            cfg["gap_floor"] = self.gap_floor
        if self.allow_ties:
            cfg["allow_ties"] = True
        return cfg


def verify_instance(instance: Instance) -> list[tuple[str, bool, str]]:
    """The rules that a loaded instance holds, as (check, ok, detail) rows:
    ``no_loops``, ``distinct_means`` (ties pass under ``allow_ties``) and, when
    one is declared, ``gap_floor``. They come from the kernels and enumerate
    nothing, so they run at every size."""
    loops = instance.matroid.loops()
    means = instance.true_means
    rows = [("no_loops", not loops, f"loops={sorted(loops)}" if loops else ""),
            ("distinct_means", len(set(means)) == len(means) or instance.allow_ties, "")]
    if instance.gap_floor is not None:
        holds, least = instance.gap_floor_check()
        rows.append(("gap_floor", holds, f"min gap {least}"))
    return rows


def make_instance(
    name: str,
    matroid_config: dict,
    arms,
    notes: str = "",
    gap_floor: float | None = None,
    allow_ties: bool = False,
) -> Instance:
    """An instance over ``arms`` (an :class:`ArmTable`, or ``Arm`` records); a
    ``gap_floor`` is a finite real number, not a bool, and is kept as a float.
    ``matroid_config`` is kept with its tuples as lists, so that it saves and
    loads back unchanged; a set or a generator in it is refused (``_listed``)."""
    if not (isinstance(name, str) and isinstance(notes, str)):
        raise ValidationError(f"name and notes must be strings; got {name!r} and {notes!r}")
    if type(allow_ties) is not bool:
        raise ValidationError(f"allow_ties must be true or false, not {allow_ties!r}")
    if gap_floor is not None:
        gap_floor = real(gap_floor, "gap_floor", ValidationError, "finite")
    matroid_config = _listed(matroid_config, "matroid")
    matroid = matroid_from_config(matroid_config)
    if not isinstance(arms, ArmTable):
        arms = ArmTable.from_arms(arms)
    if len(arms) != matroid.size:
        raise ValidationError(
            f"{len(arms)} arms for a matroid over {matroid.size} elements"
        )
    ends = matroid.ends  # of distinct integers, as many as the arms
    if ends is not None and ends != (0, len(arms) - 1):
        raise ValidationError(f"the matroid's elements must be the arm ids 0..{len(arms) - 1}; "
                              f"got {ends[0]}..{ends[1]}")
    means = np.sort(arms.mean_array)  # which holds no NaN
    if len(means) and not 0.0 < means[0] <= means[-1] < 1.0:
        mu = means[0] if means[0] <= 0.0 else means[-1]
        raise ValidationError(f"instance means must lie in (0, 1); got {mu}")
    tied = np.count_nonzero(means[1:] == means[:-1])
    if tied and not allow_ties:
        raise ValidationError("instance means must be pairwise distinct")
    if tied and gap_floor is not None:
        raise ValidationError("a gap_floor needs pairwise distinct means; "
                              "with allow_ties and tied means, declare none")
    loops = matroid.loops()
    if loops:
        raise ValidationError(f"instance matroid has loops: {sorted(loops)}")
    inst = Instance(name, matroid, arms, matroid_config, notes, gap_floor, allow_ties)
    if gap_floor is not None:
        holds, least = inst.gap_floor_check()
        if not holds:
            raise ValidationError(
                f"declared gap floor {gap_floor} but actual minimum gap is {least}"
            )
    return inst


def instance_from_config(cfg: dict) -> Instance:
    with _reading("instance"):
        version = cfg.get("schema_version")
        read_arms = _ARM_READERS.get(version) if type(version) is int else None
        if read_arms is None:
            raise ValidationError(f"unsupported schema_version {version!r}")
        matroid_config = cfg["matroid"]
    with _reading("arms"):
        arms = read_arms(cfg)
    return make_instance(
        name=cfg.get("name", "unnamed"),
        matroid_config=matroid_config,
        arms=arms,
        notes=cfg.get("notes", ""),
        gap_floor=cfg.get("gap_floor"),
        allow_ties=cfg.get("allow_ties", False),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            cfg = json.load(handle)
        except ValueError as exc:  # not UTF-8 (UnicodeDecodeError), or not JSON
            raise ValidationError(f"instance file is not UTF-8 JSON: {exc}") from None
        except RecursionError:  # json decodes nested arrays and objects recursively
            raise ValidationError("instance file nests too deeply to decode") from None
    return instance_from_config(cfg)


def _plain(value):
    """A numpy scalar, such as an integer a constructor took, as a Python one for ``json``."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` (see :meth:`Instance.to_config`) on one line, encoded in
    full first: a failed encoding writes nothing. Without an indent ``json``
    uses its C encoder."""
    with _reading("instance"):
        text = json.dumps(inst.to_config(), sort_keys=True, default=_plain) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def resolve_instance(ref: str) -> Instance:
    """Accept ``builtin:NAME`` or a path to an instance file."""
    if ref.startswith("builtin:"):
        return builtin(ref.split(":", 1)[1])
    return load_instance(Path(ref))


# ---------------------------------------------------------------------------
# Generators


def uniform_gap_instance(n: int, k: int, eps: float, seed: int = 0) -> Instance:
    """Top-k instance where every arm's gap is eps up to a small jitter."""
    n, k = integer(n, "n", ValidationError), integer(k, "k", ValidationError)
    if not 0 < k < n:
        raise ValidationError("need 0 < k < n")
    eps = real(eps, "eps", ValidationError, "> 0")
    eta = eps / (20.0 * n)
    top = [0.5 + eps / 2.0 + i * eta for i in range(1, k + 1)]
    bottom = [0.5 - eps / 2.0 - j * eta for j in range(1, n - k + 1)]
    return _shuffled_uniform(f"uniform-gap-n{n}-k{k}", k, top + bottom, seed,
                             notes=f"all gaps within ~10% of {eps}",
                             gap_floor=0.9 * eps)


def _shuffled_uniform(name: str, k: int, means: list[float], seed, notes: str,
                      gap_floor: float | None = None) -> Instance:
    """A uniform instance over ``len(means)`` arms, which take ``means`` in a
    seeded random order; ``make_instance`` checks that they lie in (0, 1)."""
    n = len(means)
    assigned = np.empty(n)
    assigned[_seeded_rng(seed).permutation(n)] = means
    return make_instance(name, {"family": "uniform", "n": n, "k": k}, _bernoulli_arms(assigned),
                         notes=notes, gap_floor=gap_floor)


def random_means(rng: np.random.Generator, n: int):
    """Distinct means in [0.05, 0.95), comfortably inside (0, 1), as one float64 array."""
    while True:
        means = 0.05 + (0.95 - 0.05) * rng.random(n)
        if len(np.unique(means)) == n:
            return means


def random_graphic_instance(num_vertices: int, num_edges: int, seed: int = 0) -> Instance:
    num_vertices = integer(num_vertices, "num_vertices", ValidationError)
    num_edges = integer(num_edges, "num_edges", ValidationError, 0)
    if num_edges > 0 and num_vertices < 2:
        raise ValidationError("need two vertices for any edge")
    rng = _seeded_rng(seed)
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
    n, k = integer(n, "n", ValidationError), integer(k, "k", ValidationError)
    rng = _seeded_rng(seed)
    return make_instance(
        name=f"big-uniform-n{n}-k{k}",
        matroid_config={"family": "uniform", "n": n, "k": k},
        arms=_bernoulli_arms(random_means(rng, n)),
    )


# ---------------------------------------------------------------------------
# Builtins


# Each builtin: (matroid config, the means of its Bernoulli arms, notes, gap floor).
BUILTINS = {
    "prop1": ({"family": "uniform", "n": 4, "k": 2}, (0.91, 0.9, 0.89, 0.875),
              "four-arm pick-2 example separating the optimality notions", None),
    "ladder10": ({"family": "uniform", "n": 10, "k": 3},
                 (0.85, 0.75, 0.65, 0.6, 0.55, 0.5, 0.45, 0.35, 0.25, 0.1),
                 "ten arms, pick 3, minimum gap 0.05", 0.05),
    "graphic_k4": ({"family": "graphic", "num_vertices": 4,
                    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
                   (0.9, 0.82, 0.74, 0.66, 0.58, 0.5),
                   "complete graph on 4 vertices; bases are spanning trees", None),
    "transversal5": ({"family": "transversal", "n": 5, "workers": [[0, 1, 2], [1, 3], [2, 4]]},
                     (0.9, 0.85, 0.8, 0.7, 0.6), "five tasks, three workers", None),
    "laminar6": ({"family": "laminar", "n": 6,
                  "sets": [{"members": [0, 1, 2, 3, 4, 5], "capacity": 3},
                           {"members": [0, 1, 2], "capacity": 2},
                           {"members": [0, 1], "capacity": 1}]},
                 (0.95, 0.9, 0.85, 0.8, 0.75, 0.7), "nested capacities over six arms", None),
    "partition6": ({"family": "partition",
                    "groups": [{"members": [0, 1, 2], "capacity": 1},
                               {"members": [3, 4, 5], "capacity": 2}]},
                   (0.9, 0.8, 0.7, 0.6, 0.5, 0.4), "two groups with capacities 1 and 2", None),
}


def builtin(name: str) -> Instance:
    """The builtin ``name``, built anew by ``make_instance``, which copies its config."""
    try:
        matroid_config, means, notes, gap_floor = BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin instance {name!r}; available: {sorted(BUILTINS)}"
        ) from None
    return make_instance(name, matroid_config, _bernoulli_arms(means), notes, gap_floor)
