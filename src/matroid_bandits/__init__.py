"""Pure-exploration bandits under matroid constraints.

Library surface: matroid oracles and views, a sample-accounted stochastic
environment, PAC / exact / average-eps identification algorithms, brute-force
verification oracles, and a seeded Monte Carlo harness with a CLI.
"""

from .avg import avg_pac_recur_elim, elimination, naive_two
from .exact import exact_exp_gap, round_schedule
from .instances import (
    Instance,
    builtin,
    instance_from_config,
    load_instance,
    make_instance,
    resolve_instance,
    save_instance,
)
from .matroids import (
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    greedy_max_basis,
    is_eps_optimal,
    is_optimal_basis,
)
from .pac import DESK, PAPER, PROFILES, ConstantsProfile, PacResult, naive_one, pac_sample_prune
from .sampling import Arm, SamplingSession, bernoulli, point, sample_size, scaled

__all__ = [
    "Arm",
    "ConstantsProfile",
    "DESK",
    "GraphicMatroid",
    "Instance",
    "LaminarMatroid",
    "Matroid",
    "PAPER",
    "PROFILES",
    "PacResult",
    "PartitionMatroid",
    "SamplingSession",
    "TransversalMatroid",
    "UniformMatroid",
    "avg_pac_recur_elim",
    "bernoulli",
    "builtin",
    "elimination",
    "exact_exp_gap",
    "greedy_max_basis",
    "instance_from_config",
    "is_eps_optimal",
    "is_optimal_basis",
    "load_instance",
    "make_instance",
    "naive_one",
    "naive_two",
    "pac_sample_prune",
    "point",
    "resolve_instance",
    "round_schedule",
    "sample_size",
    "save_instance",
    "scaled",
]
