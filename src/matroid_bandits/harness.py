"""Seeded Monte Carlo trial execution, statistics, and serialization.

Success flags are judged from the true means and the returned basis only.
Trials are embarrassingly parallel with per-trial derived seeds, so results
are independent of the worker count. A trial fails only by exhausting a
budget (``BudgetError``); every other error is a bug and aborts the batch.
Parallel batches share one worker pool per process, started by the first
and kept for the next.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .avg import avg_pac_recur_elim, ln_choose, naive_two
from .errors import BudgetError, ConfigError
from .exact import exact_exp_gap
from .instances import Instance
from .matroids import (
    Matroid, avg_within_eps, elementwise_within_eps, greedy_max_basis, is_eps_optimal,
)
from .pac import ConstantsProfile, PROFILES, PacResult, naive_one, pac_sample_prune

ALGORITHMS = ("naive1", "naive2", "pac", "exact", "avgpac")
FLAGS = ("exact", "eps_optimal", "elementwise", "avg")


def run_algorithm(session, matroid: Matroid, algo: str, eps: float, delta: float,
                  profile: ConstantsProfile) -> PacResult:
    if algo == "naive1":
        return naive_one(session, matroid, eps, delta)
    if algo == "naive2":
        return naive_two(session, matroid, eps, delta)
    if algo == "pac":
        return pac_sample_prune(session, matroid, eps, delta, profile)
    if algo == "exact":
        return exact_exp_gap(session, matroid, delta, profile)
    if algo == "avgpac":
        return avg_pac_recur_elim(session, matroid, eps, delta, profile)
    raise ConfigError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")


def success_flags(matroid: Matroid, means, basis, eps: float, opt=None) -> dict[str, bool]:
    """Judge a returned basis against the true means.

    ``opt`` defaults to the greedy optimum; greedy agrees with exhaustive
    search (cross-checked by the oracle test suite) and scales to large
    instances where enumeration cannot.
    """
    if not matroid.is_basis(basis):
        return dict.fromkeys(FLAGS, False)
    if opt is None:
        opt = greedy_max_basis(matroid, means)
    return {
        "exact": frozenset(basis) == opt,
        "eps_optimal": is_eps_optimal(matroid, basis, means, eps),
        "elementwise": elementwise_within_eps(basis, opt, means, eps),
        "avg": avg_within_eps(basis, opt, means, eps),
    }


@dataclass(frozen=True)
class RunConfig:
    instance: Instance
    algo: str
    eps: float
    delta: float
    trials: int
    seed: int
    profile: ConstantsProfile
    jobs: int = 1
    trace: bool = False

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not self.eps > 0:
            raise ConfigError("eps must be > 0 (the exact solver still judges "
                              "eps-optimality flags at this eps)")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class TrialReport:
    index: int
    seed: tuple[int, int]  # (master seed, trial index) fed to the stream
    algo: str
    basis: tuple[int, ...]
    total_samples: int
    per_arm: tuple[int, ...]
    flags: dict[str, bool]
    error: str | None
    wall_time: float
    trace: tuple = field(default_factory=tuple)
    guard: str | None = None  # the BudgetError guard that failed the trial

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "seed": list(self.seed),
            "algo": self.algo,
            "basis": list(self.basis),
            "total_samples": self.total_samples,
            "per_arm_samples": list(self.per_arm),
            "flags": dict(self.flags),
            "error": self.error,
            "wall_time": self.wall_time,
        }


def _run_single_trial(config: RunConfig, index: int, opt) -> TrialReport:
    session = config.instance.trial_session(
        config.seed, index, max_pulls=config.profile.pull_budget
    )
    started = time.perf_counter()
    error = guard = None
    trace: tuple = ()
    basis: tuple[int, ...] = ()
    try:
        result = run_algorithm(
            session, config.instance.matroid, config.algo,
            config.eps, config.delta, config.profile,
        )
        basis = tuple(sorted(result.basis))
        trace = result.transcript if config.trace else ()
        flags = success_flags(
            config.instance.matroid, config.instance.true_means, result.basis, config.eps, opt
        )
    except BudgetError as exc:
        error = f"{type(exc).__name__}: {exc}"
        guard = exc.guard
        flags = dict.fromkeys(FLAGS, False)
    elapsed = time.perf_counter() - started
    return TrialReport(
        index=index,
        seed=(config.seed, index),
        algo=config.algo,
        basis=basis,
        total_samples=session.total_samples,
        per_arm=tuple(session.pull_counts()),
        flags=flags,
        error=error,
        wall_time=elapsed,
        trace=trace,
        guard=guard,
    )


def _run_chunk(config: RunConfig, opt, indices: range) -> list[TrialReport]:
    """The trials of one batch that one worker, or the serial path, runs."""
    return [_run_single_trial(config, index, opt) for index in indices]


# The process's trial workers: (jobs, pool), started by the first parallel
# batch and reused by the next ones that ask for the same ``jobs``.
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != jobs:
            # shut down first, so that no executor thread is alive when the
            # next pool forks its workers
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (jobs, ProcessPoolExecutor(max_workers=jobs))
        return _pool[1]


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool, so that the next parallel batch starts a fresh one."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[1] is pool:
            _pool = None
    pool.shutdown()


def _run_parallel(config: RunConfig, opt) -> list[TrialReport]:
    """One task per worker: the batch and its interleaved share of the indices."""
    jobs = config.jobs
    pool = _worker_pool(jobs)
    try:
        futures = [pool.submit(_run_chunk, config, opt, range(w, config.trials, jobs))
                   for w in range(min(jobs, config.trials))]
        wait(futures)  # the pool is idle again before any error propagates
        return [rep for future in futures for rep in future.result()]
    except BrokenProcessPool:
        _drop_pool(pool)
        raise


def binomial_lcb(successes: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided (Clopper-Pearson) lower confidence bound on a rate.

    The p at which P(Binomial(trials, p) >= successes) = 1 - confidence,
    found by bisection to float resolution. Each tail probability sums the
    shorter binomial tail in log space.
    """
    if trials == 0 or successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    upper = successes > trials - successes  # the upper tail has fewer terms
    terms = range(successes, trials + 1) if upper else range(successes)
    log_coef = [ln_choose(trials, i) for i in terms]

    def at_least_successes(p: float) -> float:
        log_p, log_q = math.log(p), math.log1p(-p)
        tail = math.fsum(math.exp(c + i * log_p + (trials - i) * log_q)
                         for c, i in zip(log_coef, terms))
        return tail if upper else 1.0 - tail

    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if at_least_successes(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return mid


def _quantiles(values: list[int]) -> dict:
    """Exact ``min`` and ``max`` of the Python ints; float ``median`` and ``p90``."""
    if not values:
        return {"min": 0, "median": 0, "p90": 0, "max": 0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "min": min(values),
        "median": float(np.median(arr)),
        "p90": float(np.quantile(arr, 0.9)),
        "max": max(values),
    }


def run_trials(config: RunConfig) -> dict:
    """Execute the trial batch and aggregate. Budget errors count as failures.

    With ``jobs > 1`` each worker of the process's pool receives one task:
    the config, the optimum and every ``jobs``-th trial index. A worker that
    died makes the batch raise ``BrokenProcessPool``; the next parallel
    batch starts a fresh pool.
    """
    opt = greedy_max_basis(config.instance.matroid, config.instance.true_means)
    if config.jobs > 1 and config.trials > 1:
        reports = _run_parallel(config, opt)
    else:
        reports = _run_chunk(config, opt, range(config.trials))
    reports.sort(key=lambda rep: rep.index)
    return summarize(config, reports)


def summarize(config: RunConfig, reports: list[TrialReport]) -> dict:
    trials = len(reports)
    counts = {name: sum(1 for r in reports if r.flags[name]) for name in FLAGS}
    samples = [r.total_samples for r in reports]
    failed = [r for r in reports if r.error is not None]
    per_arm_mean: list[float] = []
    if reports:
        stacked = np.array([r.per_arm for r in reports], dtype=np.float64)
        per_arm_mean = stacked.mean(axis=0).tolist()
    summary = {
        "schema_version": 1,
        "instance": config.instance.name,
        "algo": config.algo,
        "eps": config.eps,
        "delta": config.delta,
        "trials": trials,
        "seed": config.seed,
        "constants": config.profile.name,
        "failures": len(failed),
        "failures_by_guard": dict(sorted(Counter(r.guard for r in failed).items())),
        "success": {
            name: {
                "count": counts[name],
                "rate": counts[name] / trials if trials else None,
                "lcb95": binomial_lcb(counts[name], trials),
            }
            for name in FLAGS
        },
        "samples": _quantiles(samples),
        "per_arm_mean_pulls": per_arm_mean,
        "wall_time_total": math.fsum(r.wall_time for r in reports),
    }
    return {"summary": summary, "reports": reports, "trace": config.trace}


def write_report(result: dict, out_path) -> None:
    """JSON report plus a CSV summary row; a traced run's records go to a sidecar .jsonl.

    The report is one JSON object, ``{"summary": ..., "trials": [...]}``,
    written piece by piece: the summary on the first line, then one trial
    per line, so that no string of the whole document is ever built.
    """
    out_path = Path(out_path)
    summary = result["summary"]
    reports: list[TrialReport] = result["reports"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write('{"summary": ')
        handle.write(json.dumps(summary, sort_keys=True))
        handle.write(',\n"trials": [')
        separator = "\n"
        for rep in reports:
            handle.write(separator)
            handle.write(json.dumps(rep.to_json(), sort_keys=True))
            separator = ",\n"
        handle.write("\n]}\n")

    csv_path = out_path.with_suffix(".csv")
    row = {key: summary[key] for key in (
        "instance", "algo", "eps", "delta", "trials", "seed", "constants", "failures",
    )}
    for name in FLAGS:
        row[f"{name}_rate"] = summary["success"][name]["rate"]
        row[f"{name}_lcb95"] = summary["success"][name]["lcb95"]
    row.update({f"samples_{q}": value for q, value in summary["samples"].items()})
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)

    if result["trace"]:
        trace_path = out_path.with_suffix(".trace.jsonl")
        with open(trace_path, "w", encoding="utf-8") as handle:
            for rep in reports:
                for record in rep.trace:
                    line = {"trial": rep.index, **record.to_record()}
                    handle.write(json.dumps(line, sort_keys=True))
                    handle.write("\n")


def profile_by_name(name: str) -> ConstantsProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown constants profile {name!r}; choose from {sorted(PROFILES)}")
