"""Seeded Monte Carlo trial execution, statistics, and serialization.

Success flags are judged from the true means and the returned basis only.
Trials are embarrassingly parallel with per-trial derived seeds, so results
are independent of the worker count. A trial fails only by exhausting a
budget (``BudgetError``); every other error is a bug and aborts the batch.
A batch at ``jobs = N`` runs in N processes: the caller runs one share of
the trials itself and N - 1 worker processes run the others, each fed over a
pipe. The workers are started by the first parallel batch and kept for the
next ones with the same N. A worker's reply leaves its dense ledgers out of
the pickle and sends each one's raw bytes, which the caller reads into the
array that the report keeps; ``write_report`` writes such ledgers to the
``.pulls.npy`` sidecar one row at a time, so no batch matrix is built.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import pickle
import signal
import threading
import time
import traceback
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np

from .avg import avg_pac_recur_elim, ln_choose, naive_two
from .errors import BudgetError, ConfigError, integer, real, seed_integer
from .exact import exact_exp_gap
from .instances import Instance
from .matroids import (
    Matroid, avg_within_eps, elementwise_within_eps, greedy_max_basis, is_eps_optimal,
)
from .pac import ConstantsProfile, PROFILES, PacResult, naive_one, pac_sample_prune

ALGORITHMS = ("naive1", "naive2", "pac", "exact", "avgpac")
FLAGS = ("exact", "eps_optimal", "elementwise", "avg")

# ``json.dumps(obj, sort_keys=True)`` without building an encoder per report line
_encode = json.JSONEncoder(sort_keys=True).encode


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
    instances where enumeration cannot. Like ``elementwise`` and ``avg``,
    ``eps_optimal`` allows 1e-12 of float rounding, so that a basis tied at
    exactly ``eps`` passes, as it does by the lifted-cost definition.
    """
    if not matroid.is_basis(basis):
        return dict.fromkeys(FLAGS, False)
    if opt is None:
        opt = greedy_max_basis(matroid, means)
    return {
        "exact": frozenset(basis) == opt,
        "eps_optimal": is_eps_optimal(matroid, basis, means, eps + 1e-12),
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
        """Checks every field, and stores each number as a Python number, so
        that a report holds plain numbers. ``eps`` is checked for ``exact``
        too, whose trials are still judged for eps-optimality at it."""
        for name, kind, what in (("instance", Instance, "an Instance"),
                                 ("profile", ConstantsProfile, "a ConstantsProfile")):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be {what}, not {getattr(self, name)!r}")
        for name, value in (
            ("seed", seed_integer(self.seed, ConfigError)),
            ("trials", integer(self.trials, "trials", ConfigError, 0)),
            ("jobs", integer(self.jobs, "jobs", ConfigError, 1)),
            ("eps", real(self.eps, "eps", ConfigError, "> 0")),
            ("delta", real(self.delta, "delta", ConfigError, "(0, 1)")),
        ):
            object.__setattr__(self, name, value)
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")


@dataclass(frozen=True, eq=False)
class TrialReport:
    """One trial's outcome.

    ``pulls`` is the session's per-arm ledger in the session's own form
    (``SamplingSession.ledger``): on a dense table a read-only int64 array,
    8 bytes per arm, which pickles as one buffer (out of band at protocol
    5, as a worker's reply sends it); otherwise a tuple of Python ints.
    ``per_arm`` reads either as a tuple of Python ints, and reports compare
    their ledgers by value.
    """

    index: int
    seed: tuple[int, int]  # (master seed, trial index) fed to the stream
    algo: str
    basis: tuple[int, ...]
    total_samples: int
    pulls: np.ndarray | tuple[int, ...]
    flags: dict[str, bool]
    error: str | None
    wall_time: float
    trace: tuple = field(default_factory=tuple)
    guard: str | None = None  # the BudgetError guard that failed the trial

    def __post_init__(self):
        if type(self.pulls) is np.ndarray and self.pulls.flags.writeable:
            pulls = self.pulls.view()
            pulls.flags.writeable = False
            object.__setattr__(self, "pulls", pulls)

    def __reduce__(self):
        # through __init__, so that an unpickled ledger is read-only too: a
        # ledger pickled in band comes back writable, and __post_init__ wraps it
        return TrialReport, tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not TrialReport:
            return NotImplemented
        return self.per_arm == other.per_arm and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self) if f.name != "pulls")

    @property
    def per_arm(self) -> tuple[int, ...]:
        pulls = self.pulls
        return tuple(pulls.tolist()) if type(pulls) is np.ndarray else pulls

    def to_json(self) -> dict:
        """The trial's line of the JSON report; its ledger goes to the .pulls.npy sidecar."""
        return {
            "index": self.index,
            "seed": list(self.seed),
            "algo": self.algo,
            "basis": list(self.basis),
            "total_samples": self.total_samples,
            "flags": dict(self.flags),
            "error": self.error,
            "wall_time": self.wall_time,
        }


def _run_single_trial(config: RunConfig, index: int,
                      verdicts: dict[frozenset[int], dict[str, bool]]) -> TrialReport:
    """Trial ``index`` of the batch. ``verdicts`` holds the flags of each basis
    that its share has judged; the judge runs only for a basis not in it, and
    the report gets its own copy of the flags."""
    inst = config.instance
    session = inst.trial_session(
        config.seed, index, max_pulls=config.profile.pull_budget
    )
    started = time.perf_counter()
    error = guard = None
    trace: tuple = ()
    basis: tuple[int, ...] = ()
    try:
        result = run_algorithm(
            session, inst.matroid, config.algo, config.eps, config.delta, config.profile,
        )
        basis = tuple(sorted(result.basis))
        trace = result.transcript if config.trace else ()
        key = frozenset(result.basis)
        if key not in verdicts:
            verdicts[key] = success_flags(inst.matroid, inst.true_weights, key, config.eps,
                                          inst.optimum)
        flags = dict(verdicts[key])
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
        pulls=session.ledger(),
        flags=flags,
        error=error,
        wall_time=elapsed,
        trace=trace,
        guard=guard,
    )


def _run_chunk(config: RunConfig, indices: range) -> list[TrialReport]:
    """The trials of one batch that one worker, or the serial path, runs: one
    share, with one memo of judged bases, so that each distinct basis is
    judged once per share."""
    verdicts: dict[frozenset[int], dict[str, bool]] = {}
    return [_run_single_trial(config, index, verdicts) for index in indices]


# A trial worker: its process and the caller's end of its pipe.
_Worker = tuple[BaseProcess, Connection]

# The process's trial workers: (jobs, at most jobs - 1 workers), started as
# parallel batches need them and reused by the next ones that ask for the same
# ``jobs``; _pool_lock is held for a whole parallel batch.
_pool: tuple[int, list[_Worker]] | None = None
_pool_lock = threading.Lock()
_STOP_TIMEOUT_S = 5.0  # how long idle workers get to exit before they are killed


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a trial worker, as its text."""

    def __str__(self):
        return self.args[0]


def _serve(conn: Connection, inherited: tuple[Connection, ...]) -> None:
    """A worker's loop: one share of a batch in, its reports or its error out.

    A forked worker first closes the caller's ends of the pipes that it
    inherited, its own included, so that it sees EOF once the caller is gone.
    Ctrl-C is left to the caller, which stops the workers.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            config, indices = conn.recv()
            try:
                reply = _run_chunk(config, indices)
            except Exception as exc:
                reply = (exc, traceback.format_exc())
            _send_reply(conn, reply)
    except (EOFError, OSError):  # the caller closed its end, or died
        return


def _send_reply(conn: Connection, reply) -> None:
    """``reply`` pickled at protocol 5 with every dense ledger left out of
    the pickle, sent with the ledgers' byte sizes; then each ledger's bytes,
    one message each, straight from the worker's own array."""
    ledgers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(reply, protocol=5, buffer_callback=ledgers.append)
    raw = [ledger.raw() for ledger in ledgers]
    conn.send((payload, [view.nbytes for view in raw]))
    for view in raw:
        conn.send_bytes(view)


def _receive_reply(conn: Connection):
    """The reply that ``_send_reply`` sent: each ledger's bytes are read into
    a buffer of its own, which the unpickled report's read-only ledger wraps
    without a copy."""
    payload, sizes = conn.recv()
    ledgers = [np.empty(size, np.uint8) for size in sizes]
    for ledger in ledgers:
        conn.recv_bytes_into(ledger)
    return pickle.loads(payload, buffers=ledgers)


def _start_workers(count: int, running: list[_Worker]) -> list[_Worker]:
    """``count`` more daemonic workers of the default start method, beside
    ``running``, each idle on its pipe."""
    context = multiprocessing.get_context()
    forked = context.get_start_method() == "fork"
    workers: list[_Worker] = []
    try:
        for _ in range(count):
            ours, theirs = context.Pipe()
            # a forked worker holds copies of our ends, which it must close
            inherited = (*(conn for _, conn in running + workers), ours) if forked else ()
            process = context.Process(target=_serve, args=(theirs, inherited), daemon=True)
            process.start()
            theirs.close()
            workers.append((process, ours))
    except BaseException:
        _stop_workers(workers, 0.0)
        raise
    return workers


def _stop_workers(workers: list[_Worker], timeout: float) -> None:
    """Close the workers' pipes and join them, killing any still alive after ``timeout``."""
    for _, conn in workers:
        conn.close()
    deadline = time.monotonic() + timeout
    for process, _ in workers:
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join()


def _run_parallel(config: RunConfig) -> list[TrialReport]:
    """Share w of the batch is every ``jobs``-th index from w: the caller runs
    share 0 and worker w - 1 share w, one message each way. The pool is topped
    up to the ``min(jobs, trials) - 1`` workers that get a share."""
    global _pool
    jobs, trials = config.jobs, config.trials
    with _pool_lock:
        if _pool is not None and _pool[0] != jobs:
            _stop_workers(_pool[1], _STOP_TIMEOUT_S)
            _pool = None
        if _pool is None:
            _pool = (jobs, [])
        workers, sharing = _pool[1], min(jobs, trials) - 1
        workers += _start_workers(sharing - len(workers), workers)
        busy = [conn for _, conn in workers[:sharing]]
        try:
            for w, conn in enumerate(busy, 1):
                conn.send((config, range(w, trials, jobs)))
            try:
                replies = [_run_chunk(config, range(0, trials, jobs))]
            except Exception as exc:
                replies = [exc]
            # every reply is in before any error propagates, so the pool is idle again
            replies += [_receive_reply(conn) for conn in busy]
        except BaseException as exc:
            _stop_workers(workers, 0.0)
            _pool = None
            if isinstance(exc, (EOFError, OSError)):
                raise BrokenProcessPool("a trial worker died during the batch") from exc
            raise
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
        if isinstance(reply, tuple):
            error, text = reply
            raise error from _WorkerTraceback(text)
    return [rep for reply in replies for rep in reply]


def binomial_lcb(successes: int, trials: int) -> float:
    """Exact one-sided (Clopper-Pearson) 95% lower confidence bound on a rate.

    The p at which P(Binomial(trials, p) >= successes) = 1 - 0.95.
    When every trial succeeded that tail is p ** trials, so p has a closed
    form; otherwise it is found by bisection (``_bisect_lcb``).
    """
    if trials == 0 or successes == 0:
        return 0.0
    alpha = 1.0 - 0.95
    if successes == trials:
        return alpha ** (1.0 / trials)
    return _bisect_lcb(successes, trials, alpha)


def _bisect_lcb(successes: int, trials: int, alpha: float) -> float:
    """The p at which P(Binomial(trials, p) >= successes) = alpha, by
    bisection to float resolution. Each tail probability sums the shorter
    binomial tail in log space."""
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

    Each share of the batch keeps one memo of judged bases, so that the judge
    (``success_flags``) runs once per distinct basis per share, and each
    report holds its own copy of the flags. With ``jobs > 1`` the trials are
    split into ``jobs`` interleaved shares (every ``jobs``-th index): the
    caller runs the first, and each of the ``min(jobs, trials) - 1`` workers
    with a share receives one message (the config, whose instance carries its
    optimum, and its share) and sends back its reports, or the error it
    raised, re-raised here with its own type. A reply is one pickled message
    and then the raw bytes of each dense ledger (``_send_reply``), so the
    caller holds no pickled copy of the ledgers. Workers are kept for the next
    batch with the same ``jobs``, and started only when a batch has a share
    for them. A worker that died makes the batch raise ``BrokenProcessPool``;
    the next parallel batch starts fresh workers.
    """
    config.instance.optimum  # computed once per instance, before any worker gets it
    if config.jobs > 1 and config.trials > 1:
        reports = _run_parallel(config)
    else:
        reports = _run_chunk(config, range(config.trials))
    reports.sort(key=lambda rep: rep.index)
    return summarize(config, reports)


def summarize(config: RunConfig, reports: list[TrialReport]) -> dict:
    trials = len(reports)
    counts = {name: sum(1 for r in reports if r.flags[name]) for name in FLAGS}
    samples = [r.total_samples for r in reports]
    failed = [r for r in reports if r.error is not None]
    summary = {
        "schema_version": 2,
        "instance": config.instance.name,
        "arms": config.instance.size,
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
        "wall_time_total": math.fsum(r.wall_time for r in reports),
    }
    return {"summary": summary, "reports": reports, "trace": config.trace}


def _pull_matrix(reports: list[TrialReport], arms: int) -> np.ndarray:
    """Row i is trial i's ledger: int64, or the exact counts as decimal
    strings once some count does not fit an int64."""
    try:
        rows = np.array([rep.pulls for rep in reports], dtype=np.int64)
    except OverflowError:
        return np.array([[str(count) for count in rep.per_arm] for rep in reports],
                        dtype=np.str_)
    return rows.reshape(len(reports), arms)


def _write_pulls(path: Path, reports: list[TrialReport], arms: int) -> None:
    """What ``np.save(path, _pull_matrix(reports, arms))`` writes. When every
    ledger is an int64 array, the same ``.npy`` header is followed by each
    ledger's buffer in turn, so that no matrix of the batch is built."""
    if not all(type(rep.pulls) is np.ndarray and rep.pulls.dtype == np.int64
               for rep in reports):
        np.save(path, _pull_matrix(reports, arms), allow_pickle=False)
        return
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
              "fortran_order": False, "shape": (len(reports), arms)}
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        for rep in reports:
            handle.write(rep.pulls)


def load_pulls(path) -> np.ndarray | tuple[tuple[int, ...], ...]:
    """A report's per-arm ledgers, one row per trial: the int64 array, or a
    tuple of tuples of Python ints when some count does not fit an int64."""
    matrix = np.load(path, allow_pickle=False)
    if matrix.dtype.kind == "U":
        return tuple(tuple(map(int, row)) for row in matrix.tolist())
    return matrix


def report_path(out_path) -> Path:
    """``out_path`` as a ``Path``; one ending in ``.csv`` is a ``ConfigError``,
    because the CSV summary row goes to the report's path with that suffix."""
    out_path = Path(out_path)
    if out_path.suffix == ".csv":
        raise ConfigError(f"report path {out_path} ends in .csv, where the CSV summary goes; "
                          "choose another suffix, such as .json")
    return out_path


def write_report(result: dict, out_path) -> Path:
    """JSON report, its per-arm pulls, and a CSV summary row; a traced run's
    records go to a sidecar .jsonl. Returns the path of the pulls file.

    The report is one JSON object, ``{"summary": ..., "trials": [...]}``,
    written piece by piece: the summary on the first line, then one trial
    per line, so that no string of the whole document is ever built. The
    ledgers go to ``.pulls.npy`` beside it, one row per trial (``load_pulls``),
    and dense ones are written a row at a time (``_write_pulls``).
    A ``.csv`` report path is refused before anything is written (``report_path``).
    """
    out_path = report_path(out_path)
    summary = result["summary"]
    reports: list[TrialReport] = result["reports"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    pulls_path = out_path.with_suffix(".pulls.npy")
    _write_pulls(pulls_path, reports, summary["arms"])
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write('{"summary": ')
        handle.write(_encode(summary))
        handle.write(',\n"trials": [')
        separator = "\n"
        for rep in reports:
            handle.write(separator)
            handle.write(_encode(rep.to_json()))
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
                    line = {"schema_version": 1, "trial": rep.index, **record.to_record()}
                    handle.write(_encode(line))
                    handle.write("\n")
    return pulls_path


def profile_by_name(name: str) -> ConstantsProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown constants profile {name!r}; choose from {sorted(PROFILES)}")
