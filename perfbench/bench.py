"""Measure one workload end to end (``trace=0``) or layer by layer (``trace=1``).

The package is driven the way ``matroid-bandits run`` drives it:
``resolve_instance`` is the set-up, then ``RunConfig`` -> ``run_trials`` ->
``write_report`` for each batch of the workload. A pass is one trip through
all of a workload's batches; every pass of a run repeats the same seeded
trials, so timings are medians over passes and every count is exact. Set-up
is timed between passes, so that its median covers the same stretch of the
run as the passes' median.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from matroid_bandits import harness, instances
from matroid_bandits.oracle import brute_force_opt

from tracer import FAMILIES, Tracer, instrument, uninstrument
from workloads import CONSTANTS, DELTA, EPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# The flag that states each algorithm's own guarantee.
GUARANTEE = {
    "naive1": "eps_optimal",
    "pac": "eps_optimal",
    "exact": "exact",
    "naive2": "avg",
    "avgpac": "avg",
}
MIN_SETUP_BLOCKS = 5
SETUP_BLOCK_S = 0.2
MAX_PROBLEMS = 20


@dataclass
class Pass:
    results: list[dict]
    wall_s: float  # run_trials + write_report, every batch
    run_trials_s: float
    report_bytes: int

    @property
    def reports(self):
        return [rep for result in self.results for rep in result["reports"]]


@dataclass
class Tally:
    """What each pass leaves once its reports are dropped, so memory stays flat."""

    digests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, done: Pass) -> Pass:
        reports = done.reports
        self.digests.append(digest(done.results))
        self.attempted += len(reports)
        self.failed += sum(rep.error is not None for rep in reports)
        return done


def sweep(configs, out_dir: Path) -> Pass:
    results, wall, run_s, written = [], 0.0, 0.0, 0
    for i, config in enumerate(configs):
        out = out_dir / f"batch{i}.json"
        started = time.perf_counter()
        result = harness.run_trials(config)
        ran = time.perf_counter()
        harness.write_report(result, out)
        wall += time.perf_counter() - started
        run_s += ran - started
        written += out.stat().st_size + out.with_suffix(".csv").stat().st_size
        results.append(result)
    return Pass(results, wall, run_s, written)


class SetUp:
    """Resolves every instance of the workload, timed in blocks.

    A block repeats the resolve for at least SETUP_BLOCK_S, so that the
    builtins' millisecond set-up is not lost in timer and scheduler noise;
    ``times`` holds each block's seconds per resolve.
    """

    def __init__(self, refs):
        self.refs = refs
        t0 = time.perf_counter()
        self.loaded = self._resolve()
        self.per_block = max(1, math.ceil(SETUP_BLOCK_S / (time.perf_counter() - t0)))
        self.times: list[float] = []

    def _resolve(self) -> dict:
        return {ref: instances.resolve_instance(ref) for ref in self.refs}

    def block(self) -> dict:
        t0 = time.perf_counter()
        for _ in range(self.per_block):
            self.loaded = self._resolve()
        self.times.append((time.perf_counter() - t0) / self.per_block)
        return self.loaded


def digest(results) -> str:
    """Hash of the deterministic report body: no wall times, error kind only."""
    h = hashlib.sha256()
    for result in results:
        for rep in result["reports"]:
            kind = rep.error.split(":", 1)[0] if rep.error else None
            body = [result["summary"]["instance"], rep.algo, rep.index, rep.basis,
                    rep.total_samples, rep.per_arm, rep.flags, kind]
            h.update(json.dumps(body, sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def check_outputs(batches, configs, results) -> list[str]:
    """Checks that do not trust the harness judge."""
    problems = []
    for batch, config, result in zip(batches, configs, results):
        m = config.instance.matroid
        opt = None
        if batch.ref.startswith("builtin:"):
            opt = brute_force_opt(m, config.instance.true_means)
        for rep in result["reports"]:
            where = f"{config.instance.name}/{rep.algo}/trial {rep.index}"
            if rep.error is not None:
                if rep.error.startswith("InvariantError"):
                    problems.append(f"{where}: broken invariant: {rep.error}")
                continue
            if not m.is_basis(rep.basis):
                problems.append(f"{where}: returned {len(rep.basis)} elements, not a basis")
            elif opt is not None:
                optimal = frozenset(rep.basis) == opt
                if rep.flags["exact"] != optimal:
                    problems.append(f"{where}: judge says exact={rep.flags['exact']}, "
                                    f"brute force says {optimal}")
                if rep.algo == "exact" and not optimal:
                    problems.append(f"{where}: exact returned {rep.basis}, "
                                    f"optimum is {sorted(opt)}")
    return problems


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def end_to_end(first: Pass, walls: list[float], setup_s: float) -> dict:
    """``walls`` are the wall times of every pass, ``first`` included."""
    reports = first.reports
    return {
        "setup_s": setup_s,
        "trials_per_s": len(reports) / statistics.median(walls),
        "samples_p50": float(statistics.median(rep.total_samples for rep in reports)),
        "success_rate": sum(rep.flags[GUARANTEE[rep.algo]] for rep in reports) / len(reports),
        "completed_frac": sum(rep.error is None for rep in reports) / len(reports),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(setup: Tracer, tracer: Tracer, dispatch: Pass, jobs: int, task_bytes: int,
              serial: Pass, traced: Pass) -> dict:
    counts = tracer.counts
    trial_s = [rep.wall_time for rep in dispatch.reports]
    blocks = tracer.calls("matroids.blocks")
    pruned = counts["pac.pruned_ground"]
    untraced_rate = len(serial.reports) / serial.wall_s
    traced_rate = len(traced.reports) / traced.wall_s
    return {
        "instances.loop_check_s": setup.inclusive_s("instances.loop_check"),
        "instances.loop_check_rank_calls": sum(
            r[0] for (n, p), r in setup.edges.items()
            if p == "instances.loop_check" and n.endswith(".rank")
        ),
        "matroids.rank_s": tracer.self_s("matroids.", ".rank"),
        "matroids.views.rank_s": tracer.self_s("matroids.views.rank"),
        **{f"matroids.{family}.rank_calls": tracer.calls(f"matroids.{family}.rank")
           for family in (*FAMILIES, "views")},
        "matroids.blocks_calls": blocks,
        "matroids.blocks_s": tracer.inclusive_s("matroids.blocks"),
        "matroids.blocks_true_frac": counts["matroids.blocks_true"] / blocks if blocks else 0.0,
        "matroids.greedy_calls": tracer.calls("matroids.greedy"),
        "matroids.greedy_s": tracer.inclusive_s("matroids.greedy"),
        "matroids.is_eps_optimal_calls": tracer.calls("matroids.is_eps_optimal"),
        "matroids.is_eps_optimal_s": tracer.inclusive_s("matroids.is_eps_optimal"),
        "matroids.restrict_calls": tracer.calls("matroids.restrict"),
        "matroids.contract_calls": tracer.calls("matroids.contract"),
        "matroids.self_s": tracer.self_s("matroids."),
        "sampling.uniform_sample_calls": tracer.calls("sampling.uniform_sample"),
        "sampling.uniform_sample_s": tracer.inclusive_s("sampling.uniform_sample"),
        "sampling.pull_batch_calls": tracer.calls("sampling.pull_batch"),
        "sampling.pull_batch_s": tracer.inclusive_s("sampling.pull_batch"),
        "sampling.random_subset_calls": tracer.calls("sampling.random_subset"),
        "sampling.session_init_s": tracer.inclusive_s("sampling.session_init"),
        "sampling.self_s": tracer.self_s("sampling."),
        "pac.self_s": tracer.self_s("pac."),
        "pac.levels": counts["pac.levels"],
        "pac.kept_frac": counts["pac.pruned_kept"] / pruned if pruned else 1.0,
        "exact.elimination_rounds": counts["exact.elimination_rounds"],
        "exact.selection_rounds": counts["exact.selection_rounds"],
        "avg.rounds": counts["avg.rounds"],
        "avg.self_s": tracer.self_s("avg."),
        "algorithms.self_s": sum(tracer.self_s(p) for p in ("pac.", "exact.", "avg.")),
        "harness.judge_s": tracer.inclusive_s("harness.success_flags"),
        "harness.algorithm_s": tracer.inclusive_s("harness.run_algorithm"),
        "harness.summarize_s": tracer.inclusive_s("harness.summarize"),
        "harness.write_report_s": tracer.inclusive_s("harness.write_report"),
        "harness.worker_busy_frac": math.fsum(trial_s) / (jobs * dispatch.run_trials_s),
        "harness.dispatch_s": dispatch.run_trials_s - math.fsum(trial_s) / jobs,
        "harness.task_bytes": task_bytes,
        "harness.trial_s_p50": statistics.median(trial_s),
        "harness.report_bytes": dispatch.report_bytes,
        "trace.untraced_trials_per_s": untraced_rate,
        "trace.traced_trials_per_s": traced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-seed{seed}-", dir=WORK))
    try:
        batches = workload.make_batches(seed, workdir)
        refs = list(dict.fromkeys(b.ref for b in batches))
        profile = harness.profile_by_name(CONSTANTS)

        def configs_for(loaded, jobs):
            return [harness.RunConfig(loaded[b.ref], b.algo, EPS, DELTA, b.trials, seed,
                                      profile, jobs=jobs) for b in batches]

        tally = Tally()
        if not trace:
            started = time.perf_counter()
            setup = SetUp(refs)
            configs = configs_for(setup.block(), workload.jobs)
            first = tally.add(sweep(configs, workdir))
            walls = [first.wall_s]
            cycle = time.perf_counter() - started
            while (len(setup.times) < MIN_SETUP_BLOCKS
                   or time.perf_counter() - started + cycle <= seconds):
                # Each cycle resolves afresh and runs a pass on what it resolved.
                cycle_start = time.perf_counter()
                configs = configs_for(setup.block(), workload.jobs)
                walls.append(tally.add(sweep(configs, workdir)).wall_s)
                cycle = time.perf_counter() - cycle_start
            values = end_to_end(first, walls, statistics.median(setup.times))
            trace_file = None
        else:
            setup = Tracer()
            undo = instrument(setup)
            try:
                loaded = {ref: instances.resolve_instance(ref) for ref in refs}
            finally:
                uninstrument(undo)
            configs = configs_for(loaded, workload.jobs)
            serial_configs = configs_for(loaded, 1)
            # Before any pass: rank memos filled by in-process trials would pickle too.
            task_bytes = max(len(pickle.dumps((c, 0))) for c in configs)
            first = tally.add(sweep(configs, workdir))
            serial = first if workload.jobs == 1 else tally.add(sweep(serial_configs, workdir))
            tracer = Tracer()
            undo = instrument(tracer)
            try:
                traced = tally.add(sweep(serial_configs, workdir))
            finally:
                uninstrument(undo)
            values = per_layer(setup, tracer, first, workload.jobs, task_bytes, serial, traced)
            trace_file = WORK / "traces" / f"{workload_name}-seed{seed}.json"
            tracer.write(trace_file)
            setup.write(trace_file.with_suffix(".setup.json"))

        digests = tally.digests
        problems = check_outputs(batches, configs, first.results)
        if len(set(digests)) != 1:
            problems.append(f"passes of one seed disagree: digests {sorted(set(digests))}")
        want = expected["digests"].get(workload_name) if seed == expected["seed"] else None
        if want is not None and digests[0] != want:
            problems.append(f"output changed at seed {seed}: digest {digests[0]}, "
                            f"expected {want}")

        declared = spec["per_layer" if trace else "end_to_end"]
        if {m["name"] for m in declared} != set(values):
            raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in declared}
        problems += [f"{name} is not finite" for name, m in metrics.items()
                     if not math.isfinite(m["value"])]
        info = {
            "workload": workload_name, "seed": seed, "jobs": workload.jobs,
            "trace": trace, "passes": len(digests), "digest": digests[0],
            "expected_digest": want, "trace_file": trace_file and str(trace_file),
            "problems": problems[:MAX_PROBLEMS], "environment": environment(),
        }
        print(json.dumps({"perfbench": info}, sort_keys=True))
        print(json.dumps({
            "correct": not problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
