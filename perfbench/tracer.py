"""Span tracing of the package, installed from outside its source.

``instrument`` wraps the public functions and methods of each package module
listed in ``TARGETS``. A function is replaced in every package module that
holds it, so names imported directly (``harness.greedy_max_basis``,
``exact.pac_sample_prune``, ...) are traced too. Methods are replaced on the
class that defines them.

A span is one call of a wrapped callable. Spans are aggregated in memory as
they close, per (span name, parent span name): calls, inclusive seconds and
self seconds, the span minus its child spans. The first dot-separated part
of a span's name is its layer. Keeping every span would not fit: one pass of
``uniform-pac`` makes about a million ``rank`` calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from matroid_bandits import avg, exact, harness, instances, matroids, pac, sampling

FAMILIES = {
    "uniform": matroids.UniformMatroid,
    "partition": matroids.PartitionMatroid,
    "laminar": matroids.LaminarMatroid,
    "graphic": matroids.GraphicMatroid,
    "transversal": matroids.TransversalMatroid,
}
VIEWS = (matroids._RestrictionView, matroids._ContractionView)


class Tracer:
    def __init__(self):
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.edges: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def wrap(self, name, fn, on_result=None):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = edges[(name, parent)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.edges.items() if n == name)

    def inclusive_s(self, name: str) -> float:
        """Seconds inside ``name``, counting only its outermost spans."""
        return sum(r[1] for (n, p), r in self.edges.items() if n == name and p != name)

    def self_s(self, prefix: str = "", suffix: str = "") -> float:
        return sum(
            r[2] for (n, _), r in self.edges.items()
            if n.startswith(prefix) and n.endswith(suffix)
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {"name": n, "parent": p, "calls": r[0], "inclusive_s": r[1], "self_s": r[2]}
                for (n, p), r in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _count_blocks(counts, blocked) -> None:
    counts["matroids.blocks_true"] += bool(blocked)


def _count_pac(counts, result) -> None:
    for level in result.transcript:
        counts["pac.levels"] += 1
        if not level.base_case:
            size, _, kept = level.sizes
            counts["pac.pruned_ground"] += size
            counts["pac.pruned_kept"] += kept


def _count_exact(counts, result) -> None:
    for record in result.transcript:
        counts[f"exact.{record.kind}_rounds"] += 1


def _count_avg(counts, result) -> None:
    counts["avg.rounds"] += len(result.transcript)


# (owner, attribute, span name, result hook)
TARGETS = [
    (instances, "resolve_instance", "instances.resolve", None),
    (matroids.Matroid, "isolated_and_loops", "instances.loop_check", None),
    *((cls, "rank", f"matroids.{family}.rank", None) for family, cls in FAMILIES.items()),
    *((cls, "rank", "matroids.views.rank", None) for cls in VIEWS),
    (matroids.Matroid, "blocks", "matroids.blocks", _count_blocks),
    (matroids, "greedy_max_basis", "matroids.greedy", None),
    (matroids, "is_eps_optimal", "matroids.is_eps_optimal", None),
    *((cls, "restrict", "matroids.restrict", None) for cls in (matroids.Matroid, *VIEWS)),
    *((cls, "contract", "matroids.contract", None) for cls in (matroids.Matroid, *VIEWS)),
    (sampling.SamplingSession, "__init__", "sampling.session_init", None),
    (sampling.SamplingSession, "uniform_sample", "sampling.uniform_sample", None),
    (sampling.SamplingSession, "pull_batch", "sampling.pull_batch", None),
    (sampling.SamplingSession, "random_subset", "sampling.random_subset", None),
    (pac, "pac_sample_prune", "pac.pac_sample_prune", _count_pac),
    (pac, "naive_one", "pac.naive_one", None),
    (exact, "exact_exp_gap", "exact.exact_exp_gap", _count_exact),
    (avg, "avg_pac_recur_elim", "avg.avg_pac_recur_elim", _count_avg),
    (avg, "elimination", "avg.elimination", None),
    (avg, "naive_two", "avg.naive_two", None),
    (harness, "run_trials", "harness.run_trials", None),
    (harness, "_run_single_trial", "harness.trial", None),
    (harness, "run_algorithm", "harness.run_algorithm", None),
    (harness, "success_flags", "harness.success_flags", None),
    (harness, "summarize", "harness.summarize", None),
    (harness, "write_report", "harness.write_report", None),
]


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install the wrappers; return (owner, attribute, original) to undo them."""
    package = [
        mod for name, mod in sys.modules.items()
        if name == "matroid_bandits" or name.startswith("matroid_bandits.")
    ]
    undo = []
    for owner, attr, name, on_result in TARGETS:
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, on_result)
        holders = [owner]
        if not isinstance(owner, type):
            holders = [mod for mod in package if original in vars(mod).values()]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def uninstrument(undo) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
