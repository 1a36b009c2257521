"""Command-line face: ``run`` trials, ``verify`` the rules an instance file
holds, print ``gaps``.

Exit codes: 0 on completion, 1 on configuration problems, 2 on I/O errors.
A reader that closes stdout early ends the output quietly, with the same code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import ConfigError, PreconditionError, ValidationError
from .harness import (
    ALGORITHMS, RunConfig, profile_by_name, report_path, run_trials, write_report,
)
from .instances import resolve_instance, verify_instance
from .matroids import gaps, greedy_max_basis
from .pac import PROFILES


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); grammar errors are config errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matroid-bandits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded Monte Carlo trial batch")
    run_p.add_argument("--instance", required=True,
                       help="instance file path or builtin:NAME")
    run_p.add_argument("--algo", required=True, choices=ALGORITHMS)
    run_p.add_argument("--eps", type=float, required=True)
    run_p.add_argument("--delta", type=float, required=True)
    run_p.add_argument("--trials", type=int, required=True)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--constants", default="paper", choices=sorted(PROFILES))
    run_p.add_argument("--out", required=True, help="JSON report path")
    run_p.add_argument("--trace", action="store_true",
                       help="also write line-delimited round records")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run the trials in N processes: this one and N-1 workers "
                            "(default 1); results do not depend on N")

    verify_p = sub.add_parser("verify", help="check the rules that one instance holds")
    verify_p.add_argument("--instance", required=True)

    gaps_p = sub.add_parser("gaps", help="print the per-element gap profile")
    gaps_p.add_argument("--instance", required=True)

    return parser


def _cmd_run(args) -> tuple[int, list[str]]:
    report_path(args.out)  # refused before any trial runs, not after
    instance = resolve_instance(args.instance)
    config = RunConfig(
        instance=instance,
        algo=args.algo,
        eps=args.eps,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        profile=profile_by_name(args.constants),
        jobs=args.jobs,
        trace=args.trace,
    )
    result = run_trials(config)
    pulls_path = write_report(result, args.out)
    summary = result["summary"]
    return 0, [json.dumps(summary["success"], indent=2, sort_keys=True),
               f"samples: {summary['samples']}",
               f"report written to {args.out}, per-arm pulls to {pulls_path}"]


def _cmd_verify(args) -> tuple[int, list[str]]:
    rows = verify_instance(resolve_instance(args.instance))
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
             for name, ok, detail in rows]
    return (0 if all(ok for _, ok, _ in rows) else 1), lines


def _cmd_gaps(args) -> tuple[int, list[str]]:
    instance = resolve_instance(args.instance)
    m = instance.matroid
    means = instance.true_means
    by_arm, optimal = gaps(m, means), greedy_max_basis(m, means)
    lines = [f"instance {instance.name}: rank {m.full_rank}, {m.size} arms"]
    for e in m.ground:
        value = by_arm[e]
        shown = "inf" if math.isinf(value) else f"{value:.6g}"
        member = "optimal" if e in optimal else "suboptimal"
        lines.append(f"arm {e}: mean {means[e]:.6g}  gap {shown}  ({member})")
    return 0, lines


_COMMANDS = {"run": _cmd_run, "verify": _cmd_verify, "gaps": _cmd_gaps}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, lines = _COMMANDS[args.command](args)
    except (ConfigError, ValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: what is left, and the exit's flush, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
