"""Command-line face: ``run`` trials, ``verify`` an instance, print ``gaps``.

Exit codes: 0 on completion, 1 on configuration problems, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import CapacityError, ConfigError, PreconditionError, ValidationError
from .harness import ALGORITHMS, RunConfig, profile_by_name, run_trials, write_report
from .instances import resolve_instance
from .oracle import brute_force_opt, gap, verify_instance
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
    run_p.add_argument("--jobs", type=int, default=1)

    verify_p = sub.add_parser("verify", help="run the oracle suite on one instance")
    verify_p.add_argument("--instance", required=True)

    gaps_p = sub.add_parser("gaps", help="print the per-element gap profile")
    gaps_p.add_argument("--instance", required=True)

    return parser


def _cmd_run(args) -> int:
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
    print(json.dumps(summary["success"], indent=2, sort_keys=True))
    print(f"samples: {summary['samples']}")
    print(f"report written to {args.out}, per-arm pulls to {pulls_path}")
    return 0


def _cmd_verify(args) -> int:
    instance = resolve_instance(args.instance)
    rows = verify_instance(instance)
    all_ok = True
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_gaps(args) -> int:
    instance = resolve_instance(args.instance)
    m = instance.matroid
    means = instance.true_means
    opt = brute_force_opt(m, means)
    print(f"instance {instance.name}: rank {m.full_rank}, {m.size} arms")
    for e in m.ground:
        value = gap(m, e, means)
        shown = "inf" if math.isinf(value) else f"{value:.6g}"
        member = "optimal" if e in opt else "suboptimal"
        print(f"arm {e}: mean {means[e]:.6g}  gap {shown}  ({member})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gaps":
            return _cmd_gaps(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValidationError, CapacityError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
