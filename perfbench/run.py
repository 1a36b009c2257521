#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout of the repository.

    python3 perfbench/run.py --workload uniform-pac --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it records the environment, the output digest
and any failed check. The exit code is 0 only when every check passed.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("builtin-sweep", "uniform-pac")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "matroid_bandits" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
