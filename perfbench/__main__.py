"""Command line of the benchmark.

::

    python -m perfbench --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of standard output
        is the result object of the BENCHMARK.json contract
    python -m perfbench [--repeat K] [--trace 0|1] [--smoke] [--out F]
        every workload (or each ``--workload`` given), each run in its
        own subprocess, untraced then traced; prints every metric by
        name with its unit and writes the report to F
    python -m perfbench compare A.json B.json
        medians, quartiles, bound and verdict per workload x metric

A workload process is re-executed once with the pinned allocator
environment of :mod:`perfbench.env`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from perfbench.env import ROOT, workload_environment


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no kernel to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    args = parse(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 10.0
    single = (
        len(args.workload) == 1 and args.repeat is None and args.out is None
    )
    if not single:
        from perfbench.report import main as report_main

        return report_main(args)
    if os.environ.get("PERFBENCH_PINNED") != "1":
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, "-m", "perfbench", *argv],
            workload_environment(),
        )
    from perfbench.child import run
    from perfbench.registry import workload_names

    if args.workload[0] not in workload_names():
        print(f"perfbench: unknown workload {args.workload[0]!r}",
              file=sys.stderr)
        return 2
    return run(
        args.workload[0], args.seed, args.seconds, bool(args.trace),
        args.smoke, args.record,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
