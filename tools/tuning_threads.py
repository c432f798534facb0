"""Wall-clock decision driver for the tuning worker threads (ROADMAP
item 15): do threads beat serial idle tuning on this machine?

::

    python tools/tuning_threads.py                  # 4*10^6 rows, 5 repetitions
    python tools/tuning_threads.py --rows 1000000 --repeats 7

Every run builds a fresh database on a :class:`~repro.WallClock` over
one shared table (2 or 8 columns), reads each column once so its
index exists, and then times one ``idle(actions=n)`` window, for n of
100, 1,000 and 4,000, by ``perf_counter``: serial one-at-a-time
cracks, serial ``batch_tuning=True`` and 1 and 2 tuning workers.

The configurations alternate within each repetition, and the table
holds medians in milliseconds.  ROADMAP item 15's rule reads the
``2w/batch`` ratio of serial batched time over 2 workers' time (the
threads stay at 1.2 or more).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Database, WallClock  # noqa: E402
from repro.engine.query import RangeQuery  # noqa: E402
from repro.storage.catalog import ColumnRef  # noqa: E402
from repro.storage.loader import build_paper_table  # noqa: E402

ACTIONS = (100, 1_000, 4_000)
COLUMNS = (2, 8)
CACHE_TARGET = 1_024

IDLE = {
    "serial": {},
    "batch": {"batch_tuning": True},
    "1w": {"num_workers": 1},
    "2w": {"num_workers": 2},
}


def _session(table, options: dict):
    db = Database(clock=WallClock())
    db.add_table(table)
    session = db.session(
        "holistic", cache_target_elements=CACHE_TARGET, **options
    )
    for column in table:
        session.run_query(RangeQuery(ColumnRef("R", column.name), 1.0, 2.0))
    return session


def _idle_ms(table, options: dict, actions: int) -> float:
    session = _session(table, options)
    started = time.perf_counter()
    session.idle(actions=actions)
    return (time.perf_counter() - started) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=4_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    print(
        f"rows {args.rows:,} a column, cache target {CACHE_TARGET:,}, "
        f"{args.repeats} alternating repetitions; medians in ms"
    )
    header = (
        f"{'cols':>4} {'actions':>7} | "
        + " ".join(f"{name:>7}" for name in IDLE)
        + f" {'2w/batch':>8}"
    )
    print(header)
    print("-" * len(header))
    for columns in COLUMNS:
        table = build_paper_table(args.rows, columns=columns, seed=args.seed)
        for actions in ACTIONS:
            idle = {name: [] for name in IDLE}
            for _ in range(args.repeats):
                for name, options in IDLE.items():
                    idle[name].append(_idle_ms(table, options, actions))
            median = {k: statistics.median(v) for k, v in idle.items()}
            print(
                f"{columns:>4} {actions:>7} | "
                + " ".join(f"{median[k]:>7.1f}" for k in IDLE)
                + f" {median['batch'] / median['2w']:>8.2f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
