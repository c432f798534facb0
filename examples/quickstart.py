#!/usr/bin/env python3
"""Quickstart: holistic indexing in five minutes.

Builds the paper's relation R at a reduced scale, opens sessions under
different indexing strategies, and shows the three behaviours the
paper unifies: instant adaptation (cracking), idle-time exploitation,
and continuous monitoring.  All times are virtual seconds projected to
the paper's 10^8-row testbed.

Run:  python examples/quickstart.py
"""

from repro import Database, SimClock, scale_by_name
from repro.storage import build_paper_table

SCALE = scale_by_name("small")  # 10^5 rows projected to 10^8


def fresh_database() -> Database:
    db = Database(clock=SimClock(SCALE.cost_model()))
    db.add_table(build_paper_table(rows=SCALE.rows, columns=3, seed=7))
    return db


def main() -> None:
    # --- 1. Without indexing every query pays a full scan. ----------
    db = fresh_database()
    scans = db.session("scan")
    # A report keeps running totals only; hand in a list to also get
    # one record per query.
    scans.report.records = []
    for i in range(3):
        result = scans.select("R", "A1", 10_000_000 * i, 10_000_000 * i + 5_000_000)
        record = scans.report.records[-1]
        print(
            f"scan     query {i + 1}: {result.count:6d} rows in "
            f"{record.response_s * 1e3:9.2f} ms"
        )

    # --- 2. Adaptive: every query makes the next one cheaper. -------
    db = fresh_database()
    adaptive = db.session("adaptive")
    adaptive.report.records = []
    for i in range(3):
        result = adaptive.select(
            "R", "A1", 10_000_000 * i, 10_000_000 * i + 5_000_000
        )
        record = adaptive.report.records[-1]
        print(
            f"adaptive query {i + 1}: {result.count:6d} rows in "
            f"{record.response_s * 1e3:9.2f} ms"
        )

    # --- 3. Holistic: idle time becomes future performance. ---------
    db = fresh_database()
    holistic = db.session("holistic")
    holistic.report.records = []
    # A couple of warm-up queries teach the monitor what is hot...
    holistic.select("R", "A1", 0, 1_000_000)
    # ...then half a (projected) second of idle time gets exploited.
    idle = holistic.idle(seconds=0.5)
    print(
        f"\nholistic idle window: {idle.actions_done} auxiliary "
        f"refinements in {idle.consumed_s:.3f} s ({idle.note})"
    )
    for i in range(3):
        result = holistic.select(
            "R", "A1", 10_000_000 * i, 10_000_000 * i + 5_000_000
        )
        record = holistic.report.records[-1]
        print(
            f"holistic query {i + 1}: {result.count:6d} rows in "
            f"{record.response_s * 1e3:9.2f} ms"
        )

    # --- 4. Ask the planner what it would do. ------------------------
    print("\nEXPLAIN under each strategy:")
    for name in ("scan", "offline", "adaptive", "holistic"):
        session = fresh_database().session(name)
        plan = session.explain("R", "A2", 1_000_000, 2_000_000)
        print(f"  {name:9s} {plan.explain()}")

    total = holistic.report.total_response_s
    print(f"\nholistic cumulative response time: {total:.4f} s")
    print("(idle time is not response time -- that is the point)")


if __name__ == "__main__":
    main()
