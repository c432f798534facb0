#!/usr/bin/env python3
"""Cracked indexes under updates and concurrent clients.

Two extensions the paper's related work ([11], [7]) calls out, both
implemented in this library:

* trickle inserts/deletes staged in delta stores and overlaid on a
  query's result when it touches their value range -- the cracker
  column itself is never rebuilt;
* piece-level latching for concurrent cracking: background tuning
  workers crack the column while foreground queries read and crack
  it, each under the latches of the pieces it restructures.

Run:  python examples/updates_and_concurrency.py
"""

import numpy as np

from repro import Database, SimClock, scale_by_name
from repro.storage import ColumnRef, build_paper_table

SCALE = scale_by_name("small")


def updates_demo() -> None:
    print("=== updates: overlaying the delta store ===")
    db = Database(clock=SimClock(SCALE.cost_model()))
    db.add_table(build_paper_table(rows=SCALE.rows, columns=2, seed=3))
    session = db.session("adaptive")

    # Warm the cracker index.
    session.select("R", "A1", 40_000_000, 45_000_000)
    baseline = session.report.queries[-1].result_count

    # New log records arrive: staged, not merged.
    fresh = {"A1": [42_000_000] * 500, "A2": list(range(500))}
    db.table("R").insert_rows(fresh)
    pending = db.table("R").updates_for("A1")
    print(f"staged {pending.pending_insert_count} pending inserts")

    # The next query in that range sees them immediately.
    result = session.select("R", "A1", 40_000_000, 45_000_000)
    print(
        f"query result grew from {baseline} to {result.count} rows "
        "(+500 pending inserts, correct without a rebuild)"
    )

    # Queries elsewhere never pay for the pending entries.
    result = session.select("R", "A1", 90_000_000, 91_000_000)
    print(
        f"unrelated range still answers {result.count} rows; "
        f"{pending.pending_insert_count} inserts remain staged"
    )


def concurrency_demo() -> None:
    print("\n=== concurrency: tuning workers racing live queries ===")
    db = Database(clock=SimClock(SCALE.cost_model()))
    db.add_table(build_paper_table(rows=SCALE.rows, columns=1, seed=3))
    session = db.session("holistic", num_workers=2)
    values = db.column("R", "A1").values

    # The workers crack A1 in the background while queries crack it
    # in the foreground; both sides latch the pieces they split.
    session.start_background_tuning(200)
    rng = np.random.default_rng(0)
    wrong = 0
    for _ in range(50):
        low = float(rng.uniform(1, 9e7))
        result = session.select("R", "A1", low, low + 1e6)
        expected = np.count_nonzero((values >= low) & (values < low + 1e6))
        wrong += result.count != expected
    session.finish_background_tuning()

    index = session.strategy.index_for(ColumnRef("R", "A1"))
    index.check_invariants()
    print(f"50 queries raced 200 background cracks, {wrong} wrong answers")
    print(
        f"index ended consistent with {index.piece_count} pieces; "
        f"{index.tape.stall_count()} latch stalls recorded"
    )


if __name__ == "__main__":
    updates_demo()
    concurrency_demo()
