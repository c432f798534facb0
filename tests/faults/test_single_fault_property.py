"""Property: any single injected fault leaves answers bit-identical.

One mixed workload -- concurrent serving windows, an idle window the
tuning workers drain after each, mid-run and final checkpoints, then a
restore -- is run once
fault-free to fix a result digest.  Hypothesis then picks a registered
fault point and a hit index the workload reaches; the same workload
with that one fault armed must inject exactly it, produce the *same*
digest (every query answered identically), leave every index
invariant-clean, and credit the fault as recovered.
"""

from __future__ import annotations

import hashlib
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from repro import faults
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.errors import PersistError
from repro.faults import FAULT_POINTS, FaultPlan, engaged
from repro.persist import SnapshotManager, restore_snapshot
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

ROWS = 6_000
SEED = 11
DOMAIN = (1.0, 100_000_000.0)

#: (point, hit) cases, every one a hit the workload reaches (it plans
#: 8 worker batches and replays 32 served reads).  Publish tampering
#: is pinned to the *final* checkpoint (hit 1): corrupting the first
#: generation poisons files the second generation carries forward by
#: reference, leaving nothing to walk back to -- a two-failure
#: scenario, not a single fault.
CASES = (
    [("workers.perform", h) for h in (0, 3, 5, 7)]
    + [("serving.replay", h) for h in (0, 4, 8, 12, 16, 20)]
    + [
        ("persist.publish.torn", 1),
        ("persist.publish.bitflip", 1),
        ("persist.publish.pointer", 0),
        ("persist.publish.pointer", 1),
        ("persist.restore", 0),
    ]
)

_BASELINE: dict[str, str] = {}


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _queries(count: int = 32) -> list[RangeQuery]:
    rng = np.random.default_rng(SEED)
    queries = []
    for i in range(count):
        ref = ColumnRef("R", "A1" if i % 2 == 0 else "A2")
        low = float(rng.uniform(DOMAIN[0], DOMAIN[1] * 0.9))
        queries.append(RangeQuery(ref, low, low + float(rng.uniform(1e6, 9e6))))
    return queries


def _digest_result(digest: "hashlib._Hash", result) -> None:
    values = np.sort(np.asarray(result.values(), dtype=np.float64))
    digest.update(str(int(result.count)).encode())
    digest.update(values.tobytes())


def _run(plan: FaultPlan | None) -> str:
    """The workload; returns the run's result digest.  An armed plan
    must have injected exactly its one fault."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as snapdir:
        db = Database(clock=SimClock())
        db.add_table(build_paper_table(rows=ROWS, columns=2, seed=SEED))
        kernel = make_strategy(
            "holistic", db, num_workers=1, cache_target_elements=64, seed=SEED
        )
        frontend = ServingFrontend(db, kernel, depth=4)
        queries = _queries()
        frontend.add_client("c0", queries[0::2])
        frontend.add_client("c1", queries[1::2])
        manager = SnapshotManager(
            snapdir, db, strategy=kernel, session=None, keep_history=True
        )

        def checkpoint() -> None:
            try:
                manager.checkpoint()
            except PersistError:
                if plan is None:
                    raise
                # An injected garbage CURRENT pointer fails the
                # checkpoint's own read-back: the writer crashes after
                # a partial publish.  The restore below must heal it.

        window = 0
        while True:
            entries = frontend.former.next_window()
            if not entries:
                break
            results = frontend.serve_window(entries)
            kernel.exploit_idle(actions=4)
            for result in results:
                _digest_result(digest, result)
            window += 1
            if window == 2:
                checkpoint()
        checkpoint()
        for index in kernel.indexes.values():
            index.check_invariants()

        restored = restore_snapshot(snapdir, verify="eager")
        for query in _queries(4):
            _digest_result(digest, restored.strategy.select(query))
        for index in restored.strategy.indexes.values():
            index.check_invariants()
    if plan is not None:
        assert plan.injected == 1, plan.summary()
    return digest.hexdigest()


def _baseline() -> str:
    if "digest" not in _BASELINE:
        _BASELINE["digest"] = _run(None)
    return _BASELINE["digest"]


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(CASES))
def test_any_single_fault_is_answer_invisible(case):
    point, hit = case
    assert point in FAULT_POINTS
    plan = FaultPlan(seed=SEED)
    plan.arm(point, at=hit)
    with engaged(plan):
        digest = _run(plan)
    assert digest == _baseline()
    assert plan.unrecovered() == []
