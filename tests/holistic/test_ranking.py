"""Unit tests for the continuous column ranking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.index import CrackerIndex
from repro.errors import ConfigError
from repro.holistic.ranking import ColumnRanking
from repro.online.monitor import WorkloadMonitor
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.loader import generate_uniform_column


def _register(ranking, name, rows=10_000, weight=1.0):
    ref = ColumnRef("R", name)
    column = generate_uniform_column(name, rows=rows, seed=hash(name) % 100)
    index = CrackerIndex(column, clock=SimClock())
    return ref, ranking.register(ref, index, workload_weight=weight)


def test_register_is_idempotent():
    ranking = ColumnRanking(100, WorkloadMonitor())
    ref, state = _register(ranking, "A1")
    again = ranking.register(ref, state.index, workload_weight=5.0)
    assert again is state
    assert state.workload_weight == 5.0
    assert len(ranking) == 1


def test_fresh_column_has_positive_score():
    ranking = ColumnRanking(100, WorkloadMonitor())
    _, state = _register(ranking, "A1")
    assert ranking.score(state) > 0
    assert not ranking.is_refined(state)


def test_hot_column_outranks_cold():
    ranking = ColumnRanking(100, WorkloadMonitor())
    ref_hot, _ = _register(ranking, "A1")
    ref_cold, _ = _register(ranking, "A2")
    for _ in range(10):
        ranking.monitor.record(ref_hot)
    assert ranking.best().ref == ref_hot


def test_refined_column_scores_zero():
    ranking = ColumnRanking(10_000, WorkloadMonitor())
    _, state = _register(ranking, "A1", rows=100)
    # 100 rows, target 10k: already refined.
    assert ranking.is_refined(state)
    assert ranking.score(state) == 0.0
    assert ranking.best() is None


def test_refinement_decays_score():
    import numpy as np

    ranking = ColumnRanking(10, WorkloadMonitor())
    ref, state = _register(ranking, "A1", rows=10_000)
    before = ranking.score(state)
    rng = np.random.default_rng(0)
    for _ in range(50):
        state.index.random_crack(rng, min_piece_size=1)
    assert ranking.score(state) < before


def test_workload_weight_breaks_ties():
    ranking = ColumnRanking(100, WorkloadMonitor())
    _register(ranking, "A1", weight=1.0)
    ref_heavy, _ = _register(ranking, "A2", weight=10.0)
    assert ranking.best().ref == ref_heavy


def test_ranked_sorts_descending():
    ranking = ColumnRanking(100, WorkloadMonitor())
    refs = [
        _register(ranking, f"A{i}", weight=float(i))[0]
        for i in range(1, 4)
    ]
    scores = [score for _, score in ranking.ranked()]
    assert scores == sorted(scores, reverse=True)
    assert ranking.ranked()[0][0].ref == refs[-1]


def test_ranked_ties_keep_registration_order():
    ranking = ColumnRanking(100, WorkloadMonitor())
    refs = [_register(ranking, name)[0] for name in ("A3", "A1", "A2")]
    late, _ = _register(ranking, "A0", weight=2.0)
    ranked = ranking.ranked()
    assert len({score for _, score in ranked[1:]}) == 1
    assert [state.ref for state, _ in ranked] == [late, *refs]


def test_refined_count():
    ranking = ColumnRanking(1_000, WorkloadMonitor())
    _register(ranking, "A1", rows=100)  # refined immediately
    _register(ranking, "A2", rows=100_000)
    assert ranking.refined_count() == 1


def test_invalid_cache_target_rejected():
    with pytest.raises(ConfigError):
        ColumnRanking(0, WorkloadMonitor())


def test_note_query_on_unknown_ref_is_noop():
    """A noop on the ranking: the query is the monitor's to count."""
    ranking = ColumnRanking(100, WorkloadMonitor())
    missing = ColumnRef("R", "missing")
    ranking.note_query(missing)  # must not raise
    ranking.note_tuning_action(missing)
    assert len(ranking) == 0
    assert ranking.monitor.query_counts == {missing: 1}


# -- best() is the head of ranked() ---------------------------------------

_COLUMN = st.tuples(
    st.sampled_from([8, 64, 256]),  # rows
    st.integers(0, 12),  # cracks
    st.integers(0, 3),  # queries seen
    st.sampled_from([0.5, 1.0, 2.0]),  # workload weight
    st.integers(0, 4),  # cracks a worker plan has promised
)


@settings(max_examples=150, deadline=None)
@given(
    columns=st.lists(_COLUMN, min_size=0, max_size=6),
    target=st.sampled_from([1, 4, 16, 64, 10_000]),
)
def test_best_is_the_head_of_ranked(columns, target):
    """The scalar maximum must pick exactly what the sorted ranking
    puts first: same scores, and registration order among ties (the
    small value sets above make ties and all-refined rankings common).
    """
    ranking = ColumnRanking(target, WorkloadMonitor())
    for i, (rows, cracks, queries, weight, planned) in enumerate(columns):
        ref = ColumnRef("R", f"A{i}")
        column = generate_uniform_column(
            ref.column, rows=rows, low=1, high=1_000, seed=i
        )
        index = CrackerIndex(column, clock=SimClock())
        index.ensure_cuts([pivot + 0.5 for pivot in range(cracks)])
        state = ranking.register(ref, index, workload_weight=weight)
        ranking.monitor.note_many(ref, queries)
        state.planned = planned
    ranked = ranking.ranked()
    assert ranking.best() is (ranked[0][0] if ranked else None)
    for state, score in ranked:
        assert score == ranking.score(state)


# -- the ranking reads the monitor's one count ----------------------------

_DOMAIN = 1e8
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"), st.sampled_from(["A1", "A2"]),
            st.integers(0, 15), st.integers(1, 3),
        ),
        st.tuples(
            st.sampled_from(["window", "served"]), st.integers(1, 6),
            st.integers(0, 15), st.integers(1, 3),
        ),
        st.tuples(st.just("idle"), st.integers(0, 8), st.just(0), st.just(0)),
        st.tuples(st.just("restore"), st.just(0), st.just(0), st.just(0)),
    ),
    max_size=12,
)


def _range(column: str, cell: int, width: int):
    from repro.engine.query import RangeQuery

    step = _DOMAIN / 16
    return RangeQuery(
        ColumnRef("R", column), cell * step, (cell + width) * step
    )


def _assert_scores_read_the_monitor(kernel) -> None:
    ranking, counts = kernel.ranking, kernel.monitor.query_counts
    for state in ranking.states():
        avg = state.average_piece_size()
        expected = (counts.get(state.ref, 0) + state.workload_weight) * avg
        if ranking.is_refined(state):
            expected = 0.0
        assert ranking.score(state) == expected
    assert ranking.export_state()["columns"] == [
        {
            "table": state.ref.table,
            "column": state.ref.column,
            "tuning_actions": state.tuning_actions,
            "workload_weight": state.workload_weight,
        }
        for state in ranking.states()
    ]


@settings(max_examples=25, deadline=None)
@given(_OPS)
def test_scores_read_the_monitors_one_count(ops):
    """After any mix of sequential reads, session windows, served
    windows, idle actions and snapshot restores, a column's score is
    (monitor count + weight) x average piece size: the ranking keeps
    no query count of its own, and every read is counted once."""
    import tempfile

    from repro.persist import SnapshotManager, restore_snapshot
    from repro.serving import ServingFrontend
    from repro.storage.database import Database
    from repro.storage.loader import build_paper_table

    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=2_000, columns=2, seed=11))
    session = db.session("holistic", cache_target_elements=64)
    frontend = None
    reads = 0
    with tempfile.TemporaryDirectory() as root:
        for kind, a, cell, width in ops:
            if kind == "read":
                session.run_query(_range(a, cell, width))
                reads += 1
            elif kind in ("window", "served"):
                window = [
                    _range(("A1", "A2")[i % 2], (cell + i) % 16, width)
                    for i in range(a)
                ]
                if kind == "window":
                    session.run_batch(window)
                else:
                    if frontend is None:
                        frontend = ServingFrontend(db, session.strategy)
                        frontend.add_client("c")
                    frontend.submit("c", window)
                    frontend.run()
                reads += a
            elif kind == "idle":
                session.idle(actions=a)
            else:
                kernel = session.strategy
                SnapshotManager(
                    root, db, strategy=kernel, session=session
                ).checkpoint()
                restored = restore_snapshot(root)
                assert restored.strategy.monitor.export_state() == (
                    kernel.monitor.export_state()
                )
                assert restored.strategy.ranking.export_state() == (
                    kernel.ranking.export_state()
                )
                db, session, frontend = restored.db, restored.session, None
            _assert_scores_read_the_monitor(session.strategy)
    assert session.strategy.monitor.total_queries == reads
