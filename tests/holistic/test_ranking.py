"""Unit tests for the continuous column ranking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.index import CrackerIndex
from repro.errors import ConfigError
from repro.holistic.ranking import ColumnRanking
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.loader import generate_uniform_column


def _register(ranking, name, rows=10_000, weight=1.0):
    ref = ColumnRef("R", name)
    column = generate_uniform_column(name, rows=rows, seed=hash(name) % 100)
    index = CrackerIndex(column, clock=SimClock())
    return ref, ranking.register(ref, index, workload_weight=weight)


def test_register_is_idempotent():
    ranking = ColumnRanking(cache_target_elements=100)
    ref, state = _register(ranking, "A1")
    again = ranking.register(ref, state.index, workload_weight=5.0)
    assert again is state
    assert state.workload_weight == 5.0
    assert len(ranking) == 1


def test_fresh_column_has_positive_score():
    ranking = ColumnRanking(cache_target_elements=100)
    _, state = _register(ranking, "A1")
    assert ranking.score(state) > 0
    assert not ranking.is_refined(state)


def test_hot_column_outranks_cold():
    ranking = ColumnRanking(cache_target_elements=100)
    ref_hot, _ = _register(ranking, "A1")
    ref_cold, _ = _register(ranking, "A2")
    for _ in range(10):
        ranking.note_query(ref_hot)
    assert ranking.best().ref == ref_hot


def test_refined_column_scores_zero():
    ranking = ColumnRanking(cache_target_elements=10_000)
    _, state = _register(ranking, "A1", rows=100)
    # 100 rows, target 10k: already refined.
    assert ranking.is_refined(state)
    assert ranking.score(state) == 0.0
    assert ranking.best() is None


def test_refinement_decays_score():
    import numpy as np

    ranking = ColumnRanking(cache_target_elements=10)
    ref, state = _register(ranking, "A1", rows=10_000)
    before = ranking.score(state)
    rng = np.random.default_rng(0)
    for _ in range(50):
        state.index.random_crack(rng, min_piece_size=1)
    assert ranking.score(state) < before


def test_workload_weight_breaks_ties():
    ranking = ColumnRanking(cache_target_elements=100)
    _register(ranking, "A1", weight=1.0)
    ref_heavy, _ = _register(ranking, "A2", weight=10.0)
    assert ranking.best().ref == ref_heavy


def test_ranked_sorts_descending():
    ranking = ColumnRanking(cache_target_elements=100)
    refs = [
        _register(ranking, f"A{i}", weight=float(i))[0]
        for i in range(1, 4)
    ]
    scores = [score for _, score in ranking.ranked()]
    assert scores == sorted(scores, reverse=True)
    assert ranking.ranked()[0][0].ref == refs[-1]


def test_ranked_ties_keep_registration_order():
    ranking = ColumnRanking(cache_target_elements=100)
    refs = [_register(ranking, name)[0] for name in ("A3", "A1", "A2")]
    late, _ = _register(ranking, "A0", weight=2.0)
    ranked = ranking.ranked()
    assert len({score for _, score in ranked[1:]}) == 1
    assert [state.ref for state, _ in ranked] == [late, *refs]


def test_refined_count():
    ranking = ColumnRanking(cache_target_elements=1_000)
    _register(ranking, "A1", rows=100)  # refined immediately
    _register(ranking, "A2", rows=100_000)
    assert ranking.refined_count() == 1


def test_invalid_cache_target_rejected():
    with pytest.raises(ConfigError):
        ColumnRanking(cache_target_elements=0)


def test_note_query_on_unknown_ref_is_noop():
    ranking = ColumnRanking(cache_target_elements=100)
    ranking.note_query(ColumnRef("R", "missing"))  # must not raise
    ranking.note_tuning_action(ColumnRef("R", "missing"))


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
    ranking = ColumnRanking(cache_target_elements=target)
    for i, (rows, cracks, queries, weight, planned) in enumerate(columns):
        ref = ColumnRef("R", f"A{i}")
        column = generate_uniform_column(
            ref.column, rows=rows, low=1, high=1_000, seed=i
        )
        index = CrackerIndex(column, clock=SimClock())
        index.ensure_cuts([pivot + 0.5 for pivot in range(cracks)])
        state = ranking.register(ref, index, workload_weight=weight)
        ranking.note_queries(ref, queries)
        state.planned = planned
    ranked = ranking.ranked()
    assert ranking.best() is (ranked[0][0] if ranked else None)
    for state, score in ranked:
        assert score == ranking.score(state)
