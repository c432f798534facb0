"""Projection soundness: reduced-scale runs predict paper-scale runs.

The virtual clock assumes that cracking's piece dynamics on uniform
data are scale-invariant in relative terms, so running the real
algorithms at a reduced size while multiplying element counts by
``N_paper/N_actual`` projects the paper's numbers faithfully.  These tests verify the claim
empirically: the *same* experiment at two different physical scales
must produce near-identical projected timings.
"""

import pytest

from repro.simtime.clock import SimClock
from repro.simtime.model import CostModel, projection_scale
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.storage.catalog import ColumnRef
from repro.workload.generators import UniformRangeGenerator

PAPER_ROWS = 100_000_000


def _projected_run(rows: int, strategy: str, queries: int, idle_actions: int = 0):
    model = CostModel(scale=projection_scale(rows, PAPER_ROWS))
    db = Database(clock=SimClock(model))
    db.add_table(build_paper_table(rows=rows, columns=1, seed=31))
    session = db.session(strategy)
    generator = UniformRangeGenerator(
        ColumnRef("R", "A1"), 1, PAPER_ROWS, 0.01, seed=17
    )
    if idle_actions:
        session.run_query(generator.next_query())
        session.idle(actions=idle_actions)
    for query in generator.queries(queries):
        session.run_query(query)
    return session.report.total_response_s


def test_scan_projection_is_scale_free():
    small = _projected_run(5_000, "scan", queries=20)
    large = _projected_run(50_000, "scan", queries=20)
    assert small == pytest.approx(large, rel=0.01)


def test_cracking_projection_is_scale_free():
    """Total projected cracking time agrees across physical scales.

    Identical query streams crack identical *relative* piece
    structures on uniform data; only sampling noise of the data
    distribution differs, so we allow a modest tolerance.
    """
    small = _projected_run(10_000, "adaptive", queries=60)
    large = _projected_run(80_000, "adaptive", queries=60)
    assert small == pytest.approx(large, rel=0.10)


def test_holistic_projection_is_scale_free():
    small = _projected_run(10_000, "holistic", queries=60, idle_actions=50)
    large = _projected_run(80_000, "holistic", queries=60, idle_actions=50)
    assert small == pytest.approx(large, rel=0.15)


def test_offline_projection_is_exact():
    """Sort costs project deterministically (no data dependence)."""
    small_model = CostModel(scale=projection_scale(10_000, PAPER_ROWS))
    large_model = CostModel(scale=projection_scale(80_000, PAPER_ROWS))
    assert small_model.sort_seconds(10_000) == pytest.approx(
        large_model.sort_seconds(80_000), rel=1e-9
    )


def test_full_index_probes_project_exactly():
    """Probe depth is priced at the projected index size, so two
    physical scales charge identical probe times."""
    from repro.offline.fullindex import FullIndex
    from repro.storage.loader import generate_uniform_column

    def probe_cost(rows: int) -> float:
        model = CostModel(scale=projection_scale(rows, PAPER_ROWS))
        clock = SimClock(model)
        index = FullIndex(
            generate_uniform_column("A", rows=rows, seed=1), clock
        )
        index.build()
        t0 = clock.now()
        index.select_range(1e7, 2e7)
        return clock.now() - t0

    assert probe_cost(10_000) == pytest.approx(
        probe_cost(80_000), rel=1e-9
    )
