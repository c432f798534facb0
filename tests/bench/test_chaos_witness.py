"""One chaos scenario replayed under the latch witness.

The quick latch-timeout scenario injects LatchTimeout into worker
acquisitions while two tuning workers drain the idle windows between
served windows; with the
witness watching, the run must stay order-clean (injected timeouts
abort an acquisition before it is recorded, so the protocol's latch
bookkeeping stays balanced) and still match the fault-free reference
fingerprint.
"""

from __future__ import annotations

import pytest

from repro.analysis import witness
from repro.bench.chaos import QUICK_OPS, QUICK_ROWS, _serving_scenario, _trace


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


def test_latch_timeout_chaos_is_witness_clean():
    seed = 42
    case = _trace(QUICK_ROWS, QUICK_OPS, seed)
    with witness.enabled() as w:
        result = _serving_scenario(
            "serving/latch_timeout",
            QUICK_ROWS,
            QUICK_OPS,
            seed,
            case,
            arm=lambda p: p.arm("latch.acquire", at=[0, 2]),
            expected_injected=2,
            workers=2,
        )
    assert result.extra["matches_reference"]
    assert result.extra["faults"]["injected"] == 2
    assert w.violations == [], [v.detail for v in w.violations]
    assert w.acquires == w.releases > 0
