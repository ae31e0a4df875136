"""FilterV-specific behavior: ablation toggles, instrumentation."""
from __future__ import annotations

import pytest

from repro.core.filterv import filterv
from tests.conftest import FIG2_MFGS


@pytest.mark.parametrize(
    "fr,vm", [(True, True), (True, False), (False, True), (False, False)]
)
def test_toggles_do_not_change_results(fig2, fr, vm):
    assert (
        filterv(
            fig2, 2, 2, 3, use_candidate_filter=fr, use_array_verification=vm
        )
        == FIG2_MFGS
    )


def test_cm_timer_populated(fig2):
    timers = {}
    filterv(fig2, 2, 2, 3, timers=timers)
    assert timers["cm"] > 0


def test_empty_graph():
    from repro.graph.index import TemporalBipartiteIndex

    assert filterv(TemporalBipartiteIndex([]), 1, 1, 1) == {}
