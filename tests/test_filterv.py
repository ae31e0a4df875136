"""FilterV-specific behavior: ablation toggles, instrumentation."""
from __future__ import annotations

import pytest

from repro.core.filterv import filterv
from repro.core.runner import Params, run_mfg
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
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


@pytest.fixture(scope="module")
def d14():
    return TemporalBipartiteIndex.from_pandas(datasets.load("D14", sf=1.0))


#: FilterV's frequency checks on the D14 analogue at sf=1, per Table-1
#: (τ_U, τ_V, λ); ``results/table1.txt`` must print the same counts.
TABLE1_VERIFICATIONS = [
    (8, 4, 8, 59_511), (9, 5, 8, 12_046), (10, 6, 6, 10_571),
    (10, 6, 10, 10_571),
]


@pytest.mark.parametrize(
    "tau_u, tau_v, lam, verifications", TABLE1_VERIFICATIONS
)
def test_verifications_at_table1_settings(d14, tau_u, tau_v, lam, verifications):
    """Table 1's FilterV work at its four settings as a count, not seconds:
    the frequency checks of ``V_S ∪ {x}`` on the D14 analogue's core at
    sf=1, one per candidate of ``C_V`` or ``X_V`` that passes the candidate
    filter and the τ_U check. The three tighter settings do about a fifth
    of (8, 4, 8)'s."""
    run = run_mfg(d14, Params(tau_u, tau_v, lam), "filterv")
    assert run.timers["verifications"] == verifications


def test_empty_graph():
    assert filterv(TemporalBipartiteIndex([]), 1, 1, 1) == {}
