"""Table 3 benchmark — the D1 (MIMIC-III analogue) case study.

Times the three models (MFG via VFree, MSG, MFB) on the case-study graph
and writes the paper-layout partial-results table to the session's
temporary results directory (``jobs/table3.py`` regenerates
``results/table3.txt``).
"""
from __future__ import annotations

import pytest

from repro.experiments.table3 import (
    CASE_PARAMS,
    build_case_graph,
    condition_id,
    CONDITIONS,
    format_table3,
    run_table3,
)
from repro.graph.index import TemporalBipartiteIndex


@pytest.fixture(scope="module")
def case_index():
    return TemporalBipartiteIndex.from_pandas(build_case_graph())


def test_table3_mfg(benchmark, case_index):
    from repro.core.vfree import vfree

    p = CASE_PARAMS
    groups = benchmark(vfree, case_index, p.tau_u, p.tau_v, p.lam)
    assert len(groups) >= 4


def test_table3_msg(benchmark, case_index):
    from repro.models.msg import msg

    named = {condition_id(n) for n in CONDITIONS}
    sub = TemporalBipartiteIndex(
        (u, v, t) for (u, v, t) in case_index.edges_iter() if v in named
    )
    p = CASE_PARAMS
    groups = benchmark(msg, sub, p.tau_u, p.tau_v)
    assert len(groups) >= 2


def test_table3_mfb(benchmark, case_index):
    from repro.models.mfb import mfb

    p = CASE_PARAMS
    pairs = benchmark(mfb, case_index, p.tau_u, p.tau_v, p.lam)
    assert pairs == []  # the paper reports N/A for MFB


def test_table3_report(benchmark, results_dir):
    text = benchmark.pedantic(
        lambda: format_table3(run_table3()), rounds=1, iterations=1
    )
    (results_dir / "table3.txt").write_text(text + "\n")
    assert "SEPSIS" in text
