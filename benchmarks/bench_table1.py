"""Table 1 benchmark — FilterV vs VFree CM cost on the D14 analogue.

Regenerates the paper's Table 1 rows (FilterV-CM %, FilterV-CM s,
VFree-CM s) for the four parameter settings; the formatted paper-vs-measured
table is written to the session's temporary results directory
(``jobs/table1.py`` regenerates ``results/table1.txt``).
"""
from __future__ import annotations

import pytest

from repro.core.runner import run_mfg
from repro.experiments.table1 import PARAM_SWEEP, format_table1, run_table1

_SF = 1.0


@pytest.fixture(scope="module")
def d14(dataset_index):
    return dataset_index("D14", _SF)


@pytest.mark.parametrize("params", PARAM_SWEEP, ids=lambda p: f"{p.tau_u}-{p.tau_v}-{p.lam}")
@pytest.mark.parametrize("algorithm", ["filterv", "vfree"])
def test_table1_run(benchmark, d14, params, algorithm):
    """One Table-1 cell: full enumeration under one parameter setting."""
    run = benchmark.pedantic(
        lambda: run_mfg(d14, params, algorithm), rounds=1, iterations=1
    )
    assert run.n_groups > 0
    benchmark.extra_info["cm_s"] = round(run.cm_s, 3)
    benchmark.extra_info["cm_pct"] = round(run.cm_pct, 2)


def test_table1_report(benchmark, results_dir):
    """Format the paper-layout Table 1 (measured vs paper)."""
    text = benchmark.pedantic(
        lambda: format_table1(run_table1(sf=_SF)), rounds=1, iterations=1
    )
    (results_dir / "table1.txt").write_text(text + "\n")
    assert "FilterV-CM" in text
