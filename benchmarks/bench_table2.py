"""Table 2 benchmark — dataset-statistics dataflow over all 15 analogues.

The timed portion is the Spark statistics computation; the formatted
measured-vs-paper table is written to the session's temporary results
directory (``jobs/table2.py`` regenerates ``results/table2.txt``).
"""
from __future__ import annotations

import pytest

from repro.experiments import datasets
from repro.experiments.table2 import format_table2, run_table2
from repro.graph.schema import edges_from_pandas
from repro.graph.stats import graph_stats

_SF = 1.0


@pytest.mark.parametrize("name", ["D1", "D5", "D9", "D14", "D15"])
def test_table2_stats_dataflow(benchmark, spark, name):
    """Time the Spark stats job on representative analogues."""
    pdf = datasets.load(name, sf=_SF)
    edges = edges_from_pandas(spark, pdf).cache()
    edges.count()  # materialize once; the benchmark times the stats pass
    stats = benchmark.pedantic(lambda: graph_stats(edges), rounds=2, iterations=1)
    edges.unpersist()
    assert stats.n_edges > 0


def test_table2_report(benchmark, spark, results_dir):
    """Format the full 15-dataset measured-vs-paper table."""
    text = benchmark.pedantic(
        lambda: format_table2(run_table2(spark, sf=_SF)), rounds=1, iterations=1
    )
    (results_dir / "table2.txt").write_text(text + "\n")
    assert "D15 (de)" in text
