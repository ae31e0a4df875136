"""Distributed (Spark fan-out) enumeration ≡ sequential kernels."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.distributed import enumerate_mfg_distributed
from repro.core.gfcore import gfcore_local
from repro.core.vfree import vfree
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from repro.synth_data import figure2_edges
from tests.conftest import FIG2_MFGS, random_temporal_graph


@pytest.mark.parametrize("algorithm", ["vfree"])
def test_distributed_on_figure2(spark, algorithm):
    edges = edges_from_pandas(spark, figure2_edges())
    got = enumerate_mfg_distributed(edges, 2, 2, 3, algorithm=algorithm)
    assert got == FIG2_MFGS


@pytest.mark.parametrize("algorithm", ["vfree"])
@pytest.mark.parametrize("seed", [0, 4])
def test_distributed_on_random(spark, algorithm, seed):
    g = random_temporal_graph(seed, n_u=6, n_v=8, n_t=5, density=0.45)
    edges = edges_from_pandas(spark, g.to_pandas())
    expected = vfree(gfcore_local(g, 2, 2, 2), 2, 2, 2)
    got = enumerate_mfg_distributed(edges, 2, 2, 2, algorithm=algorithm)
    assert got == expected


def test_distributed_invariant_under_shuffle_partitions(spark):
    g = random_temporal_graph(4, n_u=6, n_v=8, n_t=5, density=0.45)
    edges = edges_from_pandas(spark, g.to_pandas())
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    got = {}
    try:
        for n in (1, 7):
            spark.conf.set(key, str(n))
            got[n] = enumerate_mfg_distributed(edges, 2, 2, 2)
    finally:
        spark.conf.set(key, saved)
    assert got[1] == got[7] == vfree(gfcore_local(g, 2, 2, 2), 2, 2, 2)
    assert got[1]


def test_distributed_one_root_per_task(spark):
    """A core with no more V vertices than ``defaultParallelism`` gives one
    task per root. v10 and v11 share no neighbor, so each is its own MFG;
    v12 lives in one snapshot and the peel removes it."""
    triples = [(u, 10, t) for u in (0, 1) for t in (0, 1)]
    triples += [(u, 11, t) for u in (2, 3) for t in (0, 1)]
    triples += [(u, 12, 0) for u in (0, 2)]
    g = TemporalBipartiteIndex(triples)
    core = gfcore_local(g, 2, 1, 2)
    assert len(core.v_ids) == 2 <= spark.sparkContext.defaultParallelism
    expected = vfree(core, 2, 1, 2)
    assert expected == {frozenset({10}): {0, 1}, frozenset({11}): {0, 1}}
    edges = edges_from_pandas(spark, g.to_pandas())
    assert enumerate_mfg_distributed(edges, 2, 1, 2) == expected


def test_distributed_on_dataset(spark):
    name = "D2"
    spec = datasets.SPECS[name]
    p = spec.params
    pdf = datasets.load(name, sf=0.1)
    g = TemporalBipartiteIndex.from_pandas(pdf)
    expected = vfree(
        gfcore_local(g, p.tau_u, p.tau_v, p.lam), p.tau_u, p.tau_v, p.lam
    )
    got = enumerate_mfg_distributed(
        edges_from_pandas(spark, pdf), p.tau_u, p.tau_v, p.lam
    )
    assert got == expected
    assert len(got) > 0  # planted groups guarantee non-trivial output


def test_distributed_without_graph_filter(spark):
    edges = edges_from_pandas(spark, figure2_edges())
    got = enumerate_mfg_distributed(
        edges, 2, 2, 3, apply_graph_filter=False
    )
    assert got == FIG2_MFGS


def test_distributed_empty_result(spark):
    edges = edges_from_pandas(spark, figure2_edges())
    # λ larger than |T| can never be satisfied.
    assert enumerate_mfg_distributed(edges, 2, 2, 7) == {}


def test_distributed_rejects_unknown_kernel(spark):
    edges = edges_from_pandas(spark, figure2_edges())
    for algorithm in ("bk-alg+", "filterv"):
        with pytest.raises(ValueError, match="vfree"):
            enumerate_mfg_distributed(edges, 2, 2, 3, algorithm=algorithm)


def _raises_before_any_job(spark, group, edges, params, match):
    """``ValueError`` matching ``match``, with no Spark job in ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "input validation")
    try:
        with pytest.raises(ValueError, match=match):
            enumerate_mfg_distributed(edges, *params)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


@pytest.mark.parametrize("params", [(0, 2, 3), (2, 0, 3), (2, 2, 0), (2, 2, -1)])
def test_distributed_validates_params_before_spark(spark, params):
    edges = edges_from_pandas(spark, figure2_edges())
    _raises_before_any_job(spark, f"validate-{params}", edges, params, "positive")


@pytest.mark.parametrize("column", ["u", "v", "t"])
def test_distributed_validates_edges_before_spark(spark, column):
    edges = edges_from_pandas(spark, figure2_edges()).drop(column)
    _raises_before_any_job(
        spark, f"validate-no-{column}", edges, (2, 2, 3), f"missing.*{column}"
    )


@pytest.mark.parametrize("column", ["u", "v", "t"])
def test_distributed_rejects_fractional_column_before_spark(spark, column):
    edges = edges_from_pandas(spark, figure2_edges())
    edges = edges.withColumn(column, F.col(column) + 0.5)
    _raises_before_any_job(
        spark, f"validate-fractional-{column}", edges, (2, 2, 3),
        f"integer.*'{column}'",
    )


def test_edges_from_pandas_rejects_fractional_or_missing_column(spark):
    fractional = pd.DataFrame({"u": [1.5, 2.7], "v": [3.2, 3.9], "t": [0.1, 0.9]})
    with pytest.raises(ValueError, match="integer"):
        edges_from_pandas(spark, fractional)
    with pytest.raises(ValueError, match="missing.*'t'"):
        edges_from_pandas(spark, figure2_edges().drop(columns="t"))
