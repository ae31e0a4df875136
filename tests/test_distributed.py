"""Distributed (Spark fan-out) enumeration ≡ sequential kernels."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark import SparkConf
from pyspark.sql import functions as F

from repro.core import distributed
from repro.core.distributed import driver_edge_budget, enumerate_mfg_distributed
from repro.core.gfcore import gfcore_local, gfcore_spark
from repro.core.vfree import vfree
from repro.experiments import datasets
from repro.graph.index import EDGE_COLUMNS, TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas, validate_edges
from repro.graph.stats import degree_order_v
from repro.synth_data import figure2_edges
from tests.conftest import FIG2_MFGS, random_temporal_graph


#: The two ends of ``FANOUT_S``: 0 ships every root to the fan-out, ∞
#: searches every root on the driver.
FANOUT_ENDS = (0, math.inf)


@pytest.fixture()
def fanout_ends(monkeypatch):
    """Iterate over ``FANOUT_ENDS``; each is ``distributed.FANOUT_S`` for
    its pass of the loop."""

    def ends():
        for fanout_s in FANOUT_ENDS:
            monkeypatch.setattr(distributed, "FANOUT_S", fanout_s)
            yield fanout_s

    return ends()


@pytest.mark.parametrize("algorithm", ["vfree"])
def test_distributed_on_figure2(spark, fanout_ends, algorithm):
    edges = edges_from_pandas(spark, figure2_edges())
    for fanout_s in fanout_ends:
        got = enumerate_mfg_distributed(edges, 2, 2, 3, algorithm=algorithm)
        assert got == FIG2_MFGS, fanout_s


@pytest.mark.parametrize("algorithm", ["vfree"])
@pytest.mark.parametrize("seed", [0, 4])
def test_distributed_on_random(spark, fanout_ends, algorithm, seed):
    g = random_temporal_graph(seed, n_u=6, n_v=8, n_t=5, density=0.45)
    edges = edges_from_pandas(spark, g.to_pandas())
    expected = vfree(gfcore_local(g, 2, 2, 2), 2, 2, 2)
    for fanout_s in fanout_ends:
        got = enumerate_mfg_distributed(edges, 2, 2, 2, algorithm=algorithm)
        assert got == expected, fanout_s


def test_distributed_invariant_under_shuffle_partitions(spark, fanout_ends):
    g = random_temporal_graph(4, n_u=6, n_v=8, n_t=5, density=0.45)
    edges = edges_from_pandas(spark, g.to_pandas())
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    expected = vfree(gfcore_local(g, 2, 2, 2), 2, 2, 2)
    for fanout_s in fanout_ends:
        got = {}
        try:
            for n in (1, 7):
                spark.conf.set(key, str(n))
                got[n] = enumerate_mfg_distributed(edges, 2, 2, 2)
        finally:
            spark.conf.set(key, saved)
        assert got[1] == got[7] == expected, fanout_s
        assert got[1]


def test_distributed_one_root_per_task(spark, monkeypatch):
    """A core with no more V vertices than ``defaultParallelism`` gives one
    task per root when every root is shipped (``FANOUT_S`` = 0). v10 and
    v11 share no neighbor, so each is its own MFG; v12 lives in one
    snapshot and the peel removes it."""
    monkeypatch.setattr(distributed, "FANOUT_S", 0)
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


def test_distributed_on_dataset(spark, fanout_ends):
    name = "D2"
    spec = datasets.SPECS[name]
    p = spec.params
    pdf = datasets.load(name, sf=0.1)
    g = TemporalBipartiteIndex.from_pandas(pdf)
    expected = vfree(
        gfcore_local(g, p.tau_u, p.tau_v, p.lam), p.tau_u, p.tau_v, p.lam
    )
    edges = edges_from_pandas(spark, pdf)
    for fanout_s in fanout_ends:
        got = enumerate_mfg_distributed(edges, p.tau_u, p.tau_v, p.lam)
        assert got == expected, fanout_s
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


@contextmanager
def job_group(spark, group):
    """Run the block in Spark job group ``group``; the yielded list receives
    the ids of the group's jobs when the block ends."""
    sc = spark.sparkContext
    jobs = []
    sc.setJobGroup(group, group)
    try:
        yield jobs
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    jobs.extend(sc.statusTracker().getJobIdsForGroup(group))


def _raises_before_any_job(spark, group, edges, params, match):
    """``ValueError`` matching ``match``, with no Spark job in ``group``."""
    with job_group(spark, group) as jobs, pytest.raises(ValueError, match=match):
        enumerate_mfg_distributed(edges, *params)
    assert jobs == []


@pytest.mark.parametrize(
    "params",
    [(0, 2, 3), (2, 0, 3), (2, 2, 0), (2, 2, -1)]
    + [
        bad
        for value in (float("nan"), 1.5, True)
        for bad in ((value, 2, 3), (2, value, 3), (2, 2, value))
    ],
)
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
def test_distributed_rejects_repeated_column_before_spark(spark, column):
    edges = spark.createDataFrame([(1, 1, 2, 3)], [column, "u", "v", "t"])
    _raises_before_any_job(
        spark, f"validate-repeated-{column}", edges, (1, 1, 1),
        f"repeats.*'{column}'",
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


#: One defect of the edge contract per case: how to put it into a pandas
#: frame and into a Spark frame, and the type each frame then names (None
#: when the message names no type).
EDGE_DEFECTS = {
    "missing": (
        lambda pdf: pdf.drop(columns="t"), lambda sdf: sdf.drop("t"), None
    ),
    "repeated": (
        lambda pdf: pdf[["u", "v", "t", "v"]],
        lambda sdf: sdf.select("u", "v", "t", "v"),
        None,
    ),
    "fractional": (
        lambda pdf: pdf.assign(u=pdf["u"] + 0.5),
        lambda sdf: sdf.withColumn("u", F.col("u") + 0.5),
        ("float64", "double"),
    ),
}


@pytest.mark.parametrize("defect", list(EDGE_DEFECTS))
def test_pandas_and_spark_frames_raise_the_same_edge_message(spark, defect):
    """The same defect raises the same message from a pandas frame and from
    a Spark frame; a fractional column is named with each frame's own type
    (pandas ``float64``, Spark ``double``)."""
    to_pandas, to_spark, types = EDGE_DEFECTS[defect]
    pdf = figure2_edges()
    with pytest.raises(ValueError) as from_pandas:
        edges_from_pandas(spark, to_pandas(pdf))
    with pytest.raises(ValueError) as from_spark:
        validate_edges(to_spark(edges_from_pandas(spark, pdf)))
    messages = [str(from_pandas.value), str(from_spark.value)]
    if types is not None:
        messages = [m.replace(t, "<type>") for m, t in zip(messages, types)]
    assert messages[0] == messages[1], messages


def test_edges_from_pandas_names_a_nullable_column_with_a_missing_value(spark):
    holes = figure2_edges()
    holes["u"] = pd.array([None] + holes["u"].tolist()[1:], dtype="Int64")
    with pytest.raises(ValueError, match=r"\['u'\] hold missing values"):
        edges_from_pandas(spark, holes)


def test_edges_from_pandas_rejects_unsigned_values_above_int64(spark):
    wide = figure2_edges().astype("uint64")
    wide.loc[0, "v"] = np.uint64(2**64 - 1)
    with pytest.raises(ValueError, match="'v'.*int64"):
        edges_from_pandas(spark, wide)


#: The session setting below which pyspark builds a ``LocalRelation``.
LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


@pytest.mark.parametrize("n", [1, 10_001, 31_928])
def test_edges_from_pandas_keeps_the_rows_out_of_the_plan(spark, n):
    """The rows are Arrow batches in an RDD, one partition per batch of
    10,000, not a ``LocalRelation`` in the plan."""
    pdf = pd.DataFrame({"u": np.arange(n), "v": np.arange(n) % 7, "t": 0})
    edges = edges_from_pandas(spark, pdf)
    assert not edges.isLocal()
    assert edges.rdd.getNumPartitions() == -(-n // 10_000)
    assert edges.count() == n


@pytest.mark.parametrize("saved", [None, "1m"])
def test_edges_from_pandas_restores_the_local_relation_threshold(
    spark, monkeypatch, saved
):
    """Unset stays unset and a set value stays as it was: after a call,
    after a ``ValueError`` from ``edge_columns`` and after a failed
    ``createDataFrame``."""
    conf = spark.conf
    if saved is None:
        conf.unset(LOCAL_RELATION_THRESHOLD)
    else:
        conf.set(LOCAL_RELATION_THRESHOLD, saved)
    try:
        assert not edges_from_pandas(spark, figure2_edges()).isLocal()
        assert conf.get(LOCAL_RELATION_THRESHOLD, None) == saved
        with pytest.raises(ValueError, match="missing"):
            edges_from_pandas(spark, figure2_edges().drop(columns="t"))
        assert conf.get(LOCAL_RELATION_THRESHOLD, None) == saved

        def failing(*args, **kwargs):
            assert conf.get(LOCAL_RELATION_THRESHOLD) == "0"
            raise RuntimeError("createDataFrame failed")

        monkeypatch.setattr(spark, "createDataFrame", failing)
        with pytest.raises(RuntimeError, match="createDataFrame failed"):
            edges_from_pandas(spark, figure2_edges())
        assert conf.get(LOCAL_RELATION_THRESHOLD, None) == saved
    finally:
        conf.unset(LOCAL_RELATION_THRESHOLD)


# ----------------------------------------------------------------------
# Cut-over: peel on the driver once the graph fits the edge budget
# ----------------------------------------------------------------------

#: Spark jobs of one call on a graph under the budget, with adaptive query
#: execution off, per ``FANOUT_S``: the raw collect, plus the fan-out when
#: any root is shipped. A Spark peel adds the distinct count, one job per
#: round and the collect of the core.
UNDER_BUDGET_JOBS = {0: 2, math.inf: 1}


@pytest.fixture()
def fixed_plans(spark):
    """Adaptive query execution off for the test, so that every shuffle
    stage runs inside its query's job and jobs can be counted; and few
    shuffle partitions, so that the Spark peel rounds run fast."""
    conf = {
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.shuffle.partitions": "4",
    }
    saved = {key: spark.conf.get(key) for key in conf}
    for key, value in conf.items():
        spark.conf.set(key, value)
    yield
    for key, value in saved.items():
        spark.conf.set(key, value)


@pytest.fixture()
def local_peels(monkeypatch):
    """Input edge count of every ``gfcore_local`` the distributed path runs."""
    calls = []

    def recording(index, *params):
        calls.append(len(index))
        return gfcore_local(index, *params)

    monkeypatch.setattr(distributed, "gfcore_local", recording)
    return calls


def _force_budget(monkeypatch, budget):
    monkeypatch.setattr(distributed, "driver_edge_budget", lambda sc: budget)


def _random_case():
    g = random_temporal_graph(4, n_u=6, n_v=8, n_t=5, density=0.45)
    return g.to_pandas(), (2, 2, 2)


def _d14_case():
    p = datasets.SPECS["D14"].params
    return datasets.load("D14", sf=0.1), (p.tau_u, p.tau_v, p.lam)


def _dist_fanout_case():
    """The ``dist-fanout`` benchmark's base graph, D14 at sf=0.3: 31,928
    distinct edges, four Arrow batches and so four partitions."""
    pdf = datasets.load("D14", sf=0.3).drop_duplicates(ignore_index=True)
    p = datasets.SPECS["D14"].params
    return pdf, (p.tau_u, p.tau_v, p.lam)


CUT_OVER_CASES = {
    "figure2": lambda: (figure2_edges(), (2, 2, 3)),
    "random": _random_case,
    "D14": _d14_case,
    "dist-fanout": _dist_fanout_case,
}


@pytest.mark.parametrize(
    "memory, cap, budget",
    [
        (None, None, 4_194_304),  # Spark's defaults: 1g heap, 1g cap
        ("1g", "0", 4_194_304),  # no collect cap: the heap still bounds it
        ("8g", "1g", 22_369_621),  # half the cap at 24 bytes per edge
        ("8g", "480", 10),
        ("2048", "0", 8_388_608),  # a unitless driver memory is in MiB
        ("1t", "0", 2**31 - 2),  # the most rows DataFrame.limit takes
    ],
)
def test_driver_edge_budget(spark, memory, cap, budget):
    """The heap at 256 bytes per edge, or half the collect cap at 24 bytes
    per edge, whichever is smaller; always finite."""
    conf = SparkConf(loadDefaults=False, _jvm=spark.sparkContext._jvm)
    for key, value in (
        ("spark.driver.memory", memory), ("spark.driver.maxResultSize", cap)
    ):
        if value is not None:
            conf.set(key, value)
    assert driver_edge_budget(SimpleNamespace(_conf=conf)) == budget


@pytest.mark.parametrize("budget", ["fits", "one under", "zero"])
@pytest.mark.parametrize("case", sorted(CUT_OVER_CASES))
def test_collected_core_equals_local_and_spark_core(
    spark, fixed_plans, local_peels, case, budget
):
    """``fits``: the raw graph is peeled on the driver. ``one under`` and
    ``zero``: ``gfcore_spark`` peels and its core is collected."""
    pdf, params = CUT_OVER_CASES[case]()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    edges = edges_from_pandas(spark, pdf)
    n = {"fits": len(g), "one under": len(g) - 1, "zero": 0}[budget]
    core = distributed._collect_core(edges, *params, n)
    expected = sorted(gfcore_local(g, *params).edges_iter())
    assert expected or case == "random"
    assert sorted(core.edges_iter()) == expected
    spark_core = gfcore_spark(edges, *params).toPandas().values.tolist()
    assert sorted(map(tuple, spark_core)) == expected
    assert local_peels == ([len(g)] if budget == "fits" else [])


@pytest.mark.parametrize("case", sorted(CUT_OVER_CASES))
def test_over_budget_call_equals_sequential(
    spark, monkeypatch, fixed_plans, local_peels, fanout_ends, case
):
    """Budget one under the input: Spark peels, the driver does not."""
    pdf, params = CUT_OVER_CASES[case]()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    _force_budget(monkeypatch, len(g) - 1)
    edges = edges_from_pandas(spark, pdf)
    for fanout_s in fanout_ends:
        with job_group(spark, f"over-budget-{case}-{fanout_s}") as jobs:
            got = enumerate_mfg_distributed(edges, *params)
        assert got == vfree(gfcore_local(g, *params), *params), fanout_s
        assert got or case == "random"
        assert local_peels == []
        # Spark peel rounds ran
        assert len(jobs) > UNDER_BUDGET_JOBS[fanout_s], fanout_s


@pytest.mark.parametrize("case", ["figure2", "random", "dist-fanout"])
def test_under_budget_call_runs_two_jobs(
    spark, fixed_plans, local_peels, fanout_ends, case
):
    """A graph under the budget is collected raw and peeled on the driver:
    no Spark peel round runs. The fan-out is the second job, and runs only
    when roots are shipped."""
    pdf, params = CUT_OVER_CASES[case]()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    edges = edges_from_pandas(spark, pdf)
    for fanout_s in fanout_ends:
        local_peels.clear()
        with job_group(spark, f"under-budget-{case}-{fanout_s}") as jobs:
            got = enumerate_mfg_distributed(edges, *params)
        assert got == vfree(gfcore_local(g, *params), *params), fanout_s
        assert len(jobs) == UNDER_BUDGET_JOBS[fanout_s], fanout_s
        assert local_peels == [len(g)]  # the whole raw graph, on the driver


def test_multi_partition_raw_collect_is_one_job_of_one_stage(
    spark, fixed_plans
):
    """``coalesce(1)`` before the limit: the probe reads all partitions in
    one task, with no shuffle to gather them."""
    pdf, params = _dist_fanout_case()
    edges = edges_from_pandas(spark, pdf)
    assert len(pdf) == 31_928 and edges.rdd.getNumPartitions() == 4
    with job_group(spark, "multi-partition-probe") as jobs:
        core = distributed._collect_core(edges, *params, len(pdf))
    assert len(core) > 0
    tracker = spark.sparkContext.statusTracker()
    assert len(jobs) == 1
    stages = tracker.getJobInfo(jobs[0]).stageIds
    assert len(stages) == 1
    assert tracker.getStageInfo(stages[0]).numTasks == 1


def _ticking_clock(monkeypatch):
    """``distributed.time.perf_counter`` reads 0, 1, 2, ... s."""
    clock = iter(range(10**6))
    monkeypatch.setattr(
        distributed, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )


def _d14_core():
    """The core of D14 at sf=0.1 (45 roots) and its (τ_U, τ_V, λ)."""
    pdf, params = _d14_case()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    return gfcore_local(g, *params), params


def test_driver_search_stops_between_roots_from_the_top(monkeypatch):
    """Under a clock that reads 0, 1, 2, ... s and ``FANOUT_S = s + 0.5``,
    the driver reads the clock once before each root, so it searches ``s``
    roots from the top rank down and returns ``k = |V| − s``, the number
    of ranks left. No Spark session is used."""
    core, params = _d14_core()
    n_v = len(core.v_ids)
    for s in range(n_v + 1):
        _ticking_clock(monkeypatch)
        monkeypatch.setattr(distributed, "FANOUT_S", s + 0.5)
        groups, k = distributed._search_on_driver(core, *params)
        assert k == n_v - s, s
        assert groups == vfree(core, *params, roots=range(k, n_v)), s


def test_driver_search_builds_the_arrays_once(monkeypatch):
    """The driver draws its ranks lazily from one ``vfree`` call: a search
    that stops after 20 of the core's 45 roots orders the core once."""
    core, params = _d14_core()
    calls = []
    degree_rank = TemporalBipartiteIndex.degree_rank

    def counting(index):
        calls.append(index)
        return degree_rank(index)

    monkeypatch.setattr(TemporalBipartiteIndex, "degree_rank", counting)
    _ticking_clock(monkeypatch)
    monkeypatch.setattr(distributed, "FANOUT_S", 20.5)
    groups, k = distributed._search_on_driver(core, *params)
    assert calls == [core]
    n_v = len(core.v_ids)
    assert k == n_v - 20 > 0
    assert groups and groups == vfree(core, *params, roots=range(k, n_v))


@pytest.mark.parametrize("stop", [3, 5])
def test_driver_stops_between_roots_and_ships_the_rest(
    spark, monkeypatch, fixed_plans, stop
):
    """A clock that reads 0, 1, 2, ... s and ``FANOUT_S = stop + 0.5``: the
    driver searches the ``stop`` top ranks, reading the clock before each
    root, and the fan-out runs one task per share of the ``k = |V| − stop``
    ranks left, at most ``defaultParallelism``. The driver's groups are
    moved aside as it returns, so the call's result is the fan-out's
    alone. The top ``τ_V − 1`` branches emit nothing, so ``stop`` ≥ 3
    gives both parts groups."""
    _ticking_clock(monkeypatch)
    monkeypatch.setattr(distributed, "FANOUT_S", stop + 0.5)
    stops, driver_part = [], {}

    def recording(core, tau_u, tau_v, lam):
        groups, k = search_on_driver(core, tau_u, tau_v, lam)
        stops.append(k)
        driver_part.update(groups)
        return {}, k

    search_on_driver = distributed._search_on_driver
    monkeypatch.setattr(distributed, "_search_on_driver", recording)
    pdf, params = _random_case()
    core = gfcore_local(TemporalBipartiteIndex.from_pandas(pdf), *params)
    k = len(core.v_ids) - stop
    edges = edges_from_pandas(spark, pdf)
    with job_group(spark, f"driver-stop-{stop}") as jobs:
        shipped = enumerate_mfg_distributed(edges, *params)
    assert stops == [k] and k > 0
    assert driver_part == vfree(core, *params, roots=range(k, len(core.v_ids)))
    assert shipped == vfree(core, *params, roots=range(k))
    assert driver_part and shipped
    assert {**driver_part, **shipped} == vfree(core, *params)
    tracker = spark.sparkContext.statusTracker()
    assert len(jobs) == 2
    fanout = tracker.getJobInfo(max(jobs))
    tasks = sum(tracker.getStageInfo(s).numTasks for s in fanout.stageIds)
    assert tasks == min(spark.sparkContext.defaultParallelism, k)


@pytest.mark.parametrize("budget", ["default", "zero"])
def test_duplicate_rows_do_not_change_the_groups(
    spark, monkeypatch, fanout_ends, budget
):
    """A third of the rows repeated, in a frame from local rows and in one
    from ``edges_from_pandas``, which keeps the repeats; peeled on the
    driver (``default``) or by Spark (``zero``)."""
    g = random_temporal_graph(4, n_u=6, n_v=8, n_t=5, density=0.45)
    triples = sorted(g.edges_iter())
    rows = triples + triples[::3]
    frames = (
        spark.createDataFrame(rows, "u long, v long, t long"),
        edges_from_pandas(spark, pd.DataFrame(rows, columns=list(EDGE_COLUMNS))),
    )
    for dup in frames:
        assert dup.count() > dup.distinct().count() == len(triples)
    if budget == "zero":
        _force_budget(monkeypatch, 0)
    expected = vfree(gfcore_local(g, 2, 2, 2), 2, 2, 2)
    assert expected
    for fanout_s in fanout_ends:
        for dup in frames:
            assert enumerate_mfg_distributed(dup, 2, 2, 2) == expected, fanout_s


def test_empty_input_gives_no_groups(spark):
    empty = spark.createDataFrame([], "u long, v long, t long")
    assert enumerate_mfg_distributed(empty, 2, 2, 2) == {}


# ----------------------------------------------------------------------
# Edges go in and out as Arrow, whatever the session's Arrow setting
# ----------------------------------------------------------------------

#: pyspark's switch between Arrow and pickled rows for pandas frames.
ARROW_ENABLED = "spark.sql.execution.arrow.pyspark.enabled"


@pytest.fixture()
def arrow_off(spark):
    """The shared session with ``ARROW_ENABLED`` off, restored after."""
    saved = spark.conf.get(ARROW_ENABLED)
    spark.conf.set(ARROW_ENABLED, "false")
    yield
    spark.conf.set(ARROW_ENABLED, saved)


@pytest.mark.parametrize("budget", ["default", "zero", "unpeeled"])
def test_arrow_off_session_builds_and_collects_through_arrow(
    spark, monkeypatch, arrow_off, fanout_ends, budget
):
    """``edges_from_pandas`` hands ``createDataFrame`` a ``pyarrow.Table``
    and gets an RDD-backed frame, and the call never collects through
    ``toPandas``, which with Arrow off pickles every row. The groups are
    the sequential ones, peeled on the driver (``default``), by Spark
    (``zero``) or not at all (``unpeeled``)."""
    pdf, params = _random_case()
    create = spark.createDataFrame
    received = []

    def recording(data, *args, **kwargs):
        received.append(type(data))
        return create(data, *args, **kwargs)

    monkeypatch.setattr(spark, "createDataFrame", recording)
    edges = edges_from_pandas(spark, pdf)
    assert received == [pa.Table]
    assert not edges.isLocal()

    def to_pandas(self):
        raise AssertionError("DataFrame.toPandas called")

    monkeypatch.setattr(type(edges), "toPandas", to_pandas)
    if budget == "zero":
        _force_budget(monkeypatch, 0)
    peel = budget != "unpeeled"
    index = TemporalBipartiteIndex.from_pandas(pdf)
    expected = vfree(gfcore_local(index, *params) if peel else index, *params)
    assert expected
    for fanout_s in fanout_ends:
        got = enumerate_mfg_distributed(edges, *params, apply_graph_filter=peel)
        assert got == expected, fanout_s


# ----------------------------------------------------------------------
# The caller's frame is collected as it is: no cast projection
# ----------------------------------------------------------------------


def _narrow_frame(spark, pdf):
    """``pdf``'s edges as ``t`` tinyint, ``w`` string, ``v`` smallint and
    ``u`` int, in that order: narrow integral types, the edge columns out
    of order, and an extra column."""
    rows = [
        (t, f"w{i}", v, u)
        for i, (u, v, t) in enumerate(pdf[list(EDGE_COLUMNS)].itertuples(False))
    ]
    return spark.createDataFrame(rows, "t tinyint, w string, v smallint, u int")


@pytest.mark.parametrize("budget", ["default", "zero"])
def test_narrow_reordered_frame_gives_the_sequential_groups(
    spark, monkeypatch, fanout_ends, budget
):
    """The driver peel (``default``) and the Spark peel (``zero``) read the
    narrow columns by name, and the driver widens them to int64."""
    pdf, params = _random_case()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    narrow = _narrow_frame(spark, pdf)
    if budget == "zero":
        _force_budget(monkeypatch, 0)
    expected = vfree(gfcore_local(g, *params), *params)
    assert expected
    for fanout_s in fanout_ends:
        assert enumerate_mfg_distributed(narrow, *params) == expected, fanout_s


def test_validate_edges_returns_a_u_v_t_frame_as_it_is(spark):
    edges = edges_from_pandas(spark, figure2_edges())
    assert validate_edges(edges) is edges


def test_validate_edges_selects_u_v_t_by_name_without_a_cast(spark):
    """An extra column is dropped and reordered columns are put in order;
    each column keeps its own integral type."""
    pdf = figure2_edges()
    narrow = _narrow_frame(spark, pdf)
    for frame in (narrow, narrow.select("v", "u", "t")):
        got = validate_edges(frame)
        assert got.columns == ["u", "v", "t"]
        types = [f.dataType.simpleString() for f in got.schema.fields]
        assert types == ["int", "smallint", "tinyint"]
    rows = sorted(map(tuple, got.toPandas().values.tolist()))
    assert rows == sorted(map(tuple, pdf[list(EDGE_COLUMNS)].values.tolist()))


# ----------------------------------------------------------------------
# The Spark peel and the benchmark's traced Spark calls
# ----------------------------------------------------------------------


def test_traced_benchmark_calls_give_the_sequential_groups(
    spark, fixed_plans, fanout_ends
):
    """The calls ``perfbench``'s traced Spark run makes, in its order: the
    Spark peel, the degree-order dataflow over its core, then the fan-out
    over that core with the graph filter off and the kernel passed
    positionally."""
    pdf, params = _d14_case()
    g = TemporalBipartiteIndex.from_pandas(pdf)
    expected = vfree(gfcore_local(g, *params), *params)
    assert expected
    for fanout_s in fanout_ends:
        core = gfcore_spark(edges_from_pandas(spark, pdf), *params)
        degree_order_v(core).collect()
        got = enumerate_mfg_distributed(
            core, *params, "vfree", apply_graph_filter=False
        )
        assert got == expected, fanout_s


def test_spark_peel_imports_no_ipython():
    """A ``gfcore_spark`` call in a fresh process builds its rounds from SQL
    strings: it does not load the ~500 modules, IPython among them, that
    the first ``functions.col`` of a pyspark 4.1 process imports."""
    code = (
        "import sys\n"
        "from pyspark.sql import SparkSession\n"
        "from repro.core.gfcore import gfcore_spark\n"
        "from repro.graph.schema import edges_from_pandas\n"
        "from repro.synth_data import figure2_edges\n"
        "spark = SparkSession.builder.getOrCreate()\n"
        "core = gfcore_spark(edges_from_pandas(spark, figure2_edges()), 2, 2, 3)\n"
        "print(core.count(), 'IPython' in sys.modules)\n"
        "spark.stop()\n"
    )
    submit = (
        "--master local[1] --driver-memory 512m "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYSPARK_SUBMIT_ARGS=submit)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    core = gfcore_local(TemporalBipartiteIndex.from_pandas(figure2_edges()), 2, 2, 3)
    assert proc.stdout.split() == [str(len(core)), "False"]
