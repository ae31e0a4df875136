"""Spark edge frames for temporal bipartite graphs.

A temporal bipartite graph ``G = (U, V, E)`` is represented in Spark as a
DataFrame of temporal edges with columns

- ``u`` — vertex id on the U side,
- ``v`` — vertex id on the V side,
- ``t`` — integer interaction timestamp (paper §2.1, footnote 1).

The contract on these columns is stated once, in
:mod:`repro.graph.index` (``EDGE_COLUMNS``, ``check_edge_fields``):
``edges_from_pandas`` applies it to the pandas frame and ``validate_edges``
to the Spark schema, so both raise the same messages. Rows may repeat: the
index (``np.unique``) and ``gfcore_spark`` (``distinct()``) each reduce the
frame to its set of edges. ``edges_from_pandas`` builds the columns as
long, from the int64 arrays of ``edge_columns``; ``validate_edges`` takes
any integral type.

``edges_from_pandas`` ships the rows as Arrow batches whatever the
session's Arrow setting, and its frame holds them in an RDD (a
``LogicalRDD`` in the plan, one partition per Arrow batch), not as a
``LocalRelation`` whose rows are part of the plan: Catalyst walks a
``LocalRelation``'s rows in every optimizer rule that maps expressions, so
planning a query over one costs time in proportion to its rows (DESIGN.md
§2). Over an RDD-backed frame, planning costs the same at any row count.

U-ids and V-ids live in separate namespaces (``u = 3`` and ``v = 3`` are
different vertices), matching the paper's disjoint vertex sets.
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import IntegralType

from repro.graph.index import EDGE_COLUMNS, check_edge_fields, edge_columns

#: Arrow data below this many bytes becomes a ``LocalRelation``; at 0 it
#: never does.
_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Build a temporal-edge DataFrame from a pandas frame, repeats kept.

    Raises ``ValueError`` for a missing, repeated or non-integer column, or
    a value outside int64, as :func:`repro.graph.index.edge_columns` does,
    before any call to ``spark``.

    The columns go to ``createDataFrame`` as a ``pyarrow.Table``: Arrow
    batches with or without ``spark.sql.execution.arrow.pyspark.enabled``.
    So that the batches sit in an RDD, not in the plan, the call sets
    ``spark.sql.execution.arrow.localRelationThreshold`` to 0 for its one
    ``createDataFrame`` and then restores it (unsets it if it was unset).
    The setting is session-wide, so a query another thread builds from
    local data in that moment is RDD-backed too.
    """
    table = pa.table(dict(zip(EDGE_COLUMNS, edge_columns(pdf))))
    saved = spark.conf.get(_LOCAL_RELATION_THRESHOLD, None)
    spark.conf.set(_LOCAL_RELATION_THRESHOLD, 0)
    try:
        return spark.createDataFrame(table)
    finally:
        if saved is None:
            spark.conf.unset(_LOCAL_RELATION_THRESHOLD)
        else:
            spark.conf.set(_LOCAL_RELATION_THRESHOLD, saved)


def validate_edges(edges: DataFrame) -> DataFrame:
    """Validate an edge DataFrame's shape; returns it with columns ``u, v, t``.

    Raises ``ValueError`` when a required column is missing, repeated or not
    of an integral type, from :func:`repro.graph.index.check_edge_fields`
    over the schema, as ``edge_columns`` does for a pandas frame; it reads
    the schema only, so it runs no Spark job.
    A frame whose columns are exactly ``u, v, t`` is returned as it is;
    any other is selected down to them by name. No column is cast: the
    driver widens the collected columns to int64 in ``edge_columns``, and
    over a frame the caller built from local rows (a ``LocalRelation``,
    e.g. ``spark.createDataFrame(rows)``) a cast projection would make
    Catalyst evaluate it on every row each time the frame is planned
    (DESIGN.md §2). A frame from ``edges_from_pandas`` has no rows in its
    plan.
    """
    check_edge_fields(
        (f.name, f.dataType.simpleString(), isinstance(f.dataType, IntegralType))
        for f in edges.schema.fields
    )
    if tuple(edges.columns) == EDGE_COLUMNS:
        return edges
    return edges.select(*EDGE_COLUMNS)
