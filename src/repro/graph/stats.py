"""VFree's degree order as a Spark dataflow.

The driver kernels read the index (``TemporalBipartiteIndex.degree_rank``);
these pure DataFrame→DataFrame transformations compute the same order on an
edge DataFrame, for the traced Spark run of the benchmark. ``s_degree_v`` is
checked against DuckDB SQL with ``repro.oracle.assert_equivalent``, and
``degree_order_v`` against the index's ranks.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def s_degree_v(edges: DataFrame) -> DataFrame:
    """``d(v, G)`` for every v — columns ``(v, d)``."""
    return (
        edges.select("u", "v")
        .distinct()
        .groupBy("v")
        .agg(F.count("*").alias("d"))
    )


def degree_order_v(edges: DataFrame) -> DataFrame:
    """VFree's ID reorder (Algorithm 4 line 3) as a dataflow.

    Returns ``(v, new_id)`` where ``new_id`` is the rank of ``v`` in
    ascending order of structural degree (ties broken deterministically by
    original id — the paper breaks ties randomly; a fixed tiebreak keeps the
    reproduction deterministic without changing correctness, which holds for
    *any* id assignment per §4.2).
    """
    from pyspark.sql import Window

    w = Window.orderBy(F.col("d").asc(), F.col("v").asc())
    return (
        s_degree_v(edges)
        .withColumn("new_id", F.row_number().over(w) - F.lit(1))
        .select("v", "new_id")
    )
