"""Distributed MFG enumeration as a Spark dataflow.

Pipeline (DESIGN.md §2 "Layering note"):

1. ``gfcore_spark`` — iterative DataFrame peel to the (τ_V, τ_U, λ)-core.
2. ``degree_order_v`` — VFree's global ID reorder as a dataflow; the small
   ``{v: rank}`` map is broadcast to the executors.
3. *Root expansion*: every V vertex roots one independent top-level search
   branch. The branch rooted at ``r`` only ever touches edges
   ``{(u, v', t) : u ∈ Γ(r, t), v' ∈ Γ(u, t)}`` — a 2-hop expansion
   computed with one self-join on ``(u, t)``. (Safe restriction: every
   candidate, counting update and maximality witness for a group containing
   ``r`` lives inside this set; see tests for the equivalence proof by
   checking against the sequential kernels.)
4. ``groupBy("root").applyInPandas(kernel)`` — each task builds a local
   adjacency index and runs the *rooted* sequential kernel (VFree or
   FilterV). VFree's ``notRepeat`` rule makes branches independent and
   duplicate-free: the MFG whose minimum rank is ``r`` is emitted exactly
   once, by branch ``r``.
"""
from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterator, Set

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.gfcore import gfcore_spark
from repro.core.runner import Params
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.stats import degree_order_v

#: Result schema of one emitted MFG: members + support timestamps as JSON.
_RESULT_SCHEMA = "root long, members string, supports string"


def _expand_roots(edges: DataFrame) -> DataFrame:
    """2-hop per-root edge expansion: ``(root, u, v, t)`` rows."""
    roots = edges.select(F.col("v").alias("root"), "u", "t").distinct()
    return roots.join(edges, ["u", "t"]).select("root", "u", "v", "t")


def enumerate_mfg_distributed(
    edges: DataFrame,
    tau_u: int,
    tau_v: int,
    lam: int,
    algorithm: str = "vfree",
    apply_graph_filter: bool = True,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs of a Spark edge DataFrame; collect to the driver.

    ``algorithm`` is ``"vfree"`` or ``"filterv"`` (the distributable
    kernels). Returns ``{V_S: support timestamps}`` with original ids.
    Raises ``ValueError`` for a non-positive ``tau_u``, ``tau_v`` or
    ``lam``, as :class:`repro.core.runner.Params` does.
    """
    if algorithm not in ("vfree", "filterv"):
        raise ValueError(f"distributable kernels: vfree|filterv, got {algorithm}")
    Params(tau_u, tau_v, lam)  # validates before any Spark job runs
    work = (
        gfcore_spark(edges, tau_u, tau_v, lam) if apply_graph_filter else edges
    )
    if work.limit(1).count() == 0:
        return {}
    spark = work.sparkSession
    rank_rows = degree_order_v(work).collect()
    rank: Dict[int, int] = {r["v"]: r["new_id"] for r in rank_rows}
    b_rank = spark.sparkContext.broadcast(rank)

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        # One task = one root's branch, run on its 2-hop subgraph.
        from repro.core.filterv import filterv as _filterv
        from repro.core.vfree import vfree as _vfree

        root = int(pdf["root"].iloc[0])
        order = b_rank.value  # global {v: rank}
        if algorithm == "vfree":
            groups = _vfree(
                TemporalBipartiteIndex.from_pandas(pdf),
                tau_u, tau_v, lam, order=order, roots=[root],
            )
        else:
            # FilterV processes candidates in id order; re-encode ids by the
            # global rank so its order matches the partitioning contract.
            remapped = TemporalBipartiteIndex.from_pandas(
                pdf.assign(v=pdf["v"].map(order))
            )
            raw = _filterv(remapped, tau_u, tau_v, lam, roots=[order[root]])
            dec = {order[v]: v for v in pdf["v"].unique().tolist()}
            groups = {
                frozenset(dec[i] for i in vs): supp for vs, supp in raw.items()
            }
        rows = [
            (root, json.dumps(sorted(vs)), json.dumps(sorted(supp)))
            for vs, supp in groups.items()
        ]
        return pd.DataFrame(rows, columns=["root", "members", "supports"])

    out = (
        _expand_roots(work)
        .groupBy("root")
        .applyInPandas(kernel, schema=_RESULT_SCHEMA)
        .collect()
    )
    results: Dict[FrozenSet[int], Set[int]] = {}
    for row in out:
        vs = frozenset(json.loads(row["members"]))
        results[vs] = set(json.loads(row["supports"]))
    return results
