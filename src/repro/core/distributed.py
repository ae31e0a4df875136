"""Distributed MFG enumeration: a Spark peel, then VFree over rank shares.

Pipeline (DESIGN.md §2 "Layering note"):

1. ``gfcore_spark`` — iterative DataFrame peel to the (τ_V, τ_U, λ)-core.
2. The core is collected once into a :class:`TemporalBipartiteIndex` on
   the driver and broadcast to the executors. This assumes the core fits in
   driver memory (DESIGN.md says why it does).
3. ``n = min(defaultParallelism, |V|)`` tasks each search one share of
   VFree's processing order: task ``i`` runs
   ``vfree(core, ..., roots=slice(i, None, n))``, the roots of rank ``i``,
   ``i + n``, ... . VFree's ``notRepeat`` rule makes top-level branches
   independent and duplicate-free: the MFG whose minimum rank is ``r`` is
   emitted exactly once, by branch ``r``. Every task orders the same
   broadcast core, so the union of the shares' results is the sequential
   result. The driver does no ranking.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Set

from pyspark.sql import DataFrame

from repro.core.gfcore import gfcore_spark
from repro.core.params import check_params
from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import validate_edges


def enumerate_mfg_distributed(
    edges: DataFrame,
    tau_u: int,
    tau_v: int,
    lam: int,
    algorithm: str = "vfree",
    apply_graph_filter: bool = True,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs of a Spark edge DataFrame; collect to the driver.

    ``algorithm`` must be ``"vfree"``, the one distributed kernel. Returns
    ``{V_S: support timestamps}`` with original ids. Raises ``ValueError``
    before any Spark job for another ``algorithm``, a non-positive
    ``tau_u``, ``tau_v`` or ``lam`` (:func:`repro.core.params.check_params`),
    or a frame without ``u``, ``v`` and ``t`` columns.
    """
    if algorithm != "vfree":
        raise ValueError(f"the distributed kernel is vfree, got {algorithm!r}")
    check_params(tau_u, tau_v, lam)
    edges = validate_edges(edges)
    work = gfcore_spark(edges, tau_u, tau_v, lam) if apply_graph_filter else edges
    core = TemporalBipartiteIndex.from_pandas(work.toPandas())
    if len(core) == 0:
        return {}
    sc = work.sparkSession.sparkContext
    n = min(sc.defaultParallelism, len(core.v_ids))
    b_core = sc.broadcast(core)

    def run_shares(shares):
        for i in shares:
            groups = vfree(b_core.value, tau_u, tau_v, lam, roots=slice(i, None, n))
            for vs, supp in groups.items():
                yield tuple(vs), tuple(supp)

    try:
        out = sc.parallelize(range(n), n).mapPartitions(run_shares).collect()
    finally:
        b_core.destroy()
    return {frozenset(vs): set(supp) for vs, supp in out}
