"""Distributed MFG enumeration: peel to the core, search on the driver
first, then run VFree over shares of the roots that are left.

Pipeline (DESIGN.md §2 "Layering note"):

1. The (τ_V, τ_U, λ)-core. A graph whose edges fit the driver's edge
   budget (:func:`driver_edge_budget`) is collected once, raw, in one
   task, and peeled on the driver by ``gfcore_local``: no Spark peel round
   runs. A larger graph is peeled by ``gfcore_spark`` to the fixpoint and
   its core is collected. The peel fixpoint is unique (Lemma 3.1 and
   :mod:`repro.core.gfcore`), so both give the same core.
2. The driver searches VFree's top-level branches from the top rank down,
   |V| − 1, |V| − 2, ..., in one ``vfree`` call. The ``roots`` it hands
   ``vfree`` are a generator that reads the clock before each rank and
   stops once ``FANOUT_S``, the fan-out's fixed cost, is spent. The split
   is this module's alone: ``vfree`` searches whatever ranks it is given.
   A search that ends within ``FANOUT_S`` returns with no broadcast and
   no fan-out job. The top ranks have the fewest higher-rank candidates,
   so their branches are the cheapest and the driver overruns
   ``FANOUT_S`` by little: by at most the one branch it is in when the
   time is up.
3. Otherwise the ranks ``0, 1, ..., k − 1`` that are left go to
   ``n = min(defaultParallelism, k)`` tasks over the broadcast core: task
   ``i`` runs ``vfree(core, ..., roots=range(i, k, n))``, the roots of
   rank ``i``, ``i + n``, ... below ``k``. VFree's ``notRepeat`` rule
   makes top-level branches independent and duplicate-free: the MFG whose
   minimum rank is ``r`` is emitted exactly once, by branch ``r``. Every
   task orders the same broadcast core as the driver, so the driver's
   groups and the shares' groups together are the sequential result.
"""
from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterator, Set, Tuple

from pyspark import SparkContext
from pyspark.sql import DataFrame

from repro.core.gfcore import gfcore_local, gfcore_spark
from repro.core.params import check_params
from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import validate_edges

#: Bytes per edge on the driver: three int64 columns (DESIGN.md §2).
EDGE_BYTES = 24
#: Driver heap bytes per edge that the budget reserves: the collect and
#: peel ran out of a 1 GiB heap between 10M and 12M edges, about 100 bytes
#: each (DESIGN.md §2 "Driver-memory assumption").
HEAP_BYTES_PER_EDGE = 256
#: Seconds the driver searches before it ships the roots that are left:
#: the fixed cost of a fan-out job. One broadcast + ``mapPartitions`` VFree
#: fan-out of ``local[2]`` took 0.358 s (IQR 0.342–0.401) and a no-op
#: two-task ``mapPartitions`` job 0.23–0.31 s, most of it pyspark's
#: per-task ``importlib.invalidate_caches`` (DESIGN.md §2). A search that
#: ends within this time costs less than the fan-out would. The deadline
#: is checked between roots, so the driver can run past it by the branch
#: it is in; it searches the cheap top ranks, so that branch is short.
FANOUT_S = 0.3
#: The largest row count ``DataFrame.limit`` takes (a JVM ``int``), less one.
_MAX_LIMIT = 2**31 - 2


def driver_edge_budget(sc: SparkContext) -> int:
    """Edges the driver may collect and peel.

    The smaller of two bounds. Spark aborts a job whose results exceed
    ``spark.driver.maxResultSize`` (default ``1g``, ``0`` for no cap); a
    collected edge is ``EDGE_BYTES`` = 24 bytes, and the budget takes half
    of the cap. The driver heap, ``spark.driver.memory`` (default ``1g``),
    is divided by ``HEAP_BYTES_PER_EDGE``. At the defaults the heap bound
    rules: 4,194,304 edges. Both settings are read and parsed by the live
    JVM ``SparkConf``, one call each.
    """
    conf = sc._conf._jconf
    heap = conf.getSizeAsMb("spark.driver.memory", "1g") << 20
    budget = min(heap // HEAP_BYTES_PER_EDGE, _MAX_LIMIT)
    cap = conf.getSizeAsBytes("spark.driver.maxResultSize", "1g")
    return min(budget, cap // (2 * EDGE_BYTES)) if cap > 0 else budget


def _collect_core(
    edges: DataFrame, tau_u: int, tau_v: int, lam: int, budget: int
) -> TemporalBipartiteIndex:
    """The (τ_V, τ_U, λ)-core as an index on the driver.

    One ``limit(budget + 1)`` collect is both the fit test and, when the raw
    rows fit, the collect that ``gfcore_local`` peels. Otherwise
    ``gfcore_spark`` peels and its core is collected. The probe reads the
    input through ``coalesce(1)``: over one partition the limit's collect
    needs no shuffle, so the probe is one job of one stage and one task.
    Each collect is ``toArrow()``, Arrow batches whatever the session's
    Arrow setting. The raw frame is dropped as soon as it is encoded.
    """
    raw = edges.coalesce(1).limit(budget + 1).toArrow().to_pandas()
    if len(raw) > budget:
        del raw  # free the probe before the Spark peel
        core = gfcore_spark(edges, tau_u, tau_v, lam).toArrow().to_pandas()
        return TemporalBipartiteIndex.from_pandas(core)
    index = TemporalBipartiteIndex.from_pandas(raw)
    del raw
    return gfcore_local(index, tau_u, tau_v, lam)


def enumerate_mfg_distributed(
    edges: DataFrame,
    tau_u: int,
    tau_v: int,
    lam: int,
    algorithm: str = "vfree",
    apply_graph_filter: bool = True,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs of a Spark edge DataFrame; collect to the driver.

    ``algorithm`` must be ``"vfree"``, the one distributed kernel. With
    ``apply_graph_filter=False`` the frame is searched as given, unpeeled.
    Returns ``{V_S: support timestamps}`` with original ids. Raises
    ``ValueError`` before any Spark job for another ``algorithm``, a
    ``tau_u``, ``tau_v`` or ``lam`` that is not an integer ≥ 1
    (:func:`repro.core.params.check_params`), or a frame whose ``u``, ``v``
    or ``t`` column is missing, repeated or not of an integral type.
    """
    if algorithm != "vfree":
        raise ValueError(f"the distributed kernel is vfree, got {algorithm!r}")
    check_params(tau_u, tau_v, lam)
    edges = validate_edges(edges)
    sc = edges.sparkSession.sparkContext
    if apply_graph_filter:
        core = _collect_core(edges, tau_u, tau_v, lam, driver_edge_budget(sc))
    else:
        core = TemporalBipartiteIndex.from_pandas(edges.toArrow().to_pandas())
    groups, k = _search_on_driver(core, tau_u, tau_v, lam)
    n = min(sc.defaultParallelism, k)
    if n == 0:
        return groups
    b_core = sc.broadcast(core)
    try:
        out = sc.parallelize(range(n), n).map(
            lambda i: vfree(
                b_core.value, tau_u, tau_v, lam, roots=range(i, k, n)
            )
        ).collect()
    finally:
        b_core.destroy()
    for share in out:
        groups.update(share)
    return groups


def _search_on_driver(
    core: TemporalBipartiteIndex, tau_u: int, tau_v: int, lam: int
) -> Tuple[Dict[FrozenSet[int], Set[int]], int]:
    """Search the roots of rank |V| − 1, |V| − 2, ... until ``FANOUT_S``
    seconds are spent; returns the groups found and ``k``, the number of
    ranks left: the driver searched ``[k, |V|)``. The clock is read before
    each root, and ``vfree`` draws the next root only once a branch ends."""
    deadline = time.perf_counter() + FANOUT_S
    k = len(core.v_ids)

    def top_down() -> Iterator[int]:
        nonlocal k
        while k and time.perf_counter() < deadline:
            k -= 1
            yield k

    groups = vfree(core, tau_u, tau_v, lam, roots=top_down())
    return groups, k
