"""The (τ_V, τ_U, λ)-core graph filter (paper §3.2, Algorithm 2).

Definition 3.2: the maximal induced temporal subgraph in which

- every surviving ``(u, t)`` has m-degree ``δ(u,t) ≥ τ_V``   (u is in the
  (τ_V, τ_U)-core of snapshot ``G_t``),
- every surviving ``(v, t)`` has m-degree ``δ(v,t) ≥ τ_U``,
- every surviving ``v`` survives in at least ``λ`` snapshots (frequency),
- every surviving ``u`` survives in at least one snapshot.

The constraints are monotone under edge removal, so the maximal fixpoint is
unique and any peeling order reaches it: the paper's recursive ``CorePrune``
cascade and the synchronous peels below converge to the same subgraph. By
Lemma 3.1 every MFG vertex survives, so pruning first never loses results.

Two implementations of the same synchronous rounds:

- :func:`gfcore_local` — in-memory peel over the index's edge codes, on
  the driver (the sequential runner, and the distributed path for graphs
  within its driver edge budget);
- :func:`gfcore_spark` — the same peel as an iterative Spark dataflow
  (one pass per round: window m-degree and snapshot counts → filter the
  violators → repeat until the edge count is stable), for graphs over that
  budget (:mod:`repro.core.distributed`).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex

if TYPE_CHECKING:
    from pyspark.sql import DataFrame


def gfcore_local(
    index: TemporalBipartiteIndex, tau_u: int, tau_v: int, lam: int
) -> TemporalBipartiteIndex:
    """Synchronous peel to the (τ_V, τ_U, λ)-core; returns a new index.

    Vectorized over the index's edge codes: every round recomputes the
    ``(u, t)`` / ``(v, t)`` m-degrees and the per-``v`` alive-snapshot
    counts with ``np.bincount`` and drops every violating edge at once,
    until no edge is dropped (the fixpoint — same subgraph as the paper's
    recursive ``CorePrune`` cascade, see module docstring). The counters
    are indexed by the ``(u, t)`` and ``(v, t)`` pairs that have an edge,
    so they take O(|E|) memory, not O(|U|·|T|). The core is
    :meth:`TemporalBipartiteIndex.subset` of the surviving edges.
    """
    check_params(tau_u, tau_v, lam)
    n_t = len(index.t_ids)
    ut_pairs, ut = np.unique(index.tu, return_inverse=True)
    # Edges are sorted by (v, t, u), so each (v, t) pair is one run.
    vt_first = np.diff(index.v * n_t + index.t, prepend=-1) != 0
    vt = np.cumsum(vt_first) - 1
    vt_v = index.v[vt_first]  # the v of every (v, t) pair
    alive = np.ones(len(index), dtype=bool)
    while True:
        d_ut = np.bincount(ut[alive], minlength=len(ut_pairs))
        d_vt = np.bincount(vt[alive], minlength=len(vt_v))
        # Alive snapshots per v (frequency constraint).
        s_v = np.bincount(vt_v[d_vt > 0], minlength=len(index.v_ids))
        bad = alive & (
            (d_ut[ut] < tau_v)
            | (d_vt[vt] < tau_u)
            | (s_v[index.v] < lam)
        )
        if not bad.any():
            return index.subset(alive)
        alive &= ~bad


def gfcore_spark(edges: DataFrame, tau_u: int, tau_v: int, lam: int) -> DataFrame:
    """The (τ_V, τ_U, λ)-core as an iterative Spark dataflow.

    Each round computes ``δ(u,t)``, ``δ(v,t)`` and ``v``'s snapshot count
    (``size(collect_set(t))``: Spark has no windowed ``COUNT(DISTINCT)``)
    as window aggregates in one projection of SQL expression strings, and
    drops every violating edge at once, as :func:`gfcore_local` does (no
    ``Column`` object is built: in pyspark 4.1 the first ``functions.col``
    of a process imports some 500 modules, IPython among them); rounds
    repeat until the edge count is stable (the peel fixpoint). Each round's
    frame is a lazy ``localCheckpoint`` that the round's ``count()``
    materializes, so a round is one Spark job and the plan does not grow
    with the iteration count. No round cap is needed: the edge count never
    grows, so the rounds end within ``|E| + 1``. Raises ``ValueError``
    before any Spark job for a parameter that is not an integer ≥ 1.
    """
    check_params(tau_u, tau_v, lam)
    e = edges.select("u", "v", "t").distinct().localCheckpoint(eager=False)
    n, n_prev = e.count(), None
    while n not in (0, n_prev):
        e = (
            e.selectExpr(
                "u", "v", "t",
                "count(*) over (partition by u, t) as d_ut",
                "count(*) over (partition by v, t) as d_vt",
                "size(collect_set(t) over (partition by v)) as s_v",
            )
            .where(
                f"d_ut >= {int(tau_v)} and d_vt >= {int(tau_u)}"
                f" and s_v >= {int(lam)}"
            )
            .select("u", "v", "t")
            .localCheckpoint(eager=False)
        )
        n_prev, n = n, e.count()
    return e
