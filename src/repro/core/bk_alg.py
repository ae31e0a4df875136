"""BK-ALG — the baseline Bron-Kerbosch extension (paper §3 "Baseline method").

Maintains ``(U_S, V_S, C_V)``; at each node it tries every remaining
candidate, verifies the frequency of ``V_S ∪ {v}`` *naively* (per-timestamp
m-neighbor intersections over all of T), recurses on the frequent ones, and
when no candidate extends the current set it checks maximality by comparing
``V_S`` against the list of already-found results (the paper's "numerous set
comparisons"). Candidates are processed in id order, so candidate sets are
not inherited/pre-filtered across levels — that is exactly the baseline's
first drawback.

BK-ALG+ (the evaluated variant) is this kernel run on the GFCore-filtered
graph; the filtering is applied by ``repro.core.runner``.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.core.freq import is_frequent_naive, support_timestamps
from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex


def bk_alg(
    index: TemporalBipartiteIndex,
    tau_u: int,
    tau_v: int,
    lam: int,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs; returns ``{V_S: support timestamps}``."""
    check_params(tau_u, tau_v, lam)
    results: List[FrozenSet[int]] = []

    def expand(us: Set[int], vs: FrozenSet[int], cand: List[int]) -> None:
        if len(us) < tau_u:
            return
        extended = False
        for i, v in enumerate(cand):
            new_vs = vs | {v}
            if not is_frequent_naive(index, new_vs, tau_u, lam):
                continue
            extended = True
            expand(us & index.s_neighbors_v(v), new_vs, cand[i + 1 :])
        if extended or len(vs) < tau_v:
            return
        # Leaf: no candidate extends V_S. Naive maximality: V_S is kept iff
        # no found result contains it; found results contained in V_S are
        # evicted (cannot occur with ordered DFS, kept for faithfulness).
        if any(vs <= r for r in results):
            return
        results[:] = [r for r in results if not r < vs]
        results.append(vs)

    expand(set(index.u_ids.tolist()), frozenset(), index.v_ids.tolist())
    return {vs: support_timestamps(index, vs, tau_u) for vs in results}
