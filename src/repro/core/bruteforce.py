"""Exponential reference oracle for MFG enumeration.

Enumerates every subset of V (so it accepts at most :data:`MAX_V` vertices),
computes its support timestamps naively, and keeps the maximal frequent
groups. The production algorithms (BK-ALG, FilterV, VFree) are all tested
against this.
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Set

from repro.core.freq import support_timestamps
from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex

#: The largest |V| the oracle accepts: it visits all 2^|V| subsets.
MAX_V = 18


def enumerate_mfg_bruteforce(
    index: TemporalBipartiteIndex, tau_u: int, tau_v: int, lam: int
) -> Dict[FrozenSet[int], Set[int]]:
    """All MFGs mapped to their support-timestamp sets.

    Raises ``ValueError`` for a parameter that is not an integer ≥ 1, as
    every kernel does, and when |V| exceeds :data:`MAX_V`.
    """
    check_params(tau_u, tau_v, lam)
    vees: List[int] = index.v_ids.tolist()
    if len(vees) > MAX_V:
        raise ValueError(
            f"brute force limited to |V| <= {MAX_V}, got {len(vees)}"
        )
    frequent: Dict[FrozenSet[int], Set[int]] = {}
    for size in range(tau_v, len(vees) + 1):
        for combo in combinations(vees, size):
            supp = support_timestamps(index, combo, tau_u)
            if len(supp) >= lam:
                frequent[frozenset(combo)] = supp
    # Maximality: drop any frequent set with a frequent strict superset.
    # (Supersets of a non-frequent set are non-frequent — Lemma 2.2 — but we
    # enumerated everything anyway, so a direct filter is simplest.)
    out: Dict[FrozenSet[int], Set[int]] = {}
    for vs, supp in frequent.items():
        if not any(vs < other for other in frequent):
            out[vs] = supp
    return out
