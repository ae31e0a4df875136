"""FilterV — the filter-and-verification framework (paper §3, Algorithm 1).

Per search node ``(U_S, V_S, C_V, X_V)``:

1. *Candidate filter* (Lemma 3.2): drop ``v' ∈ C_V`` when
   ``|⋂_{v ∈ V_S∪{v'}} T(v)| < λ`` with ``T(v) = {t : δ(v,t) ≥ τ_U}``.
2. *Valid candidate set*: keep ``v`` with ``V_S ∪ {v}`` frequent — verified
   by CheckFRE (Algorithm 3) or, for the -VM variants, the naive method.
3. Size pruning (Algorithm 1 line 10), leaf maximality via Lemma 3.3
   (``C_V* = ∅`` and no ``x ∈ X_V`` frequently extends ``V_S``).

Steps 1, 2 and the leaf test are one extension test, run on each ``v`` of
``C_V`` and, at a leaf, on each ``x`` of ``X_V``: the candidate filter,
``|U_S ∩ N(x)| ≥ τ_U`` and the frequency check of ``V_S ∪ {x}``.

Toggles produce the paper's ablation variants:

- ``use_candidate_filter=False``  → FilterV-FR
- ``use_array_verification=False`` → FilterV-VM
- both False                       → FilterV-

``timers`` (optional dict) accumulates the Table-1 instrumentation:
``timers["cm"]`` is the time spent computing valid candidate sets plus
verifying maximality (the paper's "FilterV-CM"), and
``timers["verifications"]`` counts the frequency checks of ``V_S ∪ {x}``.
"""
from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.freq import check_fre, is_frequent_naive, support_timestamps
from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex


def filterv(
    index: TemporalBipartiteIndex,
    tau_u: int,
    tau_v: int,
    lam: int,
    use_candidate_filter: bool = True,
    use_array_verification: bool = True,
    timers: Optional[Dict[str, float]] = None,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs; returns ``{V_S: support timestamps}``."""
    check_params(tau_u, tau_v, lam)
    if timers is None:
        timers = {}
    timers.setdefault("cm", 0.0)
    timers.setdefault("verifications", 0)

    all_v: List[int] = index.v_ids.tolist()
    all_t: FrozenSet[int] = frozenset(index.t_ids.tolist())
    # T(v) = {t : δ(v,t) ≥ τ_U} for Lemma 3.2: the support of {v}, once.
    t_of: Dict[int, Set[int]] = {
        v: support_timestamps(index, [v], tau_u) for v in all_v
    }
    verify = check_fre if use_array_verification else is_frequent_naive
    results: Dict[FrozenSet[int], Set[int]] = {}

    def extend(
        us: Set[int], vs: FrozenSet[int], tset: FrozenSet[int], x: int
    ) -> Optional[Set[int]]:
        """``U_S ∩ N(x)`` if ``V_S ∪ {x}`` passes the candidate filter, has
        τ_U common s-neighbors and is frequent; ``None`` otherwise."""
        if use_candidate_filter and len(tset & t_of[x]) < lam:
            return None
        nus = us & index.s_neighbors_v(x)
        if len(nus) < tau_u:
            return None
        timers["verifications"] += 1
        return nus if verify(index, vs | {x}, tau_u, lam) else None

    def enum(
        us: Set[int],
        vs: FrozenSet[int],
        cand: List[int],
        xv: List[int],
        tset: FrozenSet[int],
    ) -> None:
        # ---- valid candidate set computation (timed: Table 1 "CM") ----
        t0 = time.perf_counter()
        star_us = {v: extend(us, vs, tset, v) for v in cand}
        cv_star = [v for v in cand if star_us[v] is not None]
        timers["cm"] += time.perf_counter() - t0

        if len(us) < tau_u or len(vs) + len(cv_star) < tau_v:
            return
        if not cv_star:
            # ---- maximality verification (timed: Table 1 "CM") ----
            t0 = time.perf_counter()
            maximal = all(extend(us, vs, tset, x) is None for x in xv)
            timers["cm"] += time.perf_counter() - t0
            if maximal and len(vs) >= tau_v:
                results[vs] = support_timestamps(index, vs, tau_u)
            return
        for i, v in enumerate(cv_star):
            enum(
                star_us[v], vs | {v}, cv_star[i + 1 :], xv + cv_star[:i],
                tset & t_of[v],
            )

    enum(set(index.u_ids.tolist()), frozenset(), all_v, [], all_t)
    return results
