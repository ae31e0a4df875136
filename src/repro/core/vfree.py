"""VFree — the verification-free approach (paper §4, Algorithm 4).

Timestamp-oriented search: instead of verifying the frequency of
``V_S ∪ {v}`` per candidate (FilterV's vertex-oriented paradigm), each
branch derives the valid candidate set directly from the survived
timestamps ``C_T`` inherited from the parent (Lemma 4.1) and the dynamic
counting structures.

The edges of ``v`` are read in place from the index: its run of the
``(v, t, u)``-sorted codes, whose ``(t, u)`` slots ``index.tu`` ascend,
located by rank with ``np.searchsorted``. VFree's one private structure
is the reverse: per-``(t,u)`` neighbor keys ``t·|V|+rank(v')`` with an
offset array (the ``Γ(u,t)`` lists of step 3). The counting structures
are the paper's flat arrays:

- ``cand_U`` — one depth stamp per ``index.tu`` slot: at depth ``d``,
  ``level[(t,u)] == d`` iff ``t ∈ C_T`` and ``u ∈ cand_U(t)`` (the paper's
  ``cnt_U[t][u] = |V_S|``); every slot is 0 at the root. ``cand_U`` only
  shrinks (``cand_U' = cand_U ∩ Γ(v, t)``), so a branch that recurses
  stamps its surviving ``(t, u')`` pairs ``d + 1`` and restores them to
  ``d`` on return, in place of the +1/−1 counts and the ``C_T`` mask.
- ``cnt_V[t][v']`` — #m-neighbors of ``v'`` inside ``cand_U`` at ``t``:
  one ``np.bincount`` over the ``|T|·|V|`` domain of the gathered
  ``Γ(u', t)`` keys of all ``(u', t) ∈ cand_U × C_T'`` — exactly the
  paper's steps 3+4 iteration domain. A fresh count per computation takes
  the place of the ``visit_V`` reset, at an extra ``O(|T|·|V|)``.
- ``cnt_T[v']`` — #survived timestamps of ``V_S ∪ {v'}``: the count of
  ``cnt_V[t][v'] ≥ τ_U`` over ``t``.

The four steps of §4.1 map onto array passes:

1. *ascertain from U*: v's edge keys stamped with the current depth are
   the ``(t, cand_U')`` pairs.
2. *termination check*: per-timestamp ``cand_U`` sizes ≥ τ_U select the
   survived timestamps ``C_T'``.
3. *reverse-ascertain from V*: one offset gather of the ``Γ(u',t)`` key
   ranges of the surviving ``(t, u')``, counted into ``cnt_V``.
4. *survived-timestamp update*: ``cnt_T ≥ λ`` yields ``cand_V``, split
   into ``C_V*`` (ranks ≥ v) and the ``notRepeat`` flag (any rank < v).

Maximality needs no explicit verification: vertices are processed in
ascending (degree-reordered) rank order and a branch reports ``V_S'`` only
when ``C_V* = ∅`` and ``notRepeat`` holds — Theorem 4.1. Per Theorem 4.2
one valid-candidate-set computation costs ``O(d_max(u)·d_max(v)·|T|)``, an
``O(|V|)`` improvement over FilterV.

Deviations from the pseudocode (documented in DESIGN.md):

- the report step (line 40) additionally requires ``|V_S'| ≥ τ_V`` and
  ``|C_T'| ≥ λ`` — without them, groups too small to be a (τ_U, τ_V)-biclique
  V-side (or, when ``τ_V = 1``, infrequent singletons) would be emitted;
- *closure jump* (LCM's prefix-preserving closure extension): a candidate
  ``v' ∈ C_V*`` that is adjacent to all of ``cand_U'(t)`` at every
  ``t ∈ C_T'`` (it *covers*) is in every maximal group below the branch:
  every ``X ⊇ V_S'`` there has ``cand_U(X, t) ⊆ cand_U'(t) ⊆ Γ(v', t)``, so
  ``X ∪ {v'}`` has ``X``'s support. It joins ``V_S'`` at once and VFree
  recurses only over the rest of ``C_V*``. Because
  ``cnt_V[t][v'] ≤ |cand_U'(t)|`` and ``cnt_V`` is 0 outside ``C_T'``,
  "``v'`` covers" is the same as the column sum ``Σ_t cnt_V[t][v']``
  reaching ``|surv|``, the number of surviving ``(t, u')`` pairs. Closed
  vertices join ``V_S`` for the subtree like any member; they restrict
  nothing at any ``t ∈ C_T'``, so the branch's stamp already is the
  subtree's ``cand_U``;
- *τ_V capacity bound*: a group below a branch adds only members of
  ``C_V*``, each with ``cnt_V[t][c] ≥ τ_U`` at every ``t`` of its support.
  So a branch whose ``C_V*`` has τ_V − |V_S'| such members at fewer than
  λ timestamps neither recurses nor reports (it is not maximal: every
  ``c ∈ C_V*`` extends it). Every ``c`` is frequent, so the bound is
  computed only when ``|V_S'| + 1 < τ_V``.
"""
from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex


def vfree(
    index: TemporalBipartiteIndex,
    tau_u: int,
    tau_v: int,
    lam: int,
    reorder_ids: bool = True,
    roots: Optional[Iterable[int]] = None,
    timers: Optional[Dict[str, float]] = None,
) -> Dict[FrozenSet[int], Set[int]]:
    """Enumerate all MFGs; returns ``{V_S: support timestamps}``.

    ``reorder_ids`` selects the processing order: degree order
    (:meth:`TemporalBipartiteIndex.degree_rank`, the paper's default) or
    plain id order (the "without ID reorder" ablation of Exp-7); §4.2: any
    order gives the same result. ``roots`` are ranks of that order: the top
    level searches only the branches rooted at them, in the order given.
    The default ``None`` searches every rank from 0 up; for any ``k`` and
    ``n``, the suffix ``range(k, |V|)`` and the shares ``range(i, k, n)``,
    ``i < n``, partition the full result (the driver's part and the
    distributed tasks' parts). The arrays are built before the first rank
    is drawn, and each next rank is drawn only once the previous branch
    has ended, so a generator can decide between branches when to stop.
    ``timers["cm"]`` accumulates the valid-candidate-set computation +
    counting-structure maintenance time (Table 1's "VFree-CM": the
    ``cand_U`` stamp and its restore count as maintenance), including
    the closure's column-sum test and the capacity bound;
    ``timers["evaluations"]`` counts the candidate evaluations that reach
    steps 3+4, ``timers["closed"]`` the vertices the closure jump adds and
    ``timers["bounded"]`` the branches the τ_V capacity bound cuts.
    Raises ``ValueError`` unless every parameter is an integer ≥ 1, or
    when a root is not a rank in ``range(|V|)``.
    """
    check_params(tau_u, tau_v, lam)
    if timers is None:
        timers = {}
    timers.setdefault("cm", 0.0)
    timers.setdefault("evaluations", 0)
    timers.setdefault("closed", 0)
    timers.setdefault("bounded", 0)
    results: Dict[FrozenSet[int], Set[int]] = {}
    n_v, n_u, n_t = len(index.v_ids), len(index.u_ids), len(index.t_ids)

    # ---- processing order: rank[c] of V code c --------------------------
    rank = index.degree_rank() if reorder_ids else np.arange(n_v)
    code = np.argsort(rank)  # V code of each rank
    t, tu = index.t, index.tu
    # The index's run of edges of the rank-r vertex is [lo[r], hi[r]).
    lo = np.searchsorted(index.v, code)
    hi = np.searchsorted(index.v, code, side="right")
    # Per-(t,u) neighbor keys t·|V|+rank(v'), with the per-(t,u) offsets.
    g_key = (t * n_v + rank[index.v])[np.argsort(tu, kind="stable")]
    g_off = np.concatenate(
        ([0], np.cumsum(np.bincount(tu, minlength=n_t * n_u)))
    )

    level = np.zeros(n_t * n_u, dtype=np.int64)  # depth stamp of cand_U
    in_vs = np.zeros(n_v, dtype=bool)

    def rec(vs: List[int], cand: Sequence[int], depth: int) -> None:
        """VerifyFreeMFG(V_S, C_V, C_T) — V in rank space; ``cand_U × C_T``
        is the set of ``(t, u)`` slots whose stamp is ``depth``."""
        size = len(vs) + 1
        for v in cand:
            t0 = time.perf_counter()
            in_vs[v] = True
            # Step 1: ascertain from U — v's edges at (t, u ∈ cand_U), t ∈ C_T.
            keys = tu[lo[v] : hi[v]]
            covered = keys[level[keys] == depth]
            # Step 2: termination check / survived timestamps.
            tt = covered // n_u
            ct_new = np.bincount(tt, minlength=n_t) >= tau_u
            if np.count_nonzero(ct_new) < lam:
                timers["cm"] += time.perf_counter() - t0
                in_vs[v] = False
                continue
            timers["evaluations"] += 1
            # Steps 3+4: reverse-ascertain from V — gather Γ(u',t) of every
            # surviving (t,u') — then survived-timestamp counting.
            surv = covered[ct_new[tt]]
            stop = g_off[surv + 1]
            lens = stop - g_off[surv]
            gather = np.repeat(stop - np.cumsum(lens), lens)
            gather += np.arange(gather.shape[0])
            cnt_v = np.bincount(g_key[gather], minlength=n_t * n_v)
            qual = np.flatnonzero(cnt_v >= tau_u)  # qualified (t, v')
            cnt_t = np.bincount(qual % n_v, minlength=n_v)
            freq_v = np.flatnonzero(cnt_t >= lam)
            freq_v = freq_v[~in_vs[freq_v]]
            k = int(freq_v.searchsorted(v))  # outsiders of rank < v
            not_repeat = k == 0
            hi_v = freq_v[k:]
            if hi_v.shape[0] and size + hi_v.shape[0] >= tau_v:
                # Closure jump: v' of rank > v is adjacent to all of cand_U'
                # at every t ∈ C_T' iff its column sum of cnt_V is |surv|,
                # the most any column can reach. Such a v' is in every
                # maximal group below this branch; it joins V_S'.
                cov = cnt_v.reshape(n_t, n_v).take(hi_v, 1).sum(0)
                cov = cov == surv.shape[0]
                shut = hi_v[cov].tolist()
                cv_star = hi_v[~cov].tolist()
                timers["closed"] += len(shut)
                # τ_V capacity bound: a group below this branch adds `need`
                # or more members of C_V*, each qualified (cnt_V ≥ τ_U) at
                # every t of its support, so λ timestamps must each qualify
                # `need` of them. Every member is frequent: need = 1 can
                # never cut.
                need = tau_v - size - len(shut)
                if cv_star and need > 1:
                    fit = cnt_v.reshape(n_t, n_v).take(cv_star, 1) >= tau_u
                    fit = np.count_nonzero(fit, 1)
                    if np.count_nonzero(fit >= need) < lam:
                        cv_star, not_repeat = [], False
                        timers["bounded"] += 1
            else:  # no v' of rank > v, or too few of them to reach τ_V
                shut = cv_star = []
            if cv_star:
                level[surv] = depth + 1  # cand_U' × C_T' for the subtree
            timers["cm"] += time.perf_counter() - t0
            members = vs + [v] + shut
            if shut:
                in_vs[shut] = True
            if cv_star:
                rec(members, cv_star, depth + 1)
                t0 = time.perf_counter()
                level[surv] = depth  # surv ⊆ covered: each slot held depth
                timers["cm"] += time.perf_counter() - t0
            elif not_repeat and len(members) >= tau_v:
                group = frozenset(index.v_ids[code[members]].tolist())
                results[group] = set(index.t_ids[ct_new].tolist())
            if shut:
                in_vs[shut] = False
            in_vs[v] = False

    for root in range(n_v) if roots is None else roots:
        if not 0 <= root < n_v:
            raise ValueError(f"root {root!r} is not a rank in range({n_v})")
        rec([], (root,), 0)
    return results
