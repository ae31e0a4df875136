"""MFB — maximal frequent (τ_U, τ_V)-biclique (paper §5.2 comparator).

A pair ``(U_S, V_S)`` with ``|U_S| ≥ τ_U`` and ``|V_S| ≥ τ_V`` whose *whole
biclique* appears (every edge present) in at least ``λ`` snapshots, such
that no strict super-pair is also frequent. Unlike MFG, the same U side
must repeat across the λ snapshots — the paper's case studies show this is
usually too strict to return anything.

Implementation: per-edge timestamp bitmasks. An edge of a frequent biclique
must itself appear in ≥ λ snapshots, so static edges with ``|T_(u,v)| < λ``
are dropped first, and the static skeleton they leave is peeled to its
(τ_V, τ_U, 1)-core on a single snapshot (Definition 3.2, computed by
:func:`repro.core.gfcore.gfcore_local`). The search then visits only
*closed* sets, on both sides, each once, by LCM's prefix-preserving closure
extension (Uno et al., FIMI 2004). The V-side DFS carries each u's mask
shared with ``V_S`` and keeps a u only while that mask has ≥ λ bits;
``V_S`` is closed with every v that shrinks none of the kept masks. Per
closed ``V_S``, the U-side DFS carries the mask ``M`` shared by
``U_S × V_S`` and closes ``U_S`` with every kept u whose mask contains
``M``. Every maximal pair is closed on both sides: such a v or u would join
it and leave ``M`` unchanged. Frequency is anti-monotone, so a closed pair
is maximal iff no single u or v extends it with ≥ λ bits left; that test
reports it.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.gfcore import gfcore_local
from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex

Pair = Tuple[FrozenSet[int], FrozenSet[int]]


def mfb(
    index: TemporalBipartiteIndex, tau_u: int, tau_v: int, lam: int
) -> List[Pair]:
    """All maximal frequent (τ_U, τ_V)-bicliques as ``(U_S, V_S)`` pairs,
    sorted by ``(sorted(V_S), sorted(U_S))``.

    Raises ``ValueError`` unless ``τ_U``, ``τ_V`` and ``λ`` are all ≥ 1, as
    :func:`gfcore_local` (the skeleton peel) does.
    """
    check_params(tau_u, tau_v, lam)
    # Timestamp bitmasks of the static edges present in ≥ λ snapshots; bit
    # p is the p-th timestamp of T. A frequent biclique's u keeps ≥ τ_V and
    # its v ≥ τ_U of these edges: it lies in their (τ_V, τ_U, 1)-core, taken
    # as one snapshot.
    masks: Dict[Tuple[int, int], int] = {}
    edges = zip(index.u_ids[index.u].tolist(), index.v_ids[index.v].tolist())
    for edge, p in zip(edges, index.t.tolist()):
        masks[edge] = masks.get(edge, 0) | 1 << p
    masks = {e: m for e, m in masks.items() if m.bit_count() >= lam}
    skeleton = TemporalBipartiteIndex((u, v, 0) for u, v in masks)
    adj_v = gfcore_local(skeleton, tau_u, tau_v, 1).n_v
    vees = sorted(adj_v)
    # mv[v][u]: the mask of edge (u, v); a missing edge reads as 0.
    mv = {v: {u: masks[u, v] for u in adj_v[v]} for v in vees}
    all_ts = (1 << len(index.t_ids)) - 1
    pairs: List[Pair] = []

    def v_closure(um: Dict[int, int]) -> List[int]:
        return [
            w for w in vees
            if all(m & mv[w].get(u, 0) == m for u, m in um.items())
        ]

    def rec_v(vs: List[int], um: Dict[int, int], core: int) -> None:
        """``vs`` is closed; ``um`` maps each kept u to its shared mask."""
        if len(vs) >= tau_v:
            enum_u(frozenset(vs), um)
        for j in range(core + 1, len(vees)):
            v = vees[j]
            if v in vs:
                continue
            um2 = {u: m & mv[v].get(u, 0) for u, m in um.items()}
            um2 = {u: m for u, m in um2.items() if m.bit_count() >= lam}
            if len(um2) < tau_u:
                continue
            q = v_closure(um2)
            # Prefix preservation: the closure adds no vertex before v.
            if all(w >= v for w in q if w not in vs):
                rec_v(q, um2, j)

    def enum_u(vs: FrozenSet[int], um: Dict[int, int]) -> None:
        kept = sorted(um)

        def rec_u(us: List[int], mask: int, core: int) -> None:
            if len(us) >= tau_u and not any(
                u not in us and (mask & um[u]).bit_count() >= lam
                for u in kept
            ) and not any(
                v not in vs and extends_v(us, mask, v) for v in vees
            ):
                pairs.append((frozenset(us), vs))
            for j in range(core + 1, len(kept)):
                u = kept[j]
                if u in us:
                    continue
                m2 = mask & um[u]
                if m2.bit_count() < lam:
                    continue
                q = [w for w in kept if m2 & um[w] == m2]
                # Prefix preservation: the closure adds no vertex before u.
                if all(w >= u for w in q if w not in us):
                    rec_u(q, m2, j)

        rec_u([u for u in kept if um[u] == all_ts], all_ts, -1)

    def extends_v(us: List[int], mask: int, v: int) -> bool:
        for u in us:
            mask &= mv[v].get(u, 0)
        return mask.bit_count() >= lam

    um0 = {u: all_ts for v in vees for u in adj_v[v]}
    rec_v(v_closure(um0), um0, -1)
    return sorted(pairs, key=lambda p: (sorted(p[1]), sorted(p[0])))
