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
:func:`repro.core.gfcore.gfcore_local`). The search then runs an
ordered DFS over the V side (extend while ≥ τ_U U-candidates remain) and,
per V_S, a second DFS over U-candidates whose shared-timestamp mask keeps
``popcount ≥ λ``; global pairwise containment filtering yields the maximal
pairs. Exponential in the worst case — intended for the case-study scale,
guarded by :data:`MAX_NODES`.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.gfcore import gfcore_local
from repro.core.params import check_params
from repro.graph.index import TemporalBipartiteIndex

Pair = Tuple[FrozenSet[int], FrozenSet[int]]

#: Search nodes (V-side and U-side DFS calls) one :func:`mfb` call may visit.
MAX_NODES = 200_000


def mfb(
    index: TemporalBipartiteIndex, tau_u: int, tau_v: int, lam: int
) -> List[Pair]:
    """All maximal frequent (τ_U, τ_V)-bicliques as ``(U_S, V_S)`` pairs.

    Raises ``ValueError`` unless ``τ_U``, ``τ_V`` and ``λ`` are all ≥ 1, as
    :func:`gfcore_local` (the skeleton peel) does, and ``RuntimeError`` when
    the search visits more than :data:`MAX_NODES` nodes.
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
    all_ts = (1 << len(index.t_ids)) - 1
    skeleton = TemporalBipartiteIndex((u, v, 0) for u, v in masks)
    adj_v: Dict[int, Set[int]] = gfcore_local(skeleton, tau_u, tau_v, 1).n_v
    vees = sorted(adj_v)
    pairs: List[Pair] = []
    budget = [MAX_NODES]

    def popcount_ok(mask: int) -> bool:
        return mask.bit_count() >= lam

    def enum_u_side(vs: FrozenSet[int], ucand: List[int], umask: Dict[int, int]) -> None:
        """Maximal U_S ⊆ ucand with shared mask popcount ≥ λ, |U_S| ≥ τ_U."""

        def rec_u(us: List[int], mask: int, cand: List[int]) -> None:
            if budget[0] <= 0:
                raise RuntimeError("mfb search budget exhausted")
            budget[0] -= 1
            extended = False
            for i, u in enumerate(cand):
                m2 = mask & umask[u]
                if popcount_ok(m2):
                    extended = True
                    rec_u(us + [u], m2, cand[i + 1 :])
            if extended or len(us) < tau_u:
                return
            # Maximal within this V_S iff no u ∈ ucand (also earlier ones)
            # can join while keeping the mask frequent.
            us_set = set(us)
            for u in ucand:
                if u not in us_set and popcount_ok(mask & umask[u]):
                    return
            pairs.append((frozenset(us), vs))

        rec_u([], all_ts, ucand)

    def rec_v(vs: List[int], cand: List[int]) -> None:
        if budget[0] <= 0:
            raise RuntimeError("mfb search budget exhausted")
        budget[0] -= 1
        if len(vs) >= tau_v:
            fvs = frozenset(vs)
            ucand = sorted(set.intersection(*(adj_v[v] for v in vs)))
            umask = {
                u: _and_masks(masks, u, vs) for u in ucand
            }
            ucand = [u for u in ucand if popcount_ok(umask[u])]
            if len(ucand) >= tau_u:
                enum_u_side(fvs, ucand, umask)
        for i, v in enumerate(cand):
            common = set.intersection(*(adj_v[x] for x in vs + [v])) if vs else adj_v[v]
            if len(common) >= tau_u:
                rec_v(vs + [v], cand[i + 1 :])

    def _and_masks(m: Dict[Tuple[int, int], int], u: int, vs: List[int]) -> int:
        out = all_ts
        for v in vs:
            out &= m.get((u, v), 0)
        return out

    rec_v([], vees)
    # Global maximality: drop pairs contained in another pair.
    out: List[Pair] = []
    for us, vs in pairs:
        dominated = any(
            (us2, vs2) != (us, vs) and us <= us2 and vs <= vs2
            for us2, vs2 in pairs
        )
        if not dominated:
            out.append((us, vs))
    return sorted(set(out), key=lambda p: (sorted(p[1]), sorted(p[0])))
