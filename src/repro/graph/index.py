"""Driver-side index of a temporal bipartite graph: one dense-coded layout.

The graph is held once, as its distinct temporal edges over dense codes:
sorted distinct ``u_ids``, ``v_ids`` and ``t_ids``, and per edge the int64
codes ``u``, ``v`` and ``t`` into them (``t`` is the timestamp's position
in ``T``), sorted by ``(v, t, u)``. The GFCore peel and VFree read these
arrays directly. The set-based kernels (BK-ALG, FilterV, CheckFRE, the
brute-force oracle, MFB/MSG) read dict views that are derived from the
codes on first access and then cached.

U-ids and V-ids are separate namespaces, mirroring the paper's disjoint
vertex sets U and V.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np
import pandas as pd


def _lazy_view(build):
    """A property derived from the edge codes on first access, then cached."""
    return property(lambda self: self._view(build), doc=build.__doc__)


class TemporalBipartiteIndex:
    """Dense-coded, deduplicated temporal edges plus lazily built views.

    ``u_ids`` / ``v_ids`` / ``t_ids`` are the sorted distinct ids of U, V
    and T; ``u`` / ``v`` / ``t`` the per-edge codes into them, sorted by
    ``(v, t, u)``. Both constructors deduplicate with one ``np.unique``
    over a packed ``(v, t, u)`` key.
    """

    __slots__ = ("u_ids", "v_ids", "t_ids", "u", "v", "t", "_views")

    def __init__(self, edges: Iterable[Tuple[int, int, int]]):
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        self._encode(flat[0::3], flat[1::3], flat[2::3])

    def _encode(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
        """Dense-code the edge columns and drop duplicate edges."""
        self.u_ids, u = np.unique(u, return_inverse=True)
        self.v_ids, v = np.unique(v, return_inverse=True)
        self.t_ids, t = np.unique(t, return_inverse=True)
        n_u, n_v, n_t = len(self.u_ids), len(self.v_ids), len(self.t_ids)
        if n_u * n_v * n_t >= 2**63:
            raise ValueError(f"|U|·|V|·|T| = {n_u * n_v * n_t} overflows int64")
        key = np.unique((v * n_t + t) * n_u + u)
        vt, self.u = np.divmod(key, n_u)
        self.v, self.t = np.divmod(vt, n_t)
        self._views: Dict[str, object] = {}

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame) -> "TemporalBipartiteIndex":
        """Build from a pandas frame with ``u, v, t`` columns."""
        index = cls.__new__(cls)
        index._encode(*(pdf[c].to_numpy(dtype=np.int64) for c in "uvt"))
        return index

    def subset(self, keep: np.ndarray) -> "TemporalBipartiteIndex":
        """The sub-index of the edges where boolean mask ``keep`` holds.

        Codes are re-compacted to the ids that keep an edge; the compaction
        is monotone, so the edges stay sorted by ``(v, t, u)``.
        """
        out = TemporalBipartiteIndex.__new__(TemporalBipartiteIndex)
        for name in "uvt":
            ids, codes = getattr(self, name + "_ids"), getattr(self, name)[keep]
            present = np.zeros(len(ids), dtype=bool)
            present[codes] = True
            setattr(out, name + "_ids", ids[present])
            setattr(out, name, (np.cumsum(present) - 1)[codes])
        out._views = {}
        return out

    # ------------------------------------------------------------------
    # Views for the set-based kernels, built on first access
    # ------------------------------------------------------------------
    def _view(self, build):
        if build.__name__ not in self._views:
            self._views[build.__name__] = build(self)
        return self._views[build.__name__]

    def _id_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """Edges as ``u``, ``v`` and ``t`` id lists, in ``(v, t, u)`` order."""
        return (
            self.u_ids[self.u].tolist(),
            self.v_ids[self.v].tolist(),
            self.t_ids[self.t].tolist(),
        )

    def _adjacency(self, side: int, by_t: bool) -> dict:
        """Neighbor sets of every u (``side`` 0) or v (1), per t if ``by_t``."""
        out: dict = {}
        for row in zip(*self._id_columns()):
            nbrs = out.setdefault(row[side], {} if by_t else set())
            if by_t:
                nbrs = nbrs.setdefault(row[2], set())
            nbrs.add(row[1 - side])
        return out

    @_lazy_view
    def timestamps(self) -> Tuple[int, ...]:
        """``T``, sorted."""
        return tuple(self.t_ids.tolist())

    @_lazy_view
    def t_pos(self) -> Dict[int, int]:
        """Timestamp -> dense position ``0..|T|-1``."""
        return {t: i for i, t in enumerate(self.timestamps)}

    @_lazy_view
    def gamma_v(self) -> Dict[int, Dict[int, Set[int]]]:
        """``gamma_v[v][t] = Γ(v,t) ⊆ U`` (m-neighbor sets)."""
        return self._adjacency(1, by_t=True)

    @_lazy_view
    def gamma_u(self) -> Dict[int, Dict[int, Set[int]]]:
        """``gamma_u[u][t] = Γ(u,t) ⊆ V``."""
        return self._adjacency(0, by_t=True)

    @_lazy_view
    def n_v(self) -> Dict[int, Set[int]]:
        """``n_v[v] = N(v) ⊆ U`` (static s-neighbor sets)."""
        return self._adjacency(1, by_t=False)

    @_lazy_view
    def n_u(self) -> Dict[int, Set[int]]:
        """``n_u[u] = N(u) ⊆ V``."""
        return self._adjacency(0, by_t=False)

    @_lazy_view
    def edge_ts(self) -> Dict[Tuple[int, int], np.ndarray]:
        """``(u, v) ->`` ascending timestamp positions ``T_(u,v)`` (MFB's
        per-edge timestamp masks)."""
        pos: Dict[Tuple[int, int], List[int]] = {}
        us, vs, _ = self._id_columns()
        for u, v, t in zip(us, vs, self.t.tolist()):  # t ascends per (u, v)
            pos.setdefault((u, v), []).append(t)
        return {e: np.asarray(ts, dtype=np.int64) for e, ts in pos.items()}

    # ------------------------------------------------------------------
    # Basic accessors (paper Definitions 2.1 / 2.2)
    # ------------------------------------------------------------------
    @property
    def u_vertices(self) -> List[int]:
        """All U-side vertices with at least one edge."""
        return self.u_ids.tolist()

    @property
    def v_vertices(self) -> List[int]:
        """All V-side vertices with at least one edge."""
        return self.v_ids.tolist()

    def s_neighbors_v(self, v: int) -> Set[int]:
        """``N(v, G)`` — static neighbors of ``v`` in U."""
        return self.n_v.get(v, set())

    def s_neighbors_u(self, u: int) -> Set[int]:
        """``N(u, G)`` — static neighbors of ``u`` in V."""
        return self.n_u.get(u, set())

    def m_neighbors_v(self, v: int, t: int) -> Set[int]:
        """``Γ(v, t)`` — m-neighbors of ``v`` at timestamp ``t``."""
        return self.gamma_v.get(v, {}).get(t, set())

    def m_neighbors_u(self, u: int, t: int) -> Set[int]:
        """``Γ(u, t)`` — m-neighbors of ``u`` at timestamp ``t``."""
        return self.gamma_u.get(u, {}).get(t, set())

    def m_degree_v(self, v: int, t: int) -> int:
        """``δ(v, t)``."""
        return len(self.m_neighbors_v(v, t))

    def m_degree_u(self, u: int, t: int) -> int:
        """``δ(u, t)``."""
        return len(self.m_neighbors_u(u, t))

    # ------------------------------------------------------------------
    # Derived sets and orders
    # ------------------------------------------------------------------
    def t_of_v(self, v: int, tau_u: int) -> FrozenSet[int]:
        """``T(v) = {t : δ(v,t) ≥ τ_U}`` (paper Lemma 3.2)."""
        return frozenset(
            t for t, us in self.gamma_v.get(v, {}).items() if len(us) >= tau_u
        )

    def degree_rank(self) -> np.ndarray:
        """VFree's ID reorder (Algorithm 4 line 3): ``rank[c]`` of V code ``c``.

        Ascending structural degree ``d(v)``, ties by id — the same ranks as
        the ``repro.graph.stats.degree_order_v`` dataflow.
        """
        n_u = len(self.u_ids)
        static = np.unique(self.v * n_u + self.u)  # distinct (v, u) pairs
        degree = np.bincount(static // n_u, minlength=len(self.v_ids))
        rank = np.empty(len(degree), dtype=np.int64)
        rank[np.argsort(degree, kind="stable")] = np.arange(len(degree))
        return rank

    def v_edge_keys(self, v: int) -> np.ndarray:
        """All temporal edges of ``v`` flattened to ``u·|T| + t_pos`` keys.

        Cached per vertex; the CheckFRE verification (Algorithm 3) counts
        how many members of ``V_S`` each ``(u, t)`` key covers — a key hit
        ``|V_S|`` times is a common m-neighbor occurrence (a Reborn-Array
        slot reaching ``|V_S|``).
        """
        cache: Dict[int, np.ndarray] = self._views.setdefault("v_edge_keys", {})
        if v not in cache:
            c = int(np.searchsorted(self.v_ids, v))
            lo, hi = np.searchsorted(self.v, [c, c + 1])
            if c == len(self.v_ids) or self.v_ids[c] != v:
                lo = hi
            keys = self.u_ids[self.u[lo:hi]] * len(self.t_ids) + self.t[lo:hi]
            cache[v] = np.sort(keys)
        return cache[v]

    def edges_iter(self) -> Iterable[Tuple[int, int, int]]:
        """Iterate all distinct ``(u, v, t)`` temporal edges."""
        return zip(*self._id_columns())

    def to_pandas(self) -> pd.DataFrame:
        """Materialize back to a pandas edge frame (sorted, deterministic)."""
        order = np.lexsort((self.t, self.v, self.u))
        return pd.DataFrame(
            {c: getattr(self, c + "_ids")[getattr(self, c)[order]] for c in "uvt"},
            dtype="int64",
        )

    def __len__(self) -> int:
        return len(self.u)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TemporalBipartiteIndex(|U|={len(self.u_ids)}, "
            f"|V|={len(self.v_ids)}, |E|={len(self)}, |T|={len(self.t_ids)})"
        )
