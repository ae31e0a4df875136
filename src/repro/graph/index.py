"""Driver-side index of a temporal bipartite graph: one dense-coded layout.

The graph is held once, as its distinct temporal edges over dense codes:
sorted distinct ``u_ids``, ``v_ids`` and ``t_ids``, and per edge the int64
codes ``u``, ``v`` and ``t`` into them (``t`` is the timestamp's position
in ``T``), sorted by ``(v, t, u)``. Both constructors go through
:func:`edge_columns`, the one validation path. The edge contract itself,
``EDGE_COLUMNS`` and :func:`check_edge_fields`, is stated here once and
serves a Spark frame's schema too (``repro.graph.schema``); this module
imports no pyspark. The edge's ``(t, u)`` slot
``tu = t·|U| + u`` is the one key of the paper's ``(t, u)`` counters. The
GFCore peel, VFree, MFB and MSG read these arrays directly; CheckFRE reads
the per-vertex runs of ``tu`` (``v_edge_keys``). The set-based kernels
(BK-ALG, FilterV, the naive frequency check and the brute-force oracle)
read the V-side dict views ``gamma_v`` and ``n_v``. Every view is derived
from the codes on first access and then cached; ``tu`` is not cached.

U-ids and V-ids are separate namespaces, mirroring the paper's disjoint
vertex sets U and V.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np
import pandas as pd

_INT64_MAX = np.iinfo(np.int64).max


#: The edge columns, in the order every edge frame and Arrow table uses.
EDGE_COLUMNS = ("u", "v", "t")


def check_edge_fields(fields: Iterable[Tuple[str, str, bool]]) -> None:
    """The edge contract over a frame's ``(name, type name, is-integral)``
    fields, one per column: ``u``, ``v`` and ``t`` each appear exactly once
    and have an integer type.

    Raises ``ValueError`` naming the columns that are missing, repeated or
    not integer, so that no fractional id or timestamp is silently
    truncated. It reads the fields only, so it serves a pandas frame's
    dtypes and a Spark frame's schema alike.
    """
    fields = list(fields)
    names = [name for name, _, _ in fields]
    missing = [c for c in EDGE_COLUMNS if c not in names]
    if missing:
        raise ValueError(f"edge frame missing columns {missing}")
    repeated = [c for c in EDGE_COLUMNS if names.count(c) > 1]
    if repeated:
        raise ValueError(f"edge frame repeats columns {repeated}")
    bad = {
        name: type_name
        for name, type_name, integral in fields
        if name in EDGE_COLUMNS and not integral
    }
    if bad:
        raise ValueError(f"edge columns must be integer (int64), got {bad}")


def edge_columns(pdf: pd.DataFrame) -> List[np.ndarray]:
    """The ``u``, ``v`` and ``t`` columns of an edge frame, as int64 arrays.

    Raises ``ValueError`` as :func:`check_edge_fields` does over the frame's
    dtypes, for a missing value in a nullable integer column, and for an
    unsigned value above the int64 maximum, so that none silently wraps.
    """
    check_edge_fields(
        (name, str(dtype), pd.api.types.is_integer_dtype(dtype))
        for name, dtype in pdf.dtypes.items()
    )
    # Only a pandas extension dtype, such as Int64, holds a missing integer.
    holes = [
        c for c in "uvt" if not isinstance(pdf[c].dtype, np.dtype) and pdf[c].hasnans
    ]
    if holes:
        raise ValueError(f"edge columns {holes} hold missing values")
    wide = [
        c for c in "uvt" if pdf[c].dtype.kind == "u" and (pdf[c] > _INT64_MAX).any()
    ]
    if wide:
        raise ValueError(f"edge columns {wide} hold values above the int64 maximum")
    return [pdf[c].to_numpy(dtype=np.int64) for c in "uvt"]


class TemporalBipartiteIndex:
    """Dense-coded, deduplicated temporal edges plus lazily built views.

    ``u_ids`` / ``v_ids`` / ``t_ids`` are the sorted distinct ids of U, V
    and T; ``u`` / ``v`` / ``t`` the per-edge codes into them, sorted by
    ``(v, t, u)``. Both constructors validate the columns with
    :func:`edge_columns` and deduplicate with one ``np.unique`` over a
    packed ``(v, t, u)`` key; the triple constructor also raises
    ``ValueError`` for a row that is not a ``(u, v, t)`` triple.
    """

    def __init__(self, edges: Iterable[Tuple[int, int, int]]):
        rows = list(edges)
        ragged = next((row for row in rows if len(row) != 3), None)
        if ragged is not None:
            raise ValueError(f"edge rows must be (u, v, t) triples, got {ragged!r}")
        pdf = pd.DataFrame(rows or np.empty((0, 3), np.int64), columns=list("uvt"))
        self._encode(*edge_columns(pdf))

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

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame) -> "TemporalBipartiteIndex":
        """Build from a pandas frame with integer ``u, v, t`` columns."""
        index = cls.__new__(cls)
        index._encode(*edge_columns(pdf))
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
        return out

    # ------------------------------------------------------------------
    # Views, built on first access
    # ------------------------------------------------------------------
    @cached_property
    def gamma_v(self) -> Dict[int, Dict[int, Set[int]]]:
        """``gamma_v[v][t] = Γ(v,t) ⊆ U`` (m-neighbor sets)."""
        out: Dict[int, Dict[int, Set[int]]] = {}
        for u, v, t in self.edges_iter():
            out.setdefault(v, {}).setdefault(t, set()).add(u)
        return out

    @cached_property
    def n_v(self) -> Dict[int, Set[int]]:
        """``n_v[v] = N(v) ⊆ U`` (static s-neighbor sets)."""
        return {v: set().union(*per_t.values()) for v, per_t in self.gamma_v.items()}

    @cached_property
    def _v_edge_keys(self) -> Dict[int, np.ndarray]:
        """Every vertex's run of :attr:`tu` keys (see :meth:`v_edge_keys`)."""
        splits = np.flatnonzero(np.diff(self.v)) + 1
        return dict(zip(self.v_ids.tolist(), np.split(self.tu, splits)))

    @property
    def tu(self) -> np.ndarray:
        """Every edge's ``(t, u)`` slot ``t_code·|U| + u_code``.

        The one encoding of the paper's ``(t, u)`` counters: CheckFRE's
        Reborn Array, the peel's ``δ(u,t)`` and VFree's ``cand_U`` stamp.
        Built from the codes, it stays below ``|U|·|T|`` however large the
        ids are, and it ascends within each ``v``'s run of edges. Computed
        on every access and never cached, so an index that only VFree reads
        holds nothing but its six code arrays.
        """
        return self.t * len(self.u_ids) + self.u

    # ------------------------------------------------------------------
    # Basic accessors (paper Definitions 2.1 / 2.2)
    # ------------------------------------------------------------------
    def s_neighbors_v(self, v: int) -> Set[int]:
        """``N(v, G)`` — static neighbors of ``v`` in U."""
        return self.n_v.get(v, set())

    def m_neighbors_v(self, v: int, t: int) -> Set[int]:
        """``Γ(v, t)`` — m-neighbors of ``v`` at timestamp ``t``."""
        return self.gamma_v.get(v, {}).get(t, set())

    # ------------------------------------------------------------------
    # Derived orders
    # ------------------------------------------------------------------
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
        """All temporal edges of ``v`` as sorted :attr:`tu` keys.

        The CheckFRE verification (Algorithm 3) counts how many members of
        ``V_S`` each ``(t, u)`` key covers — a key hit ``|V_S|`` times is a
        common m-neighbor occurrence (a Reborn-Array slot reaching ``|V_S|``).
        The keys are views into one :attr:`tu` array, not copies.
        """
        return self._v_edge_keys.get(v, np.empty(0, dtype=np.int64))

    def edges_iter(self) -> Iterable[Tuple[int, int, int]]:
        """Iterate all distinct ``(u, v, t)`` edges, in ``(v, t, u)`` order."""
        cols = (getattr(self, c + "_ids")[getattr(self, c)] for c in "uvt")
        return zip(*(col.tolist() for col in cols))

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
