"""Shared fixtures for the test suite (the Spark session fixture lives in
the repository-root conftest.py)."""
from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np
import pandas as pd
import pytest

from repro.core.runner import MFGRun, Params
from repro.graph.index import TemporalBipartiteIndex
from repro.synth_data import figure2_edges


@pytest.fixture(scope="session")
def fig2() -> TemporalBipartiteIndex:
    """The paper's Figure-2 running-example graph."""
    return TemporalBipartiteIndex.from_pandas(figure2_edges())


#: The paper's Example 2.2 ground truth at τ_U=τ_V=2, λ=3.
FIG2_MFGS = {
    frozenset({1, 2, 3, 5}): {1, 3, 4},
    frozenset({2, 3, 4}): {3, 5, 6},
    frozenset({3, 4, 5}): {2, 3, 5, 6},
}


def random_triples(
    seed: int,
    n_u: int = 5,
    n_v: int = 7,
    n_t: int = 5,
    density: float = 0.4,
) -> List[Tuple[int, int, int]]:
    """Distinct ``(u, v, t)`` triples of a small random graph, by seed."""
    rng = np.random.default_rng(seed)
    edges = [
        (u, v, t)
        for u in range(n_u)
        for v in range(n_v)
        for t in range(n_t)
        if rng.random() < density
    ]
    return edges or [(0, 0, 0)]


def random_temporal_graph(
    seed: int,
    n_u: int = 5,
    n_v: int = 7,
    n_t: int = 5,
    density: float = 0.4,
) -> TemporalBipartiteIndex:
    """Small random temporal bipartite graph, deterministic in ``seed``."""
    return TemporalBipartiteIndex(random_triples(seed, n_u, n_v, n_t, density))


def frame_sha256(pdf: pd.DataFrame) -> str:
    """SHA-256 of an edge frame's columns, dtypes and values (row order
    included), to pin generated graphs byte for byte."""
    h = hashlib.sha256()
    h.update(",".join(pdf.columns).encode())
    h.update(",".join(map(str, pdf.dtypes)).encode())
    h.update(np.ascontiguousarray(pdf.to_numpy()).tobytes())
    return h.hexdigest()


def mfg_run(
    algorithm: str,
    groups: Optional[Dict[FrozenSet[int], Set[int]]] = None,
    params: Params = Params(9, 5, 8),
    wall_s: float = 1.0,
    cm_s: float = 0.5,
    **timers: float,
) -> MFGRun:
    """A hand-built :class:`MFGRun`, to drive the table formatters and the
    jobs' exit checks without running a kernel."""
    timers = {"cm": cm_s, **timers}
    return MFGRun(algorithm, params, groups or {}, wall_s, 0, timers)
