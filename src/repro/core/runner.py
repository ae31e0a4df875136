"""Unified entry point for the MFG algorithms + instrumentation.

``run_mfg(index, params, algorithm=...)`` applies the GFCore prefilter
(§5: "we equip all the algorithms with the graph filtering technique by
default" — except the ``*-nofilter`` variants) and dispatches to the
requested kernel. Returns an :class:`MFGRun` with the results, wall time
and the CM (candidate-set + maximality) time used by Table 1.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

from repro.core.bk_alg import bk_alg
from repro.core.filterv import filterv
from repro.core.gfcore import gfcore_local
from repro.core.params import Params
from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex

#: Algorithm names, as used in the paper's experiment section.
ALGORITHMS = (
    "bk-alg+",      # baseline BK + graph filter
    "filterv",      # Algorithm 1, all optimizations
    "filterv-fr",   # without the candidate filtering rule (Lemma 3.2)
    "filterv-vm",   # without the array-based verification (Algorithm 3)
    "filterv-",     # without both
    "vfree",        # Algorithm 4 + graph filter
    "vfree-",       # Algorithm 4 without graph filter
    "vfree-noreorder",  # Exp-7 ablation: no ID reorder
)


@dataclass
class MFGRun:
    """Outcome of one enumeration run."""

    algorithm: str
    params: Params
    groups: Dict[FrozenSet[int], Set[int]]
    wall_s: float
    filtered_edges: int
    timers: Dict[str, float] = field(default_factory=dict)

    @property
    def cm_s(self) -> float:
        """The kernel's CM time, ``timers["cm"]`` (0 for one that has none)."""
        return self.timers.get("cm", 0.0)

    @property
    def cm_pct(self) -> float:
        """CM share of total wall time (Table 1's "FilterV-CM (%)")."""
        return 100.0 * self.cm_s / self.wall_s if self.wall_s > 0 else 0.0


def run_mfg(
    index: TemporalBipartiteIndex,
    params: Params,
    algorithm: str = "vfree",
) -> MFGRun:
    """Run one algorithm end to end (prefilter + search) on an index."""
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; one of {ALGORITHMS}")
    t_start = time.perf_counter()
    if algorithm == "vfree-":
        work = index  # the only variant evaluated without the graph filter
    else:
        work = gfcore_local(index, params.tau_u, params.tau_v, params.lam)
    timers: Dict[str, float] = {}
    if algorithm == "bk-alg+":
        groups = bk_alg(work, params.tau_u, params.tau_v, params.lam)
    elif algorithm.startswith("filterv"):
        groups = filterv(
            work,
            params.tau_u,
            params.tau_v,
            params.lam,
            use_candidate_filter=algorithm in ("filterv", "filterv-vm"),
            use_array_verification=algorithm in ("filterv", "filterv-fr"),
            timers=timers,
        )
    else:
        groups = vfree(
            work,
            params.tau_u,
            params.tau_v,
            params.lam,
            reorder_ids=(algorithm != "vfree-noreorder"),
            timers=timers,
        )
    wall = time.perf_counter() - t_start
    return MFGRun(
        algorithm=algorithm,
        params=params,
        groups=groups,
        wall_s=wall,
        filtered_edges=len(work),
        timers=timers,
    )
