"""MSG — maximal static group (paper §5.2, Exp-8/9 comparator).

"The maximal group included in a (τ_U, τ_V)-biclique of the corresponding
static graph": temporal information is ignored. This is exactly the MFG
model run on a single snapshot (the static graph) with λ = 1, so the VFree
kernel is reused directly.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex


def msg(
    index: TemporalBipartiteIndex, tau_u: int, tau_v: int
) -> List[FrozenSet[int]]:
    """All maximal static groups of the static graph of ``index``."""
    static = TemporalBipartiteIndex.from_pandas(index.to_pandas().assign(t=0))
    groups: Dict[FrozenSet[int], Set[int]] = vfree(static, tau_u, tau_v, lam=1)
    return sorted(groups, key=lambda s: (len(s), sorted(s)))
