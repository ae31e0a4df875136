"""Frequency verification for candidate groups.

Two implementations, as in the paper:

- the *naive* method (§3.1 "Discussion"): for every timestamp, intersect the
  m-neighbor sets of all members and compare against ``τ_U``. It is one scan
  over ``T``; ``support_timestamps`` collects all it yields and
  ``is_frequent_naive`` stops at the ``λ``-th;
- *CheckFRE* (Algorithm 3): Reborn Array (RA) and Update Array (UA)
  counting, vectorized over the temporal edges of the members of ``V_S``.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Set

import numpy as np

from repro.graph.index import TemporalBipartiteIndex


def _naive_supports(
    index: TemporalBipartiteIndex, vs: Iterable[int], tau_u: int
) -> Iterator[int]:
    """Yield the support timestamps of ``V_S`` (Definition 2.4) in ``T`` order.

    The paper's naive method (§3.1 "Discussion"): "for each timestamp
    t ∈ T, we check whether there exists no less than τ_U common
    m-neighbors of all the vertices in V_S". Each timestamp intersects the
    members' ``Γ(v,t)`` in turn, stopping once the intersection is empty.
    """
    vs = list(vs)
    if not vs:
        return
    first, rest = vs[0], vs[1:]
    for t in index.t_ids.tolist():
        common = index.m_neighbors_v(first, t)
        for v in rest:
            if not common:
                break
            common = common & index.m_neighbors_v(v, t)
        if len(common) >= tau_u:
            yield t


def support_timestamps(
    index: TemporalBipartiteIndex, vs: Iterable[int], tau_u: int
) -> Set[int]:
    """All support timestamps of ``V_S`` (Definition 2.4), by the naive scan.

    ``t`` supports ``V_S`` iff ``|⋂_{v∈V_S} Γ(v,t)| ≥ τ_U`` (the size
    constraint ``|V_S| ≥ τ_V`` is a property of the *group*, checked by the
    callers, not of the timestamp).
    """
    return set(_naive_supports(index, vs, tau_u))


def is_frequent_naive(
    index: TemporalBipartiteIndex, vs: Iterable[int], tau_u: int, lam: int
) -> bool:
    """The paper's *naive* frequency check (§3.1 "Discussion").

    The same scan as :func:`support_timestamps`, stopped at the ``λ``-th
    support timestamp. This is deliberately the slow method that CheckFRE
    replaces; it is the one used by BK-ALG and the FilterV-VM / FilterV-
    ablations.
    """
    return sum(1 for _ in islice(_naive_supports(index, vs, tau_u), lam)) == lam


def check_fre(
    index: TemporalBipartiteIndex, vs: Iterable[int], tau_u: int, lam: int
) -> bool:
    """CheckFRE (Algorithm 3) — array-based frequency verification.

    Returns True iff the checking vertex set ``vs`` has at least ``λ``
    support timestamps. The paper also passes ``U_S``, the common
    s-neighbors of ``vs``, to bound the iteration domain; here that
    restriction is implicit, so it is not a parameter.

    Semantics are exactly the paper's Reborn/Update Array counting: the RA
    slot of ``(u, t)`` reaching ``|V_S|`` means ``u`` is a common m-neighbor
    of ``V_S`` at ``t`` (one Update Array bump); a UA slot reaching ``τ_U``
    marks a support timestamp. The per-``u`` loops are vectorized across
    all of ``U_S`` at once: every temporal edge of every ``v ∈ V_S`` is its
    ``(t, u)`` slot ``index.tu`` (``index.v_edge_keys``), and a key with
    multiplicity ``|V_S|`` is precisely an RA slot at ``|V_S|``. Keys
    of ``u ∉ U_S`` can never reach it, which is why ``U_S`` need not be
    given. Each member
    contributes at most ``d_max(v)·|T|`` keys, and ``|V_S| ≤ d_max(u)``
    whenever ``U_S`` is non-empty: the ``O(d_max(u)·d_max(v)·|T|)`` bound
    of Theorem 3.1.
    """
    vs = list(vs)
    n_t = len(index.t_ids)
    if not vs or n_t == 0:
        return False
    keys = np.concatenate([index.v_edge_keys(v) for v in vs])
    uniq, cnt = np.unique(keys, return_counts=True)
    full = uniq[cnt == len(vs)]  # (t, u) keys where RA[t] reached |V_S|
    if full.shape[0] < tau_u * lam:
        return False
    ua = np.bincount(full // len(index.u_ids), minlength=n_t)  # Update Array
    return int((ua >= tau_u).sum()) >= lam
