"""Frequency-verification tests: the naive scan (``support_timestamps`` and
``is_frequent_naive``) and CheckFRE each against the definitional count
``_support_reference``, on the paper example and on randomized graphs."""
from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freq import check_fre, is_frequent_naive, support_timestamps
from repro.graph.index import TemporalBipartiteIndex
from tests.conftest import random_temporal_graph


def _support_reference(index, vs, tau_u):
    """Definition 2.4 verbatim: t supports V_S iff |⋂ Γ(v,t)| ≥ τ_U."""
    out = set()
    for t in index.t_ids.tolist():
        common = None
        for v in vs:
            nbrs = index.m_neighbors_v(v, t)
            common = nbrs if common is None else common & nbrs
        if common is not None and len(common) >= tau_u:
            out.add(t)
    return out


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("tau_u", [1, 2, 3])
def test_support_timestamps_matches_reference(seed, tau_u):
    g = random_temporal_graph(seed)
    vees = sorted(g.n_v)
    for size in (1, 2, 3):
        for vs in combinations(vees[:5], size):
            assert support_timestamps(g, vs, tau_u) == _support_reference(
                g, vs, tau_u
            )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("tau_u,lam", [(1, 1), (2, 2), (2, 3), (3, 1)])
def test_check_fre_equals_naive(seed, tau_u, lam):
    g = random_temporal_graph(seed)
    vees = sorted(g.n_v)
    for size in (1, 2, 3):
        for vs in combinations(vees[:5], size):
            expected = len(_support_reference(g, vs, tau_u)) >= lam
            assert check_fre(g, vs, tau_u, lam) is expected
            assert is_frequent_naive(g, vs, tau_u, lam) is expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tau_u=st.integers(1, 3),
    lam=st.integers(1, 4),
    size=st.integers(1, 4),
)
def test_check_fre_property(seed, tau_u, lam, size):
    """Hypothesis: CheckFRE agrees with the definitional count on random
    graphs and random member sets."""
    g = random_temporal_graph(seed)
    vees = sorted(g.n_v)[:size]
    if not vees:
        return
    expected = len(_support_reference(g, vees, tau_u)) >= lam
    assert check_fre(g, vees, tau_u, lam) is expected


def test_empty_set_is_not_frequent(fig2):
    assert support_timestamps(fig2, [], 1) == set()
    assert is_frequent_naive(fig2, [], 1, 1) is False
    assert check_fre(fig2, [], 1, 1) is False


def test_check_fre_with_ids_past_int64_over_t():
    """u ids whose ``id·|T|`` overflows int64 (here 2^62·3) must not shift
    an edge to another timestamp slot: {v1, v2} is frequent at t0 and t1."""
    g = TemporalBipartiteIndex(
        [(u, v, t) for u in (2**61, 2**62) for v in (1, 2) for t in (0, 1)]
        + [(5, 3, 2)]
    )
    assert support_timestamps(g, [1, 2], 2) == {0, 1}
    assert check_fre(g, [1, 2], 2, 2) is True


def test_single_vertex_support_is_degree_threshold(fig2):
    # {v1}: δ(v1,t) ≥ 2 exactly at t ∈ {1,2,3,4}.
    assert support_timestamps(fig2, [1], 2) == {1, 2, 3, 4}
    assert check_fre(fig2, [1], 2, 4) is True
    assert check_fre(fig2, [1], 2, 5) is False
