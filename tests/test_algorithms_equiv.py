"""Cross-algorithm equivalence: every production algorithm must return the
brute-force result on randomized graphs across parameter settings."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bk_alg import bk_alg
from repro.core.bruteforce import MAX_V, enumerate_mfg_bruteforce
from repro.core.filterv import filterv
from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex
from tests.conftest import random_temporal_graph

PARAM_GRID = [(1, 1, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 3, 2), (2, 1, 3)]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("params", PARAM_GRID)
def test_all_algorithms_match_bruteforce(seed, params):
    tau_u, tau_v, lam = params
    g = random_temporal_graph(seed)
    expected = enumerate_mfg_bruteforce(g, tau_u, tau_v, lam)
    assert bk_alg(g, tau_u, tau_v, lam) == expected
    assert filterv(g, tau_u, tau_v, lam) == expected
    assert (
        filterv(g, tau_u, tau_v, lam, use_candidate_filter=False) == expected
    )
    assert (
        filterv(g, tau_u, tau_v, lam, use_array_verification=False) == expected
    )
    assert (
        filterv(
            g,
            tau_u,
            tau_v,
            lam,
            use_candidate_filter=False,
            use_array_verification=False,
        )
        == expected
    )
    assert vfree(g, tau_u, tau_v, lam) == expected
    assert vfree(g, tau_u, tau_v, lam, reorder_ids=False) == expected


@pytest.mark.parametrize("seed", range(6))
def test_denser_graphs(seed):
    g = random_temporal_graph(seed, n_u=4, n_v=6, n_t=4, density=0.7)
    expected = enumerate_mfg_bruteforce(g, 2, 2, 2)
    assert vfree(g, 2, 2, 2) == expected
    assert filterv(g, 2, 2, 2) == expected
    assert bk_alg(g, 2, 2, 2) == expected


@pytest.mark.parametrize("seed", range(6))
def test_sparser_graphs(seed):
    g = random_temporal_graph(seed, n_u=6, n_v=8, n_t=6, density=0.15)
    expected = enumerate_mfg_bruteforce(g, 2, 2, 2)
    assert vfree(g, 2, 2, 2) == expected
    assert filterv(g, 2, 2, 2) == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    tau_u=st.integers(1, 3),
    tau_v=st.integers(1, 3),
    lam=st.integers(1, 3),
)
def test_vfree_equals_bruteforce_property(seed, tau_u, tau_v, lam):
    g = random_temporal_graph(seed, n_u=4, n_v=6, n_t=4, density=0.45)
    assert vfree(g, tau_u, tau_v, lam) == enumerate_mfg_bruteforce(
        g, tau_u, tau_v, lam
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_filterv_equals_vfree_property(seed):
    g = random_temporal_graph(seed, n_u=5, n_v=7, n_t=5, density=0.5)
    assert filterv(g, 2, 2, 2) == vfree(g, 2, 2, 2)


class TestResultInvariants:
    """Structural invariants of any correct MFG output (Definitions 2.4-2.6)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_results_are_frequent_and_maximal(self, seed):
        from repro.core.freq import support_timestamps

        g = random_temporal_graph(seed)
        tau_u, tau_v, lam = 2, 2, 2
        res = vfree(g, tau_u, tau_v, lam)
        for vs, supp in res.items():
            assert len(vs) >= tau_v
            assert support_timestamps(g, vs, tau_u) == supp
            assert len(supp) >= lam
            # maximality: no single-vertex extension is frequent
            for x in set(g.n_v) - vs:
                assert (
                    len(support_timestamps(g, vs | {x}, tau_u)) < lam
                ), (vs, x)

    @pytest.mark.parametrize("seed", range(8))
    def test_no_result_contains_another(self, seed):
        g = random_temporal_graph(seed)
        res = list(vfree(g, 2, 2, 2))
        for a in res:
            for b in res:
                assert a == b or not a < b


def test_bruteforce_refuses_more_than_max_v():
    ok = TemporalBipartiteIndex([(0, v, 0) for v in range(MAX_V)])
    got = enumerate_mfg_bruteforce(ok, 1, MAX_V, 1)
    assert got == {frozenset(range(MAX_V)): {0}}
    wide = TemporalBipartiteIndex([(0, v, 0) for v in range(MAX_V + 1)])
    match = f"limited to \\|V\\| <= {MAX_V}, got {MAX_V + 1}"
    with pytest.raises(ValueError, match=match):
        enumerate_mfg_bruteforce(wide, 1, 1, 1)
