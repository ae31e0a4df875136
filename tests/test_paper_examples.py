"""Every numeric claim the paper makes about its running example (Figure 2,
Examples 2.1-4.4) is asserted here against the reconstructed graph."""
from __future__ import annotations

import pytest

from repro.core.bk_alg import bk_alg
from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.filterv import filterv
from repro.core.freq import check_fre, is_frequent_naive, support_timestamps
from repro.core.gfcore import gfcore_local
from repro.core.vfree import vfree
from tests.conftest import FIG2_MFGS

PARAMS = (2, 2, 3)  # τ_U, τ_V, λ of Examples 2.2/3.1/4.x


class TestExample21:
    """Example 2.1 — structural and momentary neighborhoods of u1, read from
    the edge frame and from the V-side views (the index has no U side)."""

    @pytest.fixture()
    def u1_edges(self, fig2):
        pdf = fig2.to_pandas()
        return pdf[pdf.u == 1]

    def test_s_neighbors_u1(self, fig2, u1_edges):
        assert set(u1_edges.v.tolist()) == {1, 2, 3, 4, 5}
        assert {v for v in fig2.v_ids.tolist() if 1 in fig2.s_neighbors_v(v)} == {
            1, 2, 3, 4, 5
        }

    def test_s_degree_u1(self, u1_edges):
        assert u1_edges.v.nunique() == 5

    def test_m_neighbors_u1_t1(self, fig2, u1_edges):
        assert u1_edges.v[u1_edges.t == 1].tolist() == [3]
        assert {v for v in fig2.v_ids.tolist() if 1 in fig2.m_neighbors_v(v, 1)} == {3}

    def test_m_degree_u1_t1(self, u1_edges):
        assert int((u1_edges.t == 1).sum()) == 1


class TestExample22:
    """Example 2.2 — the three MFGs with their support timestamps."""

    def test_bruteforce_matches(self, fig2):
        assert enumerate_mfg_bruteforce(fig2, *PARAMS) == FIG2_MFGS

    def test_vs1_supports(self, fig2):
        assert support_timestamps(fig2, [1, 2, 3, 5], 2) == {1, 3, 4}

    def test_vs2_supports(self, fig2):
        assert support_timestamps(fig2, [2, 3, 4], 2) == {3, 5, 6}

    def test_vs3_supports(self, fig2):
        # "V_S3 = {v3,v4,v5} with 4 support timestamps {t2,t3,t5,t6}"
        assert support_timestamps(fig2, [3, 4, 5], 2) == {2, 3, 5, 6}


class TestExample31:
    """Example 3.1 / Figure 3 — the CheckFRE walk for {v1,v2,v3,v5}."""

    VS = [1, 2, 3, 5]

    def test_us_is_all_of_u(self, fig2):
        # "U_S = {u1, u2, u3, u4, u5}"
        us = set.intersection(*(fig2.s_neighbors_v(v) for v in self.VS))
        assert us == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize(
        "t,expected", [(1, 1), (2, 3), (3, 0), (4, 4), (5, 0), (6, 3)]
    )
    def test_u1_reborn_array(self, fig2, t, expected):
        # u1's RA over the six timestamps is "1, 3, 0, 4, 0, 3".
        assert sum(1 in fig2.m_neighbors_v(v, t) for v in self.VS) == expected

    @pytest.mark.parametrize("t,expected", [(1, 2), (3, 2), (4, 2)])
    def test_update_array_support_slots(self, fig2, t, expected):
        # UA[1] = UA[3] = UA[4] = 2 — two common m-neighbors each.
        common = set.intersection(
            *(fig2.m_neighbors_v(v, t) for v in self.VS)
        )
        assert len(common) == expected

    @pytest.mark.parametrize("t", [2, 5, 6])
    def test_update_array_non_support_slots(self, fig2, t):
        common = set.intersection(
            *(fig2.m_neighbors_v(v, t) for v in self.VS)
        )
        assert len(common) < 2

    def test_check_fre_passes(self, fig2):
        assert check_fre(fig2, self.VS, 2, 3) is True

    def test_check_fre_rejects_infrequent(self, fig2):
        # {v1, v4} has only 2 support timestamps (t2, t3) — not frequent.
        assert support_timestamps(fig2, [1, 4], 2) == {2, 3}
        assert check_fre(fig2, [1, 4], 2, 3) is False

    def test_naive_agrees(self, fig2):
        assert is_frequent_naive(fig2, self.VS, 2, 3) is True
        assert is_frequent_naive(fig2, [1, 4], 2, 3) is False


class TestExample41:
    """Example 4.1 — one VFree step for V_S = {v1, v2} at t = 1."""

    def test_cand_u(self, fig2):
        assert fig2.m_neighbors_v(1, 1) & fig2.m_neighbors_v(2, 1) == {3, 4}

    def test_cand_v(self, fig2):
        # Besides V_S, v3 and v5 connect ≥2 vertices of cand_U = {u3, u4}.
        cand_u = {3, 4}
        cand_v = {
            v
            for v in fig2.n_v
            if v not in (1, 2)
            and len(fig2.m_neighbors_v(v, 1) & cand_u) >= 2
        }
        assert cand_v == {3, 5}


class TestExamples42to44:
    """Examples 4.2-4.4 — valid candidate sets via the rooted VFree kernel."""

    def test_cv_star_of_v1(self, fig2):
        # Example 4.3: C_V*({v1}) = {v2, v3, v5}, survived ts {1, 2, 3, 4};
        # the only MFG in v1's branch (natural id order, v1 is rank 0) is
        # {v1,v2,v3,v5}.
        res = vfree(fig2, *PARAMS, reorder_ids=False, roots=[0])
        assert res == {frozenset({1, 2, 3, 5}): {1, 3, 4}}

    def test_survived_timestamps_of_v1(self, fig2):
        # δ(v1, t) ≥ τ_U = 2 exactly at t ∈ {1, 2, 3, 4}.
        assert support_timestamps(fig2, [1], 2) == frozenset({1, 2, 3, 4})

    def test_cv_star_of_v1v2(self, fig2):
        # Example 4.4: C_V*({v1, v2}) = {v3, v5}.
        cand = {
            v
            for v in fig2.n_v
            if v not in (1, 2)
            and len(support_timestamps(fig2, [1, 2, v], 2)) >= 3
        }
        assert cand == {3, 5}


ALGORITHMS = [
    ("bk-alg", lambda g: bk_alg(g, *PARAMS)),
    ("filterv", lambda g: filterv(g, *PARAMS)),
    ("filterv-fr", lambda g: filterv(g, *PARAMS, use_candidate_filter=False)),
    ("filterv-vm", lambda g: filterv(g, *PARAMS, use_array_verification=False)),
    (
        "filterv-",
        lambda g: filterv(
            g, *PARAMS, use_candidate_filter=False, use_array_verification=False
        ),
    ),
    ("vfree", lambda g: vfree(g, *PARAMS)),
    ("vfree-noreorder", lambda g: vfree(g, *PARAMS, reorder_ids=False)),
]


@pytest.mark.parametrize("name,fn", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
def test_every_algorithm_reproduces_example22(fig2, name, fn):
    assert fn(fig2) == FIG2_MFGS


@pytest.mark.parametrize("name,fn", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
def test_every_algorithm_on_filtered_graph(fig2, name, fn):
    """Lemma 3.1: the (τ_V, τ_U, λ)-core preserves all MFGs."""
    assert fn(gfcore_local(fig2, *PARAMS)) == FIG2_MFGS
