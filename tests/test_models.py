"""MFB and MSG comparator-model tests."""
from __future__ import annotations

import pytest

from repro.graph.index import TemporalBipartiteIndex
from repro.models.mfb import mfb
from repro.models.msg import msg
from repro.synth_data import planted_mfg
from tests.conftest import random_triples


def _fixed_biclique(members_v, group_u_size, timestamps, u_id_start):
    """One U-set, ``group_u_size`` ids from ``u_id_start`` up, joined to
    every member of ``members_v`` at each of ``timestamps``: a frequent
    biclique whose U side repeats."""
    us = range(u_id_start, u_id_start + group_u_size)
    return TemporalBipartiteIndex(
        (u, v, t) for t in timestamps for u in us for v in members_v
    )


def mfb_bruteforce(triples, tau_u: int, tau_v: int, lam: int) -> set:
    """Every maximal frequent (τ_U, τ_V)-biclique, by enumerating all
    (U_S, V_S) pairs.

    A pair is frequent when ``|U_S| ≥ τ_U``, ``|V_S| ≥ τ_V`` and every edge
    of ``U_S × V_S`` is present together in at least λ snapshots. Frequency
    is anti-monotone, so a frequent pair is maximal iff adding any single
    vertex to either side leaves it infrequent.
    """
    us = sorted({u for u, _, _ in triples})
    vs = sorted({v for _, v, _ in triples})
    ts = sorted({t for _, _, t in triples})
    # nbr[t][i]: bitmask over vs of u_i's neighbours at t.
    nbr = {t: [0] * len(us) for t in ts}
    for u, v, t in triples:
        nbr[t][us.index(u)] |= 1 << vs.index(v)
    full_v = (1 << len(vs)) - 1
    frequent = set()
    for um in range(1, 1 << len(us)):
        if um.bit_count() < tau_u:
            continue
        common = []
        for t in ts:
            c = full_v
            for i in range(len(us)):
                if um >> i & 1:
                    c &= nbr[t][i]
            common.append(c)
        for vm in range(1, full_v + 1):
            if vm.bit_count() >= tau_v and sum(
                vm & c == vm for c in common
            ) >= lam:
                frequent.add((um, vm))
    maximal = {
        (um, vm)
        for um, vm in frequent
        if all(
            (um | 1 << i, vm) not in frequent
            for i in range(len(us)) if not um >> i & 1
        )
        and all(
            (um, vm | 1 << j) not in frequent
            for j in range(len(vs)) if not vm >> j & 1
        )
    }
    return {
        (
            frozenset(u for i, u in enumerate(us) if um >> i & 1),
            frozenset(v for j, v in enumerate(vs) if vm >> j & 1),
        )
        for um, vm in maximal
    }


class TestMSG:
    def test_figure2_static_graph_is_one_big_group(self, fig2):
        # Figure-1 discussion: ignoring time, everything merges.
        assert [sorted(s) for s in msg(fig2, 2, 2)] == [[1, 2, 3, 4, 5]]

    def test_msg_respects_size_constraints(self, fig2):
        # τ_U = 6 > |U| = 5: nothing can qualify.
        assert msg(fig2, 6, 2) == []

    def test_msg_equals_mfg_with_lambda_one_on_static(self):
        from repro.core.vfree import vfree

        idx = TemporalBipartiteIndex(
            [(1, 1, 0), (1, 2, 3), (2, 1, 5), (2, 2, 7), (3, 3, 5)]
        )
        static = TemporalBipartiteIndex(
            (u, v, 0) for (u, v, _t) in {(u, v, 0) for u, v, _ in idx.edges_iter()}
        )
        assert set(msg(idx, 2, 2)) == set(vfree(static, 2, 2, 1))


class TestMFB:
    def test_figure2_has_no_frequent_biclique(self, fig2):
        # Paper Table 3 intuition: requiring the same U side to repeat is
        # very strict; on Figure 2 nothing survives (2,2,3).
        assert mfb(fig2, 2, 2, 3) == []

    def test_recovers_planted_fixed_biclique(self):
        got = mfb(_fixed_biclique([1, 2, 3], 2, [0, 1, 2, 3], 100), 2, 2, 3)
        assert got == [(frozenset({100, 101}), frozenset({1, 2, 3}))]

    def test_fresh_u_defeats_mfb(self):
        pdf = planted_mfg(
            members_v=[1, 2, 3],
            group_u_size=2,
            timestamps=[0, 1, 2, 3],
            u_id_start=100,
        )
        assert mfb(TemporalBipartiteIndex.from_pandas(pdf), 2, 2, 3) == []

    def test_frequency_threshold(self):
        idx = _fixed_biclique([1, 2], 2, [0, 1, 2], 10)
        assert mfb(idx, 2, 2, 3) != []
        assert mfb(idx, 2, 2, 4) == []

    def test_maximality_across_pairs(self):
        # A 3x3 biclique at 3 timestamps: the maximal pair is the full one.
        got = mfb(_fixed_biclique([1, 2, 3], 3, [0, 1, 2], 10), 2, 2, 3)
        assert got == [(frozenset({10, 11, 12}), frozenset({1, 2, 3}))]

    def test_size_constraints(self):
        idx = _fixed_biclique([1, 2], 2, [0, 1, 2], 10)
        assert mfb(idx, 3, 2, 3) == []  # needs 3 U vertices, only 2 exist
        assert mfb(idx, 2, 3, 3) == []  # needs 3 V vertices, only 2 exist

    @pytest.mark.parametrize(
        "tau_u, tau_v, lam",
        [
            (1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3),
            (1, 2, 1), (2, 1, 2), (1, 1, 3), (3, 3, 1),
        ],
    )
    def test_random_graphs_match_bruteforce(self, tau_u, tau_v, lam):
        """Exhaustive (U_S, V_S) oracle on 120 small seeded graphs
        (|U| ≤ 6, |V| ≤ 5, |T| ≤ 4): MFB finds every maximal pair, and
        only those."""
        non_empty = 0
        for seed in range(120):
            triples = random_triples(
                seed, n_u=6, n_v=5, n_t=4, density=0.5 + 0.1 * (seed % 4)
            )
            got = mfb(TemporalBipartiteIndex(triples), tau_u, tau_v, lam)
            assert len(got) == len(set(got)), seed
            assert set(got) == mfb_bruteforce(triples, tau_u, tau_v, lam), seed
            non_empty += bool(got)
        assert non_empty >= 40

    @pytest.mark.parametrize("b", [10, 40])
    def test_complete_biclique_is_one_pair(self, b):
        """K_{b,b} present at λ = 3 snapshots: every sub-biclique is
        frequent, and the one maximal pair is the whole graph."""
        us, vs = range(b), range(1000, 1000 + b)
        idx = TemporalBipartiteIndex(
            (u, v, t) for u in us for v in vs for t in range(3)
        )
        assert mfb(idx, 2, 2, 3) == [(frozenset(us), frozenset(vs))]

    def test_masks_past_64_timestamps(self):
        """A biclique at the 1st, 65th and 66th of 66 timestamps: its edges'
        mask bits (timestamp positions) 0, 64 and 65 do not fit in 64 bits.
        Filler edges make the 66 timestamps; v12 joins the biclique at the
        2nd and 65th only, a near miss."""
        ts = [1000 + 7 * i for i in range(66)]
        triples = [(900, 900, t) for t in ts]
        triples += [
            (u, v, ts[p]) for u in (1, 2) for v in (10, 11) for p in (0, 64, 65)
        ]
        triples += [(u, 12, ts[p]) for u in (1, 2) for p in (1, 64)]
        idx = TemporalBipartiteIndex(triples)
        assert len(idx.t_ids) == 66
        expected = [(frozenset({1, 2}), frozenset({10, 11}))]
        assert mfb(idx, 2, 2, 3) == expected
        assert set(expected) == mfb_bruteforce(triples, 2, 2, 3)
        assert mfb(idx, 2, 2, 4) == []

    @pytest.mark.parametrize("params", [(0, 2, 3), (2, 0, 3), (2, 2, 0)])
    def test_rejects_non_positive_parameter(self, fig2, params):
        with pytest.raises(ValueError):
            mfb(fig2, *params)
