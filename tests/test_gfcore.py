"""(τ_V, τ_U, λ)-core tests: peel invariants, Lemma 3.1, and the Spark
dataflow ≡ local peel equivalence."""
from __future__ import annotations

import pytest

from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.gfcore import gfcore_local, gfcore_spark
from repro.core.runner import run_mfg
from repro.core.vfree import vfree
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from repro.synth_data import figure2_edges
from tests.conftest import random_temporal_graph, random_triples


def dict_peel(triples, tau_u, tau_v, lam):
    """Straightforward (τ_V, τ_U, λ)-core peel over a set of triples."""
    edges = set(triples)
    while True:
        d_ut, d_vt, snaps = {}, {}, {}
        for u, v, t in edges:
            d_ut[u, t] = d_ut.get((u, t), 0) + 1
            d_vt[v, t] = d_vt.get((v, t), 0) + 1
            snaps.setdefault(v, set()).add(t)
        keep = {
            (u, v, t)
            for u, v, t in edges
            if d_ut[u, t] >= tau_v and d_vt[v, t] >= tau_u
            and len(snaps[v]) >= lam
        }
        if keep == edges:
            return edges
        edges = keep


#: Two peel rounds at (τ_U, τ_V, λ) = (2, 2, 1): dropping (3, 30, 0) leaves
#: u=3 with one edge at t=0.
CASCADE = [
    (1, 10, 0), (1, 20, 0), (2, 10, 0), (2, 20, 0), (3, 20, 0), (3, 30, 0),
]

#: At (τ_U, τ_V) = (2, 2) every (u, t) and (v, t) m-degree is at least 2;
#: v=30 has edges in 2 snapshots, v=10 and v=20 in 3, so at λ = 3 only the
#: frequency rule removes anything: all of v=30.
FREQ_ONLY = [
    (u, v, t) for u in (1, 2) for v in (10, 20) for t in (0, 1, 2)
] + [(u, 30, t) for u in (1, 2) for t in (0, 1)]


def spark_core(edges, tau_u, tau_v, lam):
    """``gfcore_spark`` as sorted triples; the frame has only u, v, t."""
    core = gfcore_spark(edges, tau_u, tau_v, lam)
    assert core.columns == ["u", "v", "t"]
    return sorted(map(tuple, core.toPandas().values.tolist()))


class TestLocalPeel:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("params", [(1, 1, 1), (2, 2, 2), (2, 1, 3), (3, 2, 2)])
    def test_core_satisfies_constraints(self, seed, params):
        tau_u, tau_v, lam = params
        core = gfcore_local(random_temporal_graph(seed), tau_u, tau_v, lam)
        for (u, t), m_degree in core.to_pandas().groupby(["u", "t"]).size().items():
            assert m_degree >= tau_v, (u, t)
        for v, per_t in core.gamma_v.items():
            assert len(per_t) >= lam, v
            for t, us in per_t.items():
                assert len(us) >= tau_u, (v, t)

    @pytest.mark.parametrize("seed", range(15))
    def test_core_is_fixpoint(self, seed):
        g = random_temporal_graph(seed)
        core = gfcore_local(g, 2, 2, 2)
        again = gfcore_local(core, 2, 2, 2)
        assert sorted(again.edges_iter()) == sorted(core.edges_iter())

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("params", [(1, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_lemma_3_1_no_mfg_vertex_pruned(self, seed, params):
        """Filtering first never changes the enumeration result."""
        tau_u, tau_v, lam = params
        g = random_temporal_graph(seed)
        expected = enumerate_mfg_bruteforce(g, tau_u, tau_v, lam)
        core = gfcore_local(g, tau_u, tau_v, lam)
        assert vfree(core, tau_u, tau_v, lam) == expected

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("params", [(1, 1, 1), (2, 2, 2), (2, 1, 3), (3, 2, 2)])
    def test_matches_dict_peel(self, seed, params):
        raw = random_triples(seed, n_u=7, n_v=6, n_t=6, density=0.45)
        core = gfcore_local(TemporalBipartiteIndex(raw), *params)
        assert set(core.edges_iter()) == dict_peel(raw, *params)

    def test_cascade_needs_two_rounds(self):
        core = gfcore_local(TemporalBipartiteIndex(CASCADE), 2, 2, 1)
        assert sorted(core.edges_iter()) == sorted(CASCADE[:4])

    def test_monotone_in_parameters(self):
        g = random_temporal_graph(3, n_u=8, n_v=8, n_t=6, density=0.5)
        sizes = [
            len(gfcore_local(g, tau_u, 2, 2)) for tau_u in (1, 2, 3, 4)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_empty_graph(self):
        assert len(gfcore_local(TemporalBipartiteIndex([]), 2, 2, 2)) == 0

    def test_figure2_core_keeps_mfg_vertices(self, fig2):
        core = gfcore_local(fig2, 2, 2, 3)
        surviving_v = set(core.n_v)
        for vs in ({1, 2, 3, 5}, {2, 3, 4}, {3, 4, 5}):
            assert vs <= surviving_v


class TestSparkPeel:
    @pytest.mark.parametrize("params", [(2, 2, 3), (1, 1, 1), (3, 3, 2)])
    def test_spark_equals_local_on_figure2(self, spark, fig2, params):
        edges = edges_from_pandas(spark, figure2_edges())
        expected = sorted(gfcore_local(fig2, *params).edges_iter())
        assert spark_core(edges, *params) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_spark_equals_local_on_random(self, spark, seed):
        g = random_temporal_graph(seed, n_u=8, n_v=8, n_t=6, density=0.5)
        edges = edges_from_pandas(spark, g.to_pandas())
        expected = sorted(gfcore_local(g, 2, 2, 2).edges_iter())
        assert spark_core(edges, 2, 2, 2) == expected

    @pytest.mark.parametrize("name", ["D2", "D14"])
    def test_spark_equals_local_on_analogue(self, spark, name):
        pdf = datasets.load(name, sf=0.1)
        p = datasets.SPECS[name].params
        expected = gfcore_local(
            TemporalBipartiteIndex.from_pandas(pdf), p.tau_u, p.tau_v, p.lam
        )
        assert 0 < len(expected) < len(pdf)
        got = spark_core(edges_from_pandas(spark, pdf), p.tau_u, p.tau_v, p.lam)
        assert got == sorted(expected.edges_iter())

    def test_frequency_rule_alone_removes_v(self, spark):
        edges = edges_from_pandas(
            spark, TemporalBipartiteIndex(FREQ_ONLY).to_pandas()
        )
        assert spark_core(edges, 2, 2, 2) == sorted(FREQ_ONLY)
        expected = sorted(e for e in FREQ_ONLY if e[1] != 30)
        assert sorted(dict_peel(FREQ_ONLY, 2, 2, 3)) == expected
        assert spark_core(edges, 2, 2, 3) == expected

    def test_duplicate_rows_give_the_deduplicated_core(self, spark):
        g = random_temporal_graph(0, n_u=8, n_v=8, n_t=6, density=0.5)
        triples = sorted(g.edges_iter())
        dup = spark.createDataFrame(
            triples + triples[::3], "u long, v long, t long"
        )
        assert dup.count() > dup.distinct().count() == len(triples)
        dedup = edges_from_pandas(spark, g.to_pandas())
        got = spark_core(dup, 2, 2, 2)
        assert got == spark_core(dedup, 2, 2, 2)
        assert got == sorted(gfcore_local(g, 2, 2, 2).edges_iter())

    def test_spark_peels_a_long_cascade_to_the_fixpoint(self, spark):
        # A path u100–v200–u101–…–v209–u110 at one timestamp peels from
        # both ends, two edges a round, so it needs 10 rounds to vanish; the
        # 2×2 block of CASCADE beside it survives.
        path = [(100 + i + d, 200 + i, 0) for i in range(10) for d in (0, 1)]
        index = TemporalBipartiteIndex(path + CASCADE)
        expected = sorted(gfcore_local(index, 2, 2, 1).edges_iter())
        assert expected == sorted(CASCADE[:4])
        edges = edges_from_pandas(spark, index.to_pandas())
        assert spark_core(edges, 2, 2, 1) == expected


@pytest.mark.parametrize("name", datasets.DATASET_NAMES)
def test_lemma_3_1_on_every_analogue(name):
    """Peeling first keeps every MFG vertex, on every dataset analogue."""
    p = datasets.SPECS[name].params
    idx = TemporalBipartiteIndex.from_pandas(datasets.load(name, sf=0.1))
    filtered = run_mfg(idx, p, "vfree").groups
    assert filtered and filtered == run_mfg(idx, p, "vfree-").groups
    core_v = set(gfcore_local(idx, p.tau_u, p.tau_v, p.lam).n_v)
    assert all(vs <= core_v for vs in filtered)
