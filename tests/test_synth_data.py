"""Generator tests: the Figure-2 graph, noise and planted groups."""
from __future__ import annotations

from repro import synth_data


class TestFigure2:
    def test_shape(self):
        pdf = synth_data.figure2_edges()
        assert len(pdf) == 62
        assert set(pdf.columns) == {"u", "v", "t"}
        assert pdf["t"].nunique() == 6

    def test_deterministic(self):
        a = synth_data.figure2_edges()
        b = synth_data.figure2_edges()
        assert a.equals(b)


class TestNoise:
    def test_deterministic_in_seed(self):
        kw = dict(n_u=50, n_v=40, n_edges=500, n_ts=10, seed=7)
        assert synth_data.temporal_bipartite_noise(**kw).equals(
            synth_data.temporal_bipartite_noise(**kw)
        )

    def test_ranges(self):
        pdf = synth_data.temporal_bipartite_noise(
            n_u=50, n_v=40, n_edges=500, n_ts=10, seed=1
        )
        assert pdf["u"].between(1, 50).all()
        assert pdf["v"].between(1, 40).all()
        assert pdf["t"].between(0, 9).all()

    def test_no_duplicate_temporal_edges(self):
        pdf = synth_data.temporal_bipartite_noise(
            n_u=20, n_v=20, n_edges=2000, n_ts=4, seed=2
        )
        assert not pdf.duplicated().any()

    def test_zipf_skew(self):
        pdf = synth_data.temporal_bipartite_noise(
            n_u=1000, n_v=1000, n_edges=5000, n_ts=5, seed=3
        )
        counts = pdf["u"].value_counts()
        assert counts.iloc[0] > 5 * counts.median()


class TestPlantedMFG:
    def test_fresh_u_per_timestamp(self):
        pdf = synth_data.planted_mfg(
            members_v=[1, 2], group_u_size=3, timestamps=[0, 5],
            u_id_start=100,
        )
        u_at_0 = set(pdf[pdf.t == 0]["u"])
        u_at_5 = set(pdf[pdf.t == 5]["u"])
        assert u_at_0.isdisjoint(u_at_5)
        assert len(u_at_0) == len(u_at_5) == 3

    def test_complete_biclique_per_timestamp(self):
        pdf = synth_data.planted_mfg(
            members_v=[1, 2, 3], group_u_size=2, timestamps=[4],
            u_id_start=10,
        )
        assert len(pdf) == 2 * 3

    def test_planted_group_is_mfg(self):
        from repro.core.vfree import vfree
        from repro.graph.index import TemporalBipartiteIndex

        pdf = synth_data.planted_temporal_bipartite(
            n_u=40, n_v=30, n_edges=200, n_ts=8,
            groups=[dict(members_v=[100, 101, 102], group_u_size=3,
                         timestamps=[1, 3, 5, 7])],
            seed=5,
        )
        res = vfree(TemporalBipartiteIndex.from_pandas(pdf), 2, 2, 3)
        assert any({100, 101, 102} <= vs for vs in res)
