"""Graph statistics checked against DuckDB via the oracle.

The driver index's views (the m- and s-neighbourhoods, ``T(v)``, the
snapshots and the Table-2 counts) and the Spark degree dataflows of
``repro.graph.stats`` are each re-expressed as DuckDB SQL over the same
edge table, and the sorted rows must match.
"""
from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from repro.core.freq import support_timestamps
from repro.experiments import datasets
from repro.experiments.table2 import run_table2
from repro.graph import stats
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from repro.oracle import assert_equivalent
from repro.synth_data import figure2_edges


@pytest.fixture(scope="module")
def edge_frames():
    """(name, pandas, index) triples used across the oracle tests."""
    return [
        (name, pdf, TemporalBipartiteIndex.from_pandas(pdf))
        for name, pdf in [
            ("fig2", figure2_edges()),
            ("d2", datasets.load("D2", sf=0.05)),
            ("d5", datasets.load("D5", sf=0.05)),
        ]
    ]


def _m_neighbors(index: TemporalBipartiteIndex) -> pd.DataFrame:
    """Every ``(u, v, t)`` of the index, read through its ``gamma_v`` view."""
    return pd.DataFrame(
        (
            (u, v, t)
            for v, per_t in index.gamma_v.items()
            for t, us in per_t.items()
            for u in us
        ),
        columns=["u", "v", "t"],
    )


def _s_neighbors(index: TemporalBipartiteIndex) -> pd.DataFrame:
    """Every static edge ``(u, v)``, read through the ``n_v`` view."""
    return pd.DataFrame(
        ((u, v) for v, us in index.n_v.items() for u in us), columns=["u", "v"]
    )


@pytest.mark.parametrize("which", [0, 1, 2], ids=["fig2", "d2", "d5"])
class TestDegreesAgainstDuckDB:
    def test_s_degree_u(self, edge_frames, which):
        """``d(u)`` counted over the index's ``n_v`` view."""
        _, pdf, index = edge_frames[which]
        assert_equivalent(
            _s_neighbors(index).groupby("u").size().reset_index(name="d"),
            "SELECT u, COUNT(DISTINCT v) AS d FROM edges GROUP BY u",
            edges=pdf,
        )

    def test_s_degree_v(self, spark, edge_frames, which):
        _, pdf, _ = edge_frames[which]
        assert_equivalent(
            stats.s_degree_v(edges_from_pandas(spark, pdf)),
            "SELECT v, COUNT(DISTINCT u) AS d FROM edges GROUP BY v",
            edges=pdf,
        )

    def test_m_degree_u(self, edge_frames, which):
        """``δ(u, t)`` counted over the index's ``gamma_v`` view."""
        _, pdf, index = edge_frames[which]
        assert_equivalent(
            _m_neighbors(index).groupby(["u", "t"]).size().reset_index(name="d"),
            "SELECT u, t, COUNT(DISTINCT v) AS d FROM edges GROUP BY u, t",
            edges=pdf,
        )

    def test_m_degree_v(self, edge_frames, which):
        """``δ(v, t) = |Γ(v, t)|`` from the index's ``gamma_v`` view."""
        _, pdf, index = edge_frames[which]
        assert_equivalent(
            pd.DataFrame(
                (
                    (v, t, len(us))
                    for v, per_t in index.gamma_v.items()
                    for t, us in per_t.items()
                ),
                columns=["v", "t", "d"],
            ),
            "SELECT v, t, COUNT(DISTINCT u) AS d FROM edges GROUP BY v, t",
            edges=pdf,
        )

    def test_t_of_v(self, edge_frames, which):
        """``T(v)`` (Lemma 3.2) as FilterV reads it: the support of
        ``{v}``, ``support_timestamps(index, [v], τ_U)``."""
        _, pdf, index = edge_frames[which]
        assert_equivalent(
            pd.DataFrame(
                (
                    (v, t)
                    for v in index.v_ids.tolist()
                    for t in support_timestamps(index, [v], 2)
                ),
                columns=["v", "t"],
            ),
            """
            SELECT v, t FROM (
              SELECT v, t, COUNT(DISTINCT u) AS d FROM edges GROUP BY v, t
            ) WHERE d >= 2
            """,
            edges=pdf,
        )

    def test_v_frequency(self, edge_frames, which):
        """``|T(v)|``, the bound on any group frequency containing v."""
        _, pdf, index = edge_frames[which]
        freq = (
            (v, len(support_timestamps(index, [v], 2)))
            for v in index.v_ids.tolist()
        )
        assert_equivalent(
            pd.DataFrame(((v, f) for v, f in freq if f), columns=["v", "freq"]),
            """
            SELECT v, COUNT(*) AS freq FROM (
              SELECT v, t, COUNT(DISTINCT u) AS d FROM edges GROUP BY v, t
            ) WHERE d >= 2 GROUP BY v
            """,
            edges=pdf,
        )

    def test_static_edges(self, edge_frames, which):
        """The static graph ``G`` as the index's ``n_v`` view."""
        _, pdf, index = edge_frames[which]
        assert_equivalent(
            _s_neighbors(index),
            "SELECT DISTINCT u, v FROM edges",
            edges=pdf,
        )


def _duckdb_counts(pdf: pd.DataFrame) -> tuple:
    """|U|, |V|, |E| (distinct temporal edges) and |T| of an edge frame."""
    con = duckdb.connect()
    try:
        con.register("edges", pdf)
        return con.execute(
            """
            SELECT COUNT(DISTINCT u), COUNT(DISTINCT v),
                   COUNT(DISTINCT (u, v, t)), COUNT(DISTINCT t)
            FROM edges
            """
        ).fetchone()
    finally:
        con.close()


def test_graph_stats_against_duckdb():
    """Table 2's index-derived counts on every analogue, and Figure 2's."""
    for name, row in zip(datasets.DATASET_NAMES, run_table2(sf=0.02)):
        assert (row.n_u, row.n_v, row.n_edges, row.n_timestamps) == (
            _duckdb_counts(datasets.load(name, sf=0.02))
        ), name
    pdf = figure2_edges()
    index = TemporalBipartiteIndex.from_pandas(pdf)
    got = (len(index.u_ids), len(index.v_ids), len(index), len(index.t_ids))
    assert got == _duckdb_counts(pdf)
    assert (got[0], got[1], got[3]) == (5, 5, 6)


def test_snapshot_projection(edge_frames):
    """Snapshot ``G_1`` read through the index's ``gamma_v`` view."""
    _, pdf, index = edge_frames[0]
    edges = _m_neighbors(index)
    assert_equivalent(
        edges.loc[edges.t == 1, ["u", "v"]],
        "SELECT DISTINCT u, v FROM edges WHERE t = 1",
        edges=pdf,
    )


def test_degree_order_is_a_permutation(spark):
    sdf = edges_from_pandas(spark, figure2_edges())
    rows = stats.degree_order_v(sdf).collect()
    assert sorted(r["new_id"] for r in rows) == list(range(5))
