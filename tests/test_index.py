"""Unit tests for the TemporalBipartiteIndex substrate."""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd
import pytest

from repro.core.freq import support_timestamps
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from tests.conftest import random_triples


@pytest.fixture()
def small() -> TemporalBipartiteIndex:
    return TemporalBipartiteIndex(
        [(1, 10, 0), (1, 11, 0), (2, 10, 1), (1, 10, 1), (2, 11, 1)]
    )


class TestConstruction:
    def test_edge_count(self, small):
        assert len(small) == 5

    def test_duplicate_edges_are_dropped(self):
        idx = TemporalBipartiteIndex([(1, 10, 0), (1, 10, 0), (1, 10, 0)])
        assert len(idx) == 1

    def test_timestamps_sorted(self, small):
        assert small.t_ids.tolist() == [0, 1]

    def test_t_pos_dense(self):
        # The t code of an edge is its timestamp's position in T.
        idx = TemporalBipartiteIndex([(1, 10, 5), (1, 10, 100), (1, 10, 7)])
        assert idx.t_ids.tolist() == [5, 7, 100]
        assert idx.t.tolist() == [0, 1, 2]

    def test_vertex_lists(self, small):
        assert small.u_ids.tolist() == [1, 2]
        assert small.v_ids.tolist() == [10, 11]

    def test_from_pandas_roundtrip(self, small):
        again = TemporalBipartiteIndex.from_pandas(small.to_pandas())
        assert sorted(again.edges_iter()) == sorted(small.edges_iter())

    def test_empty(self):
        # An empty row list (MFB's skeleton can be one) is an empty index.
        for rows in ([], iter([])):
            idx = TemporalBipartiteIndex(rows)
            assert len(idx) == 0
            assert idx.t_ids.tolist() == []
            for name in ("u_ids", "v_ids", "t_ids", "u", "v", "t", "tu"):
                array = getattr(idx, name)
                assert array.dtype == np.int64 and array.shape == (0,)


class TestNeighborhoods:
    def test_s_neighbors(self, small):
        assert small.s_neighbors_v(10) == {1, 2}
        assert small.s_neighbors_v(11) == {1, 2}

    def test_m_neighbors(self, small):
        assert small.m_neighbors_v(10, 0) == {1}
        assert small.m_neighbors_v(10, 1) == {1, 2}
        assert small.m_neighbors_v(11, 0) == {1}
        assert small.m_neighbors_v(11, 1) == {2}

    def test_missing_vertex_is_empty(self, small):
        assert small.m_neighbors_v(99, 0) == set()
        assert small.m_neighbors_v(10, 99) == set()
        assert small.s_neighbors_v(99) == set()
        assert small.v_edge_keys(99).tolist() == []

    def test_m_degrees(self, small):
        assert len(small.m_neighbors_v(10, 1)) == 2
        # δ(u, t) from the edge frame: the index keeps V-side views only.
        delta_u = small.to_pandas().groupby(["u", "t"]).size()
        assert delta_u[(1, 0)] == 2
        assert (2, 0) not in delta_u


class TestDerived:
    def test_t_of_v(self, small):
        # δ(10, 0) = 1, δ(10, 1) = 2.
        # T(v) (Lemma 3.2) is the support of {v} (Definition 2.4).
        assert support_timestamps(small, [10], 2) == frozenset({1})
        assert support_timestamps(small, [10], 1) == frozenset({0, 1})

    def test_v_edge_keys_multiplicity(self, small):
        # v=10 has edges (u1,t0), (u1,t1), (u2,t1); u1 and u2 have codes 0
        # and 1, |U| = 2 → keys t·|U| + u = 0*2+0, 1*2+0, 1*2+1.
        np.testing.assert_array_equal(small.v_edge_keys(10), [0, 2, 3])

    def test_tu_is_the_edge_slot_and_is_not_cached(self, small):
        # Edges in (v, t, u) order: (1,10,0) (1,10,1) (2,10,1) (1,11,0) (2,11,1).
        assert small.tu.tolist() == [0, 2, 3, 0, 3]
        assert small.tu is not small.tu
        # The per-vertex keys are views of tu's runs, not copies.
        assert small.v_edge_keys(11).base is not None

    def test_v_edge_keys_cached(self, small):
        assert small.v_edge_keys(10) is small.v_edge_keys(10)

    def test_separate_id_namespaces(self):
        # u=1 and v=1 are different vertices.
        idx = TemporalBipartiteIndex([(1, 1, 0)])
        assert idx.u_ids.tolist() == [1] and idx.v_ids.tolist() == [1]
        assert idx.s_neighbors_v(1) == {1} and idx.gamma_v == {1: {0: {1}}}
        assert idx.to_pandas().values.tolist() == [[1, 1, 0]]

    def test_subset_recompacts_codes(self, small):
        out = small.subset(small.v_ids[small.v] == 10)
        assert sorted(out.edges_iter()) == [(1, 10, 0), (1, 10, 1), (2, 10, 1)]
        assert out.v_ids.tolist() == [10] and out.u_ids.tolist() == [1, 2]
        assert out.v.tolist() == [0, 0, 0]

    def test_degree_rank(self):
        big = TemporalBipartiteIndex(
            [(1, 10, 0), (2, 10, 0), (3, 10, 1), (1, 11, 0), (1, 12, 5)]
        )
        # d(10) = 3, d(11) = 1, d(12) = 1; ties by id.
        assert big.degree_rank().tolist() == [2, 0, 1]


def _reference(triples: List[Tuple[int, int, int]]) -> Dict[str, object]:
    """Every view, built with dicts of sets straight from the raw triples."""
    ref: Dict[str, dict] = {"gamma_v": {}, "n_v": {}}
    ts = sorted({t for _u, _v, t in triples})
    t_pos = {t: i for i, t in enumerate(ts)}
    u_pos = {u: i for i, u in enumerate(sorted({u for u, _v, _t in triples}))}
    for u, v, t in set(triples):
        ref["gamma_v"].setdefault(v, {}).setdefault(t, set()).add(u)
        ref["n_v"].setdefault(v, set()).add(u)
    ref["v_edge_keys"] = {
        v: sorted(
            t_pos[t] * len(u_pos) + u_pos[u] for t, us in per_t.items() for u in us
        )
        for v, per_t in ref["gamma_v"].items()
    }
    ref.update(
        t_ids=ts,
        u_ids=sorted(u_pos),
        n_edges=len(set(triples)),
    )
    return ref


class TestViewsMatchReference:
    """The lazily built views equal dicts of sets built from raw triples,
    duplicate rows included, through both constructors."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("build", ["triples", "pandas"])
    def test_views(self, seed, build):
        # Spread-out ids, so that no id equals its dense code.
        raw = [
            (3 * u + 7, 5 * v + 100, 2 * t + 50)
            for u, v, t in random_triples(seed, n_u=6, n_v=5, n_t=7, density=0.35)
        ]
        rows = raw + raw[::3]  # duplicate rows
        np.random.default_rng(seed).shuffle(rows)
        if build == "triples":
            idx = TemporalBipartiteIndex(rows)
        else:
            pdf = pd.DataFrame(rows, columns=["u", "v", "t"])
            idx = TemporalBipartiteIndex.from_pandas(pdf)
        ref = _reference(rows)
        assert len(idx) == ref["n_edges"]
        assert idx.t_ids.tolist() == ref["t_ids"]
        for name in ("gamma_v", "n_v"):
            assert getattr(idx, name) == ref[name], name
        assert idx.u_ids.tolist() == ref["u_ids"]
        assert idx.v_ids.tolist() == sorted(ref["n_v"])
        keys = {v: k.tolist() for v, k in idx._v_edge_keys.items()}
        assert keys == ref["v_edge_keys"]
        for v, keys in ref["v_edge_keys"].items():
            assert idx.v_edge_keys(v).tolist() == keys
        runs = [ref["v_edge_keys"][v] for v in idx.v_ids.tolist()]
        assert idx.tu.tolist() == [k for run in runs for k in run]
        assert sorted(idx.edges_iter()) == sorted(set(raw))
        # A view added to the index must be added to this comparison.
        views = {n for n, a in vars(TemporalBipartiteIndex).items()
                 if isinstance(a, cached_property)}
        assert views == {"gamma_v", "n_v", "_v_edge_keys"}


#: One malformed input per case: the rows, the columns that put the same
#: fault into a valid frame, and the message both constructors raise. A
#: frame cannot hold a ragged row, so that case drops a column instead.
MALFORMED = {
    "float": ([(2, 3, 1), (1.5, 3, 0)], {"u": [2, 1.5]}, r"int64.*'u'"),
    "numpy-float": (
        [(2, 3, 1), (1, 3, np.float64(2.0))],
        {"t": np.array([1.0, 2.0])},
        r"int64.*'t'",
    ),
    "string": ([(2, 3, 1), (1, 3, "0")], {"t": ["1", "0"]}, r"int64.*'t'"),
    "bool": ([(True, 1, 0)], {"u": [True, False]}, r"int64.*'u'"),
    "above-int64": (
        [(2, 3, 1), (1, 2**63, 0)],
        {"v": np.array([3, 2**63], dtype=np.uint64)},
        r"'v'.*int64",
    ),
    "below-int64": (
        [(2, 3, 1), (1, 3, -(2**63) - 1)],
        {"t": pd.Series([1, -(2**63) - 1], dtype=object)},
        r"int64.*'t'",
    ),
    "ragged": (
        [(2, 3, 1), (1, 3)],
        {"t": None},
        (r"\(u, v, t\) triples", r"missing.*'t'"),
    ),
    "missing-value": ([(2, 3, 1), (None, 3, 0)], {"u": [2, None]}, r"int64.*'u'"),
}


class TestSingleIngestPath:
    """Both constructors validate through ``edge_columns``: each malformed
    input raises ``ValueError`` through the rows and through a frame."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_is_rejected_by_both_constructors(self, case):
        rows, columns, match = MALFORMED[case]
        row_match, frame_match = (match, match) if isinstance(match, str) else match
        pdf = pd.DataFrame({"u": [2, 1], "v": [3, 3], "t": [1, 0]})
        for c, values in columns.items():
            if values is None:
                pdf = pdf.drop(columns=c)
            else:
                pdf[c] = values
        with pytest.raises(ValueError, match=row_match):
            TemporalBipartiteIndex(rows)
        with pytest.raises(ValueError, match=frame_match):
            TemporalBipartiteIndex.from_pandas(pdf)

    def test_nullable_integer_column_with_a_missing_value_is_named(self):
        pdf = pd.DataFrame({"u": [2, 1], "v": [3, 3], "t": [1, 0]})
        pdf["v"] = pd.array([3, None], dtype="Int64")
        with pytest.raises(ValueError, match=r"\['v'\] hold missing values"):
            TemporalBipartiteIndex.from_pandas(pdf)
        # Without a missing value the nullable column is accepted.
        pdf["v"] = pd.array([3, 4], dtype="Int64")
        assert TemporalBipartiteIndex.from_pandas(pdf).v_ids.tolist() == [3, 4]


class TestValidation:
    """Ids and timestamps must be integers within int64: nothing is silently
    truncated or wrapped."""

    FRACTIONAL = {"u": [1.5, 2.7], "v": [3.2, 3.9], "t": [0.1, 0.9]}

    @pytest.mark.parametrize("column", ["u", "v", "t"])
    def test_from_pandas_rejects_one_non_integer_column(self, column):
        pdf = pd.DataFrame({"u": [1, 2], "v": [3, 3], "t": [0, 1]})
        # Any integer dtype is accepted ...
        ok = pdf.astype({"u": "int32", "v": "uint8", "t": "int16"})
        assert len(TemporalBipartiteIndex.from_pandas(ok)) == 2
        # ... a fractional column is not.
        pdf[column] = self.FRACTIONAL[column]
        with pytest.raises(ValueError, match=f"integer.*'{column}'"):
            TemporalBipartiteIndex.from_pandas(pdf)

    @pytest.mark.parametrize("column", ["u", "v", "t"])
    def test_from_pandas_names_a_missing_column(self, column):
        pdf = pd.DataFrame({"u": [1], "v": [3], "t": [0]}).drop(columns=column)
        with pytest.raises(ValueError, match=f"missing.*'{column}'"):
            TemporalBipartiteIndex.from_pandas(pdf)

    @pytest.mark.parametrize("column", ["u", "v", "t"])
    def test_a_repeated_column_is_named(self, column):
        """A repeated name makes ``pdf[column]`` a frame, not a column.
        ``edges_from_pandas`` rejects it before any Spark call: it is given
        no session."""
        pdf = pd.DataFrame([[1, 3, 0, 2]], columns=["u", "v", "t", column])
        with pytest.raises(ValueError, match=f"repeats.*'{column}'"):
            TemporalBipartiteIndex.from_pandas(pdf)
        with pytest.raises(ValueError, match=f"repeats.*'{column}'"):
            edges_from_pandas(None, pdf)

    @pytest.mark.parametrize(
        "bad",
        [(1.5, 3, 0), (1, 3.2, 0), (1, 3, 0.9), (1, 3, np.float64(2.0)), (1, 3, "0")],
    )
    def test_triples_reject_non_integer_values(self, bad):
        # numpy integers are integers too.
        ok = TemporalBipartiteIndex([(np.int32(1), np.int64(3), 0)])
        assert list(ok.edges_iter()) == [(1, 3, 0)]
        with pytest.raises(ValueError, match="integer"):
            TemporalBipartiteIndex([(2, 3, 1), bad])

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1])
    @pytest.mark.parametrize("column", ["u", "v", "t"])
    def test_from_pandas_rejects_unsigned_values_above_int64(self, column, value):
        pdf = pd.DataFrame({"u": [1, 2], "v": [3, 4], "t": [0, 1]}, dtype="uint64")
        pdf[column] = np.array([value, 5], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"'{column}'.*int64"):
            TemporalBipartiteIndex.from_pandas(pdf)

    def test_from_pandas_keeps_the_largest_unsigned_int64_value(self):
        top = 2**63 - 1
        pdf = pd.DataFrame({"u": [1, 2], "v": [top, 5], "t": [0, 0]}, dtype="uint64")
        index = TemporalBipartiteIndex.from_pandas(pdf)
        assert index.v_ids.tolist() == [5, top]
        assert sorted(index.edges_iter()) == [(1, top, 0), (2, 5, 0)]

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**64 - 1])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_triples_reject_values_outside_int64(self, position, value):
        bad = [1, 3, 0]
        bad[position] = value
        with pytest.raises(ValueError, match="int64"):
            TemporalBipartiteIndex([(2, 3, 1), tuple(bad)])

    def test_triples_keep_the_int64_extremes(self):
        lo, hi = -(2**63), 2**63 - 1
        index = TemporalBipartiteIndex([(lo, hi, lo), (hi, lo, hi)])
        assert sorted(index.edges_iter()) == [(lo, hi, lo), (hi, lo, hi)]

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 2), (3, 4, 5), (6,)],  # 6 values: would realign into 2 edges
            [(1, 10, 0), (2, 10)],
            [(1, 10, 0, 7)],
            [()],
        ],
    )
    def test_triples_reject_rows_that_are_not_triples(self, rows):
        with pytest.raises(ValueError, match="triples"):
            TemporalBipartiteIndex(rows)

    def test_well_formed_triples_build_the_same_index(self):
        rows = [(3, 10, 5), (1, 11, 5), (3, 10, 5), (2, 10, 7)]
        idx = TemporalBipartiteIndex(rows)
        pdf = pd.DataFrame(rows, columns=["u", "v", "t"])
        again = TemporalBipartiteIndex.from_pandas(pdf)
        for name in ("u_ids", "v_ids", "t_ids", "u", "v", "t"):
            np.testing.assert_array_equal(getattr(idx, name), getattr(again, name))
        assert list(idx.edges_iter()) == [(3, 10, 5), (2, 10, 7), (1, 11, 5)]
        # Rows from a generator, lists or numpy arrays are triples too.
        for build in (iter(rows), [list(r) for r in rows], np.array(rows)):
            assert list(TemporalBipartiteIndex(build).edges_iter()) == list(
                idx.edges_iter()
            )
