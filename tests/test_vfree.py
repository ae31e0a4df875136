"""VFree-specific behavior: rooted partitioning, order handling, timers,
and the covered-outsider prune."""
from __future__ import annotations

import pytest

from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.gfcore import gfcore_local
from repro.core.vfree import vfree
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from repro.graph.stats import degree_order_v
from tests.conftest import FIG2_MFGS, random_temporal_graph


class TestRootedPartition:
    """Theorem 4.1's branch independence: the branch rooted at ``r`` emits
    exactly the MFGs whose minimum-rank member is ``r``, so the rooted runs
    partition the full result."""

    @pytest.mark.parametrize("seed", range(8))
    def test_union_of_roots_equals_full(self, seed):
        """Roots dealt round-robin in rank order into k batches, as the
        distributed fan-out deals them; k = |V| is one root per call."""
        g = random_temporal_graph(seed)
        for reorder in (True, False):
            full = vfree(g, 2, 2, 2, reorder_ids=reorder)
            for k in sorted({1, 2, 3, len(g.v_ids)}):
                merged = {}
                for i in range(k):
                    part = vfree(
                        g, 2, 2, 2, reorder_ids=reorder, roots=slice(i, None, k)
                    )
                    for vs, supp in part.items():
                        assert vs not in merged, "duplicate MFG across batches"
                        merged[vs] = supp
                assert merged == full, (reorder, k)

    def test_root_branch_contains_min_member(self, fig2):
        for i, r in enumerate(fig2.v_vertices):
            part = vfree(fig2, 2, 2, 3, reorder_ids=False, roots=slice(i, i + 1))
            for vs in part:
                assert min(vs) == r

    def test_roots_past_the_last_rank_are_empty(self, fig2):
        n = len(fig2.v_ids)
        assert vfree(fig2, 2, 2, 3, roots=slice(n, None)) == {}


class TestOrdering:
    def test_degree_order_ranks(self, fig2):
        order = dict(zip(fig2.v_vertices, fig2.degree_rank().tolist()))
        assert sorted(order.values()) == list(range(len(fig2.n_v)))
        degs = [len(fig2.n_v[v]) for v in sorted(order, key=order.get)]
        assert degs == sorted(degs)

    def test_degree_rank_matches_spark_dataflow(self, spark):
        """One degree order: the index's ranks equal ``degree_order_v``'s
        on an analogue core."""
        p = datasets.SPECS["D2"].params
        core = gfcore_local(
            TemporalBipartiteIndex.from_pandas(datasets.load("D2", sf=0.1)),
            p.tau_u, p.tau_v, p.lam,
        )
        rows = degree_order_v(edges_from_pandas(spark, core.to_pandas()))
        expected = {r["v"]: r["new_id"] for r in rows.collect()}
        assert len(expected) > 10
        assert dict(zip(core.v_vertices, core.degree_rank().tolist())) == expected

    def test_explicit_order_any_permutation_is_correct(self, fig2):
        """§4.2: correctness holds for *any* id assignment. Each cyclic
        shift relabels V so that id order is the shifted order."""
        vees = fig2.v_vertices
        for shift in range(len(vees)):
            label = {v: (i + shift) % len(vees) for i, v in enumerate(vees)}
            back = {new: v for v, new in label.items()}
            g = TemporalBipartiteIndex(
                (u, label[v], t) for u, v, t in fig2.edges_iter()
            )
            got = vfree(g, 2, 2, 3, reorder_ids=False)
            assert {
                frozenset(back[v] for v in vs): supp for vs, supp in got.items()
            } == FIG2_MFGS

    @pytest.mark.parametrize("seed", range(6))
    def test_reorder_does_not_change_results(self, seed):
        g = random_temporal_graph(seed)
        assert vfree(g, 2, 2, 2) == vfree(g, 2, 2, 2, reorder_ids=False)


class TestInstrumentation:
    def test_cm_timer_populated(self, fig2):
        timers = {}
        vfree(fig2, 2, 2, 3, timers=timers)
        assert 0 < timers["cm"]

    def test_empty_graph_returns_empty(self):
        assert vfree(TemporalBipartiteIndex([]), 1, 1, 1) == {}

    def test_tau_v_one_reports_frequent_singletons(self, fig2):
        # With τ_V = 1, {v3} (δ ≥ 2 at t1..t6 minus...) must satisfy λ.
        res = vfree(fig2, 2, 1, 3)
        # every reported group is frequent and maximal; singletons allowed
        assert all(len(vs) >= 1 for vs in res)
        assert res == enumerate_mfg_bruteforce(fig2, 2, 1, 3)

    def test_work_counters(self, fig2):
        timers = {}
        vfree(fig2, 2, 2, 3, timers=timers)
        assert timers["evaluations"] > 0
        assert 0 <= timers["pruned"] < timers["evaluations"]


def _twins() -> TemporalBipartiteIndex:
    """v10 and v11 share every temporal edge (u0..u2 at t0..t2); v12 has
    those plus u3. Ranks (degree and id order alike): v10 < v11 < v12."""
    return TemporalBipartiteIndex(
        [(u, v, t) for v in (10, 11) for u in range(3) for t in range(3)]
        + [(u, 12, t) for u in range(4) for t in range(3)]
    )


class TestCoveredOutsiderPrune:
    """A branch is skipped when a frequent outsider of lower rank is
    adjacent to all of ``cand_U'`` at every survived timestamp."""

    @pytest.mark.parametrize("reorder", [True, False])
    def test_twin_branch_is_pruned(self, reorder):
        """Branch v11 would recurse into {v11, v12}, but v10 covers it, so
        nothing below it can be reported. The evaluations left are {v10},
        {v10,v11}, {v10,v11,v12}, {v10,v12}, {v11} and {v12}."""
        g, timers = _twins(), {}
        got = vfree(g, 2, 2, 2, reorder_ids=reorder, timers=timers)
        assert got == {frozenset({10, 11, 12}): {0, 1, 2}}
        assert got == enumerate_mfg_bruteforce(g, 2, 2, 2)
        assert (timers["pruned"], timers["evaluations"]) == (1, 6)

    @pytest.mark.parametrize("params", [(2, 2, 2), (1, 2, 2), (2, 1, 2)])
    @pytest.mark.parametrize("density", [0.5, 0.7])
    def test_random_sweep_matches_bruteforce(self, density, params):
        """Reorder on and off, and the union of round-robin root batches,
        all equal brute force; the prune fires somewhere in the sweep."""
        pruned = 0
        for seed in range(40):
            g = random_temporal_graph(seed, n_u=6, n_v=7, n_t=5, density=density)
            expected = enumerate_mfg_bruteforce(g, *params)
            for reorder in (True, False):
                timers = {}
                got = vfree(g, *params, reorder_ids=reorder, timers=timers)
                assert got == expected, (seed, reorder)
                pruned += timers["pruned"]
                merged = {}
                for i in range(3):
                    merged.update(vfree(
                        g, *params, reorder_ids=reorder, roots=slice(i, None, 3)
                    ))
                assert merged == expected, (seed, reorder)
        assert pruned > 0
