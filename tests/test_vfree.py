"""VFree-specific behavior: rooted partitioning, order handling, timers,
branches that a lower-rank outsider covers, the closure jump and the τ_V
capacity bound."""
from __future__ import annotations

import pytest

from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.gfcore import gfcore_local
from repro.core.vfree import vfree
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas
from repro.graph.stats import degree_order_v
from repro.synth_data import figure2_edges
from tests.conftest import FIG2_MFGS, random_temporal_graph


def _figure2_core():
    g = TemporalBipartiteIndex.from_pandas(figure2_edges())
    return gfcore_local(g, 2, 2, 3), (2, 2, 3)


def _d14_core():
    p = datasets.SPECS["D14"].params
    g = TemporalBipartiteIndex.from_pandas(datasets.load("D14", sf=0.1))
    params = (p.tau_u, p.tau_v, p.lam)
    return gfcore_local(g, *params), params


#: Graphs and their (τ_U, τ_V, λ): eight random graphs, and the Figure-2
#: and D14 (sf=0.1) cores.
SPLIT_CASES = {
    **{
        str(s): lambda s=s: (random_temporal_graph(s), (2, 2, 2))
        for s in range(8)
    },
    "figure2": _figure2_core,
    "D14": _d14_core,
}

COUNTERS = ("evaluations", "closed", "bounded")


class TestRootedPartition:
    """Theorem 4.1's branch independence: the branch rooted at ``r`` emits
    exactly the MFGs whose minimum-rank member is ``r``, so the rooted runs
    partition the full result."""

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_union_of_roots_equals_full(self, case):
        """The distributed path's split, for every stop rank ``k``: the
        suffix ``range(k, |V|)``, searched on the driver, and the ranks
        below ``k`` dealt round-robin in rank order into ``n`` shares
        ``range(i, k, n)``; at ``k = |V|``, ``n = |V|`` is one root per
        share. The parts give the full result with no group twice, and
        their counters add up to the full run's."""
        g, params = SPLIT_CASES[case]()
        n_v = len(g.v_ids)
        for reorder in (True, False):
            full_timers = {}
            full = vfree(g, *params, reorder_ids=reorder, timers=full_timers)
            assert full or case.isdigit()
            for k in range(n_v + 1):
                for n in (1, 2, 3, n_v) if k == n_v else (1, 2, 3):
                    merged, timers = {}, {}
                    parts = [range(i, k, n) for i in range(n)]
                    for roots in [range(k, n_v)] + parts:
                        part = vfree(
                            g, *params, reorder_ids=reorder, roots=roots,
                            timers=timers,
                        )
                        for vs, supp in part.items():
                            assert vs not in merged, "duplicate MFG in parts"
                            merged[vs] = supp
                    assert merged == full, (reorder, k, n)
                    assert [timers[c] for c in COUNTERS] == [
                        full_timers[c] for c in COUNTERS
                    ], (reorder, k, n)

    def test_root_branch_contains_min_member(self, fig2):
        for i, r in enumerate(fig2.v_ids.tolist()):
            part = vfree(fig2, 2, 2, 3, reorder_ids=False, roots=[i])
            for vs in part:
                assert min(vs) == r

    def test_roots_past_the_last_rank_are_empty(self, fig2):
        n = len(fig2.v_ids)
        assert vfree(fig2, 2, 2, 3, roots=range(n, n)) == {}

    def test_root_outside_the_ranks_raises(self, fig2):
        """Rank −1, which a sequence index would wrap to the last rank, the
        ranks |V| and |V| + 3, and any rank of a graph with no vertex."""
        n = len(fig2.v_ids)
        for root in (-1, n, n + 3):
            with pytest.raises(ValueError, match="not a rank"):
                vfree(fig2, 2, 2, 3, roots=[0, root])
        with pytest.raises(ValueError, match="not a rank"):
            vfree(TemporalBipartiteIndex([]), 2, 2, 3, roots=[0])

    def test_each_rank_is_drawn_after_the_branches_before_it(self, fig2):
        """A generator of roots sees, at each draw, the evaluations of
        every branch it gave before: ``vfree`` draws the next rank only
        once the previous branch has ended."""
        n, timers, seen = len(fig2.v_ids), {}, []

        def top_down():
            for r in range(n - 1, 1, -1):
                seen.append((r, timers["evaluations"]))
                yield r

        got = vfree(fig2, 2, 2, 3, roots=top_down(), timers=timers)
        assert got == vfree(fig2, 2, 2, 3, roots=range(2, n))
        assert seen[-1][1] > 0
        for r, evaluations in seen:
            before = {}
            vfree(fig2, 2, 2, 3, roots=range(r + 1, n), timers=before)
            assert evaluations == before["evaluations"], r


class TestOrdering:
    def test_degree_order_ranks(self, fig2):
        order = dict(zip(fig2.v_ids.tolist(), fig2.degree_rank().tolist()))
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
        assert dict(zip(core.v_ids.tolist(), core.degree_rank().tolist())) == expected

    def test_explicit_order_any_permutation_is_correct(self, fig2):
        """§4.2: correctness holds for *any* id assignment. Each cyclic
        shift relabels V so that id order is the shifted order."""
        vees = fig2.v_ids.tolist()
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
        assert timers["closed"] >= 0
        assert timers["bounded"] >= 0


def _twins() -> TemporalBipartiteIndex:
    """v10 and v11 share every temporal edge (u0..u2 at t0..t2); v12 has
    those plus u3. Ranks (degree and id order alike): v10 < v11 < v12."""
    return TemporalBipartiteIndex(
        [(u, v, t) for v in (10, 11) for u in range(3) for t in range(3)]
        + [(u, 12, t) for u in range(4) for t in range(3)]
    )


def _twin_prune() -> TemporalBipartiteIndex:
    """v10 and v11 share every temporal edge (u0..u2 at t0..t2); v12 has
    only u0 and u1 of those, plus u3 and u4. Ranks (degree and id order
    alike): v10 < v11 < v12."""
    return TemporalBipartiteIndex(
        [(u, v, t) for v in (10, 11) for u in range(3) for t in range(3)]
        + [(u, 12, t) for u in (0, 1, 3, 4) for t in range(3)]
    )


def _closable() -> TemporalBipartiteIndex:
    """v1 and v2 share every temporal edge (u0..u2 at t0..t2); v3 has
    u0..u2 at t0 and t1 only, plus u3..u5 at t0..t2. Ranks (degree and id
    order alike): v1 < v2 < v3."""
    return TemporalBipartiteIndex(
        [(u, v, t) for v in (1, 2) for u in range(3) for t in range(3)]
        + [(u, 3, t) for u in range(3) for t in range(2)]
        + [(u, 3, t) for u in range(3, 6) for t in range(3)]
    )


def _bounded() -> TemporalBipartiteIndex:
    """v1 has u0 and u1 at t0..t3, v2 at t0 and t1 only, v3 at t2 and t3
    only; v4, v5 and v6 share u2 and u3 at t0 and t1. Every vertex has two
    u-neighbors, so the degree order is the id order."""
    return TemporalBipartiteIndex(
        [(u, 1, t) for u in range(2) for t in range(4)]
        + [(u, 2, t) for u in range(2) for t in range(2)]
        + [(u, 3, t) for u in range(2) for t in range(2, 4)]
        + [(u, v, t) for v in (4, 5, 6) for u in (2, 3) for t in range(2)]
    )


def _sweep(density, params, sizes):
    """Run VFree on random graphs of ``sizes`` ``(n_u, n_v, n_t, seeds)``,
    reorder on and off and as the union of three root shares, against
    brute force; return the summed timers."""
    totals = {"closed": 0, "bounded": 0}
    for n_u, n_v, n_t, seeds in sizes:
        for seed in seeds:
            g = random_temporal_graph(seed, n_u, n_v, n_t, density=density)
            expected = enumerate_mfg_bruteforce(g, *params)
            for reorder in (True, False):
                timers = {}
                got = vfree(g, *params, reorder_ids=reorder, timers=timers)
                assert got == expected, (n_u, n_v, n_t, seed, reorder)
                for key in totals:
                    totals[key] += timers[key]
                merged = {}
                for i in range(3):
                    merged.update(vfree(
                        g, *params, reorder_ids=reorder, roots=range(i, len(g.v_ids), 3)
                    ))
                assert merged == expected, (n_u, n_v, n_t, seed, reorder)
    return totals


class TestCoveredBranches:
    """A branch that a frequent outsider of lower rank covers (adjacent to
    all of ``cand_U'`` at every survived timestamp) is searched like any
    other; ``notRepeat`` stays false below it, so it reports nothing."""

    @pytest.mark.parametrize("reorder", [True, False])
    def test_twin_branch_ends_by_the_closure_jump(self, reorder):
        """Branch v11, which v10 covers, ends without recursing: the
        closure jump closes v12, which leaves no candidate. The evaluations
        are {v10} (closing v11 and v12), {v11} (closing v12) and {v12}."""
        g, timers = _twins(), {}
        got = vfree(g, 2, 2, 2, reorder_ids=reorder, timers=timers)
        assert got == {frozenset({10, 11, 12}): {0, 1, 2}}
        assert got == enumerate_mfg_bruteforce(g, 2, 2, 2)
        assert (timers["evaluations"], timers["closed"]) == (3, 3)

    @pytest.mark.parametrize("reorder", [True, False])
    def test_covered_branch_recurses_and_reports_nothing(self, reorder):
        """Branch v11 keeps candidate v12, which misses u2. v10 covers it,
        so it recurses into {v11,v12}, which reports nothing. The
        evaluations are {v10} (closing v11), {v10,v11,v12}, {v11},
        {v11,v12} and {v12}."""
        g, timers = _twin_prune(), {}
        got = vfree(g, 2, 2, 2, reorder_ids=reorder, timers=timers)
        assert got == {frozenset({10, 11, 12}): {0, 1, 2}}
        assert got == enumerate_mfg_bruteforce(g, 2, 2, 2)
        assert (timers["evaluations"], timers["closed"]) == (5, 1)

    @pytest.mark.parametrize("params", [(2, 2, 2), (1, 2, 2), (2, 1, 2)])
    @pytest.mark.parametrize("density", [0.5, 0.7])
    def test_random_sweep_matches_bruteforce(self, density, params):
        """Reorder on and off, and the union of round-robin root batches,
        all equal brute force on graphs where lower-rank outsiders cover
        branches: 6x7x5 and 6x9x5 graphs."""
        _sweep(density, params, [(6, 7, 5, range(40)), (6, 9, 5, range(8))])


class TestClosureJump:
    """A frequent candidate of higher rank that is adjacent to all of
    ``cand_U'`` at every survived timestamp joins ``V_S'`` at once: it is
    in every maximal group below the branch."""

    #: ``timers["closed"]`` and ``timers["bounded"]`` on the analogue cores
    #: of :meth:`test_evaluations_on_analogue_cores`, in degree and id order.
    CLOSED_BOUNDED = {
        "D15": ((491, 128), (725, 169)),
        "D14": ((237, 20), (299, 21)),
    }

    @pytest.mark.parametrize("reorder", [True, False])
    def test_higher_rank_twin_is_closed(self, reorder):
        """Branch v1 closes its twin v2 and recurses into v3 alone, which
        reports {v1,v2,v3} at t0,t1. The evaluations are {v1} (closing v2),
        {v1,v2,v3}, {v2}, {v2,v3} (v1 covers it: nothing is reported) and
        {v3}."""
        g, timers = _closable(), {}
        got = vfree(g, 2, 2, 2, reorder_ids=reorder, timers=timers)
        assert got == {frozenset({1, 2, 3}): {0, 1}}
        assert got == enumerate_mfg_bruteforce(g, 2, 2, 2)
        assert (timers["evaluations"], timers["closed"]) == (5, 1)

    @pytest.mark.parametrize("params", [(2, 2, 2), (1, 2, 2), (2, 1, 2)])
    def test_random_sweep_matches_bruteforce(self, params):
        """Reorder on and off, and the union of round-robin root batches,
        all equal brute force; the closure fires somewhere in the sweep."""
        totals = _sweep(0.6, params, [(5, 8, 4, range(20))])
        assert totals["closed"] > 0

    @pytest.mark.parametrize(
        "name, evaluations, id_order",
        [("D15", 1_655, 2_103), ("D14", 460, 556)],
    )
    def test_evaluations_on_analogue_cores(self, name, evaluations, id_order):
        """The structural gain, without timing: candidate evaluations, the
        vertices the closure jump adds and the branches the capacity bound
        cuts on the (τ_V, τ_U, λ)-core of the sf=0.3 analogues, in degree
        order and in id order (Exp-7's ablation), which evaluates more.
        History of the evaluations in degree order: 4,033 and 867 with the
        covered-outsider prune alone; 2,780 and 517 with the closure jump
        added; 1,613 and 454 with the capacity bound added; 1,655 and 460
        with the prune removed."""
        p = datasets.SPECS[name].params
        core = gfcore_local(
            TemporalBipartiteIndex.from_pandas(datasets.load(name, sf=0.3)),
            p.tau_u, p.tau_v, p.lam,
        )
        counts = []
        for reorder in (True, False):
            timers = {}
            vfree(
                core, p.tau_u, p.tau_v, p.lam, reorder_ids=reorder,
                timers=timers,
            )
            counts.append(
                tuple(timers[k] for k in ("evaluations", "closed", "bounded"))
            )
        degree, ids = self.CLOSED_BOUNDED[name]
        assert counts == [(evaluations, *degree), (id_order, *ids)]
        assert evaluations < id_order


class TestCapacityBound:
    """A branch whose ``C_V*`` cannot supply τ_V − |V_S'| members qualified
    at the same λ timestamps neither recurses nor reports."""

    @pytest.mark.parametrize("reorder", [True, False])
    def test_branch_without_room_is_bounded(self, reorder):
        """Branch v1 has C_V* = {v2, v3}, but only one of them qualifies at
        each of t0..t3, so {v1} never grows to τ_V = 3 members. Branch v4
        closes v5 and v6 and reports them. The evaluations are {v1}
        (bounded), {v2}, {v3}, {v4}, {v5} and {v6}; without the bound,
        {v1,v2} and {v1,v3} would be evaluated too."""
        g, timers = _bounded(), {}
        got = vfree(g, 2, 3, 2, reorder_ids=reorder, timers=timers)
        assert got == {frozenset({4, 5, 6}): {0, 1}}
        assert got == enumerate_mfg_bruteforce(g, 2, 3, 2)
        assert (
            timers["evaluations"], timers["closed"], timers["bounded"]
        ) == (6, 2, 1)

    @pytest.mark.parametrize(
        "params, size, density",
        [
            ((2, 3, 2), (6, 9, 5), 0.6),
            ((2, 4, 2), (6, 12, 5), 0.6),
            ((1, 4, 3), (5, 10, 4), 0.7),
        ],
        ids=["2-3-2", "2-4-2", "1-4-3"],
    )
    def test_random_sweep_matches_bruteforce(self, params, size, density):
        """Reorder on and off, and the union of round-robin root batches,
        all equal brute force with τ_V ≥ 3, where the bound can fire; it
        fires somewhere in each sweep."""
        totals = _sweep(density, params, [(*size, range(30))])
        assert totals["bounded"] > 0
