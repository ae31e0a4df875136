"""Metamorphic properties of VFree, checked against the brute-force oracle.

Relabelling u/v ids by a non-order-preserving map, shifting every
timestamp, and duplicating edges must not change the result beyond the
relabelling or shift itself. Non-monotone relabels change both the dense
codes and VFree's degree-order tie-breaks, so these also exercise every
code path that depends on id order. Raising λ by one can only shrink the
groups: a group frequent at λ+1 is frequent at λ, so it lies inside some
MFG at λ. A twin ``v*`` with exactly the temporal edges of some ``v`` joins
every group that holds ``v``, with the same supports: a maximal group
holds ``v*`` iff it holds ``v``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.runner import Params, run_mfg
from repro.core.vfree import vfree
from repro.graph.index import TemporalBipartiteIndex
from tests.conftest import random_triples

PARAMS = [(1, 1, 2), (2, 2, 2), (2, 1, 3), (3, 2, 2)]


def _enumerations(triples, tau_u, tau_v, lam):
    """VFree with and without the filter and the id-order ablation."""
    index = TemporalBipartiteIndex(triples)
    p = Params(tau_u, tau_v, lam)
    return [
        vfree(index, tau_u, tau_v, lam),
        vfree(index, tau_u, tau_v, lam, reorder_ids=False),
        run_mfg(index, p, "vfree").groups,
    ]


def _oracle(triples, tau_u, tau_v, lam):
    index = TemporalBipartiteIndex(triples)
    return enumerate_mfg_bruteforce(index, tau_u, tau_v, lam)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("params", PARAMS)
def test_invariant_under_relabel(seed, params):
    raw = random_triples(seed, n_u=6, n_v=7, n_t=5, density=0.45)
    rng = np.random.default_rng(100 + seed)
    # Non-order-preserving injections onto spread-out, partly negative ids.
    u_map = dict(enumerate((rng.permutation(6) * 37 - 50).tolist()))
    v_map = dict(enumerate((rng.permutation(7) * 1_000_003 - 9).tolist()))
    assert sorted(v_map, key=v_map.get) != sorted(v_map)
    relabelled = [(u_map[u], v_map[v], t) for u, v, t in raw]
    expected = {
        frozenset(v_map[v] for v in vs): supp
        for vs, supp in _oracle(raw, *params).items()
    }
    assert _oracle(relabelled, *params) == expected
    for got in _enumerations(relabelled, *params):
        assert got == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("shift", [-3, 1_000_000])
def test_invariant_under_time_shift(seed, params, shift):
    raw = random_triples(seed, n_u=6, n_v=7, n_t=5, density=0.45)
    shifted = [(u, v, t + shift) for u, v, t in raw]
    expected = {
        vs: {t + shift for t in supp}
        for vs, supp in _oracle(raw, *params).items()
    }
    for got in _enumerations(shifted, *params):
        assert got == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("params", PARAMS)
def test_invariant_under_duplicate_edges(seed, params):
    raw = random_triples(seed, n_u=6, n_v=7, n_t=5, density=0.45)
    rows = raw * 2 + raw[::2]
    np.random.default_rng(seed).shuffle(rows)
    expected = _oracle(raw, *params)
    for got in _enumerations(rows, *params):
        assert got == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("params", PARAMS)
def test_lambda_monotone(seed, params):
    tau_u, tau_v, lam = params
    raw = random_triples(seed, n_u=6, n_v=7, n_t=5, density=0.45)
    index = TemporalBipartiteIndex(raw)
    loose, tight = (vfree(index, tau_u, tau_v, l) for l in (lam, lam + 1))
    assert loose == _oracle(raw, tau_u, tau_v, lam)
    assert tight == _oracle(raw, tau_u, tau_v, lam + 1)
    for vs in tight:
        assert any(vs <= big for big in loose), sorted(vs)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("twin_id", [-1, 7])
def test_twin_joins_every_group_of_its_vertex(seed, params, twin_id):
    """``v*`` gets an id below or above every other, so it ranks before or
    after ``v`` in id order; ``v`` is a member of some group whenever the
    parent result has one. Groups without ``v`` are unchanged; a group that
    was too small for τ_V may appear once ``v*`` joins it, and then it
    holds both."""
    raw = random_triples(seed, n_u=6, n_v=7, n_t=5, density=0.45)
    parent = _oracle(raw, *params)
    members = sorted(set().union(*parent)) or sorted({e[1] for e in raw})
    v = members[seed % len(members)]
    twinned = raw + [(u, twin_id, t) for u, w, t in raw if w == v]
    expected = {
        vs | {twin_id} if v in vs else vs: supp for vs, supp in parent.items()
    }
    oracle = _oracle(twinned, *params)
    for got in _enumerations(twinned, *params):
        assert got == oracle
        for vs, supp in expected.items():
            assert got[vs] == supp, sorted(vs)
        for vs in got.keys() - expected.keys():
            assert {v, twin_id} <= vs, sorted(vs)
