"""Unified runner API tests."""
from __future__ import annotations

from functools import cached_property

import pytest

from repro.core.runner import ALGORITHMS, MFGRun, Params, run_mfg
from repro.graph.index import TemporalBipartiteIndex
from repro.synth_data import figure2_edges
from tests.conftest import FIG2_MFGS


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 1, 1)
    with pytest.raises(ValueError):
        Params(1, 1, -2)
    assert Params(2, 3, 4).lam == 4


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_runner_all_algorithms(fig2, alg):
    run = run_mfg(fig2, Params(2, 2, 3), alg)
    assert isinstance(run, MFGRun)
    assert run.groups == FIG2_MFGS
    assert run.wall_s > 0
    assert len(run.groups) == 3


def test_runner_rejects_unknown_algorithm(fig2):
    with pytest.raises(ValueError):
        run_mfg(fig2, Params(2, 2, 3), "quantum")


def test_graph_filter_applied_except_for_vfree_minus(fig2):
    run = run_mfg(fig2, Params(2, 2, 3), "vfree")
    run_nf = run_mfg(fig2, Params(2, 2, 3), "vfree-")
    assert run.filtered_edges <= len(fig2)
    assert run_nf.filtered_edges == len(fig2)


def test_cm_share_bounded(fig2):
    run = run_mfg(fig2, Params(2, 2, 3), "filterv")
    assert 0 <= run.cm_pct <= 100
    assert run.cm_s <= run.wall_s


@pytest.mark.parametrize("alg", ["vfree", "vfree-", "vfree-noreorder"])
def test_vfree_path_builds_no_dict_view(monkeypatch, alg):
    """The VFree path reads the edge codes only: building any cached view on
    any index (input or core) would be a silent fallback to the slow path."""
    index = TemporalBipartiteIndex.from_pandas(figure2_edges())
    views = [
        name
        for name, attr in vars(TemporalBipartiteIndex).items()
        if isinstance(attr, cached_property)
    ]  # TestViewsMatchReference pins this list

    def refuse(name):
        def build(self):
            raise AssertionError(f"view {name} built on the VFree path")

        return property(build)

    for name in views:
        monkeypatch.setattr(TemporalBipartiteIndex, name, refuse(name))
    assert run_mfg(index, Params(2, 2, 3), alg).groups == FIG2_MFGS
    # The input index holds its edge codes and nothing else.
    assert set(vars(index)) == {"u_ids", "v_ids", "t_ids", "u", "v", "t"}
