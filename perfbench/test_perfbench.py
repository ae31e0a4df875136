"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.core.gfcore import gfcore_local  # noqa: E402
from repro.core.runner import Params, run_mfg  # noqa: E402
from repro.experiments import datasets  # noqa: E402
from repro.graph.index import TemporalBipartiteIndex  # noqa: E402
from repro.synth_data import figure2_edges  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _groups(pdf, p):
    return run_mfg(TemporalBipartiteIndex.from_pandas(pdf), p, "vfree").groups


@pytest.mark.parametrize(
    "pdf, p",
    [
        (figure2_edges(), Params(2, 2, 3)),
        (datasets.generate(datasets.SPECS["D8"], sf=0.3),
         datasets.SPECS["D8"].params),
    ],
    ids=["fig2", "D8"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabel_is_an_isomorphism(pdf, p, seed):
    base = workloads.digest(_groups(pdf, p))
    case = workloads.relabel(pdf, np.random.default_rng(seed))
    assert len(case.edges) == len(pdf)
    assert not case.edges["v"].isin(pdf["v"]).all()  # the ids did change
    assert workloads.digest(_groups(case.edges, p), case.v_back) == base


def test_relabel_preserves_id_order_and_edges():
    pdf = datasets.generate(datasets.SPECS["D8"], sf=0.3)
    case = workloads.relabel(pdf, np.random.default_rng(5))
    for col in ("u", "v"):
        old = np.unique(pdf[col].to_numpy())
        new = np.unique(case.edges[col].to_numpy())
        assert len(old) == len(new) and (np.diff(new) > 0).all()
    back = case.edges.assign(v=list(case.v_back(case.edges["v"])))
    assert sorted(zip(back["v"], back["t"])) == sorted(zip(pdf["v"], pdf["t"]))


def test_relabel_is_seeded():
    pdf = figure2_edges()
    a = workloads.relabel(pdf, np.random.default_rng([3, 1])).edges
    b = workloads.relabel(pdf, np.random.default_rng([3, 1])).edges
    c = workloads.relabel(pdf, np.random.default_rng([4, 1])).edges
    assert a.equals(b) and not a.equals(c)


def test_digest_depends_on_members_and_supports():
    g = {frozenset({1, 2}): {3, 4}}
    assert workloads.digest(g) == workloads.digest({frozenset({2, 1}): {4, 3}})
    assert workloads.digest(g) != workloads.digest({frozenset({1, 2}): {3}})
    assert workloads.digest(g) != workloads.digest({frozenset({1, 3}): {3, 4}})


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 99) is None
    xs = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(xs) == (90.0, 90.0)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert run.tail_percentile(list(range(1, 10001))) == (99.9, 9990)
    assert run.tail_percentile([5.0, 1.0] * 500)[0] == 99.0


def test_speed_sample_probes_at_least_once_and_fills_its_share():
    assert len(speed.sample(speed.probe, 0.0)) == 1
    probes = speed.sample(speed.probe, 0.2)
    assert sum(probes) >= 0.2 and sum(probes[:-1]) < 0.2


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_declared_metrics_match_the_printed_units():
    assert run.E2E_UNITS == _declared("end_to_end")
    assert run.LAYER_UNITS == _declared("per_layer")


def test_seq_hub_keeps_its_hub_community_in_the_core():
    # datasets.generate appends the hub's v ids last, max(4, int(6·τ_V·sf))
    # of them; seq-hub exists to feed that hub to VFree, so the peel must
    # keep it.
    w = workloads.WORKLOADS["seq-hub"]
    p = workloads.params(w)
    base = workloads.base_edges(w)
    hub_v = np.sort(base["v"].unique())[-max(4, int(6 * p.tau_v * w.sf)):]
    index = TemporalBipartiteIndex.from_pandas(base)
    core = gfcore_local(index, p.tau_u, p.tau_v, p.lam).to_pandas()
    assert core["v"].isin(hub_v).sum() > 0.8 * base["v"].isin(hub_v).sum()


def test_every_workload_is_defined_and_has_a_digest():
    digests = json.loads((HERE / "digests.json").read_text())
    for w in BENCH["workloads"]:
        assert w["name"] in workloads.WORKLOADS
    assert set(digests) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "seq-many",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    printed = {k: m["unit"] for k, m in out["metrics"].items()}
    assert printed == _declared(kind)
