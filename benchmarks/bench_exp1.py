"""Exp-1 benchmark — response time of the four evaluated algorithms.

One benchmark per (dataset, algorithm); BK-ALG+ only where it terminates
quickly (the paper reports INF on the big graphs). The response-time matrix
is written to the session's temporary results directory
(``jobs/exp1.py`` regenerates ``results/exp1.txt``).
"""
from __future__ import annotations

import pytest

from repro.core.runner import run_mfg
from repro.experiments import datasets
from repro.experiments.exp1 import BK_DATASETS, format_exp1, run_exp1

_SF = 1.0
_DATASETS = ("D1", "D2", "D5", "D9", "D14", "D15")
_ALGS = ("bk-alg+", "filterv-", "filterv", "vfree")

_CASES = [
    (name, alg)
    for name in _DATASETS
    for alg in _ALGS
    if alg != "bk-alg+" or name in BK_DATASETS
]


@pytest.mark.parametrize(
    "name,algorithm", _CASES, ids=[f"{n}-{a}" for n, a in _CASES]
)
def test_exp1_response_time(benchmark, dataset_index, name, algorithm):
    index = dataset_index(name, _SF)
    params = datasets.SPECS[name].params
    run = benchmark.pedantic(
        lambda: run_mfg(index, params, algorithm), rounds=1, iterations=1
    )
    assert run.n_groups > 0


def test_exp1_report(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: run_exp1(names=_DATASETS, sf=_SF), rounds=1, iterations=1
    )
    assert all(r.agree for r in rows)
    text = format_exp1(rows)
    (results_dir / "exp1.txt").write_text(text + "\n")
