"""Benchmark fixtures: dataset indexes are generated once per session and a
temporary results directory collects the formatted paper-style tables.

The committed ``results/`` tables are regenerated only by the ``jobs/``
scripts (``python jobs/<table>.py > results/<table>.txt``), so running
this suite leaves the tree unchanged.
"""
from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("results")


@pytest.fixture(scope="session")
def dataset_index():
    """Factory: cached TemporalBipartiteIndex per (dataset, sf)."""
    from repro.experiments import datasets
    from repro.graph.index import TemporalBipartiteIndex

    cache = {}

    def get(name: str, sf: float = 1.0):
        key = (name, sf)
        if key not in cache:
            cache[key] = TemporalBipartiteIndex.from_pandas(
                datasets.load(name, sf=sf)
            )
        return cache[key]

    return get
