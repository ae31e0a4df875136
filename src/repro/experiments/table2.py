"""Table 2 — dataset statistics, read from the driver index.

For every dataset analogue the harness reports |U|, |V|, |E| (distinct
temporal edges), |T| and the default parameters, next to the paper's values
for the real dataset (the analogues are ~1/1000-scale; DESIGN.md §4). Each
count is an array length of the analogue's
:class:`~repro.graph.index.TemporalBipartiteIndex`.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import List

from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex


@dataclass(frozen=True)
class Table2Row:
    """One dataset: its spec (the paper's values) and the analogue's counts."""

    spec: datasets.DatasetSpec
    n_u: int
    n_v: int
    n_edges: int
    n_timestamps: int


def run_table2(sf: float = 1.0) -> List[Table2Row]:
    """Generate every analogue and read its statistics from its index."""
    rows: List[Table2Row] = []
    for name in datasets.DATASET_NAMES:
        index = TemporalBipartiteIndex.from_pandas(datasets.load(name, sf=sf))
        rows.append(
            Table2Row(
                datasets.SPECS[name], len(index.u_ids), len(index.v_ids),
                len(index), len(index.t_ids),
            )
        )
    return rows


def format_table2(rows: List[Table2Row]) -> str:
    """Render the measured-vs-paper statistics table."""
    lines = [
        f"{'Dataset':10s} {'|U|':>8s} {'|V|':>8s} {'|E|':>9s} {'|T|':>4s} "
        f"{'paper |U|':>10s} {'paper |V|':>10s} {'paper |E|':>11s} {'params':>12s}"
    ]
    for r in rows:
        s = r.spec
        lines.append(
            f"{s.name:10s} {r.n_u:8d} {r.n_v:8d} {r.n_edges:9d} "
            f"{r.n_timestamps:4d} {s.paper_u:10d} {s.paper_v:10d} "
            f"{s.paper_e:11d} {str(astuple(s.params)):>12s}"
        )
    return "\n".join(lines)
