"""Table 2 — dataset statistics, read from the driver index.

For every dataset analogue the harness reports |U|, |V|, |E| (distinct
temporal edges), |T| and the default parameters, next to the paper's values
for the real dataset (the analogues are ~1/1000-scale; DESIGN.md §4). Each
count is an array length of the analogue's
:class:`~repro.graph.index.TemporalBipartiteIndex`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex


@dataclass(frozen=True)
class Table2Row:
    """One dataset row: measured analogue stats + paper stats."""

    name: str
    n_u: int
    n_v: int
    n_edges: int
    n_timestamps: int
    paper_u: int
    paper_v: int
    paper_e: int
    paper_t: int
    params: tuple


def run_table2(
    sf: float = 1.0, names: tuple = datasets.DATASET_NAMES
) -> List[Table2Row]:
    """Generate every analogue and read its statistics from its index."""
    rows: List[Table2Row] = []
    for name in names:
        spec = datasets.SPECS[name]
        index = TemporalBipartiteIndex.from_pandas(datasets.load(name, sf=sf))
        rows.append(
            Table2Row(
                name=spec.name,
                n_u=len(index.u_ids),
                n_v=len(index.v_ids),
                n_edges=len(index),
                n_timestamps=len(index.t_ids),
                paper_u=spec.paper_u,
                paper_v=spec.paper_v,
                paper_e=spec.paper_e,
                paper_t=spec.n_ts,
                params=(spec.params.tau_u, spec.params.tau_v, spec.params.lam),
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
        lines.append(
            f"{r.name:10s} {r.n_u:8d} {r.n_v:8d} {r.n_edges:9d} "
            f"{r.n_timestamps:4d} {r.paper_u:10d} {r.paper_v:10d} "
            f"{r.paper_e:11d} {str(r.params):>12s}"
        )
    return "\n".join(lines)
