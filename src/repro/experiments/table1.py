"""Table 1 — FilterV vs VFree valid-candidate-set + maximality (CM) cost.

Paper Table 1 (measured on D14, >60M edges, C++): for four parameter
settings it reports the share of FilterV's runtime spent computing valid
candidate sets and verifying maximality (FilterV-CM %), the absolute time
(FilterV-CM s), and the same component's time inside VFree (VFree-CM s).

This harness reproduces the same three rows on the D14 *analogue*
(DESIGN.md §4) using the instrumented kernels (``timers["cm"]``), and adds
the work behind them: FilterV's frequency checks
(``timers["verifications"]``) and VFree's candidate evaluations
(``timers["evaluations"]``).
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, List, Tuple

from repro.core.runner import MFGRun, Params, run_mfg
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex

#: The paper's four (τ_U, τ_V, λ) columns.
PARAM_SWEEP: Tuple[Params, ...] = (
    Params(8, 4, 8),
    Params(9, 5, 8),
    Params(10, 6, 6),
    Params(10, 6, 10),
)

#: Paper Table 1 values on D14: (FilterV-CM %, FilterV-CM s, VFree-CM s).
PAPER_TABLE1: Dict[Tuple[int, int, int], Tuple[float, float, float]] = {
    (8, 4, 8): (88.26, 899.30, 63.80),
    (9, 5, 8): (88.52, 702.27, 28.78),
    (10, 6, 6): (85.05, 617.14, 26.65),
    (10, 6, 10): (86.68, 248.64, 9.04),
}


@dataclass(frozen=True)
class Table1Row:
    """One parameter column of Table 1: FilterV's and VFree's runs."""

    filterv: MFGRun
    vfree: MFGRun

    @property
    def params(self) -> Tuple[int, int, int]:
        return astuple(self.filterv.params)

    @property
    def agree(self) -> bool:
        return self.filterv.groups == self.vfree.groups


def run_table1(sf: float = 1.0) -> List[Table1Row]:
    """Run FilterV and VFree on the D14 analogue at each setting."""
    index = TemporalBipartiteIndex.from_pandas(datasets.load("D14", sf=sf))
    return [
        Table1Row(run_mfg(index, p, "filterv"), run_mfg(index, p, "vfree"))
        for p in PARAM_SWEEP
    ]


def _seconds(x: float) -> str:
    """Three significant digits, trailing zeros kept: 0.150s, 123s."""
    return f"{x:#.3g}".rstrip(".") + "s"


def format_table1(rows: List[Table1Row]) -> str:
    """Render measured-vs-paper rows in the paper's layout, then the
    measured work counters."""
    hdr = ["(tau_U,tau_V,lambda)"] + [str(r.params) for r in rows]
    lines = [" | ".join(hdr)]
    for label, meas, paper_i in [
        ("FilterV-CM (%)", [f"{r.filterv.cm_pct:.2f}%" for r in rows], 0),
        ("FilterV-CM (s)", [_seconds(r.filterv.cm_s) for r in rows], 1),
        ("VFree-CM (s)", [_seconds(r.vfree.cm_s) for r in rows], 2),
    ]:
        lines.append(" | ".join([label + " [measured]"] + meas))
        paper = [f"{PAPER_TABLE1[r.params][paper_i]}" for r in rows]
        lines.append(" | ".join([label + " [paper]   "] + paper))
    fv = [f"{r.filterv.timers['verifications']:,}" for r in rows]
    vf = [f"{r.vfree.timers['evaluations']:,}" for r in rows]
    lines.append(" | ".join(["FilterV verifications [measured]"] + fv))
    lines.append(" | ".join(["VFree evaluations [measured]"] + vf))
    return "\n".join(lines)
