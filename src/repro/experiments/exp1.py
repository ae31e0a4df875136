"""Exp-1 — response time of the four evaluated algorithms per dataset.

Figure 5 of the paper (a figure, so out of the must-reproduce scope, but it
carries the headline claim): on every dataset the ordering is

    VFree  <  FilterV  <  FilterV-  <  BK-ALG+,

with BK-ALG+ hitting the 12-hour wall (INF) on the larger graphs and VFree
up to three orders of magnitude faster where BK-ALG+ finishes.

This harness measures the same four algorithms on the dataset analogues.
BK-ALG+ is only run on datasets where it is known to terminate quickly
(mirroring the paper, which reports INF for BK-ALG+ on most large
datasets); elsewhere it is reported as ``INF``. Below the times it prints
the work behind them: FilterV-'s and FilterV's frequency checks
(``timers["verifications"]``) and VFree's candidate evaluations
(``timers["evaluations"]``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.runner import MFGRun, run_mfg
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex

#: Algorithms in the paper's Figure-5 order.
EXP1_ALGORITHMS: Tuple[str, ...] = ("bk-alg+", "filterv-", "filterv", "vfree")

#: The datasets Exp-1 measures by default.
EXP1_DATASETS: Tuple[str, ...] = ("D1", "D2", "D5", "D9", "D14", "D15")

#: Analogue datasets where BK-ALG+ is allowed to run (the paper's BK-ALG+
#: completes on the small/medium graphs and is INF on the big ones).
BK_DATASETS: Tuple[str, ...] = ("D1", "D2", "D3", "D5", "D6", "D9")

#: The work counter in each algorithm's timers; BK-ALG+ keeps none.
WORK_COUNTERS: Dict[str, str] = {
    "filterv-": "verifications",
    "filterv": "verifications",
    "vfree": "evaluations",
}


@dataclass(frozen=True)
class Exp1Row:
    """Each algorithm's run on one dataset; BK-ALG+ is absent where skipped."""

    dataset: datasets.DatasetSpec
    runs: Dict[str, MFGRun]

    @property
    def groups(self) -> Dict[FrozenSet[int], Set[int]]:
        """The groups of the first algorithm run."""
        return next(iter(self.runs.values())).groups

    @property
    def agree(self) -> bool:
        return all(run.groups == self.groups for run in self.runs.values())


def run_exp1(
    names: Tuple[str, ...] = EXP1_DATASETS, sf: float = 1.0
) -> List[Exp1Row]:
    """Run the algorithms on each dataset at its default parameters."""
    rows: List[Exp1Row] = []
    for name in names:
        spec = datasets.SPECS[name]
        index = TemporalBipartiteIndex.from_pandas(datasets.load(name, sf=sf))
        runs = {
            alg: run_mfg(index, spec.params, alg)
            for alg in EXP1_ALGORITHMS
            if alg != "bk-alg+" or name in BK_DATASETS
        }
        rows.append(Exp1Row(spec, runs))
    return rows


def format_exp1(rows: List[Exp1Row]) -> str:
    """Render the response-time matrix, then the work matrix."""
    head = f"{'Dataset':10s} " + " ".join(f"{a:>10s}" for a in EXP1_ALGORITHMS)
    lines = [head + f" {'#MFG':>6s}"]
    for r in rows:
        cells = " ".join(
            f"{r.runs[a].wall_s:>9.3f}s" if a in r.runs else f"{'INF':>10s}"
            for a in EXP1_ALGORITHMS
        )
        lines.append(f"{r.dataset.name:10s} {cells} {len(r.groups):>6d}")
    lines += ["", "Work: frequency checks (FilterV-, FilterV), "
              "candidate evaluations (VFree)", head]
    for r in rows:
        cells = " ".join(
            f"{r.runs[a].timers[WORK_COUNTERS[a]]:>10,}"
            if a in WORK_COUNTERS and a in r.runs else f"{'-':>10s}"
            for a in EXP1_ALGORITHMS
        )
        lines.append(f"{r.dataset.name:10s} {cells}")
    return "\n".join(lines)
