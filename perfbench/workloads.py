"""Benchmark workloads: input generation, seeded relabelling, result digests.

Every workload starts from a fixed base edge frame built with the program's
own dataset analogues (``repro.experiments.datasets``). The benchmark seed
never changes the graph, only its presentation: :func:`relabel` maps the
``u`` and ``v`` ids through random *order-preserving* injections and
shuffles the rows. Order preservation keeps every id-based tie-break in the
program (VFree's degree order, the dense u encoding) unchanged, so every
seed costs exactly the same work; the relabelled graph is isomorphic to the
base graph, so mapping the result back gives the same groups.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an analogue, its scale and the path it runs."""

    name: str
    path: str            # "seq" (driver: run_mfg) or "dist" (Spark fan-out)
    dataset: str         # analogue name in repro.experiments.datasets
    sf: float            # analogue noise scale
    noise_edges: int     # extra flat-Zipf noise edges on a disjoint id range


#: Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("seq-hub", "seq", "D15", 0.3, 0),
        Workload("seq-many", "seq", "D11", 1.5, 0),
        Workload("seq-sparse", "seq", "D14", 0.2, 60_000),
        Workload("dist-fanout", "dist", "D14", 0.3, 0),
    ]
}

#: Seed of the extra noise edges (fixed: the benchmark seed only relabels).
NOISE_SEED = 7


def params(w: Workload):
    """The paper's default ``Params`` of the workload's dataset."""
    from repro.experiments import datasets

    return datasets.SPECS[w.dataset].params


def base_edges(w: Workload) -> pd.DataFrame:
    """The workload's edge frame in its original ids (seed independent)."""
    from repro.experiments import datasets
    from repro.synth_data import temporal_bipartite_noise

    spec = datasets.SPECS[w.dataset]
    pdf = datasets.generate(spec, sf=w.sf)
    if w.noise_edges:
        noise = temporal_bipartite_noise(
            n_u=w.noise_edges // 4,
            n_v=w.noise_edges // 8,
            n_edges=w.noise_edges,
            n_ts=spec.n_ts,
            seed=NOISE_SEED,
            zipf_alpha=1.0,
        )
        noise["u"] += int(pdf["u"].max()) + 1
        noise["v"] += int(pdf["v"].max()) + 1
        pdf = pd.concat([pdf, noise], ignore_index=True)
    return pdf.drop_duplicates(ignore_index=True)


def _monotone_ids(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` strictly increasing random ids (gaps of 1..8)."""
    return np.cumsum(rng.integers(1, 9, size=n, dtype=np.int64))


@dataclass(frozen=True)
class Relabelled:
    """A relabelled edge frame and the map from its v ids back to the base."""

    edges: pd.DataFrame
    new_v: np.ndarray    # sorted relabelled v ids
    old_v: np.ndarray    # base v id of each entry of new_v

    def v_back(self, vs: Iterable[int]) -> Tuple[int, ...]:
        """Base ids of relabelled v ids."""
        arr = np.fromiter(vs, dtype=np.int64)
        return tuple(self.old_v[np.searchsorted(self.new_v, arr)].tolist())


def relabel(pdf: pd.DataFrame, rng: np.random.Generator) -> Relabelled:
    """Order-preserving random relabel of u and v, rows shuffled."""
    cols = {}
    new_v = old_v = None
    for col in ("u", "v"):
        old, codes = np.unique(pdf[col].to_numpy(), return_inverse=True)
        new = _monotone_ids(old.shape[0], rng)
        cols[col] = new[codes]
        if col == "v":
            new_v, old_v = new, old
    cols["t"] = pdf["t"].to_numpy()
    order = rng.permutation(len(pdf))
    edges = pd.DataFrame({c: a[order] for c, a in cols.items()}, dtype="int64")
    return Relabelled(edges, new_v, old_v)


def digest(groups: Dict[FrozenSet[int], Set[int]], back=None) -> str:
    """SHA-256 of the canonical listing of ``{V_S: supports}``.

    ``back`` maps a group's v ids to base ids (``Relabelled.v_back``); the
    listing is one ``members|supports`` line per group, sorted.
    """
    lines = sorted(
        ",".join(map(str, sorted(back(vs) if back else vs)))
        + "|"
        + ",".join(map(str, sorted(supp)))
        for vs, supp in groups.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
