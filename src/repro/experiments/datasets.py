"""Synthetic analogues of the paper's 15 evaluation datasets (Table 2).

The real graphs (MIMIC-III, Alibaba Ipvevents, 13 KONECT networks) are not
available offline, so each is substituted by a deterministic synthetic
analogue (DESIGN.md §4):

- |U|, |V|, |E| are the paper's values scaled by ~1/1000 (with floors);
  |T| and the default ``(τ_U, τ_V, λ)`` are the paper's values verbatim;
- background noise has Zipf-distributed endpoints (heavy-tailed, so it is
  almost entirely removed by the (τ_V, τ_U, λ)-core — mirroring the >90%
  pruning the paper reports);
- a few *planted* MFGs (fresh U side per timestamp — the pattern MFG is
  designed to catch and MFB cannot) guarantee non-empty, checkable results;
- a *community block* of overlapping partial bicliques creates genuine
  branching work for the search algorithms.

Planted vertices use id ranges disjoint from the noise so recovery is exact
and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core.params import Params
from repro.synth_data import planted_temporal_bipartite


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset analogue: paper-reported numbers + scaled sizes."""

    name: str          # paper label, e.g. "D14 (fr)"
    paper_u: int
    paper_v: int
    paper_e: int
    n_ts: int          # |T| — kept at the paper's value
    params: Params     # the paper's default (τ_U, τ_V, λ)
    seed: int

    @property
    def n_u(self) -> int:
        return max(60, self.paper_u // 1000)

    @property
    def n_v(self) -> int:
        return max(40, self.paper_v // 1000)

    @property
    def n_edges(self) -> int:
        return max(600, self.paper_e // 1000)


#: Paper Table 2, columns |U|, |V|, |E|, |T|, default (τ_U, τ_V, λ).
SPECS: Dict[str, DatasetSpec] = {
    s.name.split(" ")[0]: s
    for s in [
        DatasetSpec("D1 (MI)", 100_000, 15_648, 58_951, 25, Params(6, 2, 4), 101),
        DatasetSpec("D2 (Ip)", 28_540, 37_088, 73_153, 31, Params(3, 2, 3), 102),
        DatasetSpec("D3 (diq)", 25_771, 1_526, 133_874, 12, Params(3, 3, 3), 103),
        DatasetSpec("D4 (vec)", 33_587, 2_282, 339_722, 14, Params(3, 3, 3), 104),
        DatasetSpec("D5 (LK)", 337_510, 42_046, 605_642, 35, Params(3, 3, 3), 105),
        DatasetSpec("D6 (ben)", 249_726, 79_269, 845_577, 17, Params(3, 3, 3), 106),
        DatasetSpec("D7 (Wut)", 530_419, 175_215, 2_118_877, 39, Params(3, 2, 3), 107),
        DatasetSpec("D8 (Bti)", 767_448, 204_674, 2_517_857, 22, Params(3, 3, 3), 108),
        DatasetSpec("D9 (AR)", 1_230_916, 2_146_058, 5_754_118, 21, Params(3, 3, 3), 109),
        DatasetSpec("D10 (id)", 2_183_495, 125_482, 7_890_901, 59, Params(3, 3, 3), 110),
        DatasetSpec("D11 (ar)", 2_943_712, 209_374, 13_601_759, 57, Params(3, 3, 3), 111),
        DatasetSpec("D12 (nl)", 3_800_350, 220_848, 28_294_026, 65, Params(10, 6, 8), 112),
        DatasetSpec("D13 (it)", 4_857_109, 343_861, 41_146_957, 65, Params(10, 6, 8), 113),
        DatasetSpec("D14 (fr)", 8_870_763, 757_622, 66_586_964, 66, Params(10, 6, 8), 114),
        DatasetSpec("D15 (de)", 5_910_433, 1_025_085, 70_745_969, 67, Params(11, 11, 11), 115),
    ]
}

DATASET_NAMES: Tuple[str, ...] = tuple(SPECS)


def _plant_timestamps(n_ts: int, k: int, g: np.random.Generator) -> List[int]:
    """k distinct timestamps inside a random *window* of 0..n_ts-1.

    Real group activity is bursty; localized windows also give the
    candidate-filtering rule (Lemma 3.2) something to prune — groups active
    in disjoint windows share few ``T(v)`` timestamps.
    """
    k = min(k, n_ts)
    width = min(n_ts, k + 3)
    start = int(g.integers(0, n_ts - width + 1))
    return sorted(
        (start + g.choice(np.arange(width), size=k, replace=False)).tolist()
    )


def scale_factor(sf) -> float:
    """``sf`` as a float; raises ``ValueError`` unless it is finite and > 0.

    The jobs' ``--sf`` argument type, so a bad value exits 2 before any
    dataset is generated.
    """
    value = float(sf)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"sf must be finite and > 0, got {sf!r}")
    return value


def _noise_n_v(spec: DatasetSpec, sf: float) -> int:
    """The noise V ids are ``1..`` this count."""
    return max(20, int(spec.n_v * sf))


def planted_groups_v(spec: DatasetSpec, sf: float = 1.0) -> List[List[int]]:
    """The planted MFG member sets of one dataset (v ids above noise range)."""
    p = spec.params
    base = _noise_n_v(spec, sf) + 10
    sizes = [p.tau_v, p.tau_v + 1, p.tau_v + 2]
    out, nxt = [], base
    for s in sizes:
        out.append(list(range(nxt, nxt + s)))
        nxt += s
    return out


def generate(spec: DatasetSpec, sf: float = 1.0) -> pd.DataFrame:
    """Generate one dataset analogue as a pandas edge frame.

    ``sf`` scales the noise volume (tests use sf≈0.05, ``jobs/`` sf=1).
    Planted structure is independent of ``sf`` so results stay checkable.
    Raises ``ValueError`` unless ``sf`` is finite and > 0.
    """
    sf = scale_factor(sf)
    p = spec.params
    g = np.random.default_rng(spec.seed)
    # Planted MFGs: fresh U side per timestamp.
    groups = [
        dict(
            members_v=members,
            group_u_size=p.tau_u + 2,
            timestamps=_plant_timestamps(spec.n_ts, p.lam + 2, g),
        )
        for members in planted_groups_v(spec, sf)
    ]
    # Community block: overlapping frequent groups → real search work. Each
    # round plants a random (τ_V+2)-subset of a shared vertex pool as a
    # frequent group; overlaps between rounds interlock the search branches
    # (every subset of a round's set is itself frequent, so the DFS tree is
    # non-trivial for every algorithm).
    block_v = groups[-1]["members_v"][-1] + 1
    block = np.arange(block_v, block_v + 3 * p.tau_v + 6)
    groups += [
        dict(
            members_v=sorted(
                g.choice(block, size=p.tau_v + 2, replace=False).tolist()
            ),
            group_u_size=p.tau_u + 1,
            timestamps=_plant_timestamps(spec.n_ts, p.lam + 2, g),
        )
        for _round in range(10)
    ]
    pdf = planted_temporal_bipartite(
        n_u=max(30, int(spec.n_u * sf)),
        n_v=_noise_n_v(spec, sf),
        n_edges=max(300, int(spec.n_edges * sf)),
        n_ts=spec.n_ts,
        groups=groups,
        seed=spec.seed,
        zipf_alpha=1.25,
    )
    next_u = int(pdf["u"].max()) + 1
    # Hub community: a moderately dense random bipartite block active in
    # most timestamps, with per-snapshot degrees above the core
    # thresholds. It survives the (τ_V, τ_U, λ)-core (real graphs keep a
    # dense residue after pruning too) yet contains almost no frequent
    # group — the candidate sets it feeds the search are large and mostly
    # invalid, which is exactly the regime the verification techniques
    # (CheckFRE, VFree's counting) are designed for.
    # Hub sizing: with per-snapshot degree ``deg = √(su·(τ_U+2))`` the
    # expected common neighborhood of a hub pair is ≈ τ_U+2 (frequent) while
    # su ≥ 3.2·(τ_U+2) keeps triples below τ_U (infrequent) — the search
    # descends exactly one level into a wide, mostly-invalid candidate pool.
    margin = 1 if p.tau_u <= 5 else 2
    su = max(p.tau_u + 3, int(3.2 * (p.tau_u + margin) * sf))
    sv = max(4, int(6 * p.tau_v * sf))
    hub_u = np.arange(next_u, next_u + su)
    hub_v = np.arange(int(block[-1]) + 1, int(block[-1]) + 1 + sv)
    deg = min(su, max(p.tau_u + 1, round((su * (p.tau_u + margin)) ** 0.5)))
    # Each hub vertex is active only inside its own timestamp window
    # (bursty behavior); pairs from far-apart windows share < λ timestamps
    # and are exactly what the candidate-filtering rule (Lemma 3.2) prunes.
    width = min(spec.n_ts, max(3 * (p.lam + 2), (4 * spec.n_ts) // 5))
    starts = [int(g.integers(0, spec.n_ts - width + 1)) for _v in hub_v]
    # deg distinct hub u's per (v, t), v-major then t within v's window.
    picks = [
        g.choice(hub_u, size=deg, replace=False)
        for _v in hub_v
        for _t in range(width)
    ]
    hub = pd.DataFrame(
        {
            "u": np.concatenate(picks),
            "v": np.repeat(hub_v, width * deg),
            "t": np.repeat(np.add.outer(starts, np.arange(width)).ravel(), deg),
        },
        dtype="int64",
    )
    # Hub ids are fresh and each (v, t) picks distinct u, so the hub rows
    # add no duplicate edge: appending them needs a sort, not a dedupe.
    return pd.concat([pdf, hub], ignore_index=True).sort_values(
        ["t", "u", "v"], ignore_index=True
    )


def load(name: str, sf: float = 1.0) -> pd.DataFrame:
    """Generate dataset ``name`` ("D1".."D15") at noise scale ``sf``."""
    return generate(SPECS[name], sf=sf)
