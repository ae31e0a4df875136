"""Deterministic synthetic temporal bipartite graphs (pandas frames).

The paper (Wu et al., VLDB 2024 — MFG enumeration) evaluates on 15 real
temporal bipartite graphs that are not available offline; these generators
build the Figure-2 running example and deterministic synthetic analogues
(heavy-tailed noise + planted frequent groups). See DESIGN.md §4. Every
generator is deterministic in its arguments.
"""
import numpy as np
import pandas as pd


def figure2_edges() -> pd.DataFrame:
    """The paper's Figure-2 running-example graph, reconstructed.

    The figure itself is an image; the edge set below was reconstructed from
    the constraints stated in Examples 2.1, 2.2, 3.1 and 4.1-4.4 and
    reproduces every published intermediate value (u1's Reborn Array
    ``1,3,0,4,0,3``; ``C_V*({v1}) = {v2,v3,v5}`` with survived timestamps
    ``{1,2,3,4}``; ``C_V*({v1,v2}) = {v3,v5}``; the three MFGs
    ``{v1,v2,v3,v5}:{1,3,4}``, ``{v2,v3,v4}:{3,5,6}``,
    ``{v3,v4,v5}:{2,3,5,6}`` at ``τ_U=τ_V=2, λ=3``).

    U vertices are 1..5 and V vertices are 1..5 (separate id namespaces).
    """
    snapshots = {
        1: {1: [3], 3: [1, 2, 3, 5], 4: [1, 2, 3, 4, 5]},
        2: {1: [1, 3, 4, 5], 2: [1, 4], 5: [3, 4, 5]},
        3: {1: [4], 3: [1, 2, 3, 4, 5], 4: [1, 2, 3, 4, 5]},
        4: {1: [1, 2, 3, 5], 2: [1, 2, 3, 5]},
        5: {4: [2, 3, 4, 5], 5: [1, 2, 3, 4, 5]},
        6: {1: [1, 2, 5], 2: [2, 3, 4], 3: [2, 3, 4], 4: [3, 4, 5], 5: [3, 4, 5]},
    }
    rows = [
        (u, v, t)
        for t, adj in snapshots.items()
        for u, vs in adj.items()
        for v in vs
    ]
    return pd.DataFrame(rows, columns=["u", "v", "t"], dtype="int64")


def temporal_bipartite_noise(
    *,
    n_u: int,
    n_v: int,
    n_edges: int,
    n_ts: int,
    seed: int = 0,
    zipf_alpha: float = 1.3,
) -> pd.DataFrame:
    """Heavy-tailed background edges ``(u, v, t)`` (pandas frame).

    Endpoints are Zipf-distributed (real bipartite interaction graphs are
    heavy-tailed) and timestamps uniform in ``0..n_ts-1``. Duplicate
    temporal edges are dropped, so the returned count can be slightly below
    ``n_edges``.
    """
    g = np.random.default_rng(seed)

    def _zipf(n_items: int, size: int) -> np.ndarray:
        ranks = np.arange(1, n_items + 1)
        w = 1.0 / ranks**zipf_alpha
        w /= w.sum()
        return g.choice(ranks, size=size, p=w)

    pdf = pd.DataFrame(
        {
            "u": _zipf(n_u, n_edges),
            "v": _zipf(n_v, n_edges),
            "t": g.integers(0, n_ts, n_edges),
        },
        dtype="int64",
    )
    return pdf.drop_duplicates(ignore_index=True)


def planted_mfg(
    *,
    members_v: "list[int]",
    group_u_size: int,
    timestamps: "list[int]",
    u_id_start: int,
) -> pd.DataFrame:
    """Edges planting ``members_v`` as a λ-frequency group.

    At each timestamp in ``timestamps`` a complete biclique is laid between
    ``members_v`` and a fresh U-set of size ``group_u_size``, the next
    ``group_u_size`` ids from ``u_id_start`` up. The U sides differ per
    timestamp, as MFG's unilateral semantics allow: they need not repeat.
    """
    rows = []
    for i, t in enumerate(timestamps):
        base = u_id_start + i * group_u_size
        for u in range(base, base + group_u_size):
            for v in members_v:
                rows.append((u, v, t))
    return pd.DataFrame(rows, columns=["u", "v", "t"], dtype="int64")


def planted_temporal_bipartite(
    *,
    n_u: int,
    n_v: int,
    n_edges: int,
    n_ts: int,
    groups: "list[dict]",
    seed: int = 0,
    zipf_alpha: float = 1.3,
) -> pd.DataFrame:
    """Noise + planted groups, deduplicated and sorted by ``(t, u, v)``.

    ``groups`` entries are kwargs for :func:`planted_mfg` minus
    ``u_id_start``: the planted U ids start at ``n_u + 10``, above the noise
    ids, and each group takes the next free ids after the previous one.
    """
    parts = [
        temporal_bipartite_noise(
            n_u=n_u, n_v=n_v, n_edges=n_edges, n_ts=n_ts, seed=seed,
            zipf_alpha=zipf_alpha,
        )
    ]
    next_u = n_u + 10
    for grp in groups:
        part = planted_mfg(u_id_start=next_u, **grp)
        next_u = int(part["u"].max()) + 1
        parts.append(part)
    pdf = pd.concat(parts, ignore_index=True).drop_duplicates(ignore_index=True)
    return pdf.sort_values(["t", "u", "v"], ignore_index=True)
