"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


# ---------------------------------------------------------------------------
# Temporal bipartite graphs (paper: Wu et al., VLDB 2024 — MFG enumeration)
# ---------------------------------------------------------------------------
#
# The paper evaluates on 15 real temporal bipartite graphs that are not
# available offline; these generators build deterministic synthetic analogues
# (heavy-tailed noise + planted frequent groups). See DESIGN.md §4.

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
    g = _rng(seed)

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
    fresh_u_per_t: bool = True,
) -> pd.DataFrame:
    """Edges planting ``members_v`` as a λ-frequency group.

    At each timestamp in ``timestamps`` a complete biclique is laid between
    ``members_v`` and a U-set of size ``group_u_size``. With
    ``fresh_u_per_t`` the U-side differs per timestamp (exercising MFG's
    unilateral semantics: the U sides need not repeat); otherwise one fixed
    U-set is reused (which additionally creates an MFB).
    """
    rows = []
    for i, t in enumerate(timestamps):
        base = u_id_start + (i * group_u_size if fresh_u_per_t else 0)
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
    """Noise + planted groups. ``groups`` entries are kwargs for
    :func:`planted_mfg` minus ``u_id_start`` (allocated above the noise ids).
    """
    parts = [
        temporal_bipartite_noise(
            n_u=n_u, n_v=n_v, n_edges=n_edges, n_ts=n_ts, seed=seed,
            zipf_alpha=zipf_alpha,
        )
    ]
    next_u = n_u + 1
    for grp in groups:
        grp = dict(grp)
        grp.setdefault("fresh_u_per_t", True)
        part = planted_mfg(u_id_start=next_u, **grp)
        next_u = int(part["u"].max()) + 1
        parts.append(part)
    pdf = pd.concat(parts, ignore_index=True).drop_duplicates(ignore_index=True)
    return pdf.sort_values(["t", "u", "v"], ignore_index=True)
