"""Temporal bipartite graph substrate.

Spark-side: edge DataFrames with schema ``(u long, v long, t long)`` and
dataflow statistics (``repro.graph.stats``). Driver-side: the compact
adjacency :class:`repro.graph.index.TemporalBipartiteIndex` used by the
search kernels.
"""
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import EDGE_SCHEMA, validate_edges

__all__ = [
    "EDGE_SCHEMA",
    "TemporalBipartiteIndex",
    "validate_edges",
]
