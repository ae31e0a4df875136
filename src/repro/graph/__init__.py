"""Temporal bipartite graph substrate.

Driver-side: the compact adjacency
:class:`repro.graph.index.TemporalBipartiteIndex`, which the search kernels
and the experiment harnesses read. Spark-side, for the distributed path
only: edge DataFrames with schema ``(u long, v long, t long)``
(``repro.graph.schema``) and the degree-order dataflow
(``repro.graph.stats``). Importing this package loads no pyspark.
"""
