"""Temporal bipartite graph substrate.

Driver-side: the compact adjacency
:class:`repro.graph.index.TemporalBipartiteIndex`, which the search kernels
and the experiment harnesses read. Spark-side: the distributed path's edge
DataFrames with schema ``(u long, v long, t long)``
(``repro.graph.schema``). ``repro.graph.stats`` holds VFree's degree order
as a Spark dataflow, which only ``perfbench``'s traced Spark run calls;
the distributed path's VFree tasks order by the index's
``degree_rank()``. Importing this package loads no pyspark.
"""
