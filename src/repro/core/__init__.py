"""The paper's contribution: MFG enumeration algorithms.

- ``freq`` — frequency verification (naive + Algorithm 3 CheckFRE).
- ``gfcore`` — the (τ_V, τ_U, λ)-core graph filter (Algorithm 2), local peel
  and iterative Spark dataflow.
- ``bruteforce`` — exponential reference oracle for small graphs.
- ``bk_alg`` — BK-ALG(+) baseline.
- ``filterv`` — FilterV (Algorithm 1) with candidate filter / array
  verification toggles (variants FilterV-FR / FilterV-VM / FilterV-).
- ``vfree`` — VFree (Algorithm 4), timestamp-oriented verification-free
  search.
- ``params`` — the (τ_U, τ_V, λ) parameters and their validity check.
- ``runner`` — unified entry point and instrumentation.
- ``distributed`` — the search on the driver first, then a Spark fan-out
  of the root vertices left.
"""
