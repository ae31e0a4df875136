#!/usr/bin/env python
"""Enumerate all MFGs of a dataset analogue.

Usage:
    python jobs/run_mfg.py --dataset D2 --sf 0.3 [--algorithm vfree]
    spark-submit jobs/run_mfg.py --dataset D2 --sf 0.3 --distributed

Prints one line per MFG: the member vertex ids and the support timestamps.
Only ``--distributed`` loads pyspark and starts a Spark session; the
driver kernels run without either.
"""
import argparse

from repro.core import runner
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="D2", choices=datasets.DATASET_NAMES)
    ap.add_argument("--sf", type=datasets.scale_factor, default=1.0)
    ap.add_argument("--algorithm", default="vfree", choices=runner.ALGORITHMS)
    ap.add_argument(
        "--distributed",
        action="store_true",
        help="run the distributed path (vfree only): the driver searches "
        "the top-ranked roots for up to the fan-out's fixed cost, then a "
        "Spark fan-out searches the roots left",
    )
    args = ap.parse_args()
    if args.distributed and args.algorithm != "vfree":
        ap.error(f"--distributed runs vfree only, not {args.algorithm}")
    spec = datasets.SPECS[args.dataset]
    pdf = datasets.load(args.dataset, sf=args.sf)
    p = spec.params
    if args.distributed:
        from pyspark.sql import SparkSession

        from repro.core.distributed import enumerate_mfg_distributed
        from repro.graph.schema import edges_from_pandas

        spark = (
            SparkSession.builder.appName("repro-run-mfg")
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate()
        )
        try:
            groups = enumerate_mfg_distributed(
                edges_from_pandas(spark, pdf),
                p.tau_u,
                p.tau_v,
                p.lam,
                algorithm=args.algorithm,
            )
        finally:
            spark.stop()
    else:
        groups = runner.run_mfg(
            TemporalBipartiteIndex.from_pandas(pdf), p, args.algorithm
        ).groups
    print(f"# {spec.name} params={p} algorithm={args.algorithm} "
          f"distributed={args.distributed}: {len(groups)} MFGs")
    for vs, supp in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        print(f"V_S={sorted(vs)} supports={sorted(supp)}")


if __name__ == "__main__":
    main()
