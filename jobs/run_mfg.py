#!/usr/bin/env python
"""spark-submit entrypoint: enumerate all MFGs of a dataset analogue.

Usage:
    spark-submit jobs/run_mfg.py --dataset D2 --sf 0.3 [--algorithm vfree]
                                 [--distributed]

Prints one line per MFG: the member vertex ids and the support timestamps.
"""
import argparse

from pyspark.sql import SparkSession

from repro.core import runner
from repro.core.distributed import enumerate_mfg_distributed
from repro.experiments import datasets
from repro.graph.index import TemporalBipartiteIndex
from repro.graph.schema import edges_from_pandas


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="D2", choices=datasets.DATASET_NAMES)
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--algorithm", default="vfree", choices=runner.ALGORITHMS)
    ap.add_argument(
        "--distributed",
        action="store_true",
        help="run the Spark fan-out over root batches (vfree only) instead "
        "of the driver kernel",
    )
    args = ap.parse_args()
    if args.distributed and args.algorithm != "vfree":
        ap.error(f"--distributed runs vfree only, not {args.algorithm}")
    spark = (
        SparkSession.builder.appName("repro-run-mfg")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spec = datasets.SPECS[args.dataset]
    pdf = datasets.load(args.dataset, sf=args.sf)
    p = spec.params
    if args.distributed:
        groups = enumerate_mfg_distributed(
            edges_from_pandas(spark, pdf),
            p.tau_u,
            p.tau_v,
            p.lam,
            algorithm=args.algorithm,
        )
    else:
        groups = runner.run_mfg(
            TemporalBipartiteIndex.from_pandas(pdf), p, args.algorithm
        ).groups
    print(f"# {spec.name} params={p} algorithm={args.algorithm} "
          f"distributed={args.distributed}: {len(groups)} MFGs")
    for vs, supp in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        print(f"V_S={sorted(vs)} supports={sorted(supp)}")
    spark.stop()


if __name__ == "__main__":
    main()
