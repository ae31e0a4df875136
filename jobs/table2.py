#!/usr/bin/env python
"""spark-submit entrypoint reproducing paper Table 2 (dataset statistics).

Usage: spark-submit jobs/table2.py [--sf 1.0]
"""
import argparse

from pyspark.sql import SparkSession

from repro.experiments.table2 import format_table2, run_table2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=1.0)
    args = ap.parse_args()
    spark = (
        SparkSession.builder.appName("repro-table2")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    try:
        print(format_table2(run_table2(spark, sf=args.sf)))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
