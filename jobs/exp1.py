#!/usr/bin/env python
"""The Exp-1 response-time and work comparison, run on the driver.

Usage: python jobs/exp1.py [--sf 1.0] [--datasets D1 D2 D5 D9 D14 D15]
No Spark session is started. Exits non-zero, after printing the tables,
when the algorithms' groups differ on a dataset or a dataset has no group.
"""
import argparse
import sys

from repro.experiments import datasets
from repro.experiments.exp1 import EXP1_DATASETS, format_exp1, run_exp1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=datasets.scale_factor, default=1.0)
    ap.add_argument(
        "--datasets", nargs="+", default=EXP1_DATASETS,
        choices=datasets.DATASET_NAMES,
    )
    args = ap.parse_args()
    rows = run_exp1(names=tuple(args.datasets), sf=args.sf)
    print(format_exp1(rows))
    bad = [r.dataset.name for r in rows if not r.agree]
    if bad:
        sys.exit(f"exp1: the algorithms' groups differ on {', '.join(bad)}")
    empty = [r.dataset.name for r in rows if not r.groups]
    if empty:
        sys.exit(f"exp1: no group found on {', '.join(empty)}")


if __name__ == "__main__":
    main()
