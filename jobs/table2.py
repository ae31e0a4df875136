#!/usr/bin/env python
"""Reproduce paper Table 2 (dataset statistics) on the driver.

Usage: python jobs/table2.py [--sf 1.0]
"""
import argparse

from repro.experiments.datasets import scale_factor
from repro.experiments.table2 import format_table2, run_table2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=scale_factor, default=1.0)
    args = ap.parse_args()
    print(format_table2(run_table2(sf=args.sf)))


if __name__ == "__main__":
    main()
