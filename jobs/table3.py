#!/usr/bin/env python
"""Reproduce paper Table 3 (D1 case study) on the driver.

Usage: python jobs/table3.py
No Spark session is started.
"""
import argparse

from repro.experiments.table3 import format_table3, run_table3


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(format_table3(run_table3()))


if __name__ == "__main__":
    main()
