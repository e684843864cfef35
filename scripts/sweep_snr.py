#!/usr/bin/env python3
"""SNR sweep with a quick text summary of median NMSE per cell.

Thin wrapper over ``glmamp sweep`` that also aggregates the CSV it writes.
"""

import argparse
import csv
import statistics
from collections import defaultdict

from glmamp.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snr-db", default="0,5,10,15,20,25,30")
    ap.add_argument("--rho", default="0.1")
    ap.add_argument("--m-over-n", default="2.0")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    rc = cli_main(["sweep", "--snr-db", args.snr_db, "--rho", args.rho,
                   "--m-over-n", args.m_over_n, "--reps", str(args.reps),
                   "--seed", str(args.seed), "--out", args.out])
    if rc != 0:
        raise SystemExit(rc)

    cells = defaultdict(list)
    with open(args.out) as fh:
        for row in csv.DictReader(fh):
            if row["status"] == "ok":
                cells[(float(row["snr_db"]), row["engine"])].append(
                    float(row["nmse"]))

    print(f"\n{'snr_db':>7}  {'engine':<8}  {'median nmse':>12}  {'reps':>4}")
    for (snr, engine), vals in sorted(cells.items()):
        print(f"{snr:>7.1f}  {engine:<8}  {statistics.median(vals):>12.4e}  "
              f"{len(vals):>4}")


if __name__ == "__main__":
    main()
