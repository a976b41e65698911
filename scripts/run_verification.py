#!/usr/bin/env python3
"""Run the full check registry and write JSON + CSV reports.

Usage:
    python scripts/run_verification.py [--suite all] [--grid N]
        [--tol-scale S] [--outdir reports]

Exit codes: 0 every check passed, 1 a check failed, 2 usage error (an
unknown option, or a grid below 2 points or a tolerance scale that is not
positive and finite).
"""

import argparse
import pathlib
import sys
import time

from specfun import verify
from specfun.errors import DomainError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", default="all", choices=("all",) + verify.SUITES)
    ap.add_argument("--grid", type=int, default=None)
    ap.add_argument("--tol-scale", type=float, default=1.0)
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        report = verify.run_suite(args.suite, grid_n=args.grid, tol_scale=args.tol_scale)
    except DomainError as exc:  # a bad --grid or --tol-scale: usage error, exit 2
        ap.error(str(exc))
    elapsed = time.perf_counter() - t0

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{args.suite}.json").write_bytes(verify.serialize(report, "json"))
    (outdir / f"{args.suite}.csv").write_bytes(verify.serialize(report, "csv"))

    width = max(len(r.id) for r in report.results)
    for r in report.results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.id:<{width}s} max_residual={r.max_residual:9.3e} "
              f"points={r.points:5d} {r.elapsed_ms:8.1f} ms")
    s = report.summary
    print(f"\n{s['passed']}/{s['total']} checks passed in {elapsed:.2f}s; "
          f"reports in {outdir}/")
    return 0 if s["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
