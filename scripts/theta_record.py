#!/usr/bin/env python3
"""Reproduce the sixth-root gamma-correction record and explore its shape.

Prints the 14-entry table (computed against the recorded 4-decimal values),
then scans theta on [1, 500] for the conjectured window and monotonicity,
and finally reports the experimental observation that ((n+1)/n)^2 H(n)
looks decreasing and convex -- an observation only, not an assertion.

Usage:
    python scripts/theta_record.py [--grid 500] [--nmax 200]
"""

import argparse

from specfun import gamma
from specfun.kernel import Grid


def print_table():
    labels = ["0"] + [f"{k}/12" for k in range(1, 12)] + ["1", "inf"]
    print(f"{'x':>6s} {'computed':>12s} {'recorded':>10s} {'gap':>10s}")
    for label, (x, p) in zip(labels, gamma.THETA_RECORD):
        t = gamma.theta(x)
        if x > 1.0:
            marker = "  (evaluated at 1e6)"
        else:
            marker = "  (truncated in the record)" if abs(t - p) > 5e-5 else ""
        print(f"{label:>6s} {t:12.7f} {p:10.4f} {abs(t - p):10.2e}{marker}")


def scan_window(n):
    pts = Grid(1.0, 500.0, n).points()
    vals = [gamma.theta(x) for x in pts]
    inside = all(0.01 < v / 30.0 < 1.0 / 30.0 for v in vals)
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    print(f"\ntheta/30 in (1/100, 1/30) on [1, 500] x {n}: {inside}")
    print(f"theta strictly increasing there:            {increasing}")


def scaled_gap_observation(n_max):
    # ((n+1)/n)^2 H(n): reported as a computer experiment, not asserted
    vals = [((n + 1.0) / n) ** 2 * (n * n * g) for n, g in enumerate(gamma.detemple_gaps(n_max), 1)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    second = [vals[i + 1] - 2.0 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
    convex = all(d > 0.0 for d in second)
    print(f"\nobservation: ((n+1)/n)^2 H(n) on n = 1..{n_max}")
    print(f"  decreasing: {decreasing}   convex: {convex}   "
          f"range [{min(vals):.6f}, {max(vals):.6f}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=500)
    ap.add_argument("--nmax", type=int, default=200)
    args = ap.parse_args()
    print_table()
    scan_window(args.grid)
    scaled_gap_observation(args.nmax)


if __name__ == "__main__":
    main()
