#!/usr/bin/env python3
"""Probe the sharpness of the best-possible constants on refined grids.

Each sharp constant (or exponent) is perturbed by a relative 1e-3 in the
direction that would strengthen its inequality, and the perturbed bound is
hunted for a violation.  Finding one certifies (numerically) that the
constant cannot be improved by that much; not finding one is reported as a
warning -- a grid can never prove sharpness, and several of the ball
constants are approached too slowly for the violation to show by n = 200.

Usage:
    python scripts/sharpness_search.py [--nmax 200] [--grid 8192]
"""

import argparse
import math

from specfun import balls, elliptic
from specfun.kernel import Grid

BUMP = 1e-3


def _report(name, where):
    if where is None:
        print(f"warn {name}: no violation found (approach too slow for this range)")
    else:
        print(f"ok   {name}: violated at {where}")


def ball_constants(n_max):
    probes = [
        ("power lower  a = 2/sqrt(pi)", lambda n: balls.power_ratio(n) < balls.POWER_A * (1 + BUMP), 1),
        ("power upper  b = sqrt(e)", lambda n: balls.power_ratio(n) > balls.POWER_B * (1 - BUMP), 1),
        ("sqrt  lower  A = 1/2", lambda n: balls.sqrt_shift(n) < balls.SQRT_A * (1 + BUMP), 1),
        ("sqrt  upper  B = pi/2 - 1", lambda n: balls.sqrt_shift(n) > balls.SQRT_B * (1 - BUMP), 1),
        ("ratio lower  alpha = 2 - log pi/log 2",
         lambda n: balls.quotient_exponent(n) < balls.QUOTIENT_ALPHA * (1 + BUMP), 1),
        ("ratio upper  beta = 1/2",
         lambda n: balls.quotient_exponent(n) > balls.QUOTIENT_BETA * (1 - BUMP), 1),
        ("diff  lower  A = (4-pi) sqrt(2)",
         lambda n: balls.difference_scaled(n) < balls.DIFFERENCE_A * (1 + BUMP), 2),
        ("diff  upper  B = sqrt(2 pi)/2",
         lambda n: balls.difference_scaled(n) > balls.DIFFERENCE_B * (1 - BUMP), 2),
    ]
    print(f"ball-volume constants, n <= {n_max}:")
    for name, violated, n_lo in probes:
        where = next((f"n = {n}" for n in range(n_lo, n_max + 1) if violated(n)), None)
        _report(name, where)


def arth_exponent(grid_n):
    print(f"\nfirst-kind integral lower exponent, {grid_n}-point stretched grid:")
    q = 0.75 * (1.0 + BUMP)
    where = None
    for r in Grid(1e-5, 1.0 - 1e-5, grid_n, "atanh").points():
        if 0.5 * math.pi * (math.atanh(r) / r) ** q > elliptic.ellip_k(r):
            where = f"r = {r:.6g}"
            break
    _report(f"exponent 3/4 * (1 + 1e-3) = {q:.6f}", where)
    q_hi = 1.0 * (1.0 - BUMP)
    where = None
    for r in Grid(1e-5, 1.0 - 1e-5, grid_n, "atanh").points():
        if 0.5 * math.pi * (math.atanh(r) / r) ** q_hi < elliptic.ellip_k(r):
            where = f"r = {r:.6g}"
            break
    _report(f"upper exponent 1 * (1 - 1e-3) = {q_hi:.6f}", where)


def klog_constants(grid_n):
    print(f"\nK/log(4/r') constants, {grid_n}-point stretched grid:")
    pts = Grid(1e-5, 1.0 - 1e-5, grid_n, "atanh").points()

    def ratio(r):
        return elliptic.ellip_k(r) / math.log(4.0 / math.sqrt((1 - r) * (1 + r)))

    c_qv = 0.25 * (1.0 - BUMP)
    where = next((f"r = {r:.6g}" for r in pts
                  if ratio(r) > 1.0 + c_qv * (1 - r) * (1 + r)), None)
    _report("quarter coefficient (upper)", where)
    c_al = (math.pi / (4 * math.log(2)) - 1.0) * (1.0 + BUMP)
    where = next((f"r = {r:.6g}" for r in pts
                  if ratio(r) < 1.0 + c_al * (1 - r) * (1 + r)), None)
    _report("log-2 coefficient (lower)", where)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=200)
    ap.add_argument("--grid", type=int, default=8192)
    args = ap.parse_args()
    ball_constants(args.nmax)
    arth_exponent(args.grid)
    klog_constants(args.grid)


if __name__ == "__main__":
    main()
