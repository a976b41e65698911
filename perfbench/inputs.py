"""Seeded input generation for the three workloads.

Only the standard library is used here: the library under test never
sees the seed, only the inputs built from it.  A workload is a sequence
of rounds; round ``k`` of stream ``stream`` is drawn from its own
generator, seeded by (workload, seed, stream, k), so it can be rebuilt
anywhere without replaying the rounds before it.  Each worker process
walks a stream of its own, so every inverse and pointwise round a run
executes draws fresh inputs: no exact input repeats within a run.
"""

from __future__ import annotations

import random

SUITES = ("gamma", "balls", "hyper", "elliptic", "modular")

F21_STRATA = ("series", "zero_balanced", "integer_offset",
              "connection", "reflection", "near_integer")

# one pointwise round evaluates each kind once, in this order
POINTWISE_KINDS = tuple(f"f21.{s}" for s in F21_STRATA) + (
    "gamma", "log_gamma", "digamma", "trigamma", "beta",
    "ellip_k", "ellip_e", "k_a", "mu_a", "ball_volume",
)

INVERSE_SIGNATURES = (1 / 2, 1 / 3, 1 / 4, 1 / 6)
INVERSE_DEGREES = (2, 3, 5, 7, 11, 23)
# r bins: 20 equal bins over (0.02, 0.98), then 4 over (0.98, 0.999),
# where the degree-2 solves take the reflected path
INVERSE_R_EDGES = tuple(0.02 + 0.048 * i for i in range(20)) + (
    0.98, 0.98475, 0.9895, 0.99425, 0.999)


def _rng(workload: str, seed: int, stream, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{k}")


def round_ops(workload: str, seed: int, stream, k: int) -> list:
    """The ops of round ``k`` of one stream, as (kind, args) pairs."""
    rng = _rng(workload, seed, stream, k)
    if workload == "registry":
        order = list(SUITES)
        rng.shuffle(order)
        return [(f"suite.{s}", ()) for s in order]
    if workload == "inverse":
        return _inverse_round(rng, k)
    return [(kind, _pointwise_args(rng, kind)) for kind in POINTWISE_KINDS]


def _inverse_round(rng: random.Random, k: int) -> list:
    """One ("phi_k_a", (a, K, r)) solve, K = 1/p, of the degree-p modular
    equation for every (signature, degree) pair.

    r is stratified: pair i takes bin (k + 7 i) mod 24, so every round
    holds one r from each bin and consecutive rounds rotate the pairs
    over the bins.  Small r takes the log-asymptote path, most r the
    direct bracket, and r above the reflection point of a degree-2 pair
    (about 0.985 at a = 1/2, 0.991 at 1/3, 0.996 at 1/4) the reflected
    path; degree 3 reflects only above 0.9994.
    """
    bins = len(INVERSE_R_EDGES) - 1
    pairs = [(a, p) for a in INVERSE_SIGNATURES for p in INVERSE_DEGREES]
    ops = []
    for i, (a, p) in enumerate(pairs):
        j = (k + 7 * i) % bins
        r = rng.uniform(INVERSE_R_EDGES[j], INVERSE_R_EDGES[j + 1])
        ops.append(("phi_k_a", (a, 1.0 / p, r)))
    rng.shuffle(ops)
    return ops


def _f21_params(rng: random.Random, stratum: str) -> tuple:
    a = rng.uniform(0.05, 2.0)
    b = rng.uniform(0.05, 2.0)
    x = rng.uniform(0.76, 0.995)
    if stratum == "series":
        return (a, b, rng.uniform(0.1, 4.0), rng.uniform(0.0, 0.75))
    if stratum == "zero_balanced":
        return (a, b, a + b, x)
    if stratum == "integer_offset":
        return (a, b, a + b + rng.choice((1, 2, 3)), x)
    if stratum == "connection":
        return (a, b, a + b + rng.randrange(3) + rng.uniform(0.1, 0.9), x)
    if stratum == "reflection":
        a, b = rng.uniform(0.6, 2.0), rng.uniform(0.6, 2.0)
        whole = 1.0 if a + b > 2.2 else 0.0
        return (a, b, a + b - whole - rng.uniform(0.1, 0.9), x)
    # near_integer: d = c - a - b within [1e-9, 1e-5] of an integer m
    m = rng.choice((-1, 0, 1, 2))
    gap = 10.0 ** rng.uniform(-9.0, -5.0) * rng.choice((-1.0, 1.0))
    c = a + b + m + gap
    if c <= 0.05:
        a, b = a + 1.0, b + 1.0
        c = a + b + m + gap
    return (a, b, c, x)


def integer_gap(args: tuple) -> float:
    """|d - m| for a 2F1 op, d = c - a - b and m the integer nearest d."""
    a, b, c = args[:3]
    d = c - a - b
    return abs(d - round(d))


def _off_integer(rng: random.Random, lo: float, hi: float) -> float:
    # keep 0.05 away from the poles of the gamma family
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= 0.05 or x > 0.0:
            return x


def _pointwise_args(rng: random.Random, kind: str) -> tuple:
    if kind.startswith("f21."):
        return _f21_params(rng, kind[4:])
    if kind == "gamma":
        return (_off_integer(rng, -6.0, 30.0),)
    if kind == "log_gamma":
        # stay clear of the zeros at 1 and 2, where relative error is void
        return (rng.choice((rng.uniform(0.05, 0.8), rng.uniform(2.5, 150.0))),)
    if kind == "digamma":
        return (rng.choice((rng.uniform(0.05, 1.2), rng.uniform(1.8, 60.0))),)
    if kind == "trigamma":
        return (rng.uniform(0.05, 50.0),)
    if kind == "beta":
        return (rng.uniform(0.1, 20.0), rng.uniform(0.1, 20.0))
    if kind == "ellip_k":
        return (rng.uniform(0.0, 0.999),)
    if kind == "ellip_e":
        return (rng.uniform(0.0, 1.0),)
    if kind == "k_a":
        return (rng.uniform(0.05, 0.95), rng.uniform(0.0, 0.999))
    if kind == "mu_a":
        return (rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.99))
    return (rng.randint(1, 300),)  # ball_volume; larger n underflows


def non_argument_params(kind: str, args: tuple):
    """The parameters a cache keyed beside the argument would see, or
    None for a kind that has none."""
    if kind.startswith("f21."):
        return args[:3]
    if kind in ("k_a", "mu_a"):
        return args[:1]
    if kind == "phi_k_a":
        return args[:2]
    return None
