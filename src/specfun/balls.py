"""Unit-ball volumes and sphere areas in n dimensions.

Omega_n = pi^(n/2) / Gamma(n/2 + 1) and omega_(n-1) = n Omega_n.  All
ratio-style quantities used by the sharp-constant inequalities are formed
from log-volumes so that dimensions up to 10^4 stay overflow-free.
Omega_0 = 1 by the same formula; the ratio inequalities need it at n = 1.
"""

import math
import sys

from .errors import RangeError
from .gamma import log_gamma

__all__ = [
    "ball_volume",
    "log_ball_volume",
    "sphere_area",
    "power_ratio",
    "sqrt_shift",
    "quotient_exponent",
    "difference_scaled",
    "POWER_A",
    "POWER_B",
    "SQRT_A",
    "SQRT_B",
    "QUOTIENT_ALPHA",
    "QUOTIENT_BETA",
    "DIFFERENCE_A",
    "DIFFERENCE_B",
]

_N_MAX = 10_000


def _check_range(n: int, lo: int = 0, hi: int = _N_MAX) -> int:
    # the range test comes first: int() of an infinite or NaN n raises
    if not lo <= n <= hi or n != int(n):
        raise RangeError(f"dimension must be an integer in [{lo}, {hi}], got {n}")
    return int(n)


def log_ball_volume(n: int) -> float:
    """log Omega_n, defined for n >= 0 (log Omega_0 = 0)."""
    n = _check_range(n)
    if n == 0:
        return 0.0
    return 0.5 * n * math.log(math.pi) - log_gamma(0.5 * n + 1.0)


def ball_volume(n: int) -> float:
    """Volume Omega_n of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)
    within 7e-15 relative for n <= 340 (where n/2 + 1 <= 171 keeps Gamma
    finite; most of it is math.pi's rounding carried to the power n/2),
    exp(log Omega_n) within 2e-13 from 341 to 435.  RangeError where
    Omega_n falls below the smallest normal float, from n = 436 on: use
    log_ball_volume there."""
    n = _check_range(n)
    if n <= 340:
        return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)
    v = math.exp(log_ball_volume(n))
    if v < sys.float_info.min:
        raise RangeError(f"Omega_{n} is below the smallest normal float; use log_ball_volume")
    return v


def sphere_area(n_minus_1: int) -> float:
    """Surface area omega_(n-1) of the unit sphere S^(n-1) = n Omega_n, for
    n - 1 in [0, 9999] (Omega_n needs n <= 10^4); RangeError from
    n - 1 = 435 on, where ball_volume raises."""
    n = _check_range(n_minus_1, hi=_N_MAX - 1) + 1
    return n * ball_volume(n)


# sharp lower / upper constants of the four ratio families
POWER_A = 2.0 / math.sqrt(math.pi)
POWER_B = math.sqrt(math.e)
SQRT_A = 0.5
SQRT_B = math.pi / 2.0 - 1.0
QUOTIENT_ALPHA = 2.0 - math.log(math.pi) / math.log(2.0)
QUOTIENT_BETA = 0.5
DIFFERENCE_A = (4.0 - math.pi) * math.sqrt(2.0)
DIFFERENCE_B = math.sqrt(2.0 * math.pi) / 2.0


def power_ratio(n: int) -> float:
    """Om_n / Om_(n+1)^(n/(n+1)) for n in [1, 9999], in [POWER_A, POWER_B];
    POWER_A at n = 1."""
    n = _check_range(n, 1, _N_MAX - 1)
    return math.exp(log_ball_volume(n) - n / (n + 1.0) * log_ball_volume(n + 1))


def sqrt_shift(n: int) -> float:
    """2 pi (Om_(n-1)/Om_n)^2 - n for n in [1, 10^4], in [SQRT_A, SQRT_B];
    SQRT_B at n = 1."""
    n = _check_range(n, 1, _N_MAX)
    return 2.0 * math.pi * math.exp(2.0 * (log_ball_volume(n - 1) - log_ball_volume(n))) - n


def quotient_exponent(n: int) -> float:
    """log(Om_n^2/(Om_(n-1) Om_(n+1))) / log(1+1/n) for n in [1, 9999], in
    [QUOTIENT_ALPHA, QUOTIENT_BETA]; QUOTIENT_ALPHA at n = 1."""
    n = _check_range(n, 1, _N_MAX - 1)
    num = 2.0 * log_ball_volume(n) - log_ball_volume(n - 1) - log_ball_volume(n + 1)
    return num / math.log1p(1.0 / n)


def difference_scaled(n: int) -> float:
    """sqrt(n) ((n+1) Om_(n+1)/Om_n - n Om_n/Om_(n-1)) for n in [1, 9999], in
    [DIFFERENCE_A, DIFFERENCE_B) for n >= 2; DIFFERENCE_A at n = 2."""
    n = _check_range(n, 1, _N_MAX - 1)
    r1 = math.exp(log_ball_volume(n + 1) - log_ball_volume(n))
    r2 = math.exp(log_ball_volume(n) - log_ball_volume(n - 1))
    return ((n + 1) * r1 - n * r2) * math.sqrt(n)
