"""Gamma-family evaluators and Euler-Mascheroni accelerations.

Gamma and log Gamma come from the standard library (math.gamma and
math.lgamma) behind this module's pole and domain checks; digamma and
trigamma, which it lacks, use a recurrence shift plus their asymptotic
series.  On top of that sit the sixth-root asymptotic expansion of
Gamma(x+1) with its seven printed rational tail coefficients, the theta
correction term it defines and its 14-entry record, the DeTemple sequence
R_n with its n^-2 bracket, an exponentially convergent series estimate of
the Euler-Mascheroni constant, and the auxiliary monotone functions used
by the gamma inequality battery.  DeTemple's D_n and R_n (from n = 32)
and lemma_g, the sum of (n-x)/(n+x)^3 over n >= 1, are O(1) closed forms
built on the polygamma asymptotic series (DLMF 5.15), not O(n) sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, PoleError, RangeError
from .kernel import compensated_sum

__all__ = [
    "EULER_GAMMA",
    "CONSTANTS",
    "GammaConstants",
    "GammaEstimate",
    "DeTempleValues",
    "RAMANUJAN_TAIL_COEFFS",
    "THETA_RECORD",
    "gamma",
    "log_gamma",
    "digamma",
    "digamma_reflected",
    "trigamma",
    "sinpi",
    "beta",
    "ramanujan_gamma",
    "theta",
    "detemple",
    "detemple_range",
    "karatsuba_euler_gamma",
    "mono_f",
    "lemma_g",
    "lemma_h",
]

# 40 digits: the decimal DeTemple gap subtracts it at that precision, and
# EULER_GAMMA is its nearest binary64
_EULER_GAMMA_DIGITS = "0.5772156649015328606065120900824024310422"
EULER_GAMMA = float(_EULER_GAMMA_DIGITS)


@dataclass(frozen=True)
class GammaConstants:
    euler_gamma: float
    pi: float
    log2: float


CONSTANTS = GammaConstants(euler_gamma=EULER_GAMMA, pi=math.pi, log2=math.log(2.0))


@dataclass(frozen=True)
class GammaEstimate:
    """A computed value plus an error bound.

    ``error_bound`` is rigorous for the exponential-series method (the
    proven c_k bound plus one ulp of ``value`` for its rounding to
    binary64) and heuristic for the sixth-root expansion (magnitude of the
    first omitted term's contribution).
    """

    value: float
    error_bound: float
    method: str


# B_2, B_4, ..., B_16, exact; every asymptotic series below takes its
# coefficients from this one table
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)

# B_{2n} / (2n (2n-1)): log-gamma Stirling series coefficients
_STIRLING_C = tuple(float(b / (2 * n * (2 * n - 1))) for n, b in enumerate(_BERNOULLI, 1))

# B_{2n} / (2n), n = 1..7: digamma asymptotic coefficients
_DIGAMMA_C = tuple(float(b / (2 * n)) for n, b in enumerate(_BERNOULLI[:7], 1))

# B_{2n}, n = 1..8: trigamma and lemma_g asymptotic coefficients
_B2N = tuple(float(b) for b in _BERNOULLI)

_SHIFT_PSI = 10.0
_LEMMA_G_SHIFT = 12.0  # lemma_g sums directly below y = 12
_TRIGAMMA_TINY = 1e-154  # below it 1/x^2 leaves binary64


def _check_argument(name: str, x: float) -> None:
    # NaN and -inf have no value on the real line (math.floor(-inf) would
    # raise a bare OverflowError); the poles 0, -1, -2, ... raise PoleError
    if not x > -math.inf:
        raise DomainError(f"{name} needs a number above -inf, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"{name} pole at {x}")


def sinpi(x: float) -> float:
    """sin(pi x) to full relative accuracy, also next to the integers.

    math.sin(math.pi * x) keeps only the absolute accuracy of the product:
    at x = 1 - 1e-8 it is off by about 6e-9 relative.  Raises DomainError
    at NaN and +-inf.
    """
    if not math.isfinite(x):
        raise DomainError(f"sinpi needs a finite x, got {x}")
    # reduce to |x - n| <= 1/2, exact in binary64, before multiplying by pi;
    # x - floor(x) = 1 + x would round tiny negative x away
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


def _cospi(x: float) -> float:
    n = math.floor(x)
    r = x - n
    c = math.cos(math.pi * r)
    return -c if int(n) % 2 else c


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.

    Returns inf at x = inf; raises OverflowError past about 2.5e305, where
    the value itself leaves binary64.
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) on the real line away from the poles at 0, -1, -2, ...

    Relative error within ~7e-16 across [-170, 170]; raises OverflowError
    past the binary64 ceiling near 171.62 and at x = inf, DomainError at
    NaN and -inf.  Deep-left arguments underflow to a signed zero.
    """
    _check_argument("gamma", x)
    if x == math.inf:
        raise OverflowError(f"gamma({x}) exceeds binary64 range")
    return math.gamma(x)


def digamma(x: float) -> float:
    """Psi(x) = d/dx log Gamma(x), poles excluded.

    Psi(x) ~ -1/x overflows binary64 for |x| below about 5.6e-309, which
    raises RangeError; NaN and -inf raise DomainError, Psi(inf) = inf.
    """
    _check_argument("digamma", x)
    if x < 0.5:
        pi_cot = _pi_cot(x)
        return digamma(1.0 - x) - pi_cot
    shift = 0.0
    y = x
    while y < _SHIFT_PSI:
        shift += 1.0 / y
        y += 1.0
    s = math.log(y) - 0.5 / y
    inv2 = 1.0 / (y * y)
    p = inv2
    for c in _DIGAMMA_C:
        s -= c * p
        p *= inv2
    return s - shift


def _pi_cot(x: float) -> float:
    # the reflection term of digamma, Psi(x) = Psi(1 - x) - pi cot(pi x)
    pi_cot = math.pi * _cospi(x) / sinpi(x)
    if math.isinf(pi_cot):
        raise RangeError(f"digamma({x}) overflows binary64")
    return pi_cot


def digamma_reflected(a: float) -> tuple:
    """(Psi(a), Psi(1 - a)) for 0 < a < 1 from one asymptotic Psi.

    The argument below 1/2 is reflected onto the other one, as digamma
    itself does, so both values are bit-identical to digamma's (1 - a is
    rounded as ``1.0 - a``; from a = 1/2 on it is exact, and 1 - (1 - a)
    is a).  Raises RangeError where digamma does, for a or 1 - a below
    about 5.6e-309.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"digamma_reflected needs 0 < a < 1, got {a}")
    b = 1.0 - a
    if a < 0.5:
        pi_cot = _pi_cot(a)
        psi_b = digamma(b)
        return psi_b - pi_cot, psi_b
    if b < 0.5:
        pi_cot = _pi_cot(b)
        psi_a = digamma(a)
        return psi_a, psi_a - pi_cot
    psi_a = digamma(a)  # a = 1/2
    return psi_a, psi_a


def trigamma(x: float) -> float:
    """Psi'(x), poles excluded.

    Psi'(x) ~ 1/x^2 overflows binary64 near 0, so |x| < 1e-154 raises
    RangeError; NaN and -inf raise DomainError, Psi'(inf) = 0.
    """
    _check_argument("trigamma", x)
    if abs(x) < _TRIGAMMA_TINY:
        raise RangeError(f"trigamma({x}) overflows binary64; needs |x| >= {_TRIGAMMA_TINY}")
    if x < 0.5:
        s = sinpi(x)
        return math.pi * math.pi / (s * s) - trigamma(1.0 - x)
    shift = 0.0
    y = x
    while y < _SHIFT_PSI:
        shift += 1.0 / (y * y)
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    s = inv + 0.5 * inv2
    p = inv2 * inv
    for b in _B2N:
        s += b * p
        p *= inv2
    return s + shift


def _binet(x: float) -> float:
    # Binet's mu(x) = log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2 for
    # x >= 10, where eight Stirling terms leave an error below 2e-18
    inv2 = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING_C):
        s = s * inv2 + c
    return s / x


def beta(a: float, b: float) -> float:
    """B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0; the limit 0 when
    either is +inf.

    From a + b = 25 on, with x = min(a, b) and y = max(a, b), the large
    parts of the three Stirling series cancel in closed form (DiDonato and
    Morris, ACM TOMS 708, betaln): log Gamma(y) - log Gamma(x+y) =
    -(y - 1/2) log1p(x/y) - x log(x+y) + x + mu(y) - mu(x+y), mu being
    Binet's remainder, and (x+y)^-x is taken by pow.  From x = 10 on,
    B = sqrt(2 pi / y) (x/(x+y))^(x-1/2) exp(mu(x) + mu(y) - mu(x+y)
    - y log1p(x/y)).  Against mpmath the relative error is below 3e-15
    where x < 10 or y is far above x, and up to about 1.2e-13 where x and
    y are both near 500 and B nears the underflow threshold: there the
    (x - 1/2)-th power and y log1p(x/y) ~ 300 each carry one rounding.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta needs a, b > 0, got ({a}, {b})")
    if a == math.inf or b == math.inf:
        return 0.0
    if a + b < 25.0:
        return gamma(a) * gamma(b) / gamma(a + b)
    x, y = (a, b) if a <= b else (b, a)
    s = x + y
    if x < 10.0:
        e = x - (y - 0.5) * math.log1p(x / y) + _binet(y) - _binet(s)
        h = s ** (-0.5 * x)  # halves keep (x+y)^-x normal wherever B is
        return math.gamma(x) * math.exp(e) * h * h
    e = _binet(x) + _binet(y) - _binet(s) - y * math.log1p(x / y)
    return math.sqrt(2.0 * math.pi / y) * math.exp(e) * (x / s) ** (x - 0.5)


# the seven printed tail coefficients of the sixth-root expansion, exact
RAMANUJAN_TAIL_COEFFS = (
    Fraction(1, 30),
    Fraction(-11, 240),
    Fraction(79, 3360),
    Fraction(3539, 201600),
    Fraction(-9511, 403200),
    Fraction(-10051, 716800),
    Fraction(47474887, 1277337600),
)
_RAMANUJAN_TAIL_FLOAT = tuple(float(c) for c in RAMANUJAN_TAIL_COEFFS)


def ramanujan_gamma(x: float, terms: int = 7) -> GammaEstimate:
    """Gamma(x+1) via sqrt(pi) (x/e)^x (8x^3+4x^2+x+ tail)^(1/6).

    ``terms`` selects how many of the seven rational tail coefficients
    enter (0 keeps only the cubic).  The error bound is the first two
    omitted tail terms over 6 body (the seventh coefficient's size stands
    in for unknown ones) plus the rounding of the exponent y, which exp
    turns into relative error: x ulps of log x and a few of |y|.  Against
    mpmath it holds on x in [1, 170] for every ``terms``.
    """
    if not x >= 1.0:
        raise DomainError(f"ramanujan_gamma needs x >= 1, got {x}")
    if not 0 <= terms <= 7:
        raise RangeError(f"terms must be in 0..7, got {terms}")
    body = 8.0 * x ** 3 + 4.0 * x * x + x
    p = 1.0
    for j in range(terms):
        body += _RAMANUJAN_TAIL_FLOAT[j] * p
        p /= x
    log_x = math.log(x)
    y = 0.5 * math.log(math.pi) + x * (log_x - 1.0) + math.log(body) / 6.0
    value = math.exp(y)
    first = abs(_RAMANUJAN_TAIL_FLOAT[min(terms, 6)])
    second = abs(_RAMANUJAN_TAIL_FLOAT[min(terms + 1, 6)])
    truncation = (first + second / x) * p / (6.0 * body)
    rounding = sys.float_info.epsilon * (x * log_x + 2.0 * abs(y) + 4.0)
    return GammaEstimate(value=value, error_bound=value * (truncation + rounding),
                         method="ramanujan_series")


# the 14-entry record of theta as (x, printed 4-decimal value); the last
# row is the limit x -> infinity, evaluated at x = 1e6.  Two printed values
# (x = 6/12 and 11/12) are truncated rather than rounded in the source.
THETA_RECORD = tuple(zip(
    (0.0,) + tuple(k / 12.0 for k in range(1, 12)) + (1.0, 1e6),
    (0.9675, 0.8071, 0.6160, 0.4867, 0.4029, 0.3509, 0.3207,
     0.3058, 0.3014, 0.3041, 0.3118, 0.3227, 0.3359, 1.0),
))

_THETA_SWITCH = 10.0


def _theta_large(x: float) -> float:
    # G(x)^6 = 8x^3 exp(6 S(x)) with S the Stirling tail, so
    # theta = 240 x^3 [exp(6S) - 1 - 1/(2x) - 1/(8x^2)]; expanding the
    # bracket term by term removes the cancellation that would otherwise
    # eat ~x^3 digits.
    if x > 1e15:
        return 1.0 - 11.0 / (8.0 * x)
    inv2 = 1.0 / (x * x)
    p = inv2 / x
    tail = 0.0
    for c in _STIRLING_C[1:]:
        tail += c * p
        p *= inv2
    tail *= 6.0
    lead = 0.5 / x
    s6 = lead + tail
    quad = 0.5 * tail * (s6 + lead)
    cubic = 0.0
    t = s6 ** 3 / 6.0
    first = abs(t)
    m = 3
    while m < 30:
        cubic += t
        m += 1
        t *= s6 / m
        if abs(t) <= 1e-22 * first:
            break
    return 240.0 * x ** 3 * (tail + quad + cubic)


def theta(x: float) -> float:
    """Sixth-root correction term: 30 (G(x)^6 - 8x^3 - 4x^2 - x).

    G(x) = (e/x)^x Gamma(1+x)/sqrt(pi).  A proper fraction for all finite
    x >= 0, equal to 30/pi^3 at 0 and increasing to 1 as x -> infinity.
    """
    if not x >= 0.0:
        raise DomainError(f"theta needs x >= 0, got {x}")
    if x == 0.0:
        return 30.0 / math.pi ** 3
    if x >= _THETA_SWITCH:
        return _theta_large(x)
    log_g = x - x * math.log(x) + log_gamma(1.0 + x) - 0.5 * math.log(math.pi)
    return 30.0 * (math.exp(6.0 * log_g) - 8.0 * x ** 3 - 4.0 * x * x - x)


@dataclass(frozen=True)
class DeTempleValues:
    """D_n, R_n and the scaled gap big_h = n^2 (R_n - gamma).

    ``r_minus_gamma`` carries the gap to full relative precision (measured
    within 4e-16 of mpmath up to n = 1e15); forming it from ``r_n`` would
    throw most of that away.
    """

    n: int
    d_n: float
    r_n: float
    big_h: float
    r_minus_gamma: float


# (1 - 2^(1-2j)) B_{2j} / (2j): asymptotic series for psi(n+1) - log(n+1/2)
_DETEMPLE_Q = tuple(
    float((1 - Fraction(2) ** (1 - 2 * j)) * b / (2 * j)) for j, b in enumerate(_BERNOULLI, 1)
)

_DETEMPLE_SERIES_MIN = 32


def _detemple_gap_series(n: int) -> float:
    # R_n - gamma = psi(n+1) - log(n+1/2), expanded at z = n + 1/2;
    # no cancellation, full relative precision for n >= ~20
    z = n + 0.5
    inv2 = 1.0 / (z * z)
    p = inv2
    s = 0.0
    for q in _DETEMPLE_Q:
        s += q * p
        p *= inv2
    return s


def detemple(n: int) -> DeTempleValues:
    """DeTemple record at n: D_n, R_n, and H(n) = n^2 (R_n - gamma).

    O(1) in n.  From n = 32 on, with the gap R_n - gamma = psi(n+1) -
    log(n+1/2) from its asymptotic series, H_n = gamma + log(n+1/2) + gap
    gives R_n = gamma + gap and D_n = gamma + log1p(1/(2n)) + gap.  Below
    32 the harmonic number is a compensated sum of its n terms, and the
    gap is H_n - log(n+1/2) - gamma in 40-digit decimal arithmetic, which
    its cancellation leaves over 30 digits of.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"detemple needs integer n >= 1, got {n}")
    n = int(n)
    if n >= _DETEMPLE_SERIES_MIN:
        gap = _detemple_gap_series(n)
        d_n = EULER_GAMMA + math.log1p(0.5 / n) + gap
        r_n = EULER_GAMMA + gap
    else:
        harmonic = compensated_sum(1.0 / k for k in range(1, n + 1))
        d_n = harmonic - math.log(n)
        r_n = harmonic - math.log(n + 0.5)
        with localcontext(Context(prec=40)):
            exact = sum(Decimal(1) / k for k in range(1, n + 1))
            exact -= (Decimal(2 * n + 1) / 2).ln() + Decimal(_EULER_GAMMA_DIGITS)
            gap = float(exact)
    return DeTempleValues(n=n, d_n=d_n, r_n=r_n, big_h=n * n * gap, r_minus_gamma=gap)


def detemple_range(n_max: int) -> Iterator[DeTempleValues]:
    """Yield the DeTemple records for n = 1..n_max, each ``detemple(n)``."""
    if n_max < 1:
        raise DomainError(f"detemple_range needs n_max >= 1, got {n_max}")
    return (detemple(n) for n in range(1, int(n_max) + 1))


def karatsuba_euler_gamma(k: int) -> GammaEstimate:
    """Series estimate of the Euler-Mascheroni constant with proven bound c_k.

    value = 1 - log(k) sum_r d(k,r) + sum_r d(k,r)/(r+1) over r = 1..12k+1,
    d(k,r) = (-1)^(r-1) k^(r+1) / ((r-1)! (r+1)), and the series is within
    c_k = 2/(12k)! + 2 k^2 e^(-k) of gamma.

    The terms reach ~e^k, about 0.4343 k decimal digits, before cancelling
    back to O(1), so they run through the ratio recurrence
    d(k,r+1) = d(k,r) (-k)(r+1)/(r(r+2)) in decimal arithmetic carrying 30
    digits beyond that peak.  The one rounding that matters is the final
    one to binary64, so ``error_bound`` = c_k + ulp(value) and
    |value - gamma| <= error_bound holds for every k in 1..200.  Once c_k
    drops below one ulp, from k = 43 on, value is the binary64 nearest
    gamma.
    """
    if k != int(k) or not 1 <= k <= 200:
        raise RangeError(f"k must be an integer in [1, 200], got {k}")
    k = int(k)
    with localcontext(Context(prec=int(0.4343 * k) + 30)):
        d = Decimal(k * k) / 2  # d(k,1)
        s1 = s2 = Decimal(0)
        for r in range(1, 12 * k + 2):
            s1 += d
            s2 += d / (r + 1)
            d = d * (-k * (r + 1)) / (r * (r + 2))
        value = float(1 - s1 * Decimal(k).ln() + s2)
    c_k = 2.0 * k * k * math.exp(-k)
    c_k += float(Fraction(2, math.factorial(12 * k)))
    return GammaEstimate(value=value, error_bound=c_k + math.ulp(value), method="karatsuba_series")


_MONO_F_LIMIT = 1.0 - EULER_GAMMA
_MONO_F_SLOPE = (math.pi ** 2 / 6.0 - 2.0 + EULER_GAMMA) / 2.0


def mono_f(x: float) -> float:
    """log Gamma(x+1) / (x log x), continued through the x = 1 hole.

    Strictly increasing on (0, infinity) onto (0, 1); the value at the
    removable singularity is 1 - gamma.  Needs a finite x > 0.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"mono_f needs a finite x > 0, got {x}")
    t = x - 1.0
    if abs(t) <= 1e-5:
        return _MONO_F_LIMIT + _MONO_F_SLOPE * t
    return log_gamma(x + 1.0) / (x * math.log(x))


def lemma_g(x: float) -> float:
    """sum_{n>=1} (n-x)/(n+x)^3 = Psi'(1+x) + x Psi''(1+x), positive on
    x > -1; needs a finite x > -1.

    O(1) in x: the terms up to y = 1 + x + m >= 12 are added directly, the
    rest is G(y) - m Psi''(y), G(y) = Psi'(y) + (y-1) Psi''(y), from the
    asymptotic series (DLMF 5.15.8) through B_16.  The 1/y terms of Psi'
    and y Psi'' cancel on paper, so G's series starts at 1/(2y^2) and
    large x loses no digits: relative error below 2e-15 up to x ~ 1e150,
    subnormal past x ~ 1e154.
    """
    if not -1.0 < x < math.inf:
        raise DomainError(f"lemma_g needs a finite x > -1, got {x}")
    m = max(0, math.ceil(_LEMMA_G_SHIFT - 1.0 - x))
    head = [(n - x) / (n + x) ** 3 for n in range(1, m + 1)]
    c = 1.0 + m
    inv = 1.0 / (x + c)  # y = 1 + x + m with a single rounding
    inv2 = inv * inv
    # y^2 (G(y) - m Psi''(y)) ~ (m + 1/2) + (m + 1)/y
    #   + sum_k B_2k [(2k+1)(m+1)/y - 2k] / y^(2k-1); with y^-2 factored
    # out only the last product can underflow
    t = c - 0.5 + c * inv
    p = inv
    for k, b in enumerate(_B2N, 1):
        t += b * ((2 * k + 1) * c * inv - 2 * k) * p
        p *= inv2
    head.append(inv * (inv * t))
    return compensated_sum(head)


def lemma_h(x: float) -> float:
    """x^2 Psi'(1+x) - x Psi(1+x) + log Gamma(1+x); zero at x = 0,
    nonnegative on (-1, infinity).  Needs a finite x > -1."""
    if not -1.0 < x < math.inf:
        raise DomainError(f"lemma_h needs a finite x > -1, got {x}")
    if x == 0.0:
        return 0.0
    return x * x * trigamma(1.0 + x) - x * digamma(1.0 + x) + log_gamma(1.0 + x)
