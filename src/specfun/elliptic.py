"""Complete elliptic integrals, their generalizations, and the ring modulus.

The classical integrals ride the arithmetic-geometric mean: K from the
AGM limit, E from the companion c_n^2 sum.  The generalized integrals of
signature parameter a are (pi/2) 2F1(a, 1-a; 1; r^2) and
(pi/2) 2F1(a-1, 1-a; 1; r^2), evaluated through the hypergeometric
engine with exact complements.  The ring modulus

    mu_a(r) = pi/(2 sin(pi a)) * F(a,1-a;1;1-r^2) / F(a,1-a;1;r^2)

takes both of its factors from one series in s^2 = min(r, r')^2 <= 1/2:
the 2F1 series of F(a,1-a;1;s^2) together with the logarithmic series of
F(a,1-a;1;1-s^2) (DLMF 15.8.10), whose terms are all positive, so mu_a
stays accurate deep into both corners (a = 1/2 uses the AGM instead).
sin(pi a) is gamma.sinpi, exact also for a next to 0 or 1.  Inverting
mu_a uses the symmetry
mu_a(r) mu_a(r') = (pi/(2 sin(pi a)))^2 to keep the numeric root finder on
the well-conditioned half r <= 1/sqrt(2).  There it runs Newton in log r
from the asymptote mu_a(r) ~ R_a/2 - log r (taken to three terms), with
the closed-form slope

    d mu_a / d(log r) = -1 / (r'^2 F(a,1-a;1;r^2)^2)

(Anderson-Qiu-Vamanamurthy-Vuorinen), whose F is the denominator of mu_a,
so each step costs one mu_a evaluation; most solves take one or two.
Once the target is deep enough that the error of exp(R_a/2 - y) is below
roundoff, that asymptote is the answer.

Short of that, once y is 12 above R_a/2 (roots below about e^-12), the
three-term start of Newton is itself the root: the terms it drops are
below e^(-72), so no mu_a evaluation confirms it.

The two constants of a that mu_a and its inverse need, R_a and
sin(pi a), live on the SignatureParam record.  mu_a, mu_a_inverse,
phi_k_a and mu_a_unguarded take the caller's record or look a float a
up in a bounded memo of records (64 entries), so a process builds the
record of a given a once, not once per call or per mu_a evaluation.
k_a, e_a and the ODE residuals need neither constant and take the plain
float.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

from .errors import BracketError, DomainError
from .gamma import EULER_GAMMA, digamma_reflected, sinpi
from .hyper import hyp2f1
from . import kernel

__all__ = [
    "SignatureParam",
    "ModulusPoint",
    "agm",
    "ellip_k",
    "ellip_e",
    "ellip_k_prime",
    "ellip_e_prime",
    "k_a",
    "e_a",
    "k_a_prime",
    "e_a_prime",
    "mu",
    "mu_a",
    "mu_a_inverse",
    "mu_a_unguarded",
    "phi_k",
    "phi_k_a",
    "legendre_residual",
    "generalized_legendre_residual",
    "ellipse_perimeter",
    "muir_approx",
    "upper_approx",
    "ode_residual",
    "schwarzian_residual",
    "ODE_IDS",
]

_MU_GUARD = 1e-7  # public mu_a refuses closer to the endpoints than this


@dataclass(frozen=True)
class SignatureParam:
    """Signature parameter a in (0, 1) with the two constants of a that the
    ring modulus needs, each computed once, here:

    * r_a: Ramanujan's R(a, 1-a) = -2 gamma - psi(a) - psi(1-a), the h_0
      of mu_a's series and the asymptote mu_a(r) ~ r_a/2 - log r; from
      one digamma, bit-identical to hyper.ramanujan_R(a, 1.0 - a);
    * sin_pi_a: gamma.sinpi(a), of the symmetry value pi/(2 sin(pi a)).

    Every function taking a signature parameter accepts this record in
    place of the float.  mu_a, mu_a_inverse, phi_k_a and mu_a_unguarded
    turn a float a into its record through a memo of the last 64 a, so a
    process builds the record of one a once; a record built here directly
    is not memoized.  R_a overflows for a below about 5.6e-309, which
    raises RangeError (on every call: errors are not memoized).
    """

    a: float
    r_a: float = field(init=False, repr=False, compare=False)
    sin_pi_a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = float(self.a)
        if not 0.0 < a < 1.0:
            raise DomainError(f"signature parameter must lie in (0, 1), got {a}")
        psi_a, psi_b = digamma_reflected(a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r_a", -2.0 * EULER_GAMMA - psi_a - psi_b)
        object.__setattr__(self, "sin_pi_a", sinpi(a))


@dataclass(frozen=True)
class ModulusPoint:
    r: float
    r_prime: float

    @staticmethod
    def from_r(r: float) -> "ModulusPoint":
        if not 0.0 < r < 1.0:
            raise DomainError(f"modulus must lie in (0, 1), got {r}")
        return ModulusPoint(r=r, r_prime=math.sqrt((1.0 - r) * (1.0 + r)))


def _sig(a) -> float:
    if isinstance(a, SignatureParam):
        return a.a
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DomainError(f"signature parameter must lie in (0, 1), got {a}")
    return a


_RECORD_MEMO_SIZE = 64  # a registry pass uses 20 distinct a, inverse solves 4


@functools.lru_cache(maxsize=_RECORD_MEMO_SIZE)
def _memo_record(a: float) -> SignatureParam:
    # records are frozen and compare by a, so a hit is the record a fresh
    # build would give; lru_cache caches no exception
    return SignatureParam(a)


def _record(a) -> SignatureParam:
    return a if isinstance(a, SignatureParam) else _memo_record(float(a))


def _complement(r: float) -> float:
    # (1-r)(1+r) loses nothing; 1 - r*r loses half the digits near r = 1
    return (1.0 - r) * (1.0 + r)


def agm(x: float, y: float) -> float:
    """Common limit of the arithmetic-geometric mean iteration."""
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"agm needs positive arguments, got ({x}, {y})")
    a, b = float(x), float(y)
    if a < b:
        a, b = b, a
    for _ in range(100):
        if a - b <= 4.0 * math.ulp(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellip_k(r: float) -> float:
    """K(r) = pi / (2 agm(1, r')); diverges at r = 1."""
    if not 0.0 <= r < 1.0:
        if r == 1.0:
            raise OverflowError("K(1) = +infinity")
        raise DomainError(f"ellip_k needs r in [0, 1), got {r}")
    return math.pi / (2.0 * agm(1.0, math.sqrt(_complement(r))))


def ellip_k_prime(r: float) -> float:
    """K(r') = pi / (2 agm(1, r)); diverges at r = 0."""
    if not 0.0 < r <= 1.0:
        if r == 0.0:
            raise OverflowError("K'(0) = +infinity")
        raise DomainError(f"ellip_k_prime needs r in (0, 1], got {r}")
    return math.pi / (2.0 * agm(1.0, r))


def _ellip_e_core(m: float, m_prime: float) -> float:
    # E at modulus m, complement m': AGM with the 2^(n-1) c_n^2 correction
    if m == 0.0:
        return 0.5 * math.pi
    if m == 1.0:
        return 1.0
    a, b = 1.0, m_prime
    csum = 0.5 * m * m
    weight = 1.0
    for _ in range(100):
        if a - b <= 4.0 * math.ulp(a):
            break
        c = 0.5 * (a - b)
        csum += weight * c * c
        weight *= 2.0
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    k_val = math.pi / (a + b)
    return k_val * (1.0 - csum)


def ellip_e(r: float) -> float:
    """E(r) on [0, 1]; E(0) = pi/2, E(1) = 1."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"ellip_e needs r in [0, 1], got {r}")
    return _ellip_e_core(r, math.sqrt(_complement(r)))


def ellip_e_prime(r: float) -> float:
    """E(r') on [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"ellip_e_prime needs r in [0, 1], got {r}")
    return _ellip_e_core(math.sqrt(_complement(r)), r)


def k_a(a, r: float) -> float:
    """First-kind generalized integral (pi/2) F(a, 1-a; 1; r^2)."""
    a = _sig(a)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"k_a needs r in [0, 1), got {r}")
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, r * r, one_minus_x=_complement(r))


def k_a_prime(a, r: float) -> float:
    """k_a at the complementary modulus."""
    a = _sig(a)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"k_a_prime needs r in (0, 1], got {r}")
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, _complement(r), one_minus_x=r * r)


def e_a(a, r: float) -> float:
    """Second-kind generalized integral (pi/2) F(a-1, 1-a; 1; r^2);
    e_a(1) = sin(pi a) / (2(1-a)) in closed form."""
    a = _sig(a)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"e_a needs r in [0, 1], got {r}")
    if r == 1.0:
        return sinpi(a) / (2.0 * (1.0 - a))
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, r * r, one_minus_x=_complement(r))


def e_a_prime(a, r: float) -> float:
    """e_a at the complementary modulus."""
    a = _sig(a)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"e_a_prime needs r in [0, 1], got {r}")
    if r == 0.0:
        return sinpi(a) / (2.0 * (1.0 - a))
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, _complement(r), one_minus_x=r * r)


def _mu_series(sig: SignatureParam, x: float):
    """(F, E) = (sum c_n x^n, sum c_n h_n x^n) for 0 <= x <= 1/2.

    c_n = (a)_n (1-a)_n / n!^2 are the coefficients of F(a,1-a;1;x) and
    h_n = 2 psi(n+1) - psi(a+n) - psi(1-a+n), so that
    F(a,1-a;1;1-x) = (sin(pi a)/pi) (E - F log x) (DLMF 15.8.10).  Every
    term is positive: h_0 = R_a, and h_n falls to 0 from above since
    1/(a+n) + 1/(1-a+n) >= 2/(n+1/2).  The term ratio is below x <= 1/2,
    so once both new terms are under 1e-17 of their sums the tail is
    below the last term.  Terms stay under max(1, h_0) x^n, so the sums
    are finite wherever R_a is.  The counter n is a float: the loop is
    float-only.
    """
    a = sig.a
    p = a * (1.0 - a)  # (a+n)(1-a+n) = n(n+1) + p
    h = sig.r_a
    c = f = 1.0
    e = h
    n = 0.0
    while True:
        q = n * (n + 1.0) + p
        n += 1.0
        c *= q * x / (n * n)
        h += 2.0 / n - (2.0 * n - 1.0) / q
        t = c * h
        f += c
        e += t
        if c <= 1e-17 * f and t <= 1e-17 * e:
            return f, e


def _mu_and_slope(sig: SignatureParam, r: float):
    """(mu_a(r), d mu_a / d(log r)) without the public endpoint guard.

    Away from a = 1/2 (where the AGM is cheaper) one series in
    s^2 = min(r, r')^2 <= 1/2 gives both factors of mu_a: with
    (F, E) = _mu_series(sig, s^2), F is F(a,1-a;1;s^2) and
    (sin(pi a)/pi) (E - 2 F log s) is F(a,1-a;1;1-s^2).  For r <= 1/sqrt(2)
    the sine cancels, mu_a(r) = E/(2F) - log r.
    """
    x, xc = r * r, _complement(r)
    if sig.a == 0.5:
        g = agm(1.0, math.sqrt(xc))  # F(1/2, 1/2; 1; r^2) = 1 / g
        return 0.5 * math.pi * g / agm(1.0, r), -g * g / xc
    if x <= xc:
        f, e = _mu_series(sig, x)
        return 0.5 * e / f - math.log(r), -1.0 / (xc * f * f)
    k = sig.sin_pi_a / math.pi
    f, e = _mu_series(sig, xc)
    den = k * (e - f * math.log(xc))  # F(a,1-a;1;r^2)
    return 0.5 * f / (k * den), -1.0 / (xc * den * den)


def mu_a_unguarded(a, r: float) -> float:
    """mu_a(r) for any r in (0, 1), without mu_a's 1e-7 endpoint guard; a
    is a float or a SignatureParam.  Within about 1e-15 relative of mpmath
    from r = 1e-12 to 1 - 1e-12."""
    sig = _record(a)
    if not 0.0 < r < 1.0:
        raise DomainError(f"mu_a_unguarded needs r in (0, 1), got {r}")
    return _mu_and_slope(sig, r)[0]


def mu(r: float) -> float:
    """Plane ring modulus pi K'(r) / (2 K(r))."""
    return mu_a(0.5, r)


def mu_a(a, r: float) -> float:
    """Generalized ring modulus; decreasing homeomorphism of (0,1) onto
    (0, infinity).  Refuses r within 1e-7 of either endpoint rather than
    degrade silently."""
    sig = _record(a)
    if not _MU_GUARD <= r <= 1.0 - _MU_GUARD:
        raise DomainError(f"mu_a supports r in [{_MU_GUARD}, {1 - _MU_GUARD}], got {r}")
    return _mu_and_slope(sig, r)[0]


_INVERT_TOL = 1e-13
_ASYM_MARGIN = 25.0  # use the log asymptote once -log(root) exceeds this
_START_MARGIN = 12.0  # the three-term start is the root once -log(root) exceeds this
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_HALF = math.log(_SQRT_HALF)
_LOG_BRACKET = (math.log(1e-15), math.log(_SQRT_HALF + 0.01))


def _mu_inverse_start(a: float, y: float, r_half: float) -> float:
    """log r at the root of the three-term asymptote of mu_a(r) = y.

    mu_a(r) = E/(2F) - log r = R_a/2 - log r + (E - R_a F) / (2F) exactly,
    with (F, E) the sums of _mu_series at x = r^2.  Truncating F and
    E - R_a F = sum c_n (h_n - R_a) x^n after x^2 misses the root by under
    0.02 in log r on r <= 1/sqrt(2), and by under 2e-7 below r = 0.1.
    """
    p = a * (1.0 - a)
    e1, e2 = 2.0 * p - 1.0, 0.25 * (3.0 * p * p + 2.0 * p - 2.0)
    f1, f2 = p, 0.25 * p * (p + 2.0)
    t = r_half - y
    for _ in range(3):  # Newton, with the slope of the one-term correction
        x = math.exp(2.0 * t)
        corr = (e1 * x + e2 * x * x) / (2.0 * (1.0 + f1 * x + f2 * x * x))
        t += (r_half - y - t + corr) / (1.0 - e1 * x)
    return t


def _mu_inverse_lower(sig: SignatureParam, y: float) -> float:
    # the root r <= 1/sqrt(2) of mu_a(r) = y >= pi/(2 sin(pi a)); 0.0 on underflow
    r_half = 0.5 * sig.r_a
    if y >= r_half + _ASYM_MARGIN:
        # mu_a(r) = R_a/2 - log r + O(r^2); the dropped term is below
        # e^(-2*margin) here, far under roundoff
        return math.exp(r_half - y)
    # the root lies at or below 1/sqrt(2); the start may overshoot it there
    t0 = min(_mu_inverse_start(sig.a, y, r_half), _LOG_SQRT_HALF)
    if y >= r_half + _START_MARGIN:
        # the start drops terms of order r^6 < e^(-72), with a coefficient
        # bounded in a: its residual is within max(1e-13, ulp(y)) already
        return math.exp(t0)
    # from y = 512 on one ulp of y exceeds _INVERT_TOL, so no r could meet it
    tol = max(_INVERT_TOL, math.ulp(y))
    res = kernel.invert_monotone(
        lambda t: _mu_and_slope(sig, math.exp(t)), y, *_LOG_BRACKET, tol=tol, x0=t0
    )
    return math.exp(res.root)


def mu_a_inverse(a, y: float) -> float:
    """Solve mu_a(r) = y for r in (0, 1).

    Targets below the symmetry value pi/(2 sin(pi a)) are mapped through
    mu_a(r) mu_a(r') = (pi/(2 sin(pi a)))^2 so the root finder only ever
    runs on r <= 1/sqrt(2), where one ulp of r moves mu_a by O(ulp).
    Raises BracketError when the root is closer to 1 than binary64 can
    represent (saturating endpoint 1.0) or below the smallest normal
    float (saturating endpoint 0.0).

    Targets y from R_a/2 + 12 on (roots below about e^-12) return the
    root of the three-term asymptote with no mu_a evaluation, and from
    R_a/2 + 25 on the one-term exp(R_a/2 - y).  A float a reads its
    SignatureParam from the memo of records, built once per a.
    """
    sig = _record(a)
    if not y > 0.0:
        raise DomainError(f"mu_a_inverse needs y > 0, got {y}")
    c_sym = 0.5 * math.pi / sig.sin_pi_a
    if y < c_sym:
        rc = _mu_inverse_lower(sig, c_sym * c_sym / y)
        root = math.sqrt((1.0 - rc) * (1.0 + rc))
        if root >= 1.0:
            raise BracketError(
                f"mu_a^-1({y}) is closer to 1 than binary64 resolves",
                saturating_endpoint=1.0,
            )
        return root
    root = _mu_inverse_lower(sig, y)
    if root < sys.float_info.min:
        raise BracketError(
            f"mu_a^-1({y}) underflows binary64", saturating_endpoint=0.0
        )
    return root


def phi_k_a(a, big_k: float, r: float) -> float:
    """Modular function: the s with mu_a(s) = mu_a(r) / K."""
    sig = _record(a)
    if not big_k > 0.0:
        raise DomainError(f"phi_k_a needs K > 0, got {big_k}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"phi_k_a needs r interior to (0, 1), got {r}")
    return mu_a_inverse(sig, _mu_and_slope(sig, r)[0] / big_k)


def phi_k(big_k: float, r: float) -> float:
    """Classical modular function (signature parameter 1/2)."""
    return phi_k_a(0.5, big_k, r)


def legendre_residual(r: float) -> float:
    """E K' + E' K - K K' - pi/2 (identically zero)."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"legendre_residual needs r in (0, 1), got {r}")
    k = ellip_k(r)
    kp = ellip_k_prime(r)
    return ellip_e(r) * kp + ellip_e_prime(r) * k - k * kp - 0.5 * math.pi


def generalized_legendre_residual(a, r: float) -> float:
    """e_a k_a' + e_a' k_a - k_a k_a' - pi sin(pi a) / (4(1-a))."""
    a = _sig(a)
    if not 0.0 < r < 1.0:
        raise DomainError(f"needs r in (0, 1), got {r}")
    ka = k_a(a, r)
    kap = k_a_prime(a, r)
    rhs = math.pi * sinpi(a) / (4.0 * (1.0 - a))
    return e_a(a, r) * kap + e_a_prime(a, r) * ka - ka * kap - rhs


def ellipse_perimeter(b: float) -> float:
    """Perimeter of the ellipse with semiaxes 1 and b: 4 E(e), e^2 = 1 - b^2."""
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"semiaxis must lie in [0, 1], got {b}")
    return 4.0 * ellip_e(math.sqrt(_complement(b)))


def muir_approx(b: float) -> float:
    """Power-mean lower approximation 2 pi ((1 + b^(3/2))/2)^(2/3)."""
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"semiaxis must lie in [0, 1], got {b}")
    return 2.0 * math.pi * ((1.0 + b ** 1.5) / 2.0) ** (2.0 / 3.0)


def upper_approx(b: float) -> float:
    """Quadratic-mean upper approximation 2 pi sqrt((1 + b^2)/2)."""
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"semiaxis must lie in [0, 1], got {b}")
    return 2.0 * math.pi * math.sqrt((1.0 + b * b) / 2.0)


ODE_IDS = ("ka_ode", "ea_ode", "lemniscate_ode")
_GUARD = 0.05


def ode_residual(which: str, a, r: float) -> float:
    """Residual of the second-order ODE satisfied by k_a, e_a, or the
    square-root-argument solution F(a, 1-a; 1; sqrt(1-z^2)).

    Derivatives are stencil-based; callers should expect ~1e-5 noise.
    Arguments outside the guard band (0.05, 0.95) are refused.
    """
    if which not in ODE_IDS:
        raise DomainError(f"unknown ode {which!r}; use one of {ODE_IDS}")
    a = _sig(a)
    if not _GUARD < r < 1.0 - _GUARD:
        raise DomainError(f"guard band violation: r must lie in ({_GUARD}, {1 - _GUARD})")
    if which == "ka_ode":
        f = lambda t: k_a(a, t)
        d1 = kernel.derivative(f, r, order=1, domain=(0.0, 1.0))
        d2 = kernel.derivative(f, r, order=2, domain=(0.0, 1.0))
        return r * _complement(r) * d2 + (1.0 - 3.0 * r * r) * d1 - 4.0 * a * (1.0 - a) * r * f(r)
    if which == "ea_ode":
        f = lambda t: e_a(a, t)
        d1 = kernel.derivative(f, r, order=1, domain=(0.0, 1.0))
        d2 = kernel.derivative(f, r, order=2, domain=(0.0, 1.0))
        return r * _complement(r) * d2 + _complement(r) * d1 + 4.0 * (1.0 - a) ** 2 * r * f(r)

    def w(t):
        arg = math.sqrt(_complement(t))
        return hyp2f1(a, 1.0 - a, 1.0, arg, one_minus_x=t * t / (1.0 + arg))

    big_z = math.sqrt(_complement(r))
    one_minus_z = r * r / (1.0 + big_z)
    d1 = kernel.derivative(w, r, order=1, domain=(0.0, 1.0))
    d2 = kernel.derivative(w, r, order=2, domain=(0.0, 1.0))
    return (
        big_z ** 3 * one_minus_z * r * d2
        - (big_z * one_minus_z + (1.0 - 2.0 * big_z) * big_z * r * r) * d1
        - a * (1.0 - a) * r ** 3 * w(r)
    )


def schwarzian_residual(a, r: float, step: float = None) -> float:
    """Schwarzian derivative of mu_a minus its closed form

    -8a(1-a)/(r')^2 + (1 + 6r^2 - 3r^4) / (2 r^2 (r')^4).

    Third-derivative stencils are noisy; expect ~1e-3 agreement at the
    default step 1e-2 r(1-r), improving superquadratically as the step
    shrinks.
    """
    sig = _record(a)
    a = sig.a
    if not 0.1 < r < 0.9:
        raise DomainError(f"schwarzian guard band is (0.1, 0.9), got r = {r}")
    h = 1e-2 * r * (1.0 - r) if step is None else float(step)
    f = lambda t: _mu_and_slope(sig, t)[0]
    w1 = kernel.derivative(f, r, order=1, step=h, domain=(0.0, 1.0))
    w2 = kernel.derivative(f, r, order=2, step=h, domain=(0.0, 1.0))
    w3 = kernel.derivative(f, r, order=3, step=h, domain=(0.0, 1.0))
    s_val = w3 / w1 - 1.5 * (w2 / w1) ** 2
    rp2 = _complement(r)
    rhs = -8.0 * a * (1.0 - a) / rp2 + (1.0 + 6.0 * r * r - 3.0 * r ** 4) / (2.0 * r * r * rp2 * rp2)
    return s_val - rhs
