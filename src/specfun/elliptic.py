"""Complete elliptic integrals, their generalizations, and the ring modulus.

The classical integrals ride the arithmetic-geometric mean: K from the
AGM limit, E from the companion c_n^2 sum.  The generalized integrals of
signature parameter a are K_a = (pi/2) 2F1(a, 1-a; 1; r^2) and
E_a = (pi/2) 2F1(a-1, 1-a; 1; r^2).  At a = 1/2, 1/4, 1/3 and 1/6 K_a and
K_a' = K_a(r') are one AGM loop built from r and r' (budgets in k_a and
k_a_prime): K itself at 1/2, the quadratic transformation onto K at 1/4
(DLMF 15.8(iii)), Borwein's cubic AGM at 1/3 (Borwein-Borwein 1991), and
at 1/6 m^(1/4) K(lam) through the j-invariant bridge that mu_a's closed
form shares (Berndt-Bhargava-Garvan 1995).  Any other K_a, and E_a at
every a, go through the hypergeometric engine with exact complements.
The ring modulus

    mu_a(r) = pi/(2 sin(pi a)) * F(a,1-a;1;1-r^2) / F(a,1-a;1;r^2)

takes both of its factors from one series in s^2 = min(r, r')^2 <= 1/2:
the 2F1 series of F(a,1-a;1;s^2) together with the logarithmic series of
F(a,1-a;1;1-s^2) (DLMF 15.8.10), whose terms are all positive, so mu_a
stays accurate deep into both corners.  At a = 1/2, 1/4, 1/3 and 1/6 mu_a
is instead -log(q)/2 for the nome q in closed form: Jacobi's nome series
of a classical modulus (DLMF 19.5) at 1/2 and 1/4, one step of Borwein's
cubic AGM at 1/3, and at 1/6 the j-invariant bridge to the classical
modulus at the same nome; within 3.5e-16, 3.5e-16, 4.2e-16 and 4.5e-16
of mpmath (measured), and no 2F1, series loop or AGM loop.
sin(pi a) is gamma.sinpi, exact also for a next to 0 or 1.  Inverting
mu_a uses the symmetry mu_a(r) mu_a(r') = (pi/(2 sin(pi a)))^2 to work on
the well-conditioned half r <= 1/sqrt(2), where the nome q = exp(-2 mu_a)
is at most exp(-pi / sin(pi a)).  At a = 1/2, 1/4, 1/3 and 1/6, the
signatures of Ramanujan's theories 2, 4, 3 and 6, r^2 is a theta or eta
quotient of q (Borwein-Borwein 1987; Berndt-Bhargava-Garvan 1995) that a
few terms take to roundoff: no root finder.  Any other a runs Newton in
log r from mu_a(r) ~ R_a/2 - log r (taken to three terms), with the slope

    d mu_a / d(log r) = -1 / (r'^2 F(a,1-a;1;r^2)^2)

(Anderson-Qiu-Vamanamurthy-Vuorinen), whose F is the denominator of mu_a,
so each step costs one mu_a evaluation; most solves take one or two.
r'^2 F^2 decreases (Anderson-Vamanamurthy-Vuorinen 1997), so mu_a is
concave decreasing in log r and Newton clamped to r <= 1/sqrt(2) needs
no bracket.
From y = R_a/2 + 12 on (roots below about e^-12) the three-term start is
itself the root, the terms it drops below e^(-72); from R_a/2 + 25 on it
is exp(R_a/2 - y) bit for bit, its correction below half an ulp of log r.

What mu_a and its inverse read of a (R_a, sin(pi a), the symmetry value
and, at the four signatures, both closed forms) sits on a private
immutable record; the series coefficients run their recurrence in each
evaluation.  Every function here takes a as a float; mu_a, mu_a_inverse
and phi_k_a look its record up in a bounded memo (64 entries), so a
process builds the record of a given a once, not once per call.
"""

import functools
import math
import sys
from collections import namedtuple

from .errors import BracketError, DomainError
from .gamma import sinpi
from .hyper import hyp2f1, hyp2f1_derivatives, ramanujan_R
from . import kernel

__all__ = [
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

def _check_signature(a) -> float:
    # the one owner of the rule 0 < a < 1 (DomainError outside, NaN too)
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DomainError(f"signature parameter must lie in (0, 1), got {a}")
    return a


# what mu_a and its inverse read of one signature parameter a: r_a =
# R(a, 1-a), the h_0 of mu_a's series and its asymptote r_a/2 - log r;
# sin_pi_a and c_sym = pi/(2 sin(pi a)), the symmetry value; and the
# first pair of its _SIGNATURES row (_GENERAL off the table), mu_closed(r)
# and mu_root(sig, y)
_Record = namedtuple("_Record", "a r_a sin_pi_a c_sym mu_closed mu_root")


@functools.lru_cache(maxsize=64)  # a registry pass uses 20 distinct a, inverse solves 4
def _memo_record(a: float) -> _Record:
    # lru_cache caches no exception, so a bad a raises on every call; R_a
    # overflows for a below about 5.6e-309, which raises RangeError
    a = _check_signature(a)
    r_a, sin_pi_a = ramanujan_R(a, 1.0 - a), sinpi(a)
    mu_closed, mu_root = _SIGNATURES.get(a, _GENERAL)[:2]
    return _Record(a, r_a, sin_pi_a, 0.5 * math.pi / sin_pi_a, mu_closed, mu_root)


_HALF_PI_SQ = 0.25 * math.pi * math.pi  # mu(k) mu(k') at a = 1/2
_FLOAT_MIN = sys.float_info.min  # the smallest normal float


def _complement(r: float) -> float:
    # (1-r)(1+r) loses nothing; 1 - r*r loses half the digits near r = 1
    return (1.0 - r) * (1.0 + r)


def agm(x: float, y: float) -> float:
    """Common limit of the arithmetic-geometric mean iteration; finite for
    any positive finite x and y, and within 1e-15 relative where the limit
    is a normal float (measured).  DomainError at an argument that is not
    positive and finite (inf and NaN too)."""
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise DomainError(f"agm needs positive finite arguments, got ({x}, {y})")
    a, b = float(x), float(y)
    if a < b:
        a, b = b, a
    ulp, sqrt, tiny, inf = math.ulp, math.sqrt, _FLOAT_MIN, math.inf
    for _ in range(100):
        if a - b <= 4.0 * ulp(a):
            break
        g = a * b  # past either end of the normal range, sqrt each factor
        g = sqrt(g) if tiny <= g < inf else sqrt(a) * sqrt(b)
        a, b = 0.5 * a + 0.5 * b, g
    return a + 0.5 * (b - a)  # exact b - a; 0.5 * b would drop a subnormal's last bit


def _cbrt(x: float) -> float:
    # x^(1/3) for x > 0 with one Newton step: the exponent 1/3 is rounded,
    # which puts about 2e-17 |log x| into the power (math.cbrt needs 3.11)
    y = x ** (1.0 / 3.0)
    return y - (y - x / (y * y)) / 3.0


def _agm3(b: float) -> float:
    # Borwein's cubic AGM of (1, b), 0 < b <= 1: a' = (a + 2b)/3 and
    # b' = (b (a^2 + ab + b^2)/3)^(1/3) meet cubically
    a = 1.0
    for _ in range(100):
        if a - b <= 4.0 * math.ulp(a):
            break
        a, b = (a + 2.0 * b) / 3.0, _cbrt(b * (a * a + a * b + b * b) / 3.0)
    return a + (b - a) * (2.0 / 3.0)


def ellip_k(r: float) -> float:
    """K(r) = pi / (2 agm(1, r')) for r in [0, 1); OverflowError at r = 1,
    where K diverges, and DomainError for any other r, NaN included."""
    if not 0.0 <= r < 1.0:
        if r == 1.0:
            raise OverflowError("K(1) = +infinity")
        raise DomainError(f"ellip_k needs r in [0, 1), got {r}")
    return math.pi / (2.0 * agm(1.0, math.sqrt(_complement(r))))


def ellip_k_prime(r: float) -> float:
    """K(r') = pi / (2 agm(1, r)) on (0, 1], within 6.7e-16 of mpmath, and
    log(4/r) below r = 1e-9, within 2e-16 (measured); OverflowError at r = 0,
    where K' diverges, and DomainError at any other r, NaN included."""
    if not 0.0 < r <= 1.0:
        if r == 0.0:
            raise OverflowError("K'(0) = +infinity")
        raise DomainError(f"ellip_k_prime needs r in (0, 1], got {r}")
    if r < 1e-9:  # K(r') = log(4/r) + O(r^2 log r), the rest below 3e-19 relative
        return math.log(4.0) - math.log(r)
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
    """First-kind generalized integral (pi/2) F(a, 1-a; 1; r^2), r in [0, 1).

    At a = 0.5, 0.25, 1/3 and 1/6 (these floats exactly) one AGM loop,
    ellip_k itself at 1/2 (_SIGNATURES): within 3.7e-16, 4.3e-16, 3.9e-16 and
    4.2e-16 of mpmath from r = 0 to 1 - 2^-53 (measured over 3,000 r), at
    1.4-2 us a call against 9-14 us through hyp2f1, which any other a
    takes with the exact complement.  k_a(a, 0) = pi/2 exactly at the four
    signatures."""
    a = _check_signature(a)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"k_a needs r in [0, 1), got {r}")
    k = _SIGNATURES.get(a, _GENERAL)[2]
    if k is not None:
        return k(r)
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, r * r, one_minus_x=_complement(r))


def k_a_prime(a, r: float) -> float:
    """k_a at the complementary modulus, (pi/2) F(a, 1-a; 1; 1 - r^2) for
    r in (0, 1]; finite down to r = 5e-324.

    At the four signatures the forms of k_a, built from r and not r^2
    (ellip_k_prime's bits and budget at 1/2); within 5.0e-16, 4.1e-16 and
    4.1e-16 of mpmath at 1/4, 1/3 and 1/6 (measured over 3,000 r), and
    k_a_prime(a, 1) = pi/2 exactly.  Any other a goes through hyp2f1, except
    where r^2 underflows (r below 1.5e-154), which costs the engine its
    digits: there the two-term asymptote sin(pi a)(R_a - 2 log r)/2 (DLMF
    15.8.10), whose next term is O(r^2 log r), is exact."""
    a = _check_signature(a)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"k_a_prime needs r in (0, 1], got {r}")
    k_prime = _SIGNATURES.get(a, _GENERAL)[3]
    if k_prime is not None:
        return k_prime(r)
    x = r * r
    if x < _FLOAT_MIN:
        return 0.5 * sinpi(a) * (ramanujan_R(a, 1.0 - a) - 2.0 * math.log(r))
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, _complement(r), one_minus_x=x)


def e_a(a, r: float) -> float:
    """Second-kind generalized integral (pi/2) F(a-1, 1-a; 1; r^2);
    e_a(1) = sin(pi a) / (2(1-a)) in closed form."""
    a = _check_signature(a)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"e_a needs r in [0, 1], got {r}")
    if r == 1.0:
        return sinpi(a) / (2.0 * (1.0 - a))
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, r * r, one_minus_x=_complement(r))


def e_a_prime(a, r: float) -> float:
    """e_a at the complementary modulus; once r^2 underflows (r = 0 too)
    the closed form e_a(1) = sin(pi a) / (2(1-a)), the rest being
    O(r^2 log r)."""
    a = _check_signature(a)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"e_a_prime needs r in [0, 1], got {r}")
    x = r * r
    if x < _FLOAT_MIN:
        return sinpi(a) / (2.0 * (1.0 - a))
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, _complement(r), one_minus_x=x)


def _k_quarter(r: float) -> float:
    # a = 1/4: F(1/4,3/4;1;r^2) = (1+r)^(-1/2) F(1/2,1/2;1;2r/(1+r)) (DLMF
    # 15.8(iii)), whose classical complement is sqrt((1-r)/(1+r)); the agm
    # is homogeneous, so (1+r)^(-1/2) folds into it, and 1 - r cancels nothing
    return math.pi / (2.0 * agm(math.sqrt(1.0 + r), math.sqrt(1.0 - r)))


def _k_quarter_prime(r: float) -> float:
    # _k_quarter at s = r': 1 - s = r^2/(1+s), so the pair is sqrt(1+s) and
    # r/sqrt(1+s), here scaled by sqrt(1+s) so that no subnormal r is rounded
    s = 1.0 + math.sqrt(_complement(r))
    return math.sqrt(s) * math.pi / (2.0 * agm(s, r))


def _k_third(r: float) -> float:
    # a = 1/3: F(1/3,2/3;1;1-b^3) = 1/AGM3(1, b) (Borwein-Borwein 1991)
    return math.pi / (2.0 * _agm3(_cbrt(_complement(r))))


def _k_third_prime(r: float) -> float:
    # b = (r^2)^(1/3), taken as cbrt(r)^2 since r^2 may underflow
    b = _cbrt(r)
    return math.pi / (2.0 * _agm3(b * b))


def _k_sixth(s: float, sc: float) -> float:
    # a = 1/6 at modulus s, complement sc: F(1/6,5/6;1;s^2) = m^(1/4)
    # F(1/2,1/2;1;lam), m = 1 - lam + lam^2, through _sixth_lambda on
    # s^2 <= 1/2; above, lam is 1 minus the complement's.  Below sc = 1e-17
    # the complement's lam is c sc to roundoff, c = 4/sqrt(27), and may be
    # subnormal; there m = 1 and K = log 4 - log(c sc)/2 exactly
    if sc < 1e-17:
        return 0.25 * _LOG_432 - 0.5 * math.log(sc)
    d = (sc - s) * (sc + s)  # 1 - 2 s^2
    lam, lamc = _sixth_lambda(s * sc, abs(d))
    m = 1.0 - lam * lamc
    return math.sqrt(math.sqrt(m)) * math.pi / (2.0 * agm(1.0, math.sqrt(lamc if d >= 0.0 else lam)))


def _mu_series(sig: _Record, x: float):
    """(F, E) = (sum c_n x^n, sum c_n h_n x^n) for 0 <= x <= 1/2.

    c_n = (a)_n (1-a)_n / n!^2 are the coefficients of F(a,1-a;1;x) and
    h_n = 2 psi(n+1) - psi(a+n) - psi(1-a+n), so that
    F(a,1-a;1;1-x) = (sin(pi a)/pi) (E - F log x) (DLMF 15.8.10).  Every
    term is positive: h_0 = R_a, and h_n falls to 0 from above since
    1/(a+n) + 1/(1-a+n) >= 2/(n+1/2).  The term ratio is below x <= 1/2,
    so once both new terms are under 1e-17 of their sums the tail is
    below the last term.  Terms stay under max(1, h_0) x^n, so the sums
    are finite wherever R_a is.  At x = 1/2 the sums stop after at most 49
    terms over a in [1e-6, 1 - 1e-6] (measured).
    """
    # c_k = c_{k-1} q / k^2 and h_k = h_{k-1} + 2/k - (2k-1)/q,
    # q = (a+k-1)(k-a) = (k-1)k + ab with b = 1-a; the counter k is a float
    ab = sig.a * (1.0 - sig.a)
    f, e, p, c, h, k = 1.0, sig.r_a, 1.0, 1.0, sig.r_a, 0.0
    while True:
        q = k * (k + 1.0) + ab
        k += 1.0
        c = c * q / (k * k)
        h += 2.0 / k - (2.0 * k - 1.0) / q
        p *= x
        u, v = c * p, c * h * p
        f += u
        e += v
        if u <= 1e-17 * f and v <= 1e-17 * e:
            return f, e


def _jacobi_mu(k: float, kc: float, log_k: float) -> float:
    """mu(k) for a modulus k <= kc, its complement kc and log k.

    Jacobi's nome q = exp(-2 mu) is l + 2l^5 + 15l^9 + 150l^13 + 1707l^17
    + ... with l = k^2/d, d = 2(1+k')(1+sqrt(k'))^2 (DLMF 19.5), and
    l <= 0.0433, so the terms dropped are under 1e-23 of q; then
    mu = log(d)/2 - log k - log1p(q/l - 1)/2.  At k > kc callers take
    (pi/2)^2 / mu(kc), so log k is computed only where it is read; it is
    passed in because k may round to 0 where log k is finite.
    """
    s = 1.0 + math.sqrt(kc)
    d = 2.0 * (1.0 + kc) * s * s
    l = k * k / d
    l4 = l * l
    l4 *= l4
    t = l4 * (2.0 + l4 * (15.0 + l4 * (150.0 + 1707.0 * l4)))  # q/l - 1
    return 0.5 * math.log(d) - log_k - 0.5 * math.log1p(t)


def _mu_half(r: float) -> float:
    # a = 1/2: the classical mu(r) itself
    rc = math.sqrt(_complement(r))
    if r > rc:
        return _HALF_PI_SQ / _jacobi_mu(rc, r, math.log(rc))
    return _jacobi_mu(r, rc, math.log(r))


def _mu_quarter(r: float) -> float:
    # a = 1/4: mu(k) at k = r/(1+r'), k'^2 = 2r'/(1+r'), the inverse of
    # _nome_quarter's map; -log k is log(1+r') - log r, as k may round to 0
    rc = math.sqrt(_complement(r))
    k, kc = r / (1.0 + rc), math.sqrt(2.0 * rc / (1.0 + rc))
    if k > kc:
        return _HALF_PI_SQ / _jacobi_mu(kc, k, math.log(kc))
    return _jacobi_mu(k, kc, math.log(r) - math.log1p(rc))


_LOG_3, _LOG_432, _PI_3, _PI_6 = math.log(3.0), math.log(432.0), math.pi / 3.0, math.pi / 6.0
# 27 q/x - 1 = x (5/9 + 31x/81 + 5729x^2/19683 + 41518x^3/177147 + ...) at a = 1/3
_CUBIC_NOME = (5.0 / 9.0, 31.0 / 81.0, 5729.0 / 19683.0, 41518.0 / 177147.0)


def _mu_third(x: float, xc: float, log_x: float) -> float:
    # mu_a at a = 1/3, x <= 1/2, by one step of Borwein's cubic AGM:
    # b = (1-x)^(1/3), g = (1+b+b^2)(1+2b), and x1 = (x/g)^3 =
    # ((1-b)/(1+2b))^3 <= 5.1e-4 has the nome q^3, so mu_a = -log(q^3)/6 =
    # log(3g/x)/2 - log1p(27 q^3/x1 - 1)/6; log x is passed in, as x may
    # underflow where it is finite
    b = xc ** (1.0 / 3.0)  # math.cbrt needs Python 3.11
    g = (1.0 + b * (1.0 + b)) * (1.0 + 2.0 * b)
    x1 = x / g
    x1 *= x1 * x1
    c1, c2, c3, c4 = _CUBIC_NOME
    t = x1 * (c1 + x1 * (c2 + x1 * (c3 + x1 * c4)))
    return 0.5 * (_LOG_3 + math.log(g) - log_x) - math.log1p(t) / 6.0


def _sixth_lambda(g: float, d: float):
    """(lam, 1 - lam) for lam = k^2 the classical modulus at the nome of
    theory 6 of x <= 1/2, from g = sqrt(x(1-x)) and d = 1 - 2x.

    The j-invariant bridge 1728/j = 4x(1-x) = 27u^2/(4(1-u)^3), u =
    lam(1-lam) (Berndt-Bhargava-Garvan 1995): v = u/(1-u) is the root
    (4/3) sin(pi/3-t) sin t of v^3 + v^2 = 16x(1-x)/27, t = atan2(2g, d)/3,
    and 1-4u = 4 sin^2(pi/6-t)/(1+v), so lam and 1-lam carry no
    cancellation.  lam <= 1/2, lam ~ (4/sqrt(27)) sqrt(x) for small x.
    """
    t = math.atan2(2.0 * g, d) / 3.0
    v = 4.0 / 3.0 * math.sin(_PI_3 - t) * math.sin(t)
    s = 2.0 * math.sin(_PI_6 - t) / math.sqrt(1.0 + v)  # sqrt(1 - 4u)
    return 2.0 * v / ((1.0 + v) * (1.0 + s)), 0.5 * (1.0 + s)


def _mu_sixth(x: float, xc: float, log_x: float) -> float:
    # mu_a at a = 1/6, x <= 1/2: mu_a(r) = 2 mu(k) for the k^2 = lam of
    # _sixth_lambda, and k <= 1/sqrt(2) <= k' there, as mu_a >= pi.  Below
    # x = 1e-16 the asymptote R_a/2 - log r (R_a = log 432) is exact
    if x < 1e-16:
        return 0.5 * (_LOG_432 - log_x)
    lam, lamc = _sixth_lambda(math.sqrt(x * xc), xc - x)
    return 2.0 * _jacobi_mu(math.sqrt(lam), math.sqrt(lamc), 0.5 * math.log(lam))


def _by_symmetry(core, c: float, r: float) -> float:
    # mu_a from core = mu_a on x <= 1/2; above, mu_a(r) mu_a(r') = c^2
    x, xc = r * r, _complement(r)
    if x <= xc:
        return core(x, xc, 2.0 * math.log(r))
    return c * c / core(xc, x, math.log(xc))


def _mu_and_slope(sig: _Record, r: float):
    """(mu_a(r), d mu_a / d(log r)) for r in (0, 1), unchecked, at any a:
    the mu_a of a signature without a closed form, and Newton's f and
    slope in _mu_inverse_lower.

    Both factors of mu_a come from one series in s^2 = min(r, r')^2 <= 1/2:
    with (F, E) = _mu_series(sig, s^2), F is F(a,1-a;1;s^2) and
    (sin(pi a)/pi) (E - 2 F log s) is F(a,1-a;1;1-s^2).  For
    r <= 1/sqrt(2) the sine cancels, mu_a(r) = E/(2F) - log r.
    """
    xc = _complement(r)
    x = r * r
    if x <= xc:
        f, e = _mu_series(sig, x)
        return 0.5 * e / f - math.log(r), -1.0 / (xc * f * f)
    k = sig.sin_pi_a / math.pi
    f, e = _mu_series(sig, xc)
    den = k * (e - f * math.log(xc))  # F(a,1-a;1;r^2)
    return 0.5 * f / (k * den), -1.0 / (xc * den * den)


def mu(r: float) -> float:
    """Plane ring modulus pi K'(r) / (2 K(r))."""
    return mu_a(0.5, r)


def mu_a(a, r: float) -> float:
    """Generalized ring modulus; decreasing homeomorphism of (0,1) onto
    (0, infinity).  Takes every r in (0, 1), subnormal or next to 1, else
    DomainError (NaN too).  Within 3.5e-16 relative of mpmath at a = 1/2
    and 1/4, 4.2e-16 at 1/3 and 4.5e-16 at 1/6, in closed form; at any
    other a within 6e-16 for r or 1 - r in [1e-15.5, 1e-7] and for r
    below 1e-9, but only within 2e-15 for r in [0.3, 0.96], where
    _mu_series's plain sums lose about 1e-15 (all measured)."""
    sig = _memo_record(a)
    if not 0.0 < r < 1.0:
        raise DomainError(f"mu_a needs r in (0, 1), got {r}")
    mu_closed = sig.mu_closed
    return mu_closed(r) if mu_closed is not None else _mu_and_slope(sig, r)[0]


_INVERT_TOL = 1e-13
_START_MARGIN = 12.0  # the three-term start is the root once -log(root) exceeds this
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_HALF = math.log(_SQRT_HALF)


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


def _mu_inverse_lower(sig: _Record, y: float) -> float:
    # the root r <= 1/sqrt(2) of mu_a(r) = y >= pi/(2 sin(pi a)); 0.0 on
    # underflow, NaN at y = inf, where the start computes inf - inf
    r_half = 0.5 * sig.r_a
    t0 = _mu_inverse_start(sig.a, y, r_half)
    if y >= r_half + _START_MARGIN:
        # the start drops terms of order r^6 < e^(-72), with a coefficient
        # bounded in a: its residual is within max(1e-13, ulp(y)) already
        return math.exp(t0)
    # from y = 512 on one ulp of y exceeds _INVERT_TOL, so no r could meet it
    tol = max(_INVERT_TOL, math.ulp(y))
    # the start may overshoot the root, which lies at or below 1/sqrt(2)
    res = kernel.invert_monotone(
        lambda t: _mu_and_slope(sig, math.exp(t)), y, t0, _LOG_SQRT_HALF, tol=tol
    )
    return math.exp(res.root)


def _euler_m1(q: float) -> float:
    # (q; q)_inf - 1 = -q - q^2 + q^5 + q^7 - ..., to roundoff for q <= e^-3
    q2 = q * q
    return -q * (1.0 + q * (1.0 - q2 * q * (1.0 + q2)))


def _nome_half(sig, y):
    # k = theta_2^2 / theta_3^2 = 4 s (sum q^(n(n+1)) / theta_3)^2 to roundoff
    # for q <= e^-pi; s = sqrt(q) = exp(-y), as q may underflow before k
    s = math.exp(-y)
    q = s * s
    q2 = q * q
    q4 = q2 * q2
    f = 1.0 + q2 * (1.0 + q4 * (1.0 + q4 * q2))
    return 4.0 * s * (f / (1.0 + 2.0 * q * (1.0 + q2 * q * (1.0 + q4 * q)))) ** 2


def _nome_quarter(sig, y):
    k = _nome_half(sig, y)  # x_4 = 4k^2 / (1 + k^2)^2 at the same nome
    return 2.0 * k / (1.0 + k * k)


def _nome_third(sig, y):
    # x = c^3 / (b^3 + c^3) for Borwein's cubic b = (q; q)^3 / (q^3; q^3)
    # and c = 3 q^(1/3) (q^3; q^3)^3 / (q; q); here v = c^3 / (s^2 b^3), its
    # 12th power taken through log1p, as the quotient's rounding would be
    # raised to it (9 ulp in r before, 1.5 after; measured)
    s = math.exp(-y)
    q = s * s
    v = 27.0 * math.exp(12.0 * (math.log1p(_euler_m1(q * q * q)) - math.log1p(_euler_m1(q))))
    return s * math.sqrt(v / (1.0 + q * v))


def _nome_sixth(sig, y):
    # x = z / (2(1 + w)) with z = 1728/j = 27 lam^2 (1-lam)^2 / (4 m^3) and
    # w = E_6 / E_4^(3/2) = 1 - 2x, lam = k^2 at theta nome exp(-y) and
    # m = 1 - lam + lam^2: no sqrt(1 - z) to cancel next to x = 1/2
    lam = _nome_half(sig, 0.5 * y) ** 2
    m = 1.0 - lam + lam * lam
    w = (1.0 + lam) * (2.0 - lam) * (1.0 - 2.0 * lam) / (2.0 * m * math.sqrt(m))
    return lam * (1.0 - lam) * math.sqrt(27.0 / (8.0 * m * m * m * (1.0 + w)))


# the closed forms at the signatures 2, 4, 3 and 6, the floats 0.5, 0.25,
# 1/3 and 1/6: (mu_a, _mu_inverse_lower, k_a, k_a_prime).  mu_a is within
# 3.5e-16, 3.5e-16, 4.2e-16 and 4.5e-16 of mpmath over r from 5e-324 to
# 1 - 10^-15.5; k_a and k_a_prime run one AGM loop from r and its
# complement r' (never from an r^2 that may underflow)
_SIGNATURES = {
    0.5: (_mu_half, _nome_half, ellip_k, ellip_k_prime),
    0.25: (_mu_quarter, _nome_quarter, _k_quarter, _k_quarter_prime),
    1.0 / 3.0: (functools.partial(_by_symmetry, _mu_third, math.pi / math.sqrt(3.0)), _nome_third,
                _k_third, _k_third_prime),
    1.0 / 6.0: (functools.partial(_by_symmetry, _mu_sixth, math.pi), _nome_sixth,
                lambda r: _k_sixth(r, math.sqrt(_complement(r))),
                lambda r: _k_sixth(math.sqrt(_complement(r)), r)),
}
# any other a: mu_a from _mu_and_slope, its inverse by Newton, K_a by hyp2f1
_GENERAL = (None, _mu_inverse_lower, None, None)


def mu_a_inverse(a, y: float) -> float:
    """Solve mu_a(r) = y for r in (0, 1).

    Targets below the symmetry value pi/(2 sin(pi a)) are mapped through
    mu_a(r) mu_a(r') = (pi/(2 sin(pi a)))^2, so the solve only ever runs
    on r <= 1/sqrt(2), where one ulp of r moves mu_a by O(ulp).
    Raises BracketError when the root is closer to 1 than binary64 can
    represent (saturating endpoint 1.0) or below the smallest normal
    float (saturating endpoint 0.0).

    At a = 0.5, 0.25, 1/3 and 1/6 (these floats exactly) the root is a
    closed form in the nome exp(-2y), within a few ulp, with no mu_a
    evaluation.  Any other a runs Newton to within max(1e-13, ulp(y)) of
    y, but from y = R_a/2 + 12 on returns the three-term asymptote's root,
    which from R_a/2 + 25 on is exp(R_a/2 - y) bit for bit;
    IterationCapError if Newton has not converged after 200 mu_a
    evaluations.
    """
    sig = _memo_record(a)
    if not y > 0.0:
        raise DomainError(f"mu_a_inverse needs y > 0, got {y}")
    c_sym = sig.c_sym
    if y < c_sym:
        rc = sig.mu_root(sig, c_sym * c_sym / y)
        # sqrt(1 - rc^2) as 1 minus a small term: the nearest float next to 1
        rc2 = rc * rc
        root = 1.0 - rc2 / (1.0 + math.sqrt(1.0 - rc2))
        # NaN too: below y = c_sym^2 / DBL_MAX the reflected target is inf
        if not root < 1.0:
            raise BracketError(
                f"mu_a^-1({y}) is closer to 1 than binary64 resolves",
                saturating_endpoint=1.0,
            )
        return root
    root = sig.mu_root(sig, y)
    if not root >= _FLOAT_MIN:  # NaN too, as at y = inf
        raise BracketError(
            f"mu_a^-1({y}) underflows binary64", saturating_endpoint=0.0
        )
    return root


def phi_k_a(a, big_k: float, r: float) -> float:
    """Modular function: the s with mu_a(s) = mu_a(r) / K, from one mu_a
    evaluation and mu_a_inverse (both closed forms at a = 1/2, 1/4, 1/3,
    1/6), whose BracketError and IterationCapError it passes on."""
    sig = _memo_record(a)
    if not big_k > 0.0:
        raise DomainError(f"phi_k_a needs K > 0, got {big_k}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"phi_k_a needs r interior to (0, 1), got {r}")
    mu_closed = sig.mu_closed
    y = mu_closed(r) if mu_closed is not None else _mu_and_slope(sig, r)[0]
    return mu_a_inverse(sig.a, y / big_k)


def phi_k(big_k: float, r: float) -> float:
    """Classical modular function (signature parameter 1/2)."""
    return phi_k_a(0.5, big_k, r)


def legendre_residual(r: float):
    """(residual, scale) of E K' + E' K - K K' = pi/2, as kernel.balance
    returns them."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"legendre_residual needs r in (0, 1), got {r}")
    k = ellip_k(r)
    kp = ellip_k_prime(r)
    return kernel.balance(ellip_e(r) * kp, ellip_e_prime(r) * k, -k * kp, -0.5 * math.pi)


def generalized_legendre_residual(a, r: float):
    """(residual, scale) of e_a k_a' + e_a' k_a - k_a k_a'
    = pi sin(pi a) / (4(1-a))."""
    a = _check_signature(a)
    if not 0.0 < r < 1.0:
        raise DomainError(f"needs r in (0, 1), got {r}")
    ka = k_a(a, r)
    kap = k_a_prime(a, r)
    rhs = math.pi * sinpi(a) / (4.0 * (1.0 - a))
    return kernel.balance(e_a(a, r) * kap, e_a_prime(a, r) * ka, -ka * kap, -rhs)


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


def ode_residual(which: str, a, r: float):
    """(residual, scale) of the second-order ODE satisfied by k_a, e_a,
    or the square-root-argument solution F(a, 1-a; 1; sqrt(1-z^2)).

    The derivatives are exact: hyper.hyp2f1_derivatives gives F, F' and
    F'' from contiguous 2F1 values, and the chain rule carries them to r
    (through x = r^2, or Z = sqrt(1 - r^2) with dZ/dr = -r/Z and
    d^2Z/dr^2 = -1/Z^3).  The residual is at roundoff, a few eps * scale.
    Arguments outside the guard band (0.05, 0.95) are refused.
    """
    if which not in ODE_IDS:
        raise DomainError(f"unknown ode {which!r}; use one of {ODE_IDS}")
    a = _check_signature(a)
    if not _GUARD < r < 1.0 - _GUARD:
        raise DomainError(f"guard band violation: r must lie in ({_GUARD}, {1 - _GUARD})")
    x, xc = r * r, _complement(r)
    if which == "lemniscate_ode":
        big_z = math.sqrt(xc)
        one_minus_z = x / (1.0 + big_z)
        w, f1, f2 = hyp2f1_derivatives(a, 1.0 - a, 1.0, big_z, one_minus_x=one_minus_z)
        d1 = -r / big_z * f1
        d2 = x / (big_z * big_z) * f2 - f1 / big_z ** 3
        return kernel.balance(
            big_z ** 3 * one_minus_z * r * d2,
            -(big_z * one_minus_z + (1.0 - 2.0 * big_z) * big_z * x) * d1,
            -a * (1.0 - a) * r ** 3 * w,
        )
    lo = a if which == "ka_ode" else a - 1.0  # k_a or e_a: (pi/2) F(lo, 1-a; 1; r^2)
    f0, f1, f2 = hyp2f1_derivatives(lo, 1.0 - a, 1.0, x, one_minus_x=xc)
    f, d1, d2 = 0.5 * math.pi * f0, math.pi * r * f1, math.pi * (f1 + 2.0 * x * f2)
    if which == "ka_ode":
        return kernel.balance(r * xc * d2, (1.0 - 3.0 * x) * d1, -4.0 * a * (1.0 - a) * r * f)
    return kernel.balance(r * xc * d2, xc * d1, 4.0 * (1.0 - a) ** 2 * r * f)


def schwarzian_residual(a, r: float, step: float = None):
    """(residual, scale) of the Schwarzian derivative of mu_a against its
    closed form

    -8a(1-a)/(r')^2 + (1 + 6r^2 - 3r^4) / (2 r^2 (r')^4).

    The Schwarzian is exact: S = g'' - g'^2/2 with
    g = log(-mu_a') = -log r - log r'^2 - 2 log F(r^2), F = F(a,1-a;1;.),
    whose F' and F'' come from hyper.hyp2f1_derivatives; the residual is
    at roundoff.  The scale sums |g''|, g'^2/2 and the closed form's two
    terms.  Given a step, S comes instead from central stencils of mu_a
    with that step; their third derivative is noisy, and the residual
    shrinks superquadratically with the step.
    """
    a = _check_signature(a)
    if not 0.1 < r < 0.9:
        raise DomainError(f"schwarzian guard band is (0.1, 0.9), got r = {r}")
    x, rp2 = r * r, _complement(r)
    if step is None:
        f0, f1, f2 = hyp2f1_derivatives(a, 1.0 - a, 1.0, x, one_minus_x=rp2)
        q1, q2 = f1 / f0, f2 / f0
        g1 = -1.0 / r + 2.0 * r / rp2 - 4.0 * r * q1
        g2 = 1.0 / x + 2.0 * (1.0 + x) / (rp2 * rp2) - 4.0 * q1 - 8.0 * x * (q2 - q1 * q1)
        terms = (g2, -0.5 * g1 * g1)
    else:
        h = float(step)
        f = lambda t: mu_a(a, t)
        w1 = kernel.derivative(f, r, order=1, step=h, domain=(0.0, 1.0))
        w2 = kernel.derivative(f, r, order=2, step=h, domain=(0.0, 1.0))
        w3 = kernel.derivative(f, r, order=3, step=h, domain=(0.0, 1.0))
        terms = (w3 / w1, -1.5 * (w2 / w1) ** 2)
    return kernel.balance(
        *terms, 8.0 * a * (1.0 - a) / rp2,
        -(1.0 + 6.0 * r * r - 3.0 * r ** 4) / (2.0 * r * r * rp2 * rp2),
    )
