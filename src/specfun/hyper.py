"""Gauss hypergeometric engine for real arguments in [0, 1).

Evaluation strategy (d = c - a - b):

* x <= 0.75 — the defining series, terms by ratio recurrence, summed
  exactly rounded by ``math.fsum``.
* x > 0.75, |d| ~ 0 — the zero-balanced logarithmic expansion in powers of
  1 - x (the digamma series behind the R(a,b) asymptotic at x = 1).
* x > 0.75, d a negative value — Euler reflection
  F = (1-x)^d F(c-a, c-b; c; x), then recurse (d flips sign).
* x > 0.75, d ~ positive integer m — the logarithmic connection series
  with the finite (1-m)_n part plus a log(1-x) series.
* x > 0.75, otherwise — the two-sided linear connection formula in 1 - x
  with gamma-function coefficients.

Every near-one branch takes the complement 1 - x as an optional explicit
argument so callers that know it exactly (r^2 against 1 - r^2, e^-x
against 1 - e^-x) do not lose digits to the subtraction.

On top of the engine: the value at x = 1, the Ramanujan constant
R(a,b) = -2 gamma - Psi(a) - Psi(b), contiguous-relation residuals, the
Legendre-type product combinations and their gamma-quotient closed forms,
the Elliott and Kummer four-product identities, and a terminating 3F2
positivity lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, DomainError, ParameterError, RangeError
from .gamma import EULER_GAMMA, digamma, gamma, log_gamma
from . import kernel

__all__ = [
    "HyperParams",
    "EvalResult",
    "pochhammer",
    "f21",
    "hyp2f1",
    "gauss_value_at_one",
    "ramanujan_R",
    "contiguous_residual",
    "corollary44_value",
    "wronskian_combo_residual",
    "elliott_residual",
    "kummer_residual",
    "f32_terminating",
    "CONTIGUOUS_IDS",
]

_EPS = 2.220446049250313e-16
_TERM_STOP = 1e-17  # relative term size under which the series is done
_MAX_TERMS = 100_000
_BLOCK = 100  # terms between finiteness checks; divides _MAX_TERMS
# the term loops iterate these two ranges, built once: building them per
# call cost about 0.15 us, 7% of a six-term series
_BLOCKS, _BLOCK_TERMS = range(_MAX_TERMS // _BLOCK), range(_BLOCK)
_CROSSOVER = 0.75
_INT_SNAP = 1e-10
_F32_MAX_N = 10**6  # f32_terminating costs O(n), about 0.4 s at the cap


def _check_params(a: float, b: float, c: float) -> None:
    # one rule for HyperParams and hyp2f1; finiteness first, since
    # math.floor(-inf) raises a bare OverflowError
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"parameters must be finite, got ({a}, {b}, {c})")
    if c <= 0.0 and c == math.floor(c):
        raise ParameterError(f"c = {c} is a nonpositive integer")


@dataclass(frozen=True)
class HyperParams:
    """(a, b, c) parameter triple: finite, and c must avoid the poles
    0, -1, -2, ...  Raises DomainError or ParameterError."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_params(self.a, self.b, self.c)


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_estimate: float
    terms_used: int
    method: str


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a, n) = a(a+1)...(a+n-1); (a, 0) = 1.

    Stops as soon as the product is 0 or overflows, which for every
    finite a happens within 308 factors (a = 5e-324 is the worst), so
    any n costs O(1).  Raises DomainError at NaN a and OverflowError past
    binary64.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer needs integer n >= 0, got {n}")
    if math.isnan(a):
        raise DomainError("pochhammer needs a number a, got nan")
    p = 1.0
    for k in range(int(n)):
        p *= a + k
        if p == 0.0 or math.isinf(p):
            break
    if math.isinf(p):
        raise OverflowError(f"pochhammer({a}, {n}) overflows")
    return p


def _series(a, b, c, x):
    """Defining series at |x| <= crossover, summed exactly rounded by
    math.fsum.  The loop is float-only (an int counter would put a + n on
    the interpreter's slow mixed-type path); the plain running sum s only
    feeds the stop test |t| < 1e-17 |s|, written without abs().  A series
    that leaves binary64 raises OverflowError: a non-finite term never
    passes the stop test, so s is checked once per block of _BLOCK terms,
    off the per-term path."""
    t = 1.0
    s = 1.0
    terms = [1.0]
    small = 0
    n = 0.0
    for _ in _BLOCKS:
        for _ in _BLOCK_TERMS:
            n1 = n + 1.0
            t *= (a + n) * (b + n) / ((c + n) * n1) * x
            terms.append(t)
            s += t
            lim = _TERM_STOP * (s if s > 0.0 else -s)
            if -lim < t < lim:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            n = n1
        else:
            if math.isfinite(s):
                continue
        break
    if not math.isfinite(s):
        raise OverflowError(f"2F1 series at ({a}, {b}, {c}, {x}) leaves binary64")
    total = math.fsum(terms)  # s is finite, so is every term
    capped = small < 3
    err = abs(t) if capped else max(2.0 * abs(t), 4.0 * _EPS * abs(total))
    return total, err, int(n1)


def _zero_balanced(a, b, w):
    """F(a, b; a+b; 1-w) by the logarithmic expansion in powers of w."""
    pref = gamma(a + b) / (gamma(a) * gamma(b))
    log_w = math.log(w)
    pa, pb, pn = digamma(a), digamma(b), -EULER_GAMMA
    coef = 1.0
    s = 0.0
    n = 0.0
    for _ in _BLOCKS:  # blocks as in _series
        for _ in _BLOCK_TERMS:
            n1 = n + 1.0
            term = coef * (2.0 * pn - pa - pb - log_w)
            s += term
            lim = _TERM_STOP * (s if s > 0.0 else -s)
            if n > 2.0 and -lim < term < lim:
                break
            coef *= (a + n) * (b + n) / (n1 * n1) * w
            pn += 1.0 / n1
            pa += 1.0 / (a + n)
            pb += 1.0 / (b + n)
            n = n1
        else:
            if math.isfinite(s):
                continue
        break
    if not math.isfinite(s):
        raise OverflowError(f"zero-balanced 2F1 series at ({a}, {b}, 1 - {w}) leaves binary64")
    value = pref * s
    err = abs(pref) * abs(term) * 2.0 + 4.0 * _EPS * abs(value)
    return value, err, int(n1)


def _near_one_int(a, b, c, m, w):
    """F(a, b; a+b+m; 1-w), m >= 1 integer: finite part plus log series."""
    s1 = 0.0
    coef = 1.0
    for n in range(m):
        if n > 0:
            coef *= (a + n - 1.0) * (b + n - 1.0) / (n * (n - m)) * w
        s1 += coef
    p1 = math.factorial(m - 1) * gamma(c) / (gamma(a + m) * gamma(b + m)) * s1

    log_w = math.log(w)
    pn = -EULER_GAMMA
    pnm = digamma(m + 1.0)
    pam = digamma(a + m)
    pbm = digamma(b + m)
    coef = 1.0 / math.factorial(m)
    s2 = 0.0
    am, bm, mf = a + m, b + m, float(m)
    n = 0.0
    for _ in _BLOCKS:  # blocks as in _series
        for _ in _BLOCK_TERMS:
            n1 = n + 1.0
            term = coef * (log_w - pn - pnm + pam + pbm)
            s2 += term
            lim = _TERM_STOP * (s2 if s2 > 0.0 else -s2)
            if n > 2.0 and -lim < term < lim:
                break
            coef *= (am + n) * (bm + n) / (n1 * (n1 + mf)) * w
            pn += 1.0 / n1
            pnm += 1.0 / (n1 + mf)
            pam += 1.0 / (am + n)
            pbm += 1.0 / (bm + n)
            n = n1
        else:
            if math.isfinite(s2):
                continue
        break
    if not math.isfinite(s2):
        raise OverflowError(f"2F1 log series at ({a}, {b}, {c}, 1 - {w}) leaves binary64")
    pref2 = -((-1.0) ** m) * gamma(c) / (gamma(a) * gamma(b)) * w ** m
    value = p1 + pref2 * s2
    err = abs(pref2) * abs(term) * 2.0 + 4.0 * _EPS * (abs(p1) + abs(pref2 * s2))
    return value, err, int(n1) + m


def _connection(a, b, c, x, w):
    """Linear connection in 1-x; needs d = c-a-b away from the integers."""
    d = c - a - b
    f1, e1, n1 = _series(a, b, 1.0 - d, w)
    f2, e2, n2 = _series(c - a, c - b, 1.0 + d, w)
    g1 = gamma(c) * gamma(d) / (gamma(c - a) * gamma(c - b))
    g2 = gamma(c) * gamma(-d) / (gamma(a) * gamma(b)) * w ** d
    value = g1 * f1 + g2 * f2
    err = abs(g1) * e1 + abs(g2) * e2 + 4.0 * _EPS * (abs(g1 * f1) + abs(g2 * f2))
    return value, err, n1 + n2


def _dispatch(a, b, c, x, w):
    if x == 0.0 or a == 0.0 or b == 0.0:
        # empty argument or a terminating empty product: F = 1 exactly
        return 1.0, 0.0, 0, "direct_series"
    if x <= _CROSSOVER:
        v, e, n = _series(a, b, c, x)
        return v, e, n, "direct_series"
    if w is None:
        w = 1.0 - x
    d = c - a - b
    if abs(d) < _INT_SNAP:
        v, e, n = _zero_balanced(a, b, w)
        return v, e, n, "near_one_expansion"
    if d < 0.0:
        inner_v, inner_e, n, _ = _dispatch(c - a, c - b, c, x, w)
        scale = w ** d
        v = scale * inner_v
        return v, scale * inner_e + 2.0 * _EPS * abs(v), n, "reflection_transform"
    m = round(d)
    if m >= 1 and abs(d - m) < _INT_SNAP:
        v, e, n = _near_one_int(a, b, c, int(m), w)
    else:
        v, e, n = _connection(a, b, c, x, w)
    return v, e, n, "near_one_expansion"


def _validate_negative_params(a: float, b: float, c: float):
    negatives = [p for p in (a, b) if p < 0.0]
    if not negatives:
        return
    if len(negatives) == 2:
        raise ParameterError(f"at most one of a, b may be negative, got ({a}, {b})")
    if not -1.0 < negatives[0] < 0.0:
        raise ParameterError(f"negative parameter {negatives[0]} outside (-1, 0)")
    if c < 1.0:
        raise ParameterError(f"negative parameter requires c >= 1, got c = {c}")


def hyp2f1(a: float, b: float, c: float, x: float, one_minus_x: float = None) -> float:
    """Bare value of F(a, b; c; x); see ``f21`` for the full result.

    ``one_minus_x`` supplies the complement exactly when the caller knows
    it (e.g. evaluating at 1 - r^2 with complement r^2).  An ``x`` that
    rounded up to 1.0 is accepted as long as a positive complement is
    given explicitly; the true argument 1 - one_minus_x is then interior.
    Raises OverflowError when a series term or partial sum leaves binary64
    (e.g. a = b = 300 at x = 0.7, or c = 1e-310).
    """
    _check_params(a, b, c)
    if x == 1.0 and one_minus_x is not None and one_minus_x > 0.0:
        x = math.nextafter(1.0, 0.0)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"argument must lie in [0, 1), got {x}")
    return _dispatch(a, b, c, x, one_minus_x)[0]


def f21(params: HyperParams, x: float, one_minus_x: float = None) -> EvalResult:
    """F(a, b; c; x) for x in [0, 1) with an absolute error estimate.

    Positive parameters, except that one of a, b may lie in (-1, 0) when
    c >= 1 (the second-kind elliptic case); other negative parameters are
    rejected.  Raises OverflowError, like ``hyp2f1``, when a series term
    or partial sum leaves binary64.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"argument must lie in [0, 1), got {x}")
    _validate_negative_params(params.a, params.b, params.c)
    v, e, n, method = _dispatch(params.a, params.b, params.c, x, one_minus_x)
    return EvalResult(value=v, abs_err_estimate=e, terms_used=n, method=method)


def gauss_value_at_one(params: HyperParams) -> float:
    """F(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)), c > a+b."""
    a, b, c = params.a, params.b, params.c
    if not c > a + b:
        raise DomainError(f"needs c > a + b, got c - a - b = {c - a - b}")
    return math.exp(
        log_gamma(c) + log_gamma(c - a - b) - log_gamma(c - a) - log_gamma(c - b)
    )


def ramanujan_R(a: float, b: float) -> float:
    """Ramanujan constant R(a,b) = -2 gamma - Psi(a) - Psi(b)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"ramanujan_R needs a, b > 0, got ({a}, {b})")
    return -2.0 * EULER_GAMMA - digamma(a) - digamma(b)


CONTIGUOUS_IDS = ("d_u", "d_v", "shift_c", "sym_combo", "b_shift")


def contiguous_residual(which: str, params: HyperParams, z: float) -> float:
    """LHS - RHS of one of the five encoded contiguous relations.

    With u = F(a-1,b;c;.), v = F(a,b;c;.), u1 = u(1-z), v1 = v(1-z):

    * d_u:       z u' = (a-1)(v - u)
    * d_v:       z(1-z) v' = (c-a) u + (a-c+bz) v
    * shift_c:   (ab/c) z(1-z) F(a+1,b+1;c+1;z) = (c-a) u + (a-c+bz) v
    * sym_combo: z(1-z) d/dz(u v1 + u1 v - v v1)
                   = (1-a-b)[(1-z) u v1 - z u1 v - (1-2z) v v1]
    * b_shift:   z(1-z) v' = (c-b) F(a,b-1;c;z) + (b-c+az) v

    Derivatives come from central stencils, so those residuals carry the
    stencil's truncation noise (~1e-6 scale); shift_c is fully algebraic.
    """
    if which not in CONTIGUOUS_IDS:
        raise DomainError(f"unknown relation {which!r}; use one of {CONTIGUOUS_IDS}")
    a, b, c = params.a, params.b, params.c
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise DomainError("contiguous relations need a, b, c > 0")
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must be interior to (0, 1), got {z}")

    def u(t):
        return hyp2f1(a - 1.0, b, c, t)

    def v(t):
        return hyp2f1(a, b, c, t)

    if which == "d_u":
        du = kernel.derivative(u, z, order=1, domain=(0.0, 1.0))
        return z * du - (a - 1.0) * (v(z) - u(z))
    if which == "d_v":
        dv = kernel.derivative(v, z, order=1, domain=(0.0, 1.0))
        return z * (1.0 - z) * dv - ((c - a) * u(z) + (a - c + b * z) * v(z))
    if which == "shift_c":
        lhs = a * b / c * z * (1.0 - z) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        return lhs - ((c - a) * u(z) + (a - c + b * z) * v(z))
    if which == "sym_combo":
        def q(t):
            vt, v1 = v(t), v(1.0 - t)
            return u(t) * v1 + u(1.0 - t) * vt - vt * v1

        dq = kernel.derivative(q, z, order=1, domain=(0.0, 1.0))
        uz, u1, vz, v1 = u(z), u(1.0 - z), v(z), v(1.0 - z)
        rhs = (1.0 - a - b) * (
            (1.0 - z) * uz * v1 - z * u1 * vz - (1.0 - 2.0 * z) * vz * v1
        )
        return z * (1.0 - z) * dq - rhs
    dv = kernel.derivative(v, z, order=1, domain=(0.0, 1.0))
    return z * (1.0 - z) * dv - (
        (c - b) * hyp2f1(a, b - 1.0, c, z) + (b - c + a * z) * v(z)
    )


def corollary44_value(a: float, c: float, z: float) -> float:
    """u v1 + u1 v - v v1 with b = 1 - a; equals
    Gamma(c)^2 / (Gamma(c+a-1) Gamma(c-a+1)) independently of z."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"needs a in (0, 1), got {a}")
    if c < 1.0:
        # a-1 in (-1,0) enters the u-evaluations, which demands c >= 1
        raise DomainError(f"needs c >= 1, got {c}")
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must be interior to (0, 1), got {z}")
    b = 1.0 - a
    uz = hyp2f1(a - 1.0, b, c, z)
    u1 = hyp2f1(a - 1.0, b, c, 1.0 - z, one_minus_x=z)
    vz = hyp2f1(a, b, c, z)
    v1 = hyp2f1(a, b, c, 1.0 - z, one_minus_x=z)
    return uz * v1 + u1 * vz - vz * v1


def corollary44_reference(a: float, c: float) -> float:
    """The z-independent right side of the product combination."""
    return gamma(c) ** 2 / (gamma(c + a - 1.0) * gamma(c - a + 1.0))


def wronskian_combo_residual(a: float, b: float, c: float, z: float) -> float:
    """(c-a)(u v1 + u1 v) + (a-1) v v1 - A z^(1-c) (1-z)^(1-c), where
    A = Gamma(c)^2/(Gamma(a)Gamma(b)); requires 2c = a + b + 1, c >= 1."""
    if abs(2.0 * c - (a + b + 1.0)) > 1e-12:
        raise ConstraintError(f"needs 2c = a+b+1, got 2c-(a+b+1) = {2 * c - (a + b + 1)}")
    if not (a > 0.0 and b > 0.0 and c >= 1.0):
        raise DomainError("needs a, b > 0 and c >= 1")
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must be interior to (0, 1), got {z}")
    uz = hyp2f1(a - 1.0, b, c, z)
    u1 = hyp2f1(a - 1.0, b, c, 1.0 - z, one_minus_x=z)
    vz = hyp2f1(a, b, c, z)
    v1 = hyp2f1(a, b, c, 1.0 - z, one_minus_x=z)
    big_a = gamma(c) ** 2 / (gamma(a) * gamma(b))
    lhs = (c - a) * (uz * v1 + u1 * vz) + (a - 1.0) * vz * v1
    return lhs - big_a * z ** (1.0 - c) * (1.0 - z) ** (1.0 - c)


def elliott_residual(a: float, b: float, c: float, x: float) -> float:
    """F1 F2 + F3 F4 - F2 F3 minus its gamma-quotient closed form.

    F1 = F(1/2+a, -1/2-c; 1+a+b; x),   F2 = F(1/2-a, 1/2+c; 1+b+c; 1-x),
    F3 = F(1/2+a, 1/2-c; 1+a+b; x),    F4 = F(-1/2-a, 1/2+c; 1+b+c; 1-x).

    a and c must stay below 1/2 so the negative parameters in F1 and F4
    remain inside the supported (-1, 0) window.
    """
    if not (a >= 0.0 and b >= 0.0 and c >= 0.0):
        raise DomainError("needs a, b, c >= 0")
    if a >= 0.5 or c >= 0.5:
        raise DomainError(f"needs a, c < 1/2 (negative-parameter window), got ({a}, {c})")
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must be interior to (0, 1), got {x}")
    f1 = hyp2f1(0.5 + a, -0.5 - c, 1.0 + a + b, x)
    f2 = hyp2f1(0.5 - a, 0.5 + c, 1.0 + b + c, 1.0 - x, one_minus_x=x)
    f3 = hyp2f1(0.5 + a, 0.5 - c, 1.0 + a + b, x)
    f4 = hyp2f1(-0.5 - a, 0.5 + c, 1.0 + b + c, 1.0 - x, one_minus_x=x)
    rhs = math.exp(
        log_gamma(a + b + 1.0)
        + log_gamma(b + c + 1.0)
        - log_gamma(a + b + c + 1.5)
        - log_gamma(b + 0.5)
    )
    return f1 * f2 + f3 * f4 - f2 * f3 - rhs


def kummer_residual(a: float, b: float, c: float, x: float) -> float:
    """Residual of the two-product closed form

    F(a,b;a+b-c+1;1-x) F(a+1,b+1;c+1;x)
      + c/(a+b-c+1) F(a,b;c;x) F(a+1,b+1;a+b-c+2;1-x)
      = D x^-c (1-x)^(c-a-b-1),  D = G(a+b-c+1)G(c+1)/(G(a+1)G(b+1)).
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise DomainError("needs a, b, c > 0")
    s = a + b - c + 1.0
    if s <= 0.0 and s == math.floor(s):
        raise ParameterError(f"a+b-c+1 = {s} is a nonpositive integer")
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must be interior to (0, 1), got {x}")
    lhs = hyp2f1(a, b, s, 1.0 - x, one_minus_x=x) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x)
    lhs += (c / s) * hyp2f1(a, b, c, x) * hyp2f1(a + 1.0, b + 1.0, s + 1.0, 1.0 - x, one_minus_x=x)
    d_const = gamma(s) * gamma(c + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    rhs = d_const * x ** (-c) * (1.0 - x) ** (c - a - b - 1.0)
    return lhs - rhs


def f32_terminating(n: int, a: float, b: float, eps: float) -> float:
    """Terminating 3F2(-n, a, b; 1+a+b, 1+eps-n; 1); positive inside the
    window ab/(1+a+b) < eps < 1.  The n + 1 terms cost O(n), so n above
    10^6 raises RangeError."""
    if n < 1 or n != int(n):
        raise DomainError(f"needs integer n >= 1, got {n}")
    if n > _F32_MAX_N:
        raise RangeError(f"needs n <= {_F32_MAX_N}, got {n}")
    if not (a > 0.0 and b > 0.0):
        raise DomainError("needs a, b > 0")
    lo = a * b / (1.0 + a + b)
    if not lo < eps < 1.0:
        raise ConstraintError(f"eps must satisfy {lo} < eps < 1, got {eps}")
    n = int(n)
    terms = []
    t = 1.0
    # (k + 1 - n) is an exact integer, so eps - 1 at k = n - 2 keeps its
    # digits instead of rounding to 0
    for k in range(n + 1):
        terms.append(t)
        t *= (
            (-n + k) * (a + k) * (b + k)
            / ((1.0 + a + b + k) * ((k + 1 - n) + eps) * (k + 1.0))
        )
    return kernel.compensated_sum(terms)
