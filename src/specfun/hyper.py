"""Gauss hypergeometric engine for real arguments in [0, 1).

Evaluation strategy (d = c - a - b):

* x <= 0.75 — the defining series, terms by ratio recurrence, summed
  exactly rounded by ``math.fsum``.
* x > 0.75, d ~ an integer m >= 0 — the logarithmic expansion in 1 - x,
  a finite part of m terms plus a log(1-x) series; at m = 0 (zero-balanced)
  the digamma series behind the R(a,b) asymptotic at x = 1.
* x > 0.75, d < 0, or c equal to a or b — Euler reflection
  F = (1-x)^d F(c-a, c-b; c; x), then recurse (d flips sign, or F = 1).
* x > 0.75, otherwise — the two-sided linear connection formula in 1 - x
  with gamma-function coefficients.

Every near-one branch takes the complement 1 - x as an optional explicit
argument so callers that know it exactly (r^2 against 1 - r^2, e^-x
against 1 - e^-x) do not lose digits to the subtraction.

Inside ``with EvalScope():`` each distinct (a, b, c, x), keyed by its
complement only past x = 0.75, where the engine reads it, is evaluated
once; ``verify.run_suite`` runs the hyper suite's checks in one scope,
whose memo (0.8 MB on the default grids, 29 MB at 1000 points) is freed
when they return.  Outside, nothing is stored.

On top of the engine: the value at x = 1, the Ramanujan constant
R(a,b) = -2 gamma - Psi(a) - Psi(b), contiguous-relation residuals, the
Legendre-type product combinations and their gamma-quotient closed forms,
the Elliott and Kummer four-product identities, and a terminating 3F2
positivity lemma.  Each residual function returns the pair
(residual, scale) of kernel.balance: the identity's terms summed, and
sum |term|, so a caller can read the residual in units of eps * scale.
"""

import math
from collections import namedtuple
from contextvars import ContextVar

from .errors import ConstraintError, DomainError, ParameterError, RangeError
from .gamma import EULER_GAMMA, digamma, gamma, log_gamma
from .kernel import balance

__all__ = [
    "HyperParams",
    "EvalResult",
    "EvalScope",
    "pochhammer",
    "f21",
    "hyp2f1",
    "hyp2f1_derivatives",
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


class HyperParams(namedtuple("HyperParams", "a b c")):
    """(a, b, c) parameter triple, an immutable namedtuple: finite, and c
    must avoid the poles 0, -1, -2, ...  Raises DomainError or
    ParameterError, also from ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        _check_params(a, b, c)
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


EvalResult = namedtuple("EvalResult", "value abs_err_estimate terms_used method")


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a, n) = a(a+1)...(a+n-1); (a, 0) = 1.

    Stops as soon as the product is 0 or overflows, within 308 factors
    for every finite a (a = 5e-324 is the worst), so any n costs O(1).
    DomainError at NaN a or an n that is not a finite integer >= 0, and
    OverflowError past binary64, also at infinite a and n > 0, as gamma(inf).
    """
    # the range test comes first: int() of an infinite or NaN n raises a
    # bare OverflowError or ValueError
    if not 0 <= n < math.inf or n != int(n):
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
    if a < 0.0 or b < 0.0 or c < 0.0:
        # terms of both signs: their own rounding, a few eps each, no longer
        # stays small against the sum.  Signs change only while a + n, b + n
        # or c + n < 0, so sum |t| <= |total| + 2 sum |t| over those first
        # terms; all-positive terms skip this
        head = math.fsum(map(abs, terms[:math.ceil(-min(a, b, c))]))
        err += 2.0 * _EPS * (abs(total) + 2.0 * head)
    return total, err, int(n1)


def _log_series(a, b, c, m, w):
    """F(a, b; a+b+m; 1-w) for an integer m >= 0 (DLMF 15.8.10): a finite
    part of m terms, none at m = 0, plus a series in w with log w in its
    bracket.  psi(n+1) + psi(n+m+1) is one running sum pp, which at m = 0
    is 2 psi(n+1) bit for bit.  The estimate is audited against mpmath as
    a bound: twice the last term, 2 eps of each bracket (sum |coef| times
    |log w| plus the largest digamma sum, read at the first two and the
    last terms: a + m and b + m exceed -1, so the sums fall at most over
    their first step and then rise), 16 eps of the gamma prefactors, and
    the drift of c - a - b off m times the bracket size."""
    s1 = s1_abs = 0.0
    coef = 1.0
    for n in range(m):
        if n > 0:
            coef *= (a + n - 1.0) * (b + n - 1.0) / (n * (n - m)) * w
        s1 += coef
        s1_abs += abs(coef)
    p1 = math.factorial(m - 1) * gamma(c) / (gamma(a + m) * gamma(b + m)) if m else 0.0

    log_w = math.log(w)
    pp = digamma(m + 1.0) - EULER_GAMMA if m else -2.0 * EULER_GAMMA
    am, bm, mf = a + m, b + m, m + 0.0
    pam0 = pam = digamma(am)
    pbm0 = pbm = digamma(bm)
    coef0 = coef = 1.0 / math.factorial(m)
    s2 = sc = 0.0
    n = 0.0
    for _ in _BLOCKS:  # blocks as in _series
        for _ in _BLOCK_TERMS:
            n1 = n + 1.0
            term = coef * (pp - pam - pbm - log_w)
            s2 += term
            sc += coef
            lim = _TERM_STOP * (s2 if s2 > 0.0 else -s2)
            if n > 2.0 and -lim < term < lim:
                break
            nm = n1 + mf
            coef *= (am + n) * (bm + n) / (n1 * nm) * w
            pp += 1.0 / n1 + 1.0 / nm
            pam += 1.0 / (am + n)
            pbm += 1.0 / (bm + n)
            n = n1
        else:
            if math.isfinite(s2):
                continue
        break
    if not math.isfinite(s2):
        raise OverflowError(f"2F1 log series at ({a}, {b}, {c}, 1 - {w}) leaves binary64")
    pref = gamma(c) / (gamma(a) * gamma(b)) * (-w) ** m
    value = p1 * s1 + pref * s2
    dig = max(pp, pam, pbm, abs(pam0), abs(pbm0), abs(pam0 + 1.0 / am), abs(pbm0 + 1.0 / bm))
    big = dig - log_w
    # c - a - b drifts off m by its rounding, or by the snap onto m
    drift = abs(c - a - b - m) + _EPS * (abs(a) + abs(b) + abs(c))
    err = abs(pref) * (2.0 * abs(term) + 2.0 * _EPS * (coef0 + abs(sc - coef0)) * big)
    err += (16.0 * _EPS + drift * big) * (abs(p1) * s1_abs + abs(pref * s2))
    return value, err, int(n1) + m


def _connection(a, b, c, w):
    """Linear connection in 1-x; needs d = c-a-b away from the integers.
    The estimate adds the series' own, 4 eps of the two products and the
    rounding of d, audited against mpmath as a bound."""
    d = c - a - b
    f1, e1, n1 = _series(a, b, 1.0 - d, w)
    f2, e2, n2 = _series(c - a, c - b, 1.0 + d, w)
    gc = gamma(c)
    g1 = gc * gamma(d) / (gamma(c - a) * gamma(c - b))
    g2 = gc * gamma(-d) / (gamma(a) * gamma(b)) * w ** d
    value = g1 * f1 + g2 * f2
    # d is off by up to eps (|a| + |b| + |c|), which Gamma(d) and Gamma(-d)
    # amplify by about 1/dist(d, Z), w^d by |log w| and each series by ~1
    drift = (abs(a) + abs(b) + abs(c)) * (1.0 / abs(d - round(d)) + abs(math.log(w)) + 2.0)
    err = abs(g1) * e1 + abs(g2) * e2 + (4.0 + drift) * _EPS * (abs(g1 * f1) + abs(g2 * f2))
    return value, err, n1 + n2


_MEMO = ContextVar("hyper_memo", default=None)  # the open scope's dict, or None


class EvalScope:
    """``with EvalScope():`` memoizes the 2F1 engine: each distinct
    (a, b, c, x), and past the crossover, where the engine reads it, each
    complement, is evaluated once; a repeat returns the first evaluation's
    value, estimate, terms and method.  Exceptions are not stored.  Each
    scope starts empty and drops its memo on exit, also when the block
    raises; until then it grows by about 300 bytes per distinct argument."""

    __slots__ = ("_token",)

    def __enter__(self):
        self._token = _MEMO.set({})
        return self

    def __exit__(self, *exc_info):
        _MEMO.reset(self._token)
        return False


def _dispatch(a, b, c, x, w):
    memo = _MEMO.get()
    if memo is None:
        return _evaluate(a, b, c, x, w)
    key = (a, b, c, x, w) if x > _CROSSOVER else (a, b, c, x)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _evaluate(a, b, c, x, w)
    return hit


def _evaluate(a, b, c, x, w):
    if x == 0.0 or a == 0.0 or b == 0.0:
        # empty argument or a terminating empty product: F = 1 exactly
        return 1.0, 0.0, 0, "direct_series"
    if x <= _CROSSOVER or (a < 0.0 and a == math.floor(a)) or (b < 0.0 and b == math.floor(b)):
        # a nonpositive-integer a or b (from the reflection below) ends the
        # series exactly, where the expansions about x = 1 meet Gamma poles
        v, e, n = _series(a, b, c, x)
        return v, e, n, "direct_series"
    if w is None:
        w = 1.0 - x
    d = c - a - b
    m = round(d)
    if m >= 0 and abs(d - m) < _INT_SNAP:
        v, e, n = _log_series(a, b, c, m, w)
        return v, e, n, "near_one_expansion"
    if d < 0.0 or c == a or c == b:
        # at c = a the connection formula would take Gamma(c - a) = Gamma(0);
        # under the argument rule no other pole of Gamma(c - a) has d >= 0.
        # At c = b, (c - a) - b rounds and d = -a is exact (at c = a, -b is)
        if c == b:
            d = -a
        inner_v, inner_e, n, _ = _dispatch(c - a, c - b, c, x, w)
        scale = w ** d
        v = scale * inner_v
        # d = c - a - b is off by up to eps (|a| + |b| + |c|), which w**d
        # scales by |log w|
        rounding = 2.0 + abs(math.log(w)) * (abs(a) + abs(b) + abs(c))
        return v, scale * inner_e + rounding * _EPS * abs(v), n, "reflection_transform"
    v, e, n = _connection(a, b, c, w)
    return v, e, n, "near_one_expansion"


def _check_argument(a: float, b: float, c: float, x: float, one_minus_x) -> float:
    """The argument rule of hyp2f1 and f21 (see hyp2f1), for finite a, b,
    c; returns the x to evaluate at.  Past the negative-parameter window
    the values stay accurate but f21's error estimates do not."""
    if x == 1.0 and one_minus_x is not None and one_minus_x > 0.0:
        x = math.nextafter(1.0, 0.0)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"argument must lie in [0, 1), got {x}")
    if a >= 0.0 and b >= 0.0:
        return x
    if a < 0.0 and b < 0.0:
        raise ParameterError(f"at most one of a, b may be negative, got ({a}, {b})")
    if min(a, b) <= -1.0:
        raise ParameterError(f"negative parameter {min(a, b)} outside (-1, 0)")
    if c < 1.0:
        raise ParameterError(f"negative parameter requires c >= 1, got c = {c}")
    return x


def hyp2f1(a: float, b: float, c: float, x: float, one_minus_x: float = None) -> float:
    """Bare value of F(a, b; c; x): ``f21``'s value, bit for bit, under
    the same argument rule.

    x lies in [0, 1), or is 1.0 with a positive ``one_minus_x``: that
    complement, given exactly where the caller knows it (r^2 against
    1 - r^2), makes the true argument interior.  At most one of a, b may
    be negative, in (-1, 0), and then c >= 1.  Outside that rule, at a
    non-finite parameter or at a pole c = 0, -1, ... it raises DomainError
    or ParameterError; OverflowError when a series term or partial sum
    leaves binary64 (a = b = 300 at x = 0.7, or c = 1e-310).
    """
    _check_params(a, b, c)
    x = _check_argument(a, b, c, x, one_minus_x)
    return _dispatch(a, b, c, x, one_minus_x)[0]


def hyp2f1_derivatives(a: float, b: float, c: float, x: float, one_minus_x: float = None):
    """(F, dF/dx, d^2F/dx^2) of F(a, b; c; x), each exact to its 2F1's
    accuracy: F is ``hyp2f1``'s value bit for bit, and the derivatives
    are the contiguous values (ab/c) F(a+1, b+1; c+1; x) and
    (a(a+1) b(b+1) / (c(c+1))) F(a+2, b+2; c+2; x) (DLMF 15.5.1), at the
    same x and complement.  Accepts, refuses and raises as ``hyp2f1``
    does; the shifted parameters never leave its rule.
    """
    _check_params(a, b, c)
    x = _check_argument(a, b, c, x, one_minus_x)
    f0 = _dispatch(a, b, c, x, one_minus_x)[0]
    f1 = _dispatch(a + 1.0, b + 1.0, c + 1.0, x, one_minus_x)[0]
    f2 = _dispatch(a + 2.0, b + 2.0, c + 2.0, x, one_minus_x)[0]
    k = a * b / c
    return f0, k * f1, k * (a + 1.0) * (b + 1.0) / (c + 1.0) * f2


def f21(params: HyperParams, x: float, one_minus_x: float = None) -> EvalResult:
    """F(a, b; c; x) with an absolute error estimate, the branch taken and
    the terms used; accepts, refuses and raises as ``hyp2f1`` does.  On the
    log series (x > 0.75, integer c - a - b >= 0) it is an audited bound."""
    a, b, c = params.a, params.b, params.c
    x = _check_argument(a, b, c, x, one_minus_x)
    return EvalResult._make(_dispatch(a, b, c, x, one_minus_x))


def gauss_value_at_one(params: HyperParams) -> float:
    """F(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)), c > a+b."""
    a, b, c = params.a, params.b, params.c
    if not c > a + b:
        raise DomainError(f"needs c > a + b, got c - a - b = {c - a - b}")
    return math.exp(
        log_gamma(c) + log_gamma(c - a - b) - log_gamma(c - a) - log_gamma(c - b)
    )


def ramanujan_R(a: float, b: float) -> float:
    """Ramanujan constant R(a,b) = -2 gamma - Psi(a) - Psi(b); -inf, the
    limit, when a or b is inf, as digamma(inf) = inf."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"ramanujan_R needs a, b > 0, got ({a}, {b})")
    return -2.0 * EULER_GAMMA - digamma(a) - digamma(b)


def _pair_values(a, b, c, z):
    """u(z), u(1-z), v(z), v(1-z) for u = F(a-1,b;c;.), v = F(a,b;c;.)."""
    y = 1.0 - z
    return (hyp2f1(a - 1.0, b, c, z), hyp2f1(a - 1.0, b, c, y, z),
            hyp2f1(a, b, c, z), hyp2f1(a, b, c, y, z))


CONTIGUOUS_IDS = ("d_u", "d_v", "shift_c", "sym_combo", "b_shift")


def contiguous_residual(which: str, params: HyperParams, z: float):
    """(LHS - RHS, scale) of one of the five encoded contiguous relations.

    With u = F(a-1,b;c;.), v = F(a,b;c;.), u1 = u(1-z), v1 = v(1-z):

    * d_u:       z u' = (a-1)(v - u)
    * d_v:       z(1-z) v' = (c-a) u + (a-c+bz) v
    * shift_c:   (ab/c) z(1-z) F(a+1,b+1;c+1;z) = (c-a) u + (a-c+bz) v
    * sym_combo: z(1-z) d/dz(u v1 + u1 v - v v1)
                   = (1-a-b)[(1-z) u v1 - z u1 v - (1-2z) v v1]
    * b_shift:   z(1-z) v' = (c-b) F(a,b-1;c;z) + (b-c+az) v

    Derivatives are exact contiguous values, chosen so that no relation
    becomes a tautology or another's formula: u' = ((a-1)b/c)
    F(a,b+1;c+1;z) and v' = (ab/c) F(a+1,b+1;c+1;z) (DLMF 15.5.1), except
    in d_v, where z v' = a(F(a+1,b;c;z) - v) (15.5.3, n = 1) makes it
    Gauss's three-term relation in a.  So d_u is c(v - u) = bz
    F(a,b+1;c+1;z), and b_shift is shift_c with a and b swapped.  The
    residuals are at roundoff; sym_combo takes its 1-z values with the
    complement z.  u and b_shift lower a or b by 1, so a or b below 1
    needs c >= 1 (hyp2f1's negative-parameter window; else
    ParameterError).
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

    def du(t, w=None):
        return (a - 1.0) * b / c * hyp2f1(a, b + 1.0, c + 1.0, t, w)

    def dv(t, w=None):
        return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, t, w)

    if which == "d_u":
        return balance(z * du(z), (1.0 - a) * v(z), (a - 1.0) * u(z))
    if which == "d_v":
        vz, k = v(z), (1.0 - z) * a
        return balance(k * hyp2f1(a + 1.0, b, c, z), -k * vz, (a - c) * u(z), -(a - c + b * z) * vz)
    if which == "shift_c":
        lhs = a * b / c * z * (1.0 - z) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        return balance(lhs, (a - c) * u(z), -(a - c + b * z) * v(z))
    if which == "sym_combo":
        y, zy, k = 1.0 - z, z * (1.0 - z), a + b - 1.0
        uz, u1, vz, v1 = _pair_values(a, b, c, z)
        duz, du1, dvz, dv1 = du(z), du(y, z), dv(z), dv(y, z)
        # d/dz of a value at 1-z is minus the derivative there
        return balance(
            zy * duz * v1, -zy * uz * dv1, -zy * du1 * vz, zy * u1 * dvz, -zy * dvz * v1, zy * vz * dv1,
            k * (1.0 - z) * uz * v1, -k * z * u1 * vz, -k * (1.0 - 2.0 * z) * vz * v1,
        )
    return balance(z * (1.0 - z) * dv(z), (b - c) * hyp2f1(a, b - 1.0, c, z), -(b - c + a * z) * v(z))


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
    uz, u1, vz, v1 = _pair_values(a, 1.0 - a, c, z)
    return uz * v1 + u1 * vz - vz * v1


def corollary44_reference(a: float, c: float) -> float:
    """The z-independent right side of the product combination."""
    return gamma(c) ** 2 / (gamma(c + a - 1.0) * gamma(c - a + 1.0))


def wronskian_combo_residual(a: float, b: float, c: float, z: float):
    """(residual, scale) of (c-a)(u v1 + u1 v) + (a-1) v v1
    = A z^(1-c) (1-z)^(1-c), where A = Gamma(c)^2/(Gamma(a)Gamma(b));
    requires 2c = a + b + 1, c >= 1."""
    if abs(2.0 * c - (a + b + 1.0)) > 1e-12:
        raise ConstraintError(f"needs 2c = a+b+1, got 2c-(a+b+1) = {2 * c - (a + b + 1)}")
    if not (a > 0.0 and b > 0.0 and c >= 1.0):
        raise DomainError("needs a, b > 0 and c >= 1")
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must be interior to (0, 1), got {z}")
    uz, u1, vz, v1 = _pair_values(a, b, c, z)
    big_a = gamma(c) ** 2 / (gamma(a) * gamma(b))
    return balance(
        (c - a) * uz * v1, (c - a) * u1 * vz, (a - 1.0) * vz * v1,
        -big_a * z ** (1.0 - c) * (1.0 - z) ** (1.0 - c),
    )


def elliott_residual(a: float, b: float, c: float, x: float):
    """(residual, scale) of F1 F2 + F3 F4 - F2 F3 = its gamma-quotient
    closed form.

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
    return balance(f1 * f2, f3 * f4, -f2 * f3, -rhs)


def kummer_residual(a: float, b: float, c: float, x: float):
    """(residual, scale) of the two-product closed form

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
    first = hyp2f1(a, b, s, 1.0 - x, one_minus_x=x) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x)
    second = (c / s) * hyp2f1(a, b, c, x) * hyp2f1(a + 1.0, b + 1.0, s + 1.0, 1.0 - x, one_minus_x=x)
    d_const = gamma(s) * gamma(c + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    return balance(first, second, -d_const * x ** (-c) * (1.0 - x) ** (c - a - b - 1.0))


def f32_terminating(n: int, a: float, b: float, eps: float) -> float:
    """Terminating 3F2(-n, a, b; 1+a+b, 1+eps-n; 1); positive inside the
    window ab/(1+a+b) < eps < 1.  An n that is not a finite integer >= 1
    raises DomainError; the n + 1 terms cost O(n), so n above 10^6 raises
    RangeError.  A term or sum past binary64 raises
    OverflowError, as the 2F1 series do, not NaN."""
    if not 1 <= n < math.inf or n != int(n):  # as in pochhammer
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
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or past binary64
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"3F2 terms at ({n}, {a}, {b}, {eps}) leave binary64")
    return total
