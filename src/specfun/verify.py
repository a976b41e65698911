"""Check registry, grid execution, and report serialization.

Every identity, inequality and shape property asserted by the library
is registered here as a CheckSpec and executed over a grid.  Check kinds:

* identity     — evaluator returns a residual, zero on paper.
* inequality   — evaluator returns the signed slack of its claim (>= 0
                 where it holds); a two-sided bound the lesser of two.
* monotonicity — evaluator returns the sequence value; run_check takes
                 each step v[i] - v[i-1] as the slack.
* convexity    — same with second differences (uniform grids only).
A check passes iff no |residual| and no -slack exceeds its tolerance.
All but six read in rounding units, eps * S with S = sum |terms|
(kernel.balance), under one tolerance, _ROUNDING_BUDGET: an inequality
balances its two sides.  Five checks are strict sign tests that neither
the budget nor tol_scale loosens: a claim v >= 0 on one value reads
+-1/eps or 0 (S = |v|), and a sharpness probe reads 0 where the
pushed constant breaks and -inf where it holds.  The six identities
whose gap is truncation (a limit, a table, a stencil) keep their own
tolerance.
A NaN or infinite value fails any kind, with residual inf at its point.

Each suite builder registers a check with one add(id, anchor, kind, grid,
evaluator) call beside its evaluator (_registry), and the tolerance
defaults to the budget: only the six truncation identities pass tol=.

Evaluators are pure and draws are generated from fixed seeds, so rerunning
a suite is deterministic; results are sorted by check id.  run_suite runs
the hyper suite's checks in one hyper.EvalScope (_MEMO_SUITES): each
distinct 2F1 of the suite, its complement keyed only past x = 0.75 where
the engine reads it, is evaluated once, with the bits run_check alone
gives, and the memo is dropped when the suite's checks return or raise.
The other suites repeat no 2F1 argument and run without a memo.  A value
that several checks of a suite read at the same points (_shared: K and
K(r)/log(4/r') on _BATTERY_GRID, theta, mono_f, the ellipse perimeter, the
phi_k_a solves of phi_roundtrip and beta_below_alpha) is evaluated once
per point in a scope that run_suite opens and drops around each suite,
as it does EvalScope.  A lone run_check shares nothing.
"""

import contextlib
import math
import random
import time
from collections import namedtuple
from contextvars import ContextVar

from . import balls, elliptic, gamma, hyper, modular
from .errors import DomainError
from .kernel import Grid, balance, derivative

__all__ = [
    "CheckSpec",
    "CheckResult",
    "Report",
    "SUITES",
    "build_checks",
    "run_check",
    "run_suite",
    "serialize",
]

_KINDS = ("identity", "inequality", "monotonicity", "convexity")

_EPS = 2.220446049250313e-16
# the tolerance of every check but six, in units of eps * S: the smallest
# power of two at least 4x the worst reading on the default grids and at
# 7, 64, 200 and 1000 points (14.3, elliptic.lemniscate_ode; the least
# one-sided slack is -3.7); a relative error of 1e-12 c x in every 2F1
# reads 690 and up, and K(r) 1e-13 low a slack of -226 in arth_refined
_ROUNDING_BUDGET = 64.0


def _units(residual, scale):
    """residual / scale / eps, signed: an identity's error or a claim's
    slack in rounding units; 0 for an exact 0, where scale may be 0.  The
    scale divides first, as eps * scale is subnormal or 0 below a scale of
    about 1.1e-308; eps is a power of two, so where that product and
    residual / scale are normal this is residual / (eps * scale) bit for bit."""
    return 0.0 if residual == 0.0 else residual / scale / _EPS


def _slack(hi, lo):
    # _units(*balance(hi, -lo)) bit for bit, inlined: the 10^4-point checks
    # call it 4 * 10^4 times a pass, where those two calls cost 15% of ops/s;
    # |hi| + |lo| by negation, not abs(), is 1.4% of a pass and the same on 0, inf and NaN
    d = hi - lo
    return 0.0 if d == 0.0 else d / ((hi if hi >= 0.0 else -hi) + (lo if lo >= 0.0 else -lo)) / _EPS


def _between(lo, v, hi):
    # the slack of lo <= v <= hi in rounding units, v evaluated once: min()'s pick, inlined
    s1, s2 = _slack(v, lo), _slack(hi, v)
    return s2 if s2 < s1 else s1


_SHARED = ContextVar("verify_shared", default=None)  # the running suite's values, or None


def _shared(fn):
    """fn, evaluated once per point while run_suite runs the suite whose
    builder made it, and on every call outside run_suite.  fn must look
    each library name up when called, so a monkeypatch still applies."""
    def shared(*point):
        values = _SHARED.get()
        if values is None:
            return fn(*point)
        key = shared, point
        v = values.get(key)
        if v is None:
            v = values[key] = fn(*point)
        return v

    return shared


def _max_units(param_sets, fn):
    # worst rounding units of the identity (residual, scale) = fn(params, x)
    def ev(x):
        return max(abs(_units(*fn(params, x))) for params in param_sets)

    return ev


class CheckSpec(namedtuple("CheckSpec", "id anchor kind grid tolerance evaluator note")):
    """One registered check, an immutable namedtuple: ``grid`` is a Grid,
    a tuple or a range of points, ``evaluator`` maps a point to a float.
    An unknown kind or a tolerance that is not positive and finite raises
    DomainError, also from ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, id, anchor, kind, grid, tolerance, evaluator, note=""):
        if kind not in _KINDS:
            raise DomainError(f"unknown check kind {kind!r}")
        if not 0.0 < tolerance < math.inf:  # inf would pass every check
            raise DomainError("tolerance must be positive and finite")
        return tuple.__new__(cls, (id, anchor, kind, grid, tolerance, evaluator, note))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


CheckResult = namedtuple("CheckResult", "id passed max_residual argmax points elapsed_ms")
Report = namedtuple("Report", "created_at suite results summary")


def _points_for(spec: CheckSpec, grid_n):
    # only continuous grids resize; tuples and integer ranges keep their
    # points (Grid is a tuple too, so it is tested first)
    if isinstance(spec.grid, Grid):
        g = spec.grid if grid_n is None else spec.grid._replace(n=int(grid_n))
        return g.points()
    return list(spec.grid)


def run_check(spec: CheckSpec, grid_n: int = None, tol_scale: float = 1.0) -> CheckResult:
    if not 0.0 < tol_scale < math.inf:  # inf would pass every check, nan or <= 0 fail all
        raise DomainError(f"tol_scale must be positive and finite, got {tol_scale}")
    if grid_n is not None and not grid_n >= 2:
        raise DomainError(f"grid_n must be at least 2, got {grid_n}")
    pts = _points_for(spec, grid_n)
    tol = spec.tolerance * tol_scale
    ev, kind, isfinite = spec.evaluator, spec.kind, math.isfinite
    t0 = time.perf_counter()
    vals = [ev(p) for p in pts]
    max_res, argmax = 0.0, pts[0]
    if not all(map(isfinite, vals)):  # NaN fails every test below, +inf meets every margin
        max_res = math.inf
        argmax = next(p for p, v in zip(pts, vals) if not isfinite(v))
    else:
        at = pts
        if kind == "monotonicity":  # each step, as a slack in rounding units
            vals, at = list(map(_slack, vals[1:], vals)), pts[1:]
        elif kind == "convexity":  # each second difference, likewise
            vals = [_units(*balance(w, -2.0 * v, u)) for u, v, w in zip(vals, vals[1:], vals[2:])]
            at = pts[1:-1]
        elif kind == "identity":  # a residual r reads as the slack -|r|
            vals = [-abs(v) for v in vals]
        worst = min(vals, default=0.0)
        if worst < 0.0:  # the first point of the worst reading
            max_res, argmax = -worst, at[vals.index(worst)]
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return CheckResult(
        id=spec.id,
        passed=max_res <= tol,
        max_residual=max_res,
        argmax=float(argmax),
        points=len(pts),
        elapsed_ms=elapsed_ms,
    )


def _registry():
    """A suite builder's list of checks and the add that registers each;
    tol defaults to the rounding budget, its one owner."""
    specs = []

    def add(id, anchor, kind, grid, evaluator, tol=_ROUNDING_BUDGET, note=""):
        specs.append(CheckSpec(id, anchor, kind, grid, tol, evaluator, note))

    return specs, add


# ---------------------------------------------------------------------------
# gamma suite


def _build_gamma():
    checks, add = _registry()
    eg = gamma.EULER_GAMMA

    def recurrence(x):
        # x + 1 would round, by up to ulp(32)/2 next to x = 31.5, and
        # psi(x + 1) ~ 3.5 amplify that to tens of units; taking
        # x = (x + 1) - 1 makes x + 1 exact on [0.5, 50]
        x = (x + 1.0) - 1.0
        return _slack(gamma.gamma(x + 1.0), x * gamma.gamma(x))

    add("gamma.recurrence", "Gamma(x+1) = x Gamma(x)", "identity",
        Grid(0.5, 50.0, 1000, "logarithmic"), recurrence)

    def interval_bounds(x):
        return _between(x ** ((1.0 - eg) * x - 1.0), gamma.gamma(x), x ** (x - 1.0))

    add("gamma.interval_bounds", "x^((1-g)x-1) < Gamma(x) < x^(x-1) on (1,100]", "inequality",
        Grid(1.005, 100.0, 200), interval_bounds)

    _A01 = 1.0 - eg
    _B01 = 0.5 * (math.pi ** 2 / 6.0 - eg)

    def alzer_unit(x):
        return _between(x ** (_A01 * (x - 1.0) - eg), gamma.gamma(x), x ** (_B01 * (x - 1.0) - eg))

    add("gamma.alzer_unit_interval",
        "x^(a(x-1)-g) < Gamma(x) < x^(b(x-1)-g) on (0,1), a = 1-g, b = (pi^2/6-g)/2", "inequality",
        Grid(0.01, 0.99, 99), alzer_unit)

    def alzer_beyond(x):
        return _between(x ** (_B01 * (x - 1.0) - eg), gamma.gamma(x), x ** (x - 1.0 - eg))

    add("gamma.alzer_beyond_one",
        "x^(a(x-1)-g) < Gamma(x) < x^(x-1-g) on (1,inf), a = (pi^2/6-g)/2", "inequality",
        Grid(1.005, 100.0, 200), alzer_beyond)

    table = gamma.THETA_RECORD

    def theta_row(i):
        x, printed = table[i]
        return gamma.theta(x) - printed

    add("gamma.theta_table", "sixth-root correction reproduces the 14-entry record", "identity",
        range(len(table)), theta_row, tol=1.01e-4,
        note="two recorded entries (x = 6/12, 11/12) are truncated rather than "
             "rounded in the source, so their gaps sit just above 5e-5")

    theta = _shared(lambda x: gamma.theta(x))
    add("gamma.theta_growth_range", "theta/30 in (1/100, 1/30) on [1, 500]", "inequality",
        Grid(1.0, 500.0, 500), lambda x: _between(0.01, theta(x) / 30.0, 1.0 / 30.0))
    add("gamma.theta_growth_mono", "theta increasing on [1, 500]", "monotonicity",
        Grid(1.0, 500.0, 500), theta)

    gaps = gamma.detemple_gaps(10_000)  # R_n - g, n = 1..10^4: one table per build
    bigh = [n * n * g for n, g in enumerate(gaps, 1)]  # H(n) = n^2 (R_n - g)
    inv24 = [1.0 / (24 * n * n) for n in range(1, 10_002)]  # 1/(24 n^2), the product exact

    def detemple_bracket(n):
        return _between(inv24[n], gaps[n - 1], inv24[n - 1])

    add("gamma.detemple_bracket", "1/(24(n+1)^2) < R_n - g < 1/(24 n^2), n = 1..10^4", "inequality",
        range(1, 10_001), detemple_bracket)
    add("gamma.bigh_monotone", "n^2 (R_n - g) strictly increasing, n = 1..10^4", "monotonicity",
        range(1, 10_001), lambda n: bigh[n - 1])
    add("gamma.bigh_below_cap", "n^2 (R_n - g) < 1/24", "inequality", range(1, 10_001),
        lambda n: _slack(1.0 / 24.0, bigh[n - 1]))

    def karatsuba_margin(k):
        est = gamma.karatsuba_euler_gamma(k)
        return _slack(est.error_bound, abs(est.value - eg))

    add("gamma.karatsuba_bound", "|estimate - g| <= c_k + ulp, c_k = 2/(12k)! + 2k^2 e^-k",
        "inequality", (1, 5, 10, 20), karatsuba_margin)

    def ramanujan_err(i):
        x = 10.0
        ref = gamma.gamma(x + 1.0)
        est = gamma.ramanujan_gamma(x, i)
        return -math.log10(max(abs(est.value - ref) / ref, 1e-300))

    add("gamma.ramanujan_terms_decreasing",
        "sixth-root expansion error shrinks with every added tail coefficient at x = 10",
        "monotonicity", range(8), ramanujan_err)

    def ramanujan_seven(x):
        ref = gamma.gamma(x + 1.0)
        est = gamma.ramanujan_gamma(x, 7)
        return _slack(1e-9, abs(est.value - ref) / ref)

    add("gamma.ramanujan_seven_terms", "full seven-coefficient tail reaches 1e-9 at x >= 10",
        "inequality", (10.0, 20.0, 50.0), ramanujan_seven)

    add("gamma.mono_f_increasing", "log Gamma(x+1)/(x log x) increasing", "monotonicity",
        Grid(1.02, 200.0, 300, "logarithmic"), gamma.mono_f)
    mono_f = _shared(lambda x: gamma.mono_f(x))
    add("gamma.mono_f_concave", "log Gamma(x+1)/(x log x) concave beyond 1", "convexity",
        Grid(1.02, 200.0, 200), lambda x: -mono_f(x))
    add("gamma.mono_f_range", "mono_f maps (1, inf) into (1-g, 1)", "inequality",
        Grid(1.02, 200.0, 200), lambda x: _between(1.0 - eg, mono_f(x), 1.0))
    add("gamma.lemma_g_positive", "sum (n-x)/(n+x)^3 > 0 for x > -1", "inequality",
        Grid(-0.999, 100.0, 120), lambda x: _slack(gamma.lemma_g(x), 0.0))
    add("gamma.lemma_h_nonnegative", "x^2 Psi'(1+x) - x Psi(1+x) + log Gamma(1+x) >= 0",
        "inequality", Grid(-0.999, 20.0, 100), lambda x: _slack(gamma.lemma_h(x), 0.0))

    def dn_slower(n):
        rec = gamma.detemple(n)
        return _slack(abs(rec.d_n - eg), abs(rec.r_minus_gamma))

    add("gamma.dn_slower_than_rn", "|D_n - g| > |R_n - g| for n = 2..1000", "inequality",
        range(2, 1001, 2), dn_slower)
    return checks


# ---------------------------------------------------------------------------
# balls suite

def _build_balls():
    checks, add = _registry()

    add("balls.volume_decreasing", "Omega_n decreases to 0 from n = 7 on", "monotonicity",
        range(7, 201), lambda n: -balls.log_ball_volume(n))
    add("balls.surface_decreasing", "omega_n decreases to 0 from n = 7 on", "monotonicity",
        range(7, 201), lambda n: -(math.log(n + 1) + balls.log_ball_volume(n + 1)))
    add("balls.root_power_decreasing", "Omega_n^(1/(n log n)) decreasing", "monotonicity",
        range(2, 201), lambda n: -math.exp(balls.log_ball_volume(n) / (n * math.log(n))))
    add("balls.root_power_above_limit", "Omega_n^(1/(n log n)) > e^(-1/2)", "inequality",
        range(2, 201),
        lambda n: _slack(math.exp(balls.log_ball_volume(n) / (n * math.log(n))), math.exp(-0.5)))
    add("balls.alzer_power",
        "a Om_(n+1)^(n/(n+1)) <= Om_n <= b Om_(n+1)^(n/(n+1)), a = 2/sqrt(pi), b = sqrt(e)",
        "inequality", range(1, 201),
        lambda n: _between(balls.POWER_A, balls.power_ratio(n), balls.POWER_B))
    add("balls.alzer_sqrt", "sqrt((n+1/2)/2pi) <= Om_(n-1)/Om_n <= sqrt((n+pi/2-1)/2pi)",
        "inequality", range(1, 201),
        lambda n: _between(balls.SQRT_A, balls.sqrt_shift(n), balls.SQRT_B))
    add("balls.alzer_quotient",
        "(1+1/n)^a <= Om_n^2/(Om_(n-1)Om_(n+1)) <= (1+1/n)^(1/2), a = 2 - log pi/log 2",
        "inequality", range(1, 201),
        lambda n: _between(balls.QUOTIENT_ALPHA, balls.quotient_exponent(n), balls.QUOTIENT_BETA))
    add("balls.alzer_difference", "A/sqrt(n) <= (n+1)Om_(n+1)/Om_n - n Om_n/Om_(n-1) < B/sqrt(n)",
        "inequality", range(2, 201),
        lambda n: _between(balls.DIFFERENCE_A, balls.difference_scaled(n), balls.DIFFERENCE_B))

    def breaks(i):
        bump = 1e-3
        if i == 0:   # lower constant of the power family, equality at n = 1
            return balls.power_ratio(1) - balls.POWER_A * (1.0 + bump) < 0.0
        if i == 1:   # upper constant of the sqrt family, equality at n = 1
            return balls.SQRT_B * (1.0 - bump) - balls.sqrt_shift(1) < 0.0
        if i == 2:   # lower exponent of the quotient family, equality at n = 1
            return balls.quotient_exponent(1) - balls.QUOTIENT_ALPHA * (1.0 + bump) < 0.0
        if i == 3:   # lower constant of the difference family, equality at n = 2
            return balls.difference_scaled(2) - balls.DIFFERENCE_A * (1.0 + bump) < 0.0
        # upper constant of the difference family: violated within n <= 200
        return any(
            balls.DIFFERENCE_B * (1.0 - bump) - balls.difference_scaled(n) < 0.0 for n in range(2, 201)
        )

    add("balls.sharpness_spotcheck",
        "perturbing each sharp constant by 1e-3 in the favorable direction breaks it", "inequality",
        range(5), lambda i: 0.0 if breaks(i) else -math.inf,
        note="the sqrt(e), A = 1/2 and beta = 1/2 constants are approached too "
             "slowly to violate within n <= 200: perturbed by 1e-3 they still "
             "hold there, so no probe on this range shows their sharpness")
    return checks


# ---------------------------------------------------------------------------
# hyper suite

_HP = hyper.HyperParams


def _build_hyper():
    checks, add = _registry()
    trip = (_HP(0.5, 0.5, 1.0), _HP(1.3, 0.7, 1.5), _HP(0.3, 0.7, 1.2))

    # the one stencil witness of DLMF 15.5.1, which the exact-derivative
    # checks below take as given; stencil noise is at most 8.3e-11
    def deriv_formula(p, z):
        lhs = derivative(lambda t: hyper.hyp2f1(p.a, p.b, p.c, t), z, order=1, domain=(0.0, 1.0))
        rhs = p.a * p.b / p.c * hyper.hyp2f1(p.a + 1.0, p.b + 1.0, p.c + 1.0, z)
        return lhs - rhs

    add("hyper.derivative_formula", "dF/dz = (ab/c) F(a+1,b+1;c+1;z)", "identity",
        Grid(0.05, 0.7, 14), lambda z: max(abs(deriv_formula(p, z)) for p in trip), tol=5e-9)

    one_probes = (_HP(0.1, 0.2, 1.0), _HP(0.3, 0.3, 1.4), _HP(0.25, 0.5, 1.6))

    def gauss_limit(i):
        p = one_probes[i]
        x = 1.0 - 1e-6
        return hyper.hyp2f1(p.a, p.b, p.c, x, one_minus_x=1e-6) - hyper.gauss_value_at_one(p)

    add("hyper.gauss_value_limit", "series limit at 1 matches the gamma quotient", "identity",
        range(len(one_probes)), gauss_limit, tol=1e-4)

    zb_pairs = ((0.5, 0.5), (1.0 / 3.0, 2.0 / 3.0), (0.25, 0.25))

    def zero_balanced(i):
        a, b = zb_pairs[i]
        w = 1e-6
        x = 1.0 - w
        gap = abs(
            gamma.beta(a, b) * hyper.hyp2f1(a, b, a + b, x, one_minus_x=w)
            + math.log(w) - hyper.ramanujan_R(a, b)
        )
        return _slack(10.0 * w * abs(math.log(w)), gap)

    add("hyper.zero_balanced_limit",
        "B(a,b) F(a,b;a+b;x) + log(1-x) -> R(a,b) with O((1-x)log(1-x)) gap", "inequality",
        range(len(zb_pairs)), zero_balanced)
    add("hyper.ramanujan_constant_half", "R(1/2,1/2) = log 16", "identity", (0.0,),
        lambda _: _slack(hyper.ramanujan_R(0.5, 0.5), math.log(16.0)))
    add("hyper.qf_decreasing", "R(x,1-x) sin(pi x) decreasing on (0, 1/2]", "monotonicity",
        Grid(0.001, 0.5, 120), lambda x: -hyper.ramanujan_R(x, 1.0 - x) * math.sin(math.pi * x))

    for which in hyper.CONTIGUOUS_IDS:
        add(f"hyper.contiguous_{which}", f"contiguous relation {which}", "identity",
            Grid(0.05, 0.95, 19),
            _max_units(trip, lambda p, z, w=which: hyper.contiguous_residual(w, p, z)))

    ode_params = (_HP(0.7, 1.1, 1.3), _HP(0.5, 0.5, 1.0))

    def hyp_ode(p, z):
        f, d1, d2 = hyper.hyp2f1_derivatives(p.a, p.b, p.c, z)
        return balance(z * (1.0 - z) * d2, (p.c - (p.a + p.b + 1.0) * z) * d1, -p.a * p.b * f)

    add("hyper.hypergeometric_ode", "z(1-z)w'' + [c-(a+b+1)z]w' - ab w = 0", "identity",
        Grid(0.05, 0.95, 19), _max_units(ode_params, hyp_ode))

    sq_params = (_HP(0.6, 0.9, 1.25), _HP(0.5, 0.5, 1.0))

    def square_ode(p, z):
        # w(z) = F(z^2): w' = 2z F', w'' = 2F' + 4z^2 F''
        x = z * z
        f, f1, f2 = hyper.hyp2f1_derivatives(p.a, p.b, p.c, x, one_minus_x=(1.0 - z) * (1.0 + z))
        return balance(
            z * (1.0 - x) * (2.0 * f1 + 4.0 * x * f2),
            (2.0 * p.c - 1.0 - (2.0 * p.a + 2.0 * p.b + 1.0) * x) * 2.0 * z * f1,
            -4.0 * p.a * p.b * z * f,
        )

    add("hyper.ode_square_argument",
        "z(1-z^2)w'' + [2c-1-(2a+2b+1)z^2]w' - 4ab z w = 0 for w = F(a,b;c;z^2), 2c = a+b+1",
        "identity", Grid(0.05, 0.95, 19), _max_units(sq_params, square_ode))

    wr_params = (_HP(0.5, 0.5, 1.0), _HP(0.4, 0.8, 1.1))

    def wronskian_decay(p, z):
        # w1 = F(z), w2 = F(1-z), so w2' = -F'(1-z); F' = (ab/c) F(a+1, b+1; c+1)
        k = p.a * p.b / p.c
        w1 = hyper.hyp2f1(p.a, p.b, p.c, z)
        d1 = k * hyper.hyp2f1(p.a + 1.0, p.b + 1.0, p.c + 1.0, z)
        w2 = hyper.hyp2f1(p.a, p.b, p.c, 1.0 - z, one_minus_x=z)
        d2 = k * hyper.hyp2f1(p.a + 1.0, p.b + 1.0, p.c + 1.0, 1.0 - z, one_minus_x=z)
        m = z ** p.c * (1.0 - z) ** (p.a + p.b - p.c + 1.0)
        ref = math.exp(2.0 * gamma.log_gamma(p.c) - gamma.log_gamma(p.a) - gamma.log_gamma(p.b))
        return balance(-w1 * d2 * m, -w2 * d1 * m, ref)  # W m = -ref

    add("hyper.wronskian_decay",
        "W(F(.;z), F(.;1-z)) z^c (1-z)^(a+b-c+1) is constant when 2c = a+b+1", "identity",
        Grid(0.1, 0.9, 17), _max_units(wr_params, wronskian_decay))

    cor_params = ((0.3, 1.2), (0.5, 1.0), (0.7, 1.5))

    def cor44(pair, z):
        a, c = pair
        return balance(hyper.corollary44_value(a, c, z), -hyper.corollary44_reference(a, c))

    add("hyper.corollary44", "u v1 + u1 v - v v1 equals its gamma quotient", "identity",
        Grid(0.1, 0.9, 17), _max_units(cor_params, cor44))

    def cor44_spread(i):
        a, c = cor_params[i]
        vals = [hyper.corollary44_value(a, c, z) for z in (0.1, 0.3, 0.5, 0.7, 0.9)]
        return _slack(max(vals), min(vals))

    add("hyper.corollary44_spread", "the product combination is z-independent", "identity",
        range(len(cor_params)), cor44_spread)

    combo_params = ((0.5, 0.5, 1.0), (0.4, 0.8, 1.1), (0.3, 1.9, 1.6))

    add("hyper.wronskian_combo",
        "(c-a)(u v1 + u1 v) + (a-1) v v1 = [G(c)^2/(G(a)G(b))] (z(1-z))^(1-c)", "identity",
        Grid(0.05, 0.95, 19),
        _max_units(combo_params, lambda p, z: hyper.wronskian_combo_residual(*p, z)))

    elliott_draws = _elliott_draws(100)

    add("hyper.elliott", "F1 F2 + F3 F4 - F2 F3 equals its gamma quotient", "identity",
        range(len(elliott_draws)), lambda i: _units(*hyper.elliott_residual(*elliott_draws[i])))

    kummer_params = ((0.5, 0.5, 0.5), (0.4, 0.6, 0.5), (0.9, 0.8, 0.7))

    add("hyper.kummer", "Kummer's two-product closed form", "identity", Grid(0.05, 0.95, 50),
        _max_units(kummer_params, lambda p, x: hyper.kummer_residual(*p, x)))

    growth_pairs = ((0.5, 0.5), (0.25, 0.75))

    def k_of(pair, x):
        a, b = pair
        w = math.exp(-x)
        return hyper.hyp2f1(a, b, a + b, 1.0 - w, one_minus_x=w)

    add("hyper.growth_exp_mono", "F(a,b;a+b;1-e^-x) increasing in x", "monotonicity",
        Grid(0.25, 20.0, 80), lambda x: sum(k_of(p, x) for p in growth_pairs))
    add("hyper.growth_exp_convex", "F(a,b;a+b;1-e^-x) convex in x", "convexity",
        Grid(0.25, 20.0, 80), lambda x: sum(k_of(p, x) for p in growth_pairs))

    # the endpoint checks take k' and l' from the exact F' (DLMF 15.5.1)
    # close to both limits, x = 1e-8 and 40 or 1e12, where their gap to the
    # limit is at most 8.0e-10
    def k_slope(a, b, x):  # k'(x) = e^-x F'(1 - e^-x)
        w = math.exp(-x)
        return w * hyper.hyp2f1_derivatives(a, b, a + b, 1.0 - w, one_minus_x=w)[1]

    def growth_exp_endpoints(i):
        a, b = growth_pairs[i]
        lo_ref = a * b / (a + b)
        hi_ref = math.exp(gamma.log_gamma(a + b) - gamma.log_gamma(a) - gamma.log_gamma(b))
        return max(abs(k_slope(a, b, 1e-8) - lo_ref), abs(k_slope(a, b, 40.0) - hi_ref))

    add("hyper.growth_exp_endpoints", "k' runs from ab/(a+b) to G(a+b)/(G(a)G(b))", "identity",
        range(len(growth_pairs)), growth_exp_endpoints, tol=1e-8)

    power_trips = ((0.9, 0.8, 0.5), (0.6, 0.9, 0.5))

    def l_of(trip_, x):
        a, b, c = trip_
        d = a + b - c
        w = (1.0 + x) ** (-1.0 / d)
        return hyper.hyp2f1(a, b, c, 1.0 - w, one_minus_x=w)

    add("hyper.growth_power_mono", "F(a,b;c;1-(1+x)^(-1/d)) increasing in x", "monotonicity",
        Grid(0.25, 30.0, 60), lambda x: sum(l_of(p, x) for p in power_trips))
    add("hyper.growth_power_convex", "F(a,b;c;1-(1+x)^(-1/d)) convex in x", "convexity",
        Grid(0.25, 30.0, 60), lambda x: sum(l_of(p, x) for p in power_trips))

    def l_slope(a, b, c, x):  # l'(x) = (1+x)^(-1/d-1) F'(1 - (1+x)^(-1/d)) / d
        d = a + b - c
        w = (1.0 + x) ** (-1.0 / d)
        return w / (d * (1.0 + x)) * hyper.hyp2f1_derivatives(a, b, c, 1.0 - w, one_minus_x=w)[1]

    def growth_power_endpoints(i):
        a, b, c = power_trips[i]
        d = a + b - c
        lo_ref = a * b / (c * d)
        hi_ref = math.exp(
            gamma.log_gamma(c) + gamma.log_gamma(d) - gamma.log_gamma(a) - gamma.log_gamma(b)
        )
        return max(abs(l_slope(a, b, c, 1e-8) - lo_ref), abs(l_slope(a, b, c, 1e12) - hi_ref))

    add("hyper.growth_power_endpoints", "l' runs from ab/(cd) to G(c)G(d)/(G(a)G(b))", "identity",
        range(len(power_trips)), growth_power_endpoints, tol=1e-8)

    f32_draws = _f32_draws(100)

    def f32(i):
        n, a, b, eps = f32_draws[i]
        return hyper.f32_terminating(n, a, b, eps)

    add("hyper.f32_positive", "terminating 3F2(-n,a,b;1+a+b,1+eps-n;1) > 0 in the eps window",
        "inequality", range(len(f32_draws)), lambda i: _slack(f32(i), 0.0))
    return checks


def _elliott_draws(count, seed=20259):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        a = rng.uniform(0.0, 0.45)
        b = rng.uniform(0.0, 1.2)
        c = rng.uniform(0.0, 0.45)
        x = rng.uniform(0.08, 0.92)
        # keep the near-one exponents of all four factors off the integers
        if all(abs(expo - round(expo)) >= 0.05 for expo in (a + b, b + c)):
            draws.append((a, b, c, x))
    return draws


def _f32_draws(count, seed=777):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        n = rng.randint(1, 50)
        a = rng.uniform(0.05, 2.0)
        b = rng.uniform(0.05, 2.0)
        lo = a * b / (1.0 + a + b)  # below 4/5, so the eps window is never empty
        eps = rng.uniform(lo + 0.01 * (1.0 - lo), 0.99)
        draws.append((n, a, b, eps))
    return draws


# ---------------------------------------------------------------------------
# elliptic suite

_BATTERY_GRID = Grid(1e-4, 1.0 - 1e-4, 512, "atanh")
_ALZER_KLOG = math.pi / (4.0 * math.log(2.0)) - 1.0


def _build_elliptic():
    checks, add = _registry()
    ellip_k = _shared(lambda r: elliptic.ellip_k(r))  # read on _BATTERY_GRID by six checks
    klog_ratio = _shared(lambda r: ellip_k(r) / math.log(4.0 / math.sqrt((1.0 - r) * (1.0 + r))))

    def agm_vs_series(r):
        series = hyper.hyp2f1(0.5, 0.5, 1.0, r * r, one_minus_x=(1.0 - r) * (1.0 + r))
        return _slack(2.0 / math.pi * ellip_k(r), series)

    add("elliptic.agm_vs_series", "(2/pi) K(r) = F(1/2,1/2;1;r^2), AGM against series", "identity",
        _BATTERY_GRID, agm_vs_series)
    add("elliptic.legendre", "E K' + E' K - K K' = pi/2", "identity", Grid(0.01, 0.99, 99),
        lambda r: _units(*elliptic.legendre_residual(r)))

    gen_as = (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.49)

    add("elliptic.legendre_generalized", "e_a k_a' + e_a' k_a - k_a k_a' = pi sin(pi a)/(4(1-a))",
        "identity", Grid(0.02, 0.98, 64, "atanh"),
        _max_units(gen_as, elliptic.generalized_legendre_residual))

    def arth_bounds(r):
        base = math.atanh(r) / r
        return _between(0.5 * math.pi * math.sqrt(base), ellip_k(r), 0.5 * math.pi * base)

    add("elliptic.arth_bounds", "(pi/2)(arth r/r)^(1/2) < K(r) < (pi/2) arth r/r", "inequality",
        _BATTERY_GRID, arth_bounds)

    def arth_refined(r):
        return _slack(ellip_k(r), 0.5 * math.pi * (math.atanh(r) / r) ** 0.75)

    add("elliptic.arth_refined", "(pi/2)(arth r/r)^(3/4) < K(r), 3/4 the best exponent",
        "inequality", _BATTERY_GRID, arth_refined)

    def arth_exponent_sharp(_):
        grid = Grid(1e-5, 1.0 - 1e-5, 8192, "atanh")
        q = 0.75 + 1e-3
        for r in grid.points():
            if 0.5 * math.pi * (math.atanh(r) / r) ** q > elliptic.ellip_k(r):
                return 0.0
        return -math.inf

    add("elliptic.arth_exponent_sharp",
        "exponent 3/4 + 1e-3 already fails on a refined grid (near r -> 0)", "inequality", (0.0,),
        arth_exponent_sharp,
        note="the bound degrades at the origin, not at r -> 1: both sides expand "
             "as 1 + q r^2/3 versus 1 + r^2/4 there; the upper exponent 1, "
             "lowered by 1e-3, fails only where log(4/r') exceeds (pi/2)^1000: "
             "no binary64 grid shows its sharpness")

    add("elliptic.klog_kuhnau_qiu", "9/(8+r^2) < K(r)/log(4/r')", "inequality", _BATTERY_GRID,
        lambda r: _slack(klog_ratio(r), 9.0 / (8.0 + r * r)))
    add("elliptic.klog_qiu_vamanamurthy", "K(r)/log(4/r') < 1 + (r')^2/4", "inequality", _BATTERY_GRID,
        lambda r: _units(*balance(1.0, 0.25 * (1.0 - r) * (1.0 + r), -klog_ratio(r))),
        note="the ratio is 1 + (r')^2 (1 - 1/log(4/r'))/4 + ... as r -> 1, so "
             "the quarter, lowered by 1e-3, fails only for r' below about "
             "e^-1000: no grid in binary64 shows its sharpness")
    add("elliptic.klog_alzer", "1 + (pi/(4 log 2) - 1)(r')^2 < K(r)/log(4/r')", "inequality",
        _BATTERY_GRID,
        lambda r: _units(*balance(klog_ratio(r), -1.0, -_ALZER_KLOG * (1.0 - r) * (1.0 + r))))

    # over the semiaxis b = r': perimeter(b) = 4 E(r)
    perimeter = _shared(lambda b: elliptic.ellipse_perimeter(b))
    add("elliptic.ellipse_lower", "perimeter(b) >= 2 pi ((1+b^(3/2))/2)^(2/3) on [0,1]",
        "inequality", Grid(0.0, 1.0, 101), lambda b: _slack(perimeter(b), elliptic.muir_approx(b)))
    add("elliptic.ellipse_upper", "perimeter(b) <= 2 pi ((1+b^2)/2)^(1/2) on [0,1]", "inequality",
        Grid(0.0, 1.0, 101), lambda b: _slack(elliptic.upper_approx(b), perimeter(b)))

    add("elliptic.mu_decreasing", "the ring modulus decreases in r", "monotonicity",
        Grid(1e-4, 1.0 - 1e-4, 128, "atanh"), lambda r: -elliptic.mu(r))
    add("elliptic.mu_a_decreasing", "the generalized ring modulus decreases in r", "monotonicity",
        Grid(1e-4, 1.0 - 1e-4, 128, "atanh"),
        lambda r: -(elliptic.mu_a(1.0 / 3.0, r) + elliptic.mu_a(0.15, r)))
    add("elliptic.mu_symmetry_point", "mu_a(1/sqrt 2) = pi/(2 sin(pi a))", "identity",
        tuple(i / 20.0 for i in range(1, 20)),
        lambda a: _slack(elliptic.mu_a(a, math.sqrt(0.5)), 0.5 * math.pi / math.sin(math.pi * a)))

    phi_ps = (2.0, 5.0)
    phi_as = (0.5, 1.0 / 3.0)

    add("elliptic.phi_below_identity", "phi^a_(1/p)(r) < r for p > 1", "inequality",
        Grid(0.05, 0.95, 64, "atanh"),
        lambda r: min(_slack(r, elliptic.phi_k_a(a, 1.0 / p, r)) for a in phi_as for p in phi_ps))

    rt_ps = (2.0, 3.0, 5.0, 7.0, 11.0, 23.0)
    solve = _shared(lambda a, p, r: elliptic.phi_k_a(a, 1.0 / p, r))  # p = 2, 3, 5 in both checks

    def phi_roundtrip(r):
        worst = 0.0
        for a in phi_as:
            for p in rt_ps:
                s = solve(a, p, r)
                worst = max(worst, abs(_slack(elliptic.phi_k_a(a, p, s), r)))
        return worst

    add("elliptic.phi_roundtrip", "phi^a_p inverts phi^a_(1/p)", "identity",
        Grid(0.05, 0.95, 32, "atanh"), phi_roundtrip)
    add("elliptic.beta_below_alpha", "solved modulus stays below the input for p > 1", "inequality",
        Grid(0.05, 0.95, 32, "atanh"),
        lambda r: min(_slack(r * r, solve(a, p, r) ** 2)
                      for a in phi_as for p in (2.0, 3.0, 5.0)))

    ode_as = (0.5, 1.0 / 3.0, 0.25)
    for which in elliptic.ODE_IDS:
        add(f"elliptic.{which}", f"second-order ODE residual for {which}", "identity",
            Grid(0.06, 0.94, 15),
            _max_units(ode_as, lambda a, r, w=which: elliptic.ode_residual(w, a, r)))

    add("elliptic.schwarzian", "Schwarzian of mu_a matches its closed form", "identity",
        Grid(0.15, 0.85, 8), _max_units((0.5, 0.25), elliptic.schwarzian_residual))

    def schwarzian_decay(_):
        h = 5e-3  # at 2.5e-3 the half step's stencil reads mu's last bits
        r1 = abs(elliptic.schwarzian_residual(0.5, 0.5, step=h)[0])
        r2 = abs(elliptic.schwarzian_residual(0.5, 0.5, step=h / 2.0)[0])
        return _slack(r1, 3.0 * r2)

    add("elliptic.schwarzian_step_decay", "halving the stencil step cuts the residual >= 3x",
        "inequality", (0.0,), schwarzian_decay)

    def e_a_continuity(a):
        closed = elliptic.e_a(a, 1.0)
        return elliptic.e_a(a, 1.0 - 1e-8) - closed

    add("elliptic.e_a_endpoint", "e_a(r) -> sin(pi a)/(2(1-a)) as r -> 1", "identity",
        tuple(i / 20.0 for i in range(2, 19)), e_a_continuity, tol=1e-5)
    return checks


# ---------------------------------------------------------------------------
# modular suite


def _build_modular():
    checks, add = _registry()
    for iid in modular.IDENTITY_IDS:
        identity = modular.get_identity(iid)
        add(f"modular.{iid}", identity.anchor, "identity", Grid(0.05, 0.95, 64, "atanh"),
            lambda r, i=iid: _units(*modular.identity_residual(i, r)))
    return checks


_BUILDERS = {
    "gamma": _build_gamma,
    "balls": _build_balls,
    "hyper": _build_hyper,
    "elliptic": _build_elliptic,
    "modular": _build_modular,
}
SUITES = tuple(_BUILDERS)
# the suites whose checks repeat 2F1 arguments, which run_suite runs in one
# hyper.EvalScope: on the default grids the hyper suite makes 2,735
# distinct dispatches of 4,115, the elliptic suite 1,700 of 1,700 (there a
# memo only costs), and gamma, balls and modular none
_MEMO_SUITES = frozenset({"hyper"})


def build_checks(suite: str = "all"):
    if suite == "all":
        specs = []
        for name in SUITES:
            specs.extend(_BUILDERS[name]())
        return specs
    if suite not in _BUILDERS:
        raise DomainError(f"unknown suite {suite!r}; use one of {('all',) + SUITES}")
    return _BUILDERS[suite]()


def run_suite(suite: str = "all", grid_n: int = None, tol_scale: float = 1.0) -> Report:
    from datetime import datetime, timezone  # kept off the package's import

    results = []
    for name in SUITES if suite == "all" else (suite,):
        specs = build_checks(name)
        token = _SHARED.set({})  # the suite's _shared values, dropped with it
        try:  # and each distinct 2F1 once per memo suite, same bits
            with hyper.EvalScope() if name in _MEMO_SUITES else contextlib.nullcontext():
                results.extend(run_check(s, grid_n=grid_n, tol_scale=tol_scale) for s in specs)
        finally:
            _SHARED.reset(token)
    results.sort(key=lambda r: r.id)
    passed = sum(1 for r in results if r.passed)
    return Report(
        created_at=datetime.now(timezone.utc).isoformat(),
        suite=suite,
        results=tuple(results),
        summary={"total": len(results), "passed": passed, "failed": len(results) - passed},
    )


def serialize(report: Report, fmt: str = "json") -> bytes:
    if fmt == "json":
        import json  # kept off the package's import, as csv and datetime are

        payload = {**report._asdict(), "results": [r._asdict() for r in report.results],
                   "summary": dict(report.summary)}
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(CheckResult._fields)
        for r in report.results:  # csv writes str of a float, which is its repr
            writer.writerow(r._replace(passed="true" if r.passed else "false"))
        return buf.getvalue().encode("utf-8")
    raise DomainError(f"unknown format {fmt!r}; use 'json' or 'csv'")
