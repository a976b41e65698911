import math
import random
import time

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from specfun import elliptic, gamma, hyper
from specfun.errors import ConstraintError, DomainError, ParameterError, RangeError
from specfun.hyper import HyperParams

mp.mp.dps = 40


class TestPochhammer:
    def test_basics(self):
        assert hyper.pochhammer(3.7, 0) == 1.0
        assert hyper.pochhammer(1.0, 5) == 120.0
        assert hyper.pochhammer(0.5, 3) == 1.875

    def test_negative_n(self):
        with pytest.raises(DomainError):
            hyper.pochhammer(1.0, -1)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            hyper.pochhammer(1e300, 3)

    def test_huge_n_stops_at_zero_or_overflow(self):
        # a product that reached 0 or inf stays there, so n = 10^9 returns
        # at once; a = 5e-324 needs the most factors (308) to overflow
        assert hyper.pochhammer(-3.0, 10**9) == 0.0
        for a in (5e-324, 0.5, -170.5):
            with pytest.raises(OverflowError):
                hyper.pochhammer(a, 10**9)
        with pytest.raises(DomainError):
            hyper.pochhammer(math.nan, 10**9)


# branch coverage: direct series, zero-balanced, integer-offset log series
# (m = 1, 2, 3), reflection, and the generic two-sided connection formula
BRANCH_CASES = [
    (0.5, 0.5, 1.0, 0.25),
    (0.5, 0.5, 1.0, 0.64),
    (0.5, 0.5, 1.0, 0.9),
    (0.5, 0.5, 1.0, 1.0 - 1e-8),
    (1.0, 1.0, 2.0, 0.97),
    (-0.5, 0.5, 1.0, 0.9),
    (-0.5, 0.5, 1.0, 0.9999),
    (-0.75, 0.75, 1.0, 0.89),
    (0.3, 0.4, 2.7, 0.93),
    (0.3, 0.4, 3.7, 0.93),
    (0.5, 0.5, 1.5, 0.93),
    (0.5, 0.5, 2.2, 0.93),
    (0.4, 0.8, 0.9, 0.93),
    (1.5, 1.5, 2.0, 0.9),
    (0.2, 1.3, 0.9, 0.8),
    (1.4, 1.6, 1.5, 0.85),
    (0.5, 1.0, 1.1, 0.99),
    (0.1, 0.2, 1.0, 0.999999),
    (2.3, 3.7, 6.0, 0.8),
]


class TestF21:
    @pytest.mark.parametrize("a,b,c,x", BRANCH_CASES)
    def test_against_mpmath(self, a, b, c, x):
        ref = float(mp.hyp2f1(a, b, c, x))
        got = hyper.hyp2f1(a, b, c, x)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_at_zero(self):
        assert hyper.f21(HyperParams(2.2, 0.3, 1.7), 0.0).value == 1.0

    def test_log_closed_form(self):
        # z F(1,1;2;z) = -log(1-z)
        got = hyper.hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert abs(0.5 * got - math.log(2.0)) < 1e-15

    def test_atanh_closed_form(self):
        # z F(1,1/2;3/2;z^2) = atanh(z)
        got = hyper.hyp2f1(1.0, 0.5, 1.5, 0.25)
        assert abs(got - math.atanh(0.5) / 0.5) < 5e-16

    def test_agm_cross_check(self):
        got = hyper.hyp2f1(0.5, 0.5, 1.0, 0.64)
        ref = 2.0 / math.pi * elliptic.ellip_k(0.8)
        assert abs(got - ref) < 1e-13

    def test_error_estimate_and_method_tags(self):
        r1 = hyper.f21(HyperParams(0.5, 0.5, 1.0), 0.3)
        assert r1.method == "direct_series"
        r2 = hyper.f21(HyperParams(0.5, 0.5, 1.0), 0.9)
        assert r2.method == "near_one_expansion"
        r3 = hyper.f21(HyperParams(1.5, 1.5, 2.0), 0.9)
        assert r3.method == "reflection_transform"
        for r in (r1, r2, r3):
            assert 0.0 <= r.abs_err_estimate < 1e-10
            assert r.terms_used < 1000

    def test_exact_complement_deep(self):
        a = 1.0 / 3.0
        r = 1e-7
        got = hyper.hyp2f1(a, 1.0 - a, 1.0, 1.0 - r * r, one_minus_x=r * r)
        ref = float(mp.hyp2f1(a, 1 - a, 1, 1 - mp.mpf(r) ** 2))
        assert abs(got - ref) <= 1e-13 * ref

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            hyper.f21(HyperParams(0.5, 0.5, 0.0), 0.5)
        with pytest.raises(ParameterError):
            hyper.f21(HyperParams(0.5, 0.5, -3.0), 0.5)
        with pytest.raises(ParameterError):
            hyper.f21(HyperParams(-0.5, -0.5, 1.5), 0.5)
        with pytest.raises(ParameterError):
            hyper.f21(HyperParams(-1.5, 0.5, 1.5), 0.5)
        with pytest.raises(ParameterError):
            hyper.f21(HyperParams(-0.5, 0.5, 0.9), 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyper.f21(HyperParams(0.5, 0.5, 1.0), 1.0)
        with pytest.raises(DomainError):
            hyper.f21(HyperParams(0.5, 0.5, 1.0), -0.25)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.3, 3.0),
           st.floats(0.0, 0.9), st.floats(0.001, 0.05))
    @settings(max_examples=150, deadline=None)
    def test_increasing_in_argument(self, a, b, c, x, dx):
        # all series terms are positive for positive parameters
        assert hyper.hyp2f1(a, b, c, x + dx) >= hyper.hyp2f1(a, b, c, x)


class TestGaussValueAtOne:
    def test_gamma_quotient(self):
        got = hyper.gauss_value_at_one(HyperParams(0.5, 0.5, 2.0))
        assert abs(got - 4.0 / math.pi) < 1e-13

    def test_matches_series_limit(self):
        p = HyperParams(0.1, 0.2, 1.0)
        near = hyper.hyp2f1(p.a, p.b, p.c, 1.0 - 1e-6, one_minus_x=1e-6)
        assert abs(near - hyper.gauss_value_at_one(p)) < 1e-4

    def test_trivial_a_zero(self):
        assert abs(hyper.gauss_value_at_one(HyperParams(0.0, 0.3, 1.1)) - 1.0) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            hyper.gauss_value_at_one(HyperParams(1.0, 1.0, 1.5))


class TestRamanujanConstant:
    def test_half(self):
        assert abs(hyper.ramanujan_R(0.5, 0.5) - math.log(16.0)) < 1e-13

    def test_symmetry_and_one(self):
        assert hyper.ramanujan_R(0.3, 0.8) == hyper.ramanujan_R(0.8, 0.3)
        assert abs(hyper.ramanujan_R(1.0, 1.0)) < 1e-14

    def test_zero_balanced_asymptotic(self):
        for a, b in ((0.5, 0.5), (1.0 / 3.0, 2.0 / 3.0), (0.25, 0.25)):
            w = 1e-6
            gap = abs(
                gamma.beta(a, b) * hyper.hyp2f1(a, b, a + b, 1.0 - w, one_minus_x=w)
                + math.log(w) - hyper.ramanujan_R(a, b)
            )
            assert gap <= 10.0 * w * abs(math.log(w))

    def test_qf_product_decreasing(self):
        f = lambda x: hyper.ramanujan_R(x, 1.0 - x) * math.sin(math.pi * x)
        xs = [0.001, 0.05, 0.2, 0.35, 0.5]
        vals = [f(x) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[0] < math.pi
        assert abs(vals[-1] - math.log(16.0)) < 1e-13


class TestContiguous:
    @pytest.mark.parametrize("which,tol", [
        ("d_u", 1e-6), ("d_v", 1e-6), ("shift_c", 1e-8),
        ("sym_combo", 1e-6), ("b_shift", 1e-6),
    ])
    @pytest.mark.parametrize("params,z", [
        ((1.3, 0.7, 1.5), 0.4), ((0.5, 0.5, 1.0), 0.3), ((0.3, 0.7, 1.2), 0.5),
    ])
    def test_residuals(self, which, tol, params, z):
        res = hyper.contiguous_residual(which, HyperParams(*params), z)
        assert abs(res) < tol

    def test_unknown_relation(self):
        with pytest.raises(DomainError):
            hyper.contiguous_residual("nope", HyperParams(1.0, 1.0, 1.5), 0.4)


class TestProductIdentities:
    def test_corollary44_value(self):
        got = hyper.corollary44_value(0.3, 1.2, 0.6)
        ref = gamma.gamma(1.2) ** 2 / (gamma.gamma(0.5) * gamma.gamma(1.9))
        assert abs(got - ref) < 1e-9

    def test_corollary44_half(self):
        got = hyper.corollary44_value(0.5, 1.0, 0.37)
        assert abs(got - 2.0 / math.pi) < 1e-12

    def test_corollary44_z_independent(self):
        v1 = hyper.corollary44_value(0.3, 1.2, 0.2)
        v2 = hyper.corollary44_value(0.3, 1.2, 0.8)
        assert abs(v1 - v2) < 2e-9

    def test_corollary44_domain(self):
        with pytest.raises(DomainError):
            hyper.corollary44_value(0.3, 0.8, 0.5)

    @pytest.mark.parametrize("a,b,c,z", [
        (0.5, 0.5, 1.0, 0.3), (0.4, 0.8, 1.1, 0.5),
        (0.4, 0.8, 1.1, 0.1), (0.4, 0.8, 1.1, 0.9),
    ])
    def test_wronskian_combo(self, a, b, c, z):
        assert abs(hyper.wronskian_combo_residual(a, b, c, z)) < 1e-9

    def test_wronskian_combo_classic_case(self):
        # c = 1, a = b = 1/2 collapses to the pi/2 product relation
        assert abs(hyper.wronskian_combo_residual(0.5, 0.5, 1.0, 0.3)) < 1e-10

    def test_wronskian_combo_constraint(self):
        with pytest.raises(ConstraintError):
            hyper.wronskian_combo_residual(0.4, 0.8, 1.2, 0.5)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.0, 0.0, 0.0, 0.25), (0.3, 0.2, 0.1, 0.4), (0.0, 0.5, 0.0, 0.7),
    ])
    def test_elliott(self, a, b, c, x):
        assert abs(hyper.elliott_residual(a, b, c, x)) < 1e-9

    def test_elliott_reduces_to_legendre(self):
        assert abs(hyper.elliott_residual(0.0, 0.0, 0.0, 0.25)) < 1e-10

    def test_elliott_window(self):
        with pytest.raises(DomainError):
            hyper.elliott_residual(0.6, 0.1, 0.1, 0.5)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.5, 0.5, 0.5, 0.3), (0.4, 0.6, 0.5, 0.5),
        (0.4, 0.6, 0.5, 0.2), (0.4, 0.6, 0.5, 0.8), (0.9, 0.8, 0.7, 0.45),
    ])
    def test_kummer(self, a, b, c, x):
        assert abs(hyper.kummer_residual(a, b, c, x)) < 1e-8

    def test_kummer_pole(self):
        with pytest.raises(ParameterError):
            hyper.kummer_residual(0.5, 0.5, 2.0, 0.3)


@pytest.mark.parametrize("call", [
    lambda p: hyper.f21(HyperParams(*p), 0.5),
    lambda p: hyper.hyp2f1(*p, 0.5),
    lambda p: hyper.gauss_value_at_one(HyperParams(*p)),
], ids=["f21", "hyp2f1", "gauss_value_at_one"])
@pytest.mark.parametrize("value", [-math.inf, math.nan, math.inf], ids=["-inf", "nan", "inf"])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["a", "b", "c"])
def test_non_finite_parameter(call, value, slot):
    params = [0.5, 0.5, 2.0]
    params[slot] = value
    with pytest.raises(DomainError):
        call(params)


class TestTerminating3F2:
    def test_examples_positive(self):
        assert hyper.f32_terminating(5, 0.5, 0.5, 0.2) > 0.0
        assert hyper.f32_terminating(50, 1.0, 1.0, 0.5) > 0.0

    def test_single_correction_term(self):
        # n = 1 collapses to 1 - ab/((1+a+b) eps)
        a, b, eps = 0.7, 1.3, 0.9
        got = hyper.f32_terminating(1, a, b, eps)
        ref = 1.0 - a * b / ((1.0 + a + b) * eps)
        assert abs(got - ref) < 1e-14
        assert got > 0.0

    def test_exact_rational_oracle(self):
        from fractions import Fraction

        n, a, b = 50, Fraction(1), Fraction(1)
        eps = Fraction(1, 2)
        t = Fraction(1)
        total = Fraction(0)
        for k in range(n + 1):
            total += t
            t *= Fraction(-n + k) * (a + k) * (b + k)
            t /= (1 + a + b + k) * (1 + eps - n + k) * (k + 1)
        got = hyper.f32_terminating(50, 1.0, 1.0, 0.5)
        assert abs(got - float(total)) < 1e-12 * abs(float(total))

    def test_denominator_near_zero(self):
        # at k = n - 2 the denominator is eps - 1 = -1e-12; summed as
        # 1 + eps - n + k it rounded to 0.0 and divided by zero
        assert hyper.f32_terminating(10**6, 1e-300, 1.0, 1.0 - 1e-12) == 1.0

    @pytest.mark.parametrize("n", [10**6 + 1, 10**9])
    def test_cost_cap(self, n):
        with pytest.raises(RangeError):
            hyper.f32_terminating(n, 0.5, 0.5, 0.2)

    def test_window(self):
        with pytest.raises(ConstraintError):
            hyper.f32_terminating(5, 1.0, 1.0, 0.2)  # below ab/(1+a+b) = 1/3
        with pytest.raises(ConstraintError):
            hyper.f32_terminating(5, 0.5, 0.5, 1.1)


class TestGrowthTransforms:
    def test_exp_transform_endpoints(self):
        a = b = 0.5
        f = lambda x: hyper.hyp2f1(a, b, a + b, 1.0 - math.exp(-x), one_minus_x=math.exp(-x))
        from specfun.kernel import derivative

        lo = derivative(f, 0.001, order=1, step=2e-4)
        assert abs(lo - a * b / (a + b)) < 1e-3
        hi = derivative(f, 20.0, order=1, step=0.05)
        ref = math.exp(gamma.log_gamma(a + b) - 2.0 * gamma.log_gamma(a))
        assert abs(hi - ref) < 1e-3

    def test_exp_transform_convex_increasing(self):
        a, b = 0.25, 0.75
        f = lambda x: hyper.hyp2f1(a, b, a + b, 1.0 - math.exp(-x), one_minus_x=math.exp(-x))
        xs = [0.5 + 0.25 * i for i in range(60)]
        vals = [f(x) for x in xs]
        diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        assert all(d > 0.0 for d in diffs)
        assert all(d2 > d1 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    def test_power_transform_endpoints(self):
        a, b, c = 0.9, 0.8, 0.5
        d = a + b - c
        f = lambda x: hyper.hyp2f1(a, b, c, 1.0 - (1.0 + x) ** (-1.0 / d),
                                   one_minus_x=(1.0 + x) ** (-1.0 / d))
        from specfun.kernel import derivative

        lo = derivative(f, 0.001, order=1, step=2e-4)
        assert abs(lo - a * b / (c * d)) < 1e-3
        hi = derivative(f, 1e5, order=1, step=30.0)
        ref = math.exp(gamma.log_gamma(c) + gamma.log_gamma(d)
                       - gamma.log_gamma(a) - gamma.log_gamma(b))
        assert abs(hi - ref) < 1e-3


# --- float-only term loops against the int-counter loops they replaced ---
#
# The references below are the earlier loops, kept as written: an int
# counter, a Fast2Sum-compensated running sum in _series, and abs() in
# the stop tests.  The float-only loops must use the same number of terms
# and, apart from fsum rounding the exact sum where Fast2Sum falls short
# of it, give the same bits.

_EPS = 2.220446049250313e-16


def _ref_series(a, b, c, x):
    t = 1.0
    s = 1.0
    comp = 0.0
    small = 0
    n = 0
    for n in range(hyper._MAX_TERMS):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        y = t
        hi = s + y
        if abs(s) >= abs(y):
            comp += (s - hi) + y
        else:
            comp += (y - hi) + s
        s = hi
        if abs(t) < hyper._TERM_STOP * abs(s):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    total = s + comp
    capped = small < 3
    err = abs(t) if capped else max(2.0 * abs(t), 4.0 * _EPS * abs(total))
    return total, err, n + 1


def _ref_zero_balanced(a, b, w):
    pref = gamma.gamma(a + b) / (gamma.gamma(a) * gamma.gamma(b))
    log_w = math.log(w)
    pa, pb, pn = gamma.digamma(a), gamma.digamma(b), -gamma.EULER_GAMMA
    coef = 1.0
    s = 0.0
    n = 0
    for n in range(hyper._MAX_TERMS):
        term = coef * (2.0 * pn - pa - pb - log_w)
        s += term
        if n > 2 and abs(term) < hyper._TERM_STOP * abs(s):
            break
        coef *= (a + n) * (b + n) / ((n + 1.0) ** 2) * w
        pn += 1.0 / (n + 1)
        pa += 1.0 / (a + n)
        pb += 1.0 / (b + n)
    value = pref * s
    err = abs(pref) * abs(term) * 2.0 + 4.0 * _EPS * abs(value)
    return value, err, n + 1


def _ref_near_one_int(a, b, c, m, w):
    s1 = 0.0
    coef = 1.0
    for n in range(m):
        if n > 0:
            coef *= (a + n - 1.0) * (b + n - 1.0) / (n * (n - m)) * w
        s1 += coef
    p1 = math.factorial(m - 1) * gamma.gamma(c) / (gamma.gamma(a + m) * gamma.gamma(b + m)) * s1
    log_w = math.log(w)
    pn = -gamma.EULER_GAMMA
    pnm = gamma.digamma(m + 1.0)
    pam = gamma.digamma(a + m)
    pbm = gamma.digamma(b + m)
    coef = 1.0 / math.factorial(m)
    s2 = 0.0
    n = 0
    for n in range(hyper._MAX_TERMS):
        term = coef * (log_w - pn - pnm + pam + pbm)
        s2 += term
        if n > 2 and abs(term) < hyper._TERM_STOP * abs(s2):
            break
        coef *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        pn += 1.0 / (n + 1)
        pnm += 1.0 / (n + m + 1)
        pam += 1.0 / (a + m + n)
        pbm += 1.0 / (b + m + n)
    pref2 = -((-1.0) ** m) * gamma.gamma(c) / (gamma.gamma(a) * gamma.gamma(b)) * w ** m
    value = p1 + pref2 * s2
    err = abs(pref2) * abs(term) * 2.0 + 4.0 * _EPS * (abs(p1) + abs(pref2 * s2))
    return value, err, n + m + 1


def _ref_mu_series(a, x):
    p = a * (1.0 - a)
    h = hyper.ramanujan_R(a, 1.0 - a)
    c = f = 1.0
    e = h
    n = 0
    while True:
        q = n * (n + 1) + p
        n += 1
        c *= q * x / (n * n)
        h += 2.0 / n - (2 * n - 1) / q
        t = c * h
        f += c
        e += t
        if c <= 1e-17 * f and t <= 1e-17 * e:
            return f, e


def _bits(values):
    # repr keeps the sign of zero and tells NaN apart, where == would not
    return tuple(repr(v) for v in values)


class TestFloatOnlyLoops:
    @staticmethod
    def _off_integer(rng, lo, hi):
        while True:
            c = rng.uniform(lo, hi)
            if abs(c - round(c)) > 0.05:
                return c

    def test_series_matches_compensated_reference(self):
        rng = random.Random(20260707)
        for i in range(2400):
            kind = i % 4
            a = rng.uniform(-1.0, 0.0) if kind == 1 else rng.uniform(0.05, 4.0)
            b = rng.uniform(0.05, 4.0)
            c = self._off_integer(rng, -5.0, -0.05) if kind == 2 else rng.uniform(0.1, 5.0)
            x = rng.uniform(0.0, 0.75)
            got, ref = hyper._series(a, b, c, x), _ref_series(a, b, c, x)
            assert got[2] == ref[2], (a, b, c, x)
            if got[0] != ref[0]:
                # fsum rounds the exact sum of the terms; Fast2Sum may not
                assert abs(got[0] - ref[0]) <= math.ulp(ref[0]), (a, b, c, x)
                exact = mp.hyp2f1(a, b, c, x)
                assert abs(got[0] - exact) <= abs(ref[0] - exact), (a, b, c, x)

    def test_zero_balanced_is_bit_identical(self):
        rng = random.Random(7)
        for i in range(600):
            if i % 3 == 0:  # one negative parameter, c = a + b >= 1
                a = rng.uniform(-0.95, -0.05)
                b = rng.uniform(1.0 - a, 4.0)
            else:
                a, b = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
            w = rng.uniform(0.001, 0.25)
            assert _bits(hyper._zero_balanced(a, b, w)) == _bits(_ref_zero_balanced(a, b, w))

    def test_near_one_int_is_bit_identical(self):
        rng = random.Random(11)
        for _ in range(600):
            a, b = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
            m = rng.choice((1, 2, 3, 5))
            w = rng.uniform(0.001, 0.25)
            got = hyper._near_one_int(a, b, a + b + m, m, w)
            assert _bits(got) == _bits(_ref_near_one_int(a, b, a + b + m, m, w))

    def test_mu_series_is_bit_identical(self):
        rng = random.Random(13)
        for _ in range(600):
            a, x = rng.uniform(0.001, 0.999), rng.uniform(0.0, 0.5)
            assert _bits(elliptic._mu_series(elliptic.SignatureParam(a), x)) == _bits(_ref_mu_series(a, x))

    @pytest.mark.parametrize("a,b,c,x", [
        (2.0, 3.0, 1e-160, 0.5),    # sum near 1e160, past sqrt of the largest float
        (2.0, 3.0, 1e-200, 0.5),    # the last terms too: t^2 < (1e-17 s)^2 would overflow
        (1.5, 2.5, -1e-200, 0.5),   # the same, every term after 1 negative
        (2.0, 3.0, 4.0, 1e-300),    # terms after t_1 = 1.5e-300 underflow to 0
        (2.0, 3.0, 4.0, 5e-324),    # t_1 is subnormal, the rest 0
    ])
    def test_stop_rule_edges(self, a, b, c, x):
        got, ref = hyper._series(a, b, c, x), _ref_series(a, b, c, x)
        assert got[2] == ref[2]
        assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("a,b,c,x", [
    (300.0, 300.0, 0.5, 0.7),
    (1e200, 1e200, 1.0, 0.5),
    (2.0, 3.0, 1e-310, 0.3),
])
def test_series_leaving_binary64_raises(a, b, c, x):
    for call in (lambda: hyper.hyp2f1(a, b, c, x),
                 lambda: hyper.f21(HyperParams(a, b, c), x)):
        best = math.inf
        for _ in range(3):  # the best of three, so a busy machine does not fail it
            start = time.perf_counter()
            with pytest.raises(OverflowError):
                call()
            best = min(best, time.perf_counter() - start)
        assert best < 0.05


@pytest.mark.parametrize("call", [
    lambda: hyper.hyp2f1(300.0, 300.0, 0.5, 0.7),
    lambda: hyper.hyp2f1(1e200, 1e200, 1.0, 0.5),
    lambda: hyper.hyp2f1(2.0, 3.0, 1e-310, 0.3),
    # the two logarithmic series, driven past binary64 by an argument
    # far outside their range
    lambda: hyper._zero_balanced(2.0, 3.0, 1e300),
    lambda: hyper._near_one_int(2.0, 3.0, 6.0, 1, 1e300),
], ids=["series_a_b_300", "series_a_b_1e200", "series_c_1e-310", "zero_balanced", "near_one_int"])
def test_overflow_raises_within_one_block(call):
    # finiteness is checked once per block of terms, not after the
    # 100,000-term cap (about 20 ms a call)
    best = math.inf
    for _ in range(3):  # the best of three, so a busy machine does not fail it
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            call()
        best = min(best, time.perf_counter() - start)
    assert best < 0.002
