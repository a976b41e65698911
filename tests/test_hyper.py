import math
import random
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from specfun import elliptic, gamma, hyper, kernel
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

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_non_finite_n(self, n):
        # int(n) alone raises a bare OverflowError or ValueError
        with pytest.raises(DomainError):
            hyper.pochhammer(1.0, n)


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

    @pytest.mark.parametrize("a,b,c,x", [
        (0.3, 3.0, 1.0, 0.9), (2.0, 1.5, 0.5, 0.9), (0.7, 2.5, 0.5, 0.8)])
    def test_reflection_onto_a_terminating_series(self, a, b, c, x):
        # c - a - b < 0 and x > 0.75: Euler's reflection leaves
        # F(c-a, c-b; c; x) with c - b a negative integer, a polynomial
        ref = float(mp.hyp2f1(a, b, c, x))
        res = hyper.f21(HyperParams(a, b, c), x)
        assert res.value == hyper.hyp2f1(a, b, c, x)
        assert abs(res.value - ref) <= min(1e-14 * abs(ref), res.abs_err_estimate)

    def test_reflection_estimate_bounds_the_error(self):
        # b = c + k reflects onto F(c-a, c-b; c; x) with c - b = -k, a
        # terminating series with terms of both signs whose rounding the
        # estimate must count; where c - (c + k) rounds off -k the series
        # runs on, and the rounding of d = c - a - b, scaled by |log w|,
        # dominates instead
        rng = random.Random(6006)
        for _ in range(600):
            k = rng.randint(1, 4)
            a, c = rng.uniform(0.05, 3.0), rng.uniform(0.1, 3.0)
            b, x = c + k, rng.uniform(0.76, 0.999)
            res = hyper.f21(HyperParams(a, b, c), x)
            actual = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
            assert actual <= res.abs_err_estimate, (a, b, c, x)

    def test_c_equal_to_a_reflects_past_the_gamma_pole(self):
        # c = a (or c = b) with the other parameter in (-1, 0) and x > 0.75,
        # where the connection formula would take Gamma(c - a) = Gamma(0):
        # Euler's transform leaves F(0, c - b; c; x) = 1, so F is
        # (1-x)^(c-a-b), with c - a - b taken as -a at c = b and -b at c = a,
        # where it is exact (formed as (c - a) - b it cost up to 5.4e-15)
        assert hyper.hyp2f1(1.5, -0.3, 1.5, 0.9) == pytest.approx(0.1 ** 0.3, rel=1e-15)
        rng = random.Random(2929)
        worst = 0.0
        for i in range(2000):
            c, neg, x = rng.uniform(1.0, 10.0), -rng.uniform(1e-6, 1.0 - 1e-6), rng.uniform(0.75, 1.0 - 1e-9)
            a, b = (c, neg) if i % 2 else (neg, c)
            res = hyper.f21(HyperParams(a, b, c), x)
            assert res.value == hyper.hyp2f1(a, b, c, x)
            ref = mp.hyp2f1(a, b, c, x)
            actual = float(abs(mp.mpf(res.value) - ref))
            assert actual <= res.abs_err_estimate, (a, b, c, x)
            worst = max(worst, actual / float(abs(ref)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("family", ["zero_balanced", "integer_offset", "negative_a", "snapped"])
    def test_log_series_estimate_bounds_the_error(self, family):
        # c - a - b within _INT_SNAP of an integer m >= 0 and x > 0.75 takes
        # the log series; its estimate must cover the actual error and stay
        # small.  The snapped family puts c up to 9e-11 off a + b + m, a
        # drift the series does not correct (up to 3e-10 |F|) and the
        # estimate must count
        cap = 1e-7 if family == "snapped" else 1e-10
        rng = random.Random(2026)
        for _ in range(300):
            if family == "negative_a":
                m, a = rng.choice((0, 1, 2)), rng.uniform(-0.95, -0.05)
                b = rng.uniform(max(0.05, 1.0 - a - m), 5.0)  # c >= 1
            else:
                m = 0 if family == "zero_balanced" else rng.choice((1, 2, 3))
                a, b = rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0)
            c, x = a + b + m, rng.uniform(0.76, 0.999)
            if family == "snapped":
                c += rng.uniform(-9e-11, 9e-11)
            res = hyper.f21(HyperParams(a, b, c), x)
            assert res.method == "near_one_expansion"
            actual = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
            assert actual <= res.abs_err_estimate, (a, b, c, x)
            assert res.abs_err_estimate <= cap * abs(res.value), (a, b, c, x)

    def test_log_series_runs_past_its_first_block(self):
        # F(0.01, 80; 80.01; 0.76) sums 104 log-series terms, so the sum
        # restarts after one block of _BLOCK terms; the estimate, 7.0e-10 |F|,
        # still covers the error of 7.1e-11 |F|
        a, b, c, x = 0.01, 80.0, 80.01, 0.76
        res = hyper.f21(HyperParams(a, b, c), x)
        assert res.method == "near_one_expansion" and res.terms_used > hyper._BLOCK
        with mp.workdps(50):
            actual = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
        assert actual <= res.abs_err_estimate <= 1e-9 * abs(res.value)

    # past x = 0.75 at large a and b the log series cancels: F(20, 20; 40;
    # 0.8) = 4.50e5 reads 5.14e6 and F(30.5, 25.25; 56.75; 0.76) = 8.38e6
    # reads -9.4e16, where the direct series gives both to 3e-16 in about
    # 200 terms.  f21's estimate (15 |F| and 5.4e10 |F|) owns up to it
    _CANCELLING = [(20.0, 20.0, 40.0, 0.8), (30.5, 25.25, 56.75, 0.76)]

    @pytest.mark.parametrize("a,b,c,x", _CANCELLING)
    def test_cancelling_log_series_is_within_its_estimate(self, a, b, c, x):
        res = hyper.f21(HyperParams(a, b, c), x)
        assert res.method == "near_one_expansion"
        with mp.workdps(50):
            actual = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
        assert actual <= res.abs_err_estimate

    @pytest.mark.xfail(strict=True, reason="the log series past x = 0.75 cancels at large a and "
                       "b: relative errors 10 and 1.1e10 with no error raised")
    @pytest.mark.parametrize("a,b,c,x", _CANCELLING)
    def test_cancelling_log_series_value(self, a, b, c, x):
        with mp.workdps(50):
            ref = mp.hyp2f1(a, b, c, x)
            rel = float(abs((mp.mpf(hyper.hyp2f1(a, b, c, x)) - ref) / ref))
        assert rel <= 1e-13

    @pytest.mark.parametrize("family", ["negative_a", "positive_a"])
    def test_connection_estimate_bounds_the_error(self, family):
        # d = c - a - b > 0 away from the integers takes the connection
        # formula, where Gamma(d) and Gamma(-d) amplify the rounding of d by
        # about 1/dist(d, Z); the first case sits next to the pole of
        # Gamma(-d) at d = 1 and was missed 18x before the estimate counted it
        cases = []
        if family == "negative_a":
            cases.append((-0.9950494684960567, 1.3576349947182027, 1.3590135915239197, 0.8554831696990532))
        rng = random.Random(2026)
        while len(cases) < (900 if family == "negative_a" else 300):
            a = rng.uniform(-1.0, 0.0) if family == "negative_a" else rng.uniform(0.05, 5.0)
            b, c, x = rng.uniform(0.05, 5.0), rng.uniform(1.0, 5.0), rng.uniform(0.76, 0.999)
            d = c - a - b
            if d > 0.0 and abs(d - round(d)) >= 1e-10:
                cases.append((a, b, c, x))
        for a, b, c, x in cases:
            res = hyper.f21(HyperParams(a, b, c), x)
            assert res.method == "near_one_expansion"
            actual = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
            assert actual <= res.abs_err_estimate, (a, b, c, x)
            d = c - a - b
            assert res.abs_err_estimate * abs(d - round(d)) <= 1e-10 * abs(res.value), (a, b, c, x)

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

    def test_hyp2f1_and_f21_share_one_argument_rule(self):
        # the same inputs accepted and refused, with the same exception
        # type, and where both accept the same value to the bit; so does
        # the value of hyp2f1_derivatives
        def outcome(call):
            try:
                return repr(call())
            except Exception as exc:
                return type(exc)

        rng = random.Random(1109)
        cases = [(-2.5, 0.3, 0.5, 0.3, None)]
        for i in range(500):
            a, b, c = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0), rng.uniform(0.1, 4.0)
            x, w = rng.uniform(0.0, 0.99), None
            kind = i % 5
            if kind == 0:  # both negative
                a, b = -rng.uniform(0.01, 0.99), -rng.uniform(0.01, 2.0)
            elif kind == 1:  # one at or below -1
                a = -rng.uniform(1.0, 3.0)
            elif kind == 2:  # one in (-1, 0), with c on either side of 1
                b, c = -rng.uniform(0.01, 0.99), rng.uniform(0.1, 2.0)
            elif kind == 3:  # x rounded up to 1.0, with or without a complement
                x, w = 1.0, rng.choice((1e-17, 1e-20, 0.0, None))
            else:  # x outside [0, 1)
                x = rng.choice((-0.25, 1.5, math.nan))
            cases.append((a, b, c, x, w))
        accepted = refused = 0
        for a, b, c, x, w in cases:
            got = outcome(lambda: hyper.hyp2f1(a, b, c, x, one_minus_x=w))
            want = outcome(lambda: hyper.f21(HyperParams(a, b, c), x, one_minus_x=w).value)
            derivs = outcome(lambda: hyper.hyp2f1_derivatives(a, b, c, x, one_minus_x=w)[0])
            assert got == want == derivs, (a, b, c, x, w)
            accepted += isinstance(got, str)
            refused += got in (DomainError, ParameterError)
        assert accepted >= 100 and refused >= 300, (accepted, refused)
        with pytest.raises(ParameterError):
            hyper.hyp2f1(-2.5, 0.3, 0.5, 0.3)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.3, 3.0),
           st.floats(0.0, 0.9), st.floats(0.001, 0.05))
    @settings(max_examples=150, deadline=None)
    # d = c - a - b = -2: the reflection hands _dispatch c - b = -1 at x > 0.75
    @example(a=1.0, b=1.9, c=0.8999999999999999, x=0.75, dx=0.03125)
    def test_increasing_in_argument(self, a, b, c, x, dx):
        # all series terms are positive for positive parameters
        assert hyper.hyp2f1(a, b, c, x + dx) >= hyper.hyp2f1(a, b, c, x)


class TestEvalScope:
    @staticmethod
    def _count_series(monkeypatch):
        calls = []
        series = hyper._series

        def counting(*args):
            calls.append(args)
            return series(*args)

        monkeypatch.setattr(hyper, "_series", counting)
        return calls

    CALLS = (
        lambda: hyper.hyp2f1(0.3, 0.4, 1.5, 0.5),
        lambda: hyper.hyp2f1_derivatives(0.3, 0.4, 1.5, 0.5),
        lambda: hyper.f21(HyperParams(0.3, 0.4, 1.5), 0.5),
    )

    @pytest.mark.parametrize("call", CALLS, ids=["hyp2f1", "hyp2f1_derivatives", "f21"])
    def test_outside_a_scope_nothing_is_stored(self, call, monkeypatch):
        calls = self._count_series(monkeypatch)
        first = call()
        per_call = len(calls)
        assert per_call >= 1
        assert call() == first
        assert len(calls) == 2 * per_call
        assert hyper._MEMO.get() is None

    @pytest.mark.parametrize("call", CALLS, ids=["hyp2f1", "hyp2f1_derivatives", "f21"])
    def test_a_scope_evaluates_each_argument_once(self, call, monkeypatch):
        calls = self._count_series(monkeypatch)
        outside = call()
        del calls[:]
        with hyper.EvalScope():
            inside = call()
            per_call = len(calls)
            assert call() == inside
            assert len(calls) == per_call
        assert repr(inside) == repr(outside)  # repr keeps every bit of each float
        assert hyper._MEMO.get() is None

    @pytest.mark.parametrize("x,evaluations", [(0.5, 1), (0.75, 1), (0.7500000000000001, 2), (0.9, 2)])
    def test_the_complement_is_keyed_only_past_the_crossover(self, x, evaluations, monkeypatch):
        # up to x = 0.75 the engine sums the series in x and never reads the
        # complement, so a given one and a formed one share an entry
        calls = []
        evaluate = hyper._evaluate

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(hyper, "_evaluate", counting)
        with hyper.EvalScope():
            formed = hyper.hyp2f1(0.3, 0.4, 1.5, x)
            given = hyper.hyp2f1(0.3, 0.4, 1.5, x, one_minus_x=1.0 - x)
        assert len(calls) == evaluations
        assert repr(given) == repr(formed)

    def test_a_reflected_argument_is_stored_with_its_inner_value(self):
        # the reflection recurses through _dispatch, so both the argument and
        # F(c-a, c-b; c; x), with the complement formed, are stored
        with hyper.EvalScope():
            assert hyper.f21(HyperParams(0.9, 0.8, 1.2), 0.9).method == "reflection_transform"
            inner = (1.2 - 0.9, 1.2 - 0.8, 1.2, 0.9, 1.0 - 0.9)
            assert set(hyper._MEMO.get()) == {(0.9, 0.8, 1.2, 0.9, None), inner}

    def test_exceptions_are_not_stored(self):
        with hyper.EvalScope():
            for _ in range(2):
                with pytest.raises(OverflowError):
                    hyper.hyp2f1(300.0, 300.0, 1.0, 0.7)
            assert hyper._MEMO.get() == {}

    def test_scopes_nest_and_end_on_an_exception(self):
        with pytest.raises(RuntimeError):
            with hyper.EvalScope():
                hyper.hyp2f1(0.3, 0.4, 1.5, 0.5)
                outer = hyper._MEMO.get()
                with hyper.EvalScope():
                    assert hyper._MEMO.get() == {}
                assert hyper._MEMO.get() is outer and len(outer) == 1
                raise RuntimeError
        assert hyper._MEMO.get() is None


class TestDerivatives:
    @staticmethod
    def _draws(seed=1512):
        # 60 draws per _dispatch branch of F; F' and F'' shift d = c - a - b
        # down by 1 and 2, so near 1 they also take the reflection onto the
        # integer offset.  a, b stay within the library's callers (signature
        # parameters, the registry's triples): past about 3 the connection
        # branch of hyp2f1 itself leaves 1e-12
        rng = random.Random(seed)
        for i in range(300):
            kind = i % 5
            a, b = rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
            x = rng.uniform(0.76, 0.999)
            if kind == 0:  # direct series, with x = 0 and a negative a now and then
                x = 0.0 if i % 50 == 0 else rng.uniform(0.0, 0.75)
                if i % 3 == 0:
                    a = rng.uniform(-0.95, -0.05)
                c = rng.uniform(1.0, 4.0) if a < 0.0 else rng.uniform(0.2, 4.0)
            elif kind == 1:  # zero-balanced
                c = a + b
            elif kind == 2:  # integer offset
                c = a + b + rng.choice((1.0, 2.0, 3.0))
            elif kind == 3:  # connection
                c = a + b + rng.choice((0.0, 1.0, 2.0)) + rng.uniform(0.1, 0.9)
            else:  # reflection, onto the integer offset at d = -1 and -2
                d = rng.choice((-1.0, -2.0)) if i % 2 else -rng.uniform(0.1, 2.9)
                c = max(a + b, 0.2 - d) + d
            yield kind, a, b, c, x

    def test_against_mpmath(self):
        methods = {}
        for kind, a, b, c, x in self._draws():
            got = hyper.hyp2f1_derivatives(a, b, c, x)
            am, bm, cm, xm = map(mp.mpf, (a, b, c, x))
            want = (
                mp.hyp2f1(am, bm, cm, xm),
                am * bm / cm * mp.hyp2f1(am + 1, bm + 1, cm + 1, xm),
                am * (am + 1) * bm * (bm + 1) / (cm * (cm + 1))
                * mp.hyp2f1(am + 2, bm + 2, cm + 2, xm),
            )
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (kind, a, b, c, x)
            methods.setdefault(kind, set()).add(hyper.f21(HyperParams(a, b, c), x).method)
        assert methods == {
            0: {"direct_series"}, 1: {"near_one_expansion"}, 2: {"near_one_expansion"},
            3: {"near_one_expansion"}, 4: {"reflection_transform"},
        }

    def test_formula_against_numeric_differentiation(self):
        # the contiguous values are the derivatives (DLMF 15.5.1), checked
        # here without that formula
        for a, b, c, x in ((0.7, 1.1, 1.3, 0.4), (0.3, 0.7, 1.0, 0.9), (-0.4, 1.2, 1.5, 0.8)):
            f = lambda t: mp.hyp2f1(a, b, c, t)
            want = (f(x), mp.diff(f, x), mp.diff(f, x, 2))
            for g, w in zip(hyper.hyp2f1_derivatives(a, b, c, x), want):
                assert abs(g - w) <= 1e-13 * abs(w)

    def test_exact_complement(self):
        # x = 1.0 with a positive complement is interior, as for hyp2f1
        f, d1, d2 = hyper.hyp2f1_derivatives(0.5, 0.5, 1.0, 1.0, one_minus_x=1e-20)
        assert f == hyper.hyp2f1(0.5, 0.5, 1.0, 1.0, one_minus_x=1e-20)
        assert d1 == 0.25 * hyper.hyp2f1(1.5, 1.5, 2.0, 1.0, one_minus_x=1e-20)
        assert math.isclose(d1, 0.25 / 1e-20 * 4.0 / math.pi, rel_tol=1e-12)
        assert d2 > 0.0


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

    def test_an_infinite_argument_returns_the_limit(self):
        # digamma(inf) = inf, so R(a, b) -> -inf as a or b grows
        assert hyper.ramanujan_R(math.inf, 0.5) == hyper.ramanujan_R(0.5, math.inf) == -math.inf

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
        # tol, in the test ids, is the bound a stencil derivative needs;
        # every relation must also meet the registry's 5e-14
        res = hyper.contiguous_residual(which, HyperParams(*params), z)[0]
        assert abs(res) < min(tol, 5e-14)

    @pytest.mark.parametrize("which", hyper.CONTIGUOUS_IDS)
    @pytest.mark.parametrize("z", [1e-4, 0.01, 0.99, 0.999, 0.9999])
    def test_residuals_near_the_ends(self, which, z):
        # where a stencil's truncation error grows: F grows like
        # (1-z)^(-1/2) here, and the exact residuals stay below 1.3e-13
        res = hyper.contiguous_residual(which, HyperParams(1.3, 0.7, 1.5), z)[0]
        assert abs(res) < 1e-12

    def test_no_stencil(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("contiguous_residual took a stencil")

        monkeypatch.setattr(kernel, "derivative", refuse)
        for which in hyper.CONTIGUOUS_IDS:
            assert abs(hyper.contiguous_residual(which, HyperParams(1.3, 0.7, 1.5), 0.4)[0]) < 5e-14

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
        assert abs(hyper.wronskian_combo_residual(a, b, c, z)[0]) < 1e-9

    def test_wronskian_combo_classic_case(self):
        # c = 1, a = b = 1/2 collapses to the pi/2 product relation
        assert abs(hyper.wronskian_combo_residual(0.5, 0.5, 1.0, 0.3)[0]) < 1e-10

    def test_wronskian_combo_constraint(self):
        with pytest.raises(ConstraintError):
            hyper.wronskian_combo_residual(0.4, 0.8, 1.2, 0.5)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.0, 0.0, 0.0, 0.25), (0.3, 0.2, 0.1, 0.4), (0.0, 0.5, 0.0, 0.7),
    ])
    def test_elliott(self, a, b, c, x):
        assert abs(hyper.elliott_residual(a, b, c, x)[0]) < 1e-9

    def test_elliott_reduces_to_legendre(self):
        assert abs(hyper.elliott_residual(0.0, 0.0, 0.0, 0.25)[0]) < 1e-10

    def test_elliott_window(self):
        with pytest.raises(DomainError):
            hyper.elliott_residual(0.6, 0.1, 0.1, 0.5)

    @pytest.mark.parametrize("a,b,c,x", [
        (0.5, 0.5, 0.5, 0.3), (0.4, 0.6, 0.5, 0.5),
        (0.4, 0.6, 0.5, 0.2), (0.4, 0.6, 0.5, 0.8), (0.9, 0.8, 0.7, 0.45),
    ])
    def test_kummer(self, a, b, c, x):
        assert abs(hyper.kummer_residual(a, b, c, x)[0]) < 1e-8

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

    @pytest.mark.parametrize("n,a,b", [(10**6, 1e300, 1e-301), (5, 1e308, 1e-309)])
    def test_leaving_binary64_raises(self, n, a, b):
        # (-n+k)(a+k)(b+k) overflows before its division, and a plain sum
        # would turn inf - inf into NaN
        with pytest.raises(OverflowError):
            hyper.f32_terminating(n, a, b, 0.5)

    def test_an_infinite_pair_of_terms_raises(self):
        # t_1 = +inf and t_2 = -inf: fsum refuses inf - inf with ValueError,
        # which the fallback turns into the documented OverflowError
        with pytest.raises(OverflowError, match="leave binary64"):
            hyper.f32_terminating(2, 1e308, 1e-308, 0.4)

    def test_finite_edge_keeps_its_value(self):
        # the same huge a with every product still finite
        assert hyper.f32_terminating(1000, 1e300, 1e-301, 0.5) == 1.0

    @pytest.mark.parametrize("n", [10**6 + 1, 10**9])
    def test_cost_cap(self, n):
        with pytest.raises(RangeError):
            hyper.f32_terminating(n, 0.5, 0.5, 0.2)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_non_finite_n(self, n):
        with pytest.raises(DomainError):
            hyper.f32_terminating(n, 1.0, 1.0, 0.9)

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
# The references below are the earlier loops: an int counter, a
# Fast2Sum-compensated running sum in _series, and abs() in the stop
# tests; the log-series reference sums its bracket in the library's order
# and forms the same estimate.  The float-only loops must use the same
# number of terms and, apart from fsum rounding the exact sum where
# Fast2Sum falls short of it, give the same bits.

_EPS = 2.220446049250313e-16


def _ref_series(a, b, c, x):
    t = 1.0
    s = 1.0
    comp = 0.0
    small = 0
    n = 0
    sizes = [1.0]
    for n in range(hyper._MAX_TERMS):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        sizes.append(abs(t))
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
    if min(a, b, c) < 0.0:  # terms of both signs add their own rounding
        err += 2.0 * _EPS * (abs(total) + 2.0 * math.fsum(sizes[:math.ceil(-min(a, b, c))]))
    return total, err, n + 1


def _ref_log_series(a, b, c, m, w):
    s1 = s1_abs = 0.0
    coef = 1.0
    for n in range(m):
        if n > 0:
            coef *= (a + n - 1.0) * (b + n - 1.0) / (n * (n - m)) * w
        s1 += coef
        s1_abs += abs(coef)
    p1 = math.factorial(m - 1) * gamma.gamma(c) / (gamma.gamma(a + m) * gamma.gamma(b + m)) if m else 0.0
    log_w = math.log(w)
    pp = gamma.digamma(m + 1.0) - gamma.EULER_GAMMA if m else -2.0 * gamma.EULER_GAMMA
    pam0 = pam = gamma.digamma(a + m)
    pbm0 = pbm = gamma.digamma(b + m)
    coef0 = coef = 1.0 / math.factorial(m)
    s2 = sc = 0.0
    n = 0
    for n in range(hyper._MAX_TERMS):
        term = coef * (pp - pam - pbm - log_w)
        s2 += term
        sc += coef
        if n > 2 and abs(term) < hyper._TERM_STOP * abs(s2):
            break
        coef *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        pp += 1.0 / (n + 1) + 1.0 / (n + m + 1)
        pam += 1.0 / (a + m + n)
        pbm += 1.0 / (b + m + n)
    pref = (-1.0) ** m * gamma.gamma(c) / (gamma.gamma(a) * gamma.gamma(b)) * w ** m
    value = p1 * s1 + pref * s2
    big = max(pp, pam, pbm, abs(pam0), abs(pbm0), abs(pam0 + 1.0 / (a + m)), abs(pbm0 + 1.0 / (b + m))) - log_w
    err = abs(pref) * (2.0 * abs(term) + 2.0 * _EPS * (coef0 + abs(sc - coef0)) * big)
    drift = abs(c - a - b - m) + _EPS * (abs(a) + abs(b) + abs(c))
    err += (16.0 * _EPS + drift * big) * (abs(p1) * s1_abs + abs(pref * s2))
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
            got = hyper._log_series(a, b, a + b, 0, w)
            assert _bits(got) == _bits(_ref_log_series(a, b, a + b, 0, w))

    def test_near_one_int_is_bit_identical(self):
        rng = random.Random(11)
        for _ in range(600):
            a, b = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
            m = rng.choice((1, 2, 3, 5))
            w = rng.uniform(0.001, 0.25)
            got = hyper._log_series(a, b, a + b + m, m, w)
            assert _bits(got) == _bits(_ref_log_series(a, b, a + b + m, m, w))

    @pytest.mark.parametrize("a,b,w,value,terms", [
        (0.5, 0.5, 0.01, 2.352715816779743, 9),
        (1.0 / 3.0, 2.0 / 3.0, 1e-06, 4.716991032291169, 4),
        (0.25, 0.25, 0.2, 1.206640449366499, 20),
        (4.9, 4.8, 0.21, 22.89554801905934, 44),
        (0.01, 0.02, 0.24, 1.0095151535420621, 16),
        (2.0, 3.0, 0.001, 53.295718788451865, 8),
        (-0.5, 2.0, 0.1, -0.06464462035092955, 18),
        (-0.95, 4.0, 0.0005, -0.418917076722434, 6),
    ])
    def test_zero_balanced_keeps_its_values(self, a, b, w, value, terms):
        # the log series at m = 0 sums what the zero-balanced expansion
        # summed before it, in the same order: values and term counts
        # recorded from that expansion, bit for bit
        res = hyper.f21(HyperParams(a, b, a + b), 1.0 - w, w)
        assert (res.value, res.terms_used, res.method) == (value, terms, "near_one_expansion")

    def test_mu_series_within_one_ulp_of_the_recurrence(self):
        # _mu_series keeps its coefficients c_n free of x, where this
        # recurrence folds x into them, so the sums may round apart: by at
        # most 1 ulp, and no further from mpmath over the sweep
        rng = random.Random(13)
        worst_got, worst_ref = [0.0, 0.0], [0.0, 0.0]
        for _ in range(600):
            a, x = rng.uniform(0.001, 0.999), rng.uniform(0.0, 0.5)
            got, ref = elliptic._mu_series(elliptic._memo_record(a), x), _ref_mu_series(a, x)
            for i in range(2):
                assert abs(got[i] - ref[i]) <= math.ulp(ref[i]), (a, x, i)
            with mp.workdps(25):
                f = mp.hyp2f1(a, 1 - mp.mpf(a), 1, x)
                e = mp.pi / mp.sinpi(a) * mp.hyp2f1(a, 1 - mp.mpf(a), 1, 1 - mp.mpf(x)) + f * mp.log(x)
            for i, exact in enumerate((f, e)):
                worst_got[i] = max(worst_got[i], float(abs(got[i] / exact - 1)))
                worst_ref[i] = max(worst_ref[i], float(abs(ref[i] / exact - 1)))
        assert worst_got[0] <= worst_ref[0] and worst_got[1] <= worst_ref[1], (worst_got, worst_ref)

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
    # the logarithmic series at m = 0 and 1, driven past binary64 by an
    # argument far outside its range
    lambda: hyper._log_series(2.0, 3.0, 5.0, 0, 1e300),
    lambda: hyper._log_series(2.0, 3.0, 6.0, 1, 1e300),
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


_HALF = HyperParams(0.5, 0.5, 1.0)
# (call, one value outside its domain) per validation raise: the value and
# NaN must each raise DomainError, never return a value or divide by zero;
# the documented OverflowError ends (ellip_k(1), ellip_k_prime(0)) are not here
_OUT_OF_DOMAIN = {
    "ellip_k": (elliptic.ellip_k, -0.5),
    "ellip_k_prime": (elliptic.ellip_k_prime, 1.5),
    "ellip_e": (elliptic.ellip_e, 1.5),
    "ellip_e_prime": (elliptic.ellip_e_prime, -0.5),
    "k_a": (lambda v: elliptic.k_a(0.3, v), 1.5),
    "k_a_prime": (lambda v: elliptic.k_a_prime(0.3, v), 1.5),
    "e_a": (lambda v: elliptic.e_a(0.3, v), 1.5),
    "e_a_prime": (lambda v: elliptic.e_a_prime(0.3, v), -0.5),
    "legendre_residual": (elliptic.legendre_residual, 1.0),
    "generalized_legendre_residual": (lambda v: elliptic.generalized_legendre_residual(0.3, v), 1.0),
    "ellipse_perimeter": (elliptic.ellipse_perimeter, 1.5),
    "muir_approx": (elliptic.muir_approx, -0.5),
    "upper_approx": (elliptic.upper_approx, 1.5),
    "ramanujan_R": (lambda v: hyper.ramanujan_R(v, 0.5), -1.0),
    "contiguous_residual_params": (
        lambda v: hyper.contiguous_residual("d_u", HyperParams(v, 0.5, 1.0), 0.5), -0.5),
    "contiguous_residual_z": (lambda v: hyper.contiguous_residual("d_u", _HALF, v), 1.5),
    "corollary44_value_a": (lambda v: hyper.corollary44_value(v, 1.2, 0.5), 1.5),
    "corollary44_value_c": (lambda v: hyper.corollary44_value(0.5, v, 0.5), 0.5),
    "corollary44_value_z": (lambda v: hyper.corollary44_value(0.5, 1.2, v), 1.5),
    # c = (a + b + 1)/2 keeps the constraint met, so the sign test is what raises
    "wronskian_combo_residual_a": (
        lambda v: hyper.wronskian_combo_residual(v, 0.5, (v + 1.5) / 2.0, 0.5), -0.5),
    "wronskian_combo_residual_z": (lambda v: hyper.wronskian_combo_residual(0.5, 0.5, 1.0, v), 1.5),
    "elliott_residual_a": (lambda v: hyper.elliott_residual(v, 0.5, 0.2, 0.5), -0.1),
    "elliott_residual_c": (lambda v: hyper.elliott_residual(0.2, 0.5, v, 0.5), 0.6),
    "elliott_residual_x": (lambda v: hyper.elliott_residual(0.2, 0.5, 0.2, v), 1.5),
    "kummer_residual_a": (lambda v: hyper.kummer_residual(v, 0.5, 0.5, 0.5), -0.5),
    "kummer_residual_x": (lambda v: hyper.kummer_residual(0.5, 0.5, 0.5, v), 1.5),
    "f32_terminating": (lambda v: hyper.f32_terminating(5, v, 0.5, 0.5), -0.5),
    "derivative_step": (lambda v: kernel.derivative(math.sin, 0.5, step=v), 0.0),
}


@pytest.mark.parametrize("bad", ["out", "nan"])
@pytest.mark.parametrize("name", sorted(_OUT_OF_DOMAIN))
def test_validation_raises_domain_error(name, bad):
    call, out = _OUT_OF_DOMAIN[name]
    with pytest.raises(DomainError):
        call(out if bad == "out" else math.nan)
