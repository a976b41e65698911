import decimal
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from specfun import gamma as G
from specfun.errors import DomainError, PoleError, RangeError

mp.mp.dps = 40

EG = G.EULER_GAMMA


class TestGamma:
    @pytest.mark.parametrize("x", [0.07, 0.5, 1.0, 2.5, 3.7, 6.0, 9.5, 42.1,
                                   99.5, 170.6, -0.5, -2.5, -9.9, -99.7, -170.5])
    def test_against_mpmath(self, x):
        ref = float(mp.gamma(x))
        assert abs(G.gamma(x) - ref) <= 4e-15 * abs(ref)

    def test_sqrt_pi(self):
        assert abs(G.gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_factorial(self):
        assert abs(G.gamma(6.0) - 120.0) < 120.0 * 1e-13

    def test_quadrature_oracle_at_3_7(self):
        # composite Simpson for the defining integral, 10^5 nodes on [0, 60]
        n = 100_000
        h = 60.0 / n
        f = lambda t: t ** 2.7 * math.exp(-t) if t > 0 else 0.0
        acc = f(0.0) + f(60.0)
        acc += 4.0 * math.fsum(f(h * i) for i in range(1, n, 2))
        acc += 2.0 * math.fsum(f(h * i) for i in range(2, n, 2))
        oracle = acc * h / 3.0
        assert abs(G.gamma(3.7) - oracle) < 1e-9 * oracle
        assert abs(G.gamma(3.7) - 4.170651784) < 5e-9

    @given(st.floats(0.5, 50.0))
    @settings(max_examples=300)
    def test_recurrence(self, x):
        assert abs(G.gamma(x + 1.0) - x * G.gamma(x)) <= 1e-12 * abs(x * G.gamma(x))

    def test_poles_and_overflow(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                G.gamma(x)
        with pytest.raises(OverflowError):
            G.gamma(172.0)
        with pytest.raises(OverflowError):
            G.gamma(math.inf)


class TestLogGamma:
    def test_values(self):
        assert abs(G.log_gamma(1.0)) < 1e-13
        assert abs(G.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_recurrence_oracle_100_5(self):
        # climb from log_gamma(1.5) by the functional equation
        acc = G.log_gamma(1.5)
        x = 1.5
        while x < 100.0:
            acc += math.log(x)
            x += 1.0
        assert abs(G.log_gamma(100.5) - acc) < 1e-11

    @pytest.mark.parametrize("x", [1e-3, 0.2, 1.0, 5.5, 8.99, 9.01, 1e3, 1e6])
    def test_against_mpmath(self, x):
        ref = float(mp.loggamma(x))
        assert abs(G.log_gamma(x) - ref) <= max(1e-12, 4.0 * abs(ref) * 2.3e-16)

    def test_domain(self):
        with pytest.raises(DomainError):
            G.log_gamma(0.0)
        with pytest.raises(DomainError):
            G.log_gamma(-3.2)
        with pytest.raises(DomainError):
            G.log_gamma(math.nan)
        # the value itself leaves binary64 past about 2.5e305
        assert G.log_gamma(2.5e305) < math.inf
        with pytest.raises(OverflowError):
            G.log_gamma(3e305)
        assert G.log_gamma(math.inf) == math.inf


class TestPsi:
    def test_digamma_at_small_integers(self):
        assert abs(G.digamma(1.0) + EG) < 1e-14
        assert abs(G.digamma(2.0) - (1.0 - EG)) < 1e-14

    def test_trigamma_direct_sum_oracle(self):
        # sum of 1/n^2 with integral-plus-midpoint tail correction
        n_terms = 20_000
        s = math.fsum(1.0 / (n * n) for n in range(1, n_terms + 1))
        tail = 1.0 / (n_terms + 0.5)  # integral of t^-2 from N+1/2
        oracle = s + tail
        assert abs(G.trigamma(1.0) - oracle) < 1e-9
        assert abs(G.trigamma(1.0) - 1.6449340668) < 1e-9

    @pytest.mark.parametrize("x", [0.01, 0.3, 1.0, 7.7, 9.99, 123.4, -0.5, -6.3,
                                   1e-100, -1e-100, -3e-17])
    def test_against_mpmath(self, x):
        assert abs(G.digamma(x) - float(mp.digamma(x))) < 1e-12 * max(1.0, abs(float(mp.digamma(x))))
        ref = float(mp.polygamma(1, x))
        assert abs(G.trigamma(x) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_poles(self):
        with pytest.raises(PoleError):
            G.digamma(-3.0)
        with pytest.raises(PoleError):
            G.trigamma(0.0)

    @pytest.mark.parametrize("fn,x", [
        pytest.param(G.trigamma, x, id=repr(x)) for x in (1e-300, -1e-300, 5e-324)
    ] + [
        pytest.param(G.digamma, x, id=f"digamma-{x!r}") for x in (1e-310, -1e-310, 5e-324)
    ])
    def test_trigamma_overflow_is_range_error(self, fn, x):
        with pytest.raises(RangeError):
            fn(x)


class TestBeta:
    def test_values(self):
        assert abs(G.beta(1.0, 1.0) - 1.0) < 1e-13
        assert abs(G.beta(0.5, 0.5) - math.pi) < 1e-12 * math.pi

    def test_gamma_product_oracle(self):
        ref = G.gamma(2.5) * G.gamma(3.5) / G.gamma(6.0)
        assert abs(G.beta(2.5, 3.5) - ref) <= 1e-12 * ref

    def test_domain(self):
        with pytest.raises(DomainError):
            G.beta(-1.0, 2.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 0.5), (0.5, math.inf), (math.inf, math.inf)])
    def test_infinite_argument_is_the_limit_zero(self, a, b):
        assert G.beta(a, b) == 0.0

    @staticmethod
    def _rel_err(a, b):
        # at 15 digits mp.beta(1e300, 0.5) itself returns sqrt(pi)
        with mp.workdps(20 + int(math.log10(max(a, b, 1.0)))):
            ref = mp.beta(mp.mpf(a), mp.mpf(b))
            if not mp.mpf(2.0 ** -1022) <= ref <= mp.mpf(1.7976931348623157e308):
                return None  # not a normal float
            return float(abs(mp.mpf(G.beta(a, b)) / ref - 1))

    @pytest.mark.parametrize("a, b", [(1e300, 0.5), (0.5, 1e300), (1e15, 2.0), (1e10, 0.5)])
    def test_large_unequal_arguments(self, a, b):
        # log Gamma(a) - log Gamma(a + b) cancelled here: 1.0, 160x and 2.2e-5 off
        assert self._rel_err(a, b) <= 1e-13

    def test_log_uniform_sweep(self):
        # B(x, y) <= B(x, x) < 2^-1022 once both exceed 600: no mpmath there
        rng = random.Random(7080)
        pairs = [(10.0 ** rng.uniform(-3.0, 300.0), 10.0 ** rng.uniform(-3.0, 300.0))
                 for _ in range(3000)]
        errs = [self._rel_err(a, b) for a, b in pairs if min(a, b) <= 600.0]
        errs = [e for e in errs if e is not None]
        assert len(errs) >= 50
        assert max(errs) <= 1e-13

    def test_both_arguments_large(self):
        # with both near 500, B nears the underflow threshold and the error
        # is largest (1.2e-13 measured); three lgammas were 2e-12 off here
        rng = random.Random(7081)
        errs = [self._rel_err(rng.uniform(10.0, 600.0), rng.uniform(10.0, 600.0)) for _ in range(400)]
        assert max(e for e in errs if e is not None) <= 2e-13


# the record the sixth-root correction must reproduce; two of the printed
# values (x = 6/12 and 11/12) are truncations, not roundings
THETA_RECORD = [
    (0.0, 0.9675), (1 / 12, 0.8071), (2 / 12, 0.6160), (3 / 12, 0.4867),
    (4 / 12, 0.4029), (5 / 12, 0.3509), (6 / 12, 0.3207), (7 / 12, 0.3058),
    (8 / 12, 0.3014), (9 / 12, 0.3041), (10 / 12, 0.3118), (11 / 12, 0.3227),
    (1.0, 0.3359),
]


class TestTheta:
    def test_at_zero(self):
        assert abs(G.theta(0.0) - 30.0 / math.pi ** 3) < 1e-15

    @pytest.mark.parametrize("x,printed", THETA_RECORD)
    def test_record(self, x, printed):
        gap = abs(G.theta(x) - printed)
        assert gap < 1.01e-4
        if x not in (0.5, 11 / 12):
            assert gap < 5e-5

    def test_truncated_entries_against_highprec(self):
        # 50-digit evaluations of the defining expression
        assert abs(G.theta(0.5) - 0.32076346195375402848) < 1e-9
        assert abs(G.theta(11 / 12) - 0.32276645044627221873) < 1e-9

    def test_limit_at_infinity(self):
        assert abs(G.theta(1e6) - 1.0) < 1e-4
        assert abs(G.theta(1e12) - 1.0) < 1e-10

    def test_switchover_is_seamless(self):
        lo = G.theta(10.0 - 1e-9)
        hi = G.theta(10.0 + 1e-9)
        assert abs(hi - lo) < 1e-8

    def test_against_highprec_midrange(self):
        frozen = {2.3: 0.55355713399634346108, 9.7: 0.86623759723689915572,
                  10.3: 0.87356991401724919354, 47.0: 0.97106891715910928453}
        for x, ref in frozen.items():
            assert abs(G.theta(x) - ref) < 2e-8

    @given(st.floats(0.0, 1e6))
    @settings(max_examples=300)
    def test_proper_fraction(self, x):
        assert 0.0 < G.theta(x) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            G.theta(-0.1)


class TestDeTemple:
    def test_n1(self):
        rec = G.detemple(1)
        assert rec.d_n == 1.0
        expected = 1.0 - EG - math.log(1.5)
        assert abs(rec.big_h - expected) < 1e-15

    def test_bracket_at_10(self):
        rec = G.detemple(10)
        assert 1.0 / 2904.0 < rec.r_minus_gamma < 1.0 / 2400.0

    def test_range_consistent_with_single(self):
        seq = list(G.detemple_range(80))
        for n in (1, 31, 32, 50, 80):
            one = G.detemple(n)
            assert abs(seq[n - 1].big_h - one.big_h) < 1e-13
            assert abs(seq[n - 1].r_n - one.r_n) < 1e-13

    def test_dn_converges_slower(self):
        for n in (2, 10, 100, 1000):
            rec = G.detemple(n)
            assert abs(rec.d_n - EG) > abs(rec.r_minus_gamma)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 1000, 10**4, 10**9, 10**15])
    def test_against_harmonic(self, n):
        # both sides of the switch to the closed form at n = 32, and n far
        # past any O(n) sum
        rec = G.detemple(n)
        h = mp.harmonic(n)
        d_ref = h - mp.log(n)
        r_ref = h - mp.log(mp.mpf(n) + 0.5)
        assert abs(rec.d_n - d_ref) <= 1e-15 * d_ref
        assert abs(rec.r_n - r_ref) <= 1e-15 * r_ref

    def test_gap_against_mpmath(self):
        # below n = 32 the gap is a cancelling difference of O(1) terms
        off = []
        for n in range(1, 41):
            ref = mp.harmonic(n) - mp.log(mp.mpf(n) + 0.5) - mp.euler
            if abs(G.detemple(n).r_minus_gamma - ref) > 1e-15 * ref:
                off.append(n)
        assert off == []

    def test_domain(self):
        with pytest.raises(DomainError):
            G.detemple(0)


class TestKaratsubaEulerGamma:
    def test_bound_k1(self):
        est = G.karatsuba_euler_gamma(1)
        assert abs(est.error_bound - (2.0 / math.factorial(12) + 2.0 * math.exp(-1))) < 1e-12
        assert abs(est.value - EG) <= est.error_bound

    def test_bound_k20(self):
        est = G.karatsuba_euler_gamma(20)
        assert abs(est.error_bound - 1.6489228979e-06) < 1e-13
        assert abs(est.value - EG) <= est.error_bound

    def test_convergence(self):
        e1 = abs(G.karatsuba_euler_gamma(1).value - EG)
        e20 = abs(G.karatsuba_euler_gamma(20).value - EG)
        assert e20 < e1

    def test_bound_holds_against_mpmath(self):
        # the alternating terms peak near e^k, so the sum cancels about
        # 0.43 k digits; the bound must cover the actual error on all of k
        violations = []
        for k in range(1, 201):
            est = G.karatsuba_euler_gamma(k)
            if abs(mp.mpf(est.value) - mp.euler) > est.error_bound:
                violations.append(k)
        assert violations == []

    def test_decimal_context_untouched(self):
        # neither reads the caller's decimal context nor leaves a change in it
        ref = (G.karatsuba_euler_gamma(30), G.detemple(24))
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.Inexact] = True
            before = repr(decimal.getcontext())
            assert (G.karatsuba_euler_gamma(30), G.detemple(24)) == ref
            assert repr(decimal.getcontext()) == before

    @pytest.mark.parametrize("k", [0, 201, 2.5])
    def test_range(self, k):
        with pytest.raises(RangeError):
            G.karatsuba_euler_gamma(k)


class TestRamanujanGamma:
    def test_zero_terms(self):
        ref = G.gamma(11.0)
        est = G.ramanujan_gamma(10.0, 0)
        assert abs(est.value - ref) / ref <= 1e-6

    def test_full_tail_and_monotonicity(self):
        ref = G.gamma(11.0)
        errs = [abs(G.ramanujan_gamma(10.0, t).value - ref) / ref for t in range(8)]
        assert errs[7] <= 1e-9
        assert all(errs[i] > errs[i + 1] for i in range(7))

    def test_asymptotic_ratio(self):
        x = 150.0
        ratio = G.ramanujan_gamma(x, 0).value / G.gamma(x + 1.0)
        assert abs(ratio - 1.0) < 1e-8

    def test_error_bound_is_honest_for_partial_tails(self):
        ref = G.gamma(11.0)
        for t in range(7):
            est = G.ramanujan_gamma(10.0, t)
            assert abs(est.value - ref) <= 30.0 * est.error_bound

    def test_error_bound_holds_strictly(self):
        # truncation (first two omitted terms) plus exponent rounding,
        # which dominates from x ~ 50 on; checked against mpmath
        for x in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0):
            ref = mp.gamma(mp.mpf(x) + 1)
            for t in range(8):
                est = G.ramanujan_gamma(x, t)
                assert abs(mp.mpf(est.value) - ref) <= est.error_bound, (x, t)

    def test_domain(self):
        with pytest.raises(DomainError):
            G.ramanujan_gamma(0.5, 3)
        with pytest.raises(RangeError):
            G.ramanujan_gamma(10.0, 8)


class TestMonotoneQuotient:
    def test_exact_at_two(self):
        assert abs(G.mono_f(2.0) - 0.5) < 1e-13

    def test_limit_at_one(self):
        assert abs(G.mono_f(1.0) - (1.0 - EG)) < 1e-15
        assert abs(G.mono_f(1.0 + 1e-7) - G.mono_f(1.0 - 1e-7)) < 1e-7

    def test_increasing_below_one(self):
        assert G.mono_f(10.0) < G.mono_f(100.0) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            G.mono_f(-1.0)


class TestLemmas:
    def test_lemma_g_positive(self):
        for x in (-0.9, -0.5, 0.0, 1.0, 3.9, 100.0):
            assert G.lemma_g(x) > 0.0

    def test_lemma_g_against_long_sum(self):
        x = 2.0
        n = 10**6
        s = math.fsum((k - x) / (k + x) ** 3 for k in range(1, n + 1))
        u = n + 0.5
        s += 1.0 / (u + x) - x / (u + x) ** 2
        assert abs(G.lemma_g(x) - s) < 1e-9

    def test_lemma_g_against_mpmath(self):
        # lemma_g(x) = Psi'(1+x) + x Psi''(1+x); both sides of the switch to
        # the asymptotic tail at 1 + x + m = 12, and large x, where the two
        # terms cancel to ~1/(2x^2)
        rng = random.Random(5150)
        xs = ([rng.uniform(-0.999, 100.0) for _ in range(150)]
              + [10.0 ** rng.uniform(0.0, 8.0) for _ in range(100)]
              + [-0.999, 8.9, 9.0, 10.0, 11.0, 12.0, 1e4])
        worst = 0.0
        for x in xs:
            xm = mp.mpf(x)
            ref = mp.psi(1, 1 + xm) + xm * mp.psi(2, 1 + xm)
            worst = max(worst, float(abs(G.lemma_g(x) / ref - 1)))
        assert worst <= 5e-15

    def test_lemma_h(self):
        assert G.lemma_h(0.0) == 0.0
        assert G.lemma_h(1.0) > 0.0
        # decreasing branch on (-1, 0]
        assert G.lemma_h(-0.5) > G.lemma_h(-0.25) > G.lemma_h(0.0)

    def test_domains(self):
        with pytest.raises(DomainError):
            G.lemma_g(-1.0)
        with pytest.raises(DomainError):
            G.lemma_h(-1.5)


@pytest.mark.parametrize("x", [-math.inf, math.nan, math.inf], ids=["-inf", "nan", "inf"])
@pytest.mark.parametrize("fn", [
    G.gamma, G.log_gamma, G.digamma, G.trigamma, G.sinpi, G.theta, G.mono_f,
    G.lemma_g, G.lemma_h,
], ids=lambda fn: fn.__name__)
def test_non_finite_argument(fn, x):
    # a non-NaN value or a documented exception; gamma(inf) documents
    # OverflowError, every other refusal is a DomainError
    try:
        value = fn(x)
    except DomainError:
        return
    except OverflowError:
        assert fn is G.gamma and x == math.inf
        return
    assert isinstance(value, float) and not math.isnan(value)


def test_sixthroot_tail_coefficients_are_exact_rationals():
    from fractions import Fraction

    assert G.RAMANUJAN_TAIL_COEFFS == (
        Fraction(1, 30), Fraction(-11, 240), Fraction(79, 3360),
        Fraction(3539, 201600), Fraction(-9511, 403200),
        Fraction(-10051, 716800), Fraction(47474887, 1277337600),
    )


def test_constants_table():
    assert abs(G.CONSTANTS.euler_gamma - 0.5772156649) < 5e-11
    assert G.CONSTANTS.pi == math.pi
    assert abs(G.CONSTANTS.log2 - math.log(2.0)) == 0.0
    digits = "0.5772156649015328606065"
    assert abs(G.EULER_GAMMA - float(digits)) == 0.0
