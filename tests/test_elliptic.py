import math
import random
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from specfun import elliptic as E
from specfun import hyper, kernel
from specfun.errors import BracketError, DomainError, RangeError

mp.mp.dps = 40

# the signatures 2, 3, 4 and 6 of Ramanujan's theories, where mu_a and its
# inverse are closed forms in the nome
_NOME_SIGNATURES = [0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0]


class TestAgm:
    def test_fixed_point(self):
        assert E.agm(1.0, 1.0) == 1.0

    @given(st.floats(1e-8, 1e8))
    @settings(max_examples=100)
    def test_equal_arguments(self, x):
        assert abs(E.agm(x, x) - x) <= 4.0 * math.ulp(x)

    def test_symmetric(self):
        assert E.agm(2.0, 5.0) == E.agm(5.0, 2.0)

    def test_against_series(self):
        # pi/(2 agm(1, 0.6)) = K(0.8)
        got = math.pi / (2.0 * E.agm(1.0, 0.6))
        ref = 0.5 * math.pi * hyper.hyp2f1(0.5, 0.5, 1.0, 0.64)
        assert abs(got - ref) <= 1e-13 * ref

    def test_domain(self):
        with pytest.raises(DomainError):
            E.agm(0.0, 1.0)

    @pytest.mark.parametrize("x,y", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0)])
    def test_non_finite_is_domain_error(self, x, y):
        # no NaN from the last mean's inf - inf
        with pytest.raises(DomainError, match="positive finite"):
            E.agm(x, y)

    def test_against_mpmath_over_the_float_range(self):
        # a*b and a+b may leave binary64 where the mean does not; the
        # worst here is 4.8e-16 (measured)
        rng = random.Random(2024)
        pairs = [(10 ** rng.uniform(-300, 300), 10 ** rng.uniform(-300, 300)) for _ in range(3000)]
        pairs += [(1e200, 1.5e200), (1e308, 1.0), (1.7e308, 1.7e308), (1e-200, 2e-200),
                  (sys.float_info.max, sys.float_info.max), (sys.float_info.max, 1e-300)]
        for x, y in pairs:
            want = mp.agm(x, y)
            assert abs(E.agm(x, y) - want) <= 1e-15 * want, (x, y)

    def test_unit_scale_keeps_the_textbook_bits(self):
        # K and K' call agm(1, r), r in (0, 1], where a*b and a+b stay normal
        def textbook(a, b):
            while a - b > 4.0 * math.ulp(a):
                a, b = 0.5 * (a + b), math.sqrt(a * b)
            return 0.5 * (a + b)

        rng = random.Random(2025)
        for r in [10 ** rng.uniform(-300, 0) for _ in range(2000)] + [1.0, 5e-324]:
            assert repr(E.agm(1.0, r)) == repr(textbook(1.0, r)), r

    def test_quadratic_convergence_iteration_count(self):
        def iters(x, y):
            a, b = max(x, y), min(x, y)
            n = 0
            while a - b > 4.0 * math.ulp(a):
                a, b = 0.5 * (a + b), math.sqrt(a * b)
                n += 1
            return n

        assert iters(1.0, 1e-8) <= 8
        assert iters(1.0, 1e8) <= 8
        # the full 16-decade spread needs one extra halving
        assert iters(1e-8, 1e8) <= 9


class TestClassicalIntegrals:
    def test_endpoints(self):
        assert abs(E.ellip_k(0.0) - math.pi / 2.0) < 1e-15
        assert abs(E.ellip_e(0.0) - math.pi / 2.0) < 1e-15
        assert E.ellip_e(1.0) == 1.0
        with pytest.raises(OverflowError):
            E.ellip_k(1.0)
        with pytest.raises(OverflowError):
            E.ellip_k_prime(0.0)

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6, 0.9, 0.999])
    def test_against_mpmath(self, r):
        m = mp.mpf(r) ** 2
        assert abs(E.ellip_k(r) - float(mp.ellipk(m))) < 1e-13 * float(mp.ellipk(m))
        assert abs(E.ellip_e(r) - float(mp.ellipe(m))) < 1e-13 * float(mp.ellipe(m))

    def test_primed_consistency(self):
        for r in (0.2, 0.7, 0.95):
            rp = math.sqrt((1.0 - r) * (1.0 + r))
            assert abs(E.ellip_k_prime(r) - E.ellip_k(rp)) < 1e-13 * E.ellip_k_prime(r)
            assert abs(E.ellip_e_prime(r) - E.ellip_e(rp)) < 1e-13 * E.ellip_e_prime(r)

    def test_k_prime_against_mpmath_down_to_subnormal(self):
        # r log-uniform down to 5e-324, 5.17e-154 (where the AGM read 5.3e-16)
        # and both sides of 1e-9 included: below it log(4/r) is K(r') to
        # 3e-19 and reads 1.9e-16 at worst; above, the AGM itself reads up to
        # 6.7e-16 (at r = 5.95e-9, over about 190,000 log-uniform r, measured)
        rng = random.Random(3133)
        rs = [10.0 ** -rng.uniform(0.0, 323.3) for _ in range(3000)]
        rs += [5e-324, 5.17e-154, math.nextafter(1e-9, 0.0), 1e-9, math.nextafter(1e-9, 1.0)]
        with mp.workdps(50):
            for r in rs:
                err = abs(E.ellip_k_prime(r) / (mp.pi / (2 * mp.agm(1, r))) - 1)
                assert err <= (5e-16 if r < 1e-9 else 7e-16), r

    def test_series_cross_validation(self):
        for r in (0.1, 0.5, 0.8, 0.99):
            series = hyper.hyp2f1(0.5, 0.5, 1.0, r * r, one_minus_x=(1 - r) * (1 + r))
            assert abs(2.0 / math.pi * E.ellip_k(r) - series) < 1e-12


class TestGeneralizedIntegrals:
    def test_reduction_to_classical(self):
        for r in (0.1, 0.5, 0.9, 0.99):
            assert abs(E.k_a(0.5, r) - E.ellip_k(r)) <= 1e-12 * E.ellip_k(r)
            assert abs(E.e_a(0.5, r) - E.ellip_e(r)) <= 1e-12 * E.ellip_e(r)

    def test_second_kind_endpoint(self):
        assert abs(E.e_a(0.25, 1.0) - math.sqrt(2.0) / 3.0) < 1e-15
        assert abs(E.e_a(0.25, 1.0) - math.sin(math.pi * 0.25) / 1.5) < 1e-15

    def test_k_third_signature_oracle(self):
        # 50-digit evaluation of (pi/2) F(1/3, 2/3; 1; 0.81)
        assert abs(E.k_a(1.0 / 3.0, 0.9) - 2.195816665606146413) < 1e-10

    def test_endpoint_continuity(self):
        for a in (0.2, 0.5, 0.8):
            assert abs(E.e_a(a, 1.0 - 1e-8) - E.e_a(a, 1.0)) < 1e-5

    def test_signature_validation(self):
        with pytest.raises(DomainError):
            E.k_a(1.2, 0.5)
        with pytest.raises(DomainError):
            E.e_a(0.0, 0.5)


def _k_a_reference(a, r, prime):
    # (pi/2) F(a, 1-a; 1; x) at x = r^2, or at 1 - r^2 for k_a_prime, with a
    # the float it is; below r = 1e-9 the complement's reference is the
    # two-term asymptote sin(pi a)(R_a - 2 log r)/2, its next term O(r^2)
    am = mp.mpf(a)
    if prime and r < 1e-9:
        r_a = -2 * mp.euler - mp.digamma(am) - mp.digamma(1 - am)
        return mp.sin(mp.pi * am) * (r_a - 2 * mp.log(r)) / 2
    x = mp.mpf(r) ** 2
    return mp.pi / 2 * mp.hyp2f1(am, 1 - am, 1, 1 - x if prime else x)


class TestGeneralizedClosedForms:
    """k_a and k_a_prime at the four signatures through one AGM loop."""

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_against_mpmath(self, a):
        # r log-uniform toward both ends, 1 - 2^-53 and the ends of the
        # float range included; at a = 1/2 the forms are ellip_k's
        rng = random.Random(3131)
        rs = ([rng.uniform(0.0, 1.0) for _ in range(100)]
              + [10.0 ** -rng.uniform(0.15, 323.0) for _ in range(100)]
              + [1.0 - 10.0 ** -rng.uniform(0.15, 15.95) for _ in range(100)]
              + [5e-324, 1e-170, 1.0 - 2.0 ** -53, 0.5, math.sqrt(0.5), math.nextafter(math.sqrt(0.5), 0.0)])
        worst = 0.0
        for r in rs:
            worst = max(worst, float(abs(E.k_a(a, r) / _k_a_reference(a, r, False) - 1)),
                        float(abs(E.k_a_prime(a, r) / _k_a_reference(a, r, True) - 1)))
        assert worst <= 5e-16

    def test_half_is_the_classical_k(self):
        rng = random.Random(3132)
        for r in [rng.random() for _ in range(500)] + [10 ** -rng.uniform(0, 323) for _ in range(200)]:
            assert repr(E.k_a(0.5, r)) == repr(E.ellip_k(r)), r
            assert repr(E.k_a_prime(0.5, r)) == repr(E.ellip_k_prime(r)), r

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_pi_over_two_at_the_ends(self, a):
        assert E.k_a(a, 0.0) == 0.5 * math.pi
        assert E.k_a_prime(a, 1.0) == 0.5 * math.pi

    @pytest.mark.parametrize("a", [0.3, 0.49])
    def test_other_a_keep_the_engine(self, a):
        rng = random.Random(3133)
        for r in [rng.random() for _ in range(200)] + [1e-150, 1e-9, 1.0 - 2.0 ** -53]:
            rc2 = (1.0 - r) * (1.0 + r)
            assert E.k_a(a, r) == 0.5 * math.pi * hyper.hyp2f1(a, 1.0 - a, 1.0, r * r, one_minus_x=rc2)
            assert E.k_a_prime(a, r) == 0.5 * math.pi * hyper.hyp2f1(a, 1.0 - a, 1.0, rc2, one_minus_x=r * r)

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_signatures_run_no_2f1(self, a, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("hyp2f1 called")

        monkeypatch.setattr(E, "hyp2f1", refused)
        for r in (5e-324, 1e-9, 0.3, math.sqrt(0.5), 0.9, 1.0 - 2.0 ** -53):
            E.k_a(a, r)
            E.k_a_prime(a, r)

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.49, 0.9])
    @pytest.mark.parametrize("r", [1e-160, 1e-170, 5e-324])
    def test_complement_where_r_squared_underflows(self, a, r):
        # r * r is subnormal or 0: k_a_prime is its two-term asymptote and
        # e_a_prime its r = 0 value, exact as the rest is O(r^2 log r)
        want = _k_a_reference(a, r, True)
        assert abs(E.k_a_prime(a, r) / want - 1) <= 5e-16
        am = mp.mpf(a)
        with mp.workdps(60):
            e_want = mp.pi / 2 * mp.hyp2f1(am - 1, 1 - am, 1, 1 - mp.mpf(r) ** 2)
        assert abs(E.e_a_prime(a, r) / e_want - 1) <= 5e-16
        assert E.e_a_prime(a, r) == E.e_a_prime(a, 0.0)

    def test_the_sixth_bridge_keeps_k_below_its_complement(self):
        # why _mu_sixth needs no k > k' branch: on x = r^2 <= 1/2 the
        # bridge's lam <= 1 - lam, checked on the 2,001 floats below 1/2
        x = 0.5
        for _ in range(2001):
            x = math.nextafter(x, 0.0)
            lam, lamc = E._sixth_lambda(math.sqrt(x * (1.0 - x)), (1.0 - x) - x)
            assert lam <= lamc, x


class TestSignatureParam:
    """The private per-a record behind mu_a, mu_a_inverse and phi_k_a,
    built by the memo E._memo_record."""

    def test_r_a_overflow_is_range_error(self):
        # pi cot(pi a) overflows below about 5.6e-309, as in digamma
        with pytest.raises(RangeError):
            hyper.ramanujan_R(5e-324, 1.0)
        with pytest.raises(RangeError):
            E._memo_record(5e-324)

    def test_domain(self):
        for a in (0.0, 1.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                E._memo_record(a)
            with pytest.raises(DomainError):
                E.mu_a(a, 0.5)

    @staticmethod
    def _count_digamma(monkeypatch):
        # R_a is hyper.ramanujan_R(a, 1 - a), two digamma calls
        digamma = hyper.digamma
        calls = [0]

        def counted(x):
            calls[0] += 1
            return digamma(x)

        monkeypatch.setattr(hyper, "digamma", counted)
        return calls

    @pytest.mark.parametrize("a", [1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 6.0, 0.05, 0.95])
    def test_digamma_calls_per_solve(self, a, monkeypatch):
        # the first solve at an a builds its record, the others build none
        calls = self._count_digamma(monkeypatch)
        E._memo_record.cache_clear()
        rs = [0.02 + 0.0096 * i for i in range(100)]
        for p in (2.0, 5.0, 23.0):
            for r in rs:
                E.phi_k_a(a, 1.0 / p, r)
        assert calls[0] == 2

    def test_float_a_builds_one_record_per_process(self, monkeypatch):
        # the memo of records: 300 solves at one float a, one R_a
        calls = self._count_digamma(monkeypatch)
        E._memo_record.cache_clear()
        for p in (2.0, 5.0, 23.0):
            for i in range(100):
                E.phi_k_a(0.3, 1.0 / p, 0.02 + 0.0096 * i)
        assert calls[0] == 2
        assert E._memo_record(0.3) is E._memo_record(0.3)

    def test_errors_are_not_memoized(self):
        E._memo_record.cache_clear()
        for _ in range(2):
            with pytest.raises(RangeError):
                E.phi_k_a(5e-324, 0.5, 0.5)
            with pytest.raises(DomainError):
                E.mu_a(1.5, 0.5)
        assert E._memo_record.cache_info().currsize == 0

    def test_record_is_immutable(self):
        with pytest.raises(AttributeError):
            E._memo_record(0.3).r_a = 0.0

    def test_mu_a_is_thread_safe(self):
        # four threads evaluate mu_a at one memoized a at once, two of them
        # walking the r values in the opposite order; five rounds, each
        # building the record afresh, since a race need not show in one
        rng = random.Random(8083)
        rs = [rng.uniform(0.01, 0.99) for _ in range(500)]
        want = [E._mu_and_slope(E._memo_record(0.3), r)[0] for r in rs]
        got = [None] * 4

        def run(start, i):
            order = rs if i % 2 == 0 else rs[::-1]
            start.wait()
            values = [E.mu_a(0.3, r) for r in order]
            got[i] = values if i % 2 == 0 else values[::-1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                E._memo_record.cache_clear()
                start = threading.Barrier(4)
                threads = [threading.Thread(target=run, args=(start, i)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert got == [want] * 4
        finally:
            sys.setswitchinterval(interval)


class TestRingModulus:
    def test_symmetry_point(self):
        assert abs(E.mu(math.sqrt(0.5)) - math.pi / 2.0) < 1e-14
        for a in (0.1, 1.0 / 3.0, 0.77):
            ref = 0.5 * math.pi / math.sin(math.pi * a)
            assert abs(E.mu_a(a, math.sqrt(0.5)) - ref) < 1e-12 * ref

    def test_agm_expression(self):
        got = E.mu(0.1)
        ref = math.pi * E.ellip_k_prime(0.1) / (2.0 * E.ellip_k(0.1))
        assert abs(got - ref) < 1e-14

    def test_against_mpmath(self):
        assert abs(E.mu(0.3) - 2.5668979448308223198) < 1e-13
        got = E.mu_a(1.0 / 3.0, 1e-7)
        assert abs(got - 17.766014083960481547) <= 1e-10 * got
        got = E.mu_a(1.0 / 3.0, 1.0 - 1e-7)
        assert abs(got - 0.35146689471819827146) <= 1e-10 * got

    def test_decreasing(self):
        for a in (0.5, 1.0 / 3.0):
            vals = [E.mu_a(a, r) for r in (0.05, 0.25, 0.5, 0.75, 0.95)]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [math.nan, 0.0, 1.0, 1.5, -0.5])
    def test_unguarded_domain(self, r):
        # mu_a takes every r inside (0, 1) and refuses what lies outside;
        # a NaN r must not reach the series, where it never stops
        with pytest.raises(DomainError):
            E.mu_a(0.3, r)

    def test_against_mpmath_near_the_ends(self):
        # r or 1 - r in [1e-15.5, 1e-7]; there 1 - r^2 >= 1e-31, so 50
        # digits leave 19 to spare
        rng = random.Random(1107)
        worst = 0.0
        with mp.workdps(50):
            for i in range(600):
                a = rng.uniform(0.001, 0.999)
                d = 10.0 ** -rng.uniform(7.0, 15.5)
                r = d if i % 2 else 1.0 - d
                am, x = mp.mpf(a), mp.mpf(r) ** 2
                ref = (mp.pi / (2 * mp.sin(mp.pi * am))
                       * mp.hyp2f1(am, 1 - am, 1, 1 - x) / mp.hyp2f1(am, 1 - am, 1, x))
                worst = max(worst, float(abs(E.mu_a(a, r) / ref - 1)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("a", [0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0, 1e-4, 1.0 - 1e-8])
    def test_tiny_r_against_the_asymptote(self, a):
        # mu_a(r) = R_a/2 - log r + O(r^2), the O(r^2) far below roundoff
        am = mp.mpf(a)
        half_r_a = (-2 * mp.euler - mp.digamma(am) - mp.digamma(1 - am)) / 2
        for r in (1e-20, 1e-100, 1e-300, 5e-324):
            assert abs(E.mu_a(a, r) / (half_r_a - mp.log(r)) - 1) <= 1e-15, r

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_nome_signatures_against_mpmath(self, a):
        # the closed forms (Jacobi's nome series at a = 1/2 and 1/4, a cubic
        # AGM step at 1/3, the j-invariant bridge at 1/6) over the bulk, r
        # from 1e-3 down to 1e-300 and 5e-324, and 1 - r down to 10^-15.5,
        # with both sides of the switch at 1/sqrt(2); below r = 1e-9 the
        # reference is the asymptote, its O(r^2) under 1e-18.  The
        # reference takes a as the float it is, a few 1e-17 off 1/3 and 1/6
        rng = random.Random(2121)
        rs = ([rng.uniform(0.001, 0.999) for _ in range(500)]
              + [10.0 ** -rng.uniform(3.0, 300.0) for _ in range(250)]
              + [1.0 - 10.0 ** -rng.uniform(3.0, 15.5) for _ in range(250)]
              + [5e-324, 0.7828, math.sqrt(0.5), math.nextafter(math.sqrt(0.5), 0.0)])
        am = mp.mpf(a)
        worst = 0.0
        with mp.workdps(50):
            half_r_a = (-2 * mp.euler - mp.digamma(am) - mp.digamma(1 - am)) / 2
            for r in rs:
                if r < 1e-9:
                    ref = half_r_a - mp.log(r)
                else:
                    x = mp.mpf(r) ** 2
                    ref = (mp.pi / (2 * mp.sin(mp.pi * am))
                           * mp.hyp2f1(am, 1 - am, 1, 1 - x) / mp.hyp2f1(am, 1 - am, 1, x))
                worst = max(worst, float(abs(E.mu_a(a, r) / ref - 1)))
        assert worst <= 5e-16

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_nome_signatures_run_no_series(self, a, monkeypatch):
        # mu_a and phi_k_a at the four signatures are closed forms in the nome,
        # both ways, read off the record: no 2F1, no series, no AGM, and no
        # _mu_and_slope, whose F and slope only general a and Newton need
        calls = []
        for name in ("hyp2f1", "_mu_series", "agm", "_mu_and_slope"):
            def counted(*args, _name=name, _fn=getattr(E, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(E, name, counted)
        for r in (5e-324, 1e-9, 0.3, math.sqrt(0.5), 0.9, 1.0 - 1e-15):
            E.mu_a(a, r)
        for r in (1e-6, 0.3, math.sqrt(0.5), 0.9, 0.999):
            for big_k in (0.5, 2.0):
                E.phi_k_a(a, big_k, r)
        assert calls == []

    def test_cubic_nome_coefficients(self):
        # 27 q/x = 1 + sum c_n x^n at a = 1/3, q = exp(-2 mu_a), from
        # mpmath's Taylor series; _mu_third sums c_1..c_4
        def scaled_nome(x):
            # 1/3 at the working precision, or the differences see its excess
            third = mp.mpf(1) / 3
            ratio = mp.hyp2f1(third, 2 * third, 1, 1 - x) / mp.hyp2f1(third, 2 * third, 1, x)
            return 27 * mp.exp(-2 * mp.pi / mp.sqrt(3) * ratio) / x

        with mp.workdps(25):
            series = mp.taylor(scaled_nome, 0, 4, singular=True)
        assert abs(series[0] - 1) < 1e-20
        for c, ref in zip(E._CUBIC_NOME, series[1:]):
            assert abs(c / ref - 1) <= 2e-16, (c, ref)

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_roundtrip_through_the_inverse(self, a):
        # mu_a(mu_a^-1(y)), both ways in closed form, within 4 ulp of y and
        # within max(1e-13, ulp(y)): targets up to 700, so most roots lie
        # below 1e-7, then as many within a factor 2 of the symmetry value.
        # Below it the root lies next to 1, where one ulp of r moves mu_a
        # by many ulps of y, so no float r could meet the 4 ulp there
        c_sym = 0.5 * math.pi / math.sin(math.pi * a)
        rng = random.Random(1108)
        ys = ([rng.uniform(c_sym, 700.0) for _ in range(500)]
              + [rng.uniform(c_sym, 2.0 * c_sym) for _ in range(500)])
        for y in ys:
            r = E.mu_a_inverse(a, y)
            err = abs(E.mu_a(a, r) - y)
            assert err <= min(4.0 * math.ulp(y), max(1e-13, math.ulp(y))), (y, r)

    # the extreme signatures test sin(pi a) next to 0 and 1 and the
    # digamma reflection in R_a; the three r laws cover the bulk and both
    # corners
    _SIGNATURES = [1.0 / 3.0, 0.25, 1.0 / 6.0, 1e-4, 1.0 - 1e-4, 1.0 - 1e-8]

    def test_against_mpmath_sweep(self):
        rng = random.Random(4604)
        signatures = self._SIGNATURES + [rng.uniform(0.001, 0.999) for _ in range(14)]
        worst = 0.0
        for a in signatures:
            rs = ([rng.random() for _ in range(5)]
                  + [10.0 ** -rng.uniform(0.0, 12.0) for _ in range(5)]
                  + [1.0 - 10.0 ** -rng.uniform(0.3, 12.0) for _ in range(5)])
            for r in rs:
                am, x = mp.mpf(a), mp.mpf(r) ** 2
                ref = (mp.pi / (2 * mp.sin(mp.pi * am))
                       * mp.hyp2f1(am, 1 - am, 1, 1 - x) / mp.hyp2f1(am, 1 - am, 1, x))
                worst = max(worst, float(abs(E.mu_a(a, r) / ref - 1)))
        assert worst <= 1e-14

    def test_symmetry_product(self):
        # mu_a(r) mu_a(r') = (pi / (2 sin(pi a)))^2 puts r and r' on opposite
        # sides of 1/sqrt(2).  r' = sqrt(1 - r^2) is rounded, and below
        # r = 0.1 that rounding alone moves mu_a(r') by more than 1e-14.
        rng = random.Random(4605)
        for a in self._SIGNATURES + [0.5, 0.05, 0.95]:
            c_sym = 0.5 * math.pi / float(mp.sin(mp.pi * mp.mpf(a)))
            for _ in range(12):
                r = rng.uniform(0.1, 0.995)
                rp = math.sqrt((1.0 - r) * (1.0 + r))
                product = E.mu_a(a, r) * E.mu_a(a, rp)
                assert abs(product / (c_sym * c_sym) - 1.0) <= 1e-14

    @given(st.floats(0.02, 0.98), st.sampled_from([0.5, 1.0 / 3.0, 0.21]))
    @settings(max_examples=120, deadline=None)
    def test_inverse_roundtrip(self, r, a):
        y = E.mu_a(a, r)
        back = E.mu_a_inverse(a, y)
        assert abs(back - r) < 1e-9


class TestInverseNewton:
    @pytest.mark.parametrize("a", [0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0, 0.05, 0.95])
    @pytest.mark.parametrize("r", [1e-6, 0.1, 0.5, 0.707, 0.9, 0.999])
    def test_slope_identity(self, a, r):
        # d mu_a / d(log r) = -1 / (r'^2 F(a,1-a;1;r^2)^2) against a stencil
        _, slope = E._mu_and_slope(E._memo_record(a), r)
        stencil = kernel.derivative(lambda t: E.mu_a(a, math.exp(t)), math.log(r))
        assert abs(slope - stencil) <= 1e-8 * abs(stencil)

    # the Newton counts hold at general a; at the four nome signatures
    # (E._SIGNATURES) mu_a_inverse runs no solver, so there the count is 0
    @pytest.mark.parametrize("a", [0.05, 0.21, 0.9, 0.95, 1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5])
    def test_mu_evaluations_per_solve(self, a, monkeypatch):
        mu_and_slope = E._mu_and_slope
        calls = [0]

        def counted(a_, r):
            calls[0] += 1
            return mu_and_slope(a_, r)

        monkeypatch.setattr(E, "_mu_and_slope", counted)
        # targets from just above the symmetry value, where the start is
        # poorest, up to the asymptote cut-off; denser near the former
        y_lo = 0.5 * math.pi / math.sin(math.pi * a) * (1.0 + 1e-9)
        y_hi = 0.5 * hyper.ramanujan_R(a, 1.0 - a) + 25.0
        n = 400
        counts = []
        for i in range(n):
            y = y_lo + (y_hi - y_lo) * (i / n) ** 2
            calls[0] = 0
            r = E.mu_a_inverse(a, y)
            counts.append(calls[0])
            assert abs(mu_and_slope(E._memo_record(a), r)[0] - y) <= 1e-13
        assert max(counts) <= (0 if a in E._SIGNATURES else 6)
        # the bracket ends are never needed: about 1.8 evaluations per solve
        assert sum(counts) / n <= 2.5

    @pytest.mark.parametrize("a", [0.05, 0.21, 0.9, 0.95, 0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0])
    def test_no_root_finder_in_the_three_term_band(self, a, monkeypatch):
        invert = kernel.invert_monotone
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return invert(*args, **kwargs)

        monkeypatch.setattr(kernel, "invert_monotone", counted)
        r_half = 0.5 * E._memo_record(a).r_a
        for i in range(200):
            E.mu_a_inverse(a, r_half + E._START_MARGIN + (700.0 - E._START_MARGIN) * i / 200)
        assert calls[0] == 0
        E.mu_a_inverse(a, r_half + E._START_MARGIN - 0.01)
        assert calls[0] == (0 if a in E._SIGNATURES else 1)

    def test_deep_roots_are_the_one_term_asymptote(self):
        # from 25 above R_a/2 on, the three-term start's correction is below
        # half an ulp of log r: the root is exp(R_a/2 - y) bit for bit
        rng = random.Random(2025)
        for i in range(6000):
            a = (1e-3, 0.999, 1e-8, 1.0 - 1e-8)[i % 4] if i % 3 == 0 else rng.uniform(1e-3, 1.0 - 1e-3)
            r_half = 0.5 * E._memo_record(a).r_a
            y = r_half + rng.uniform(25.0, 700.0)
            assert E.mu_a_inverse(a, y) == math.exp(r_half - y), (a, y)

    def test_three_term_root_meets_the_solver_tolerance(self):
        # from 12 above R_a/2 (_START_MARGIN) to just past 25 the start is
        # returned unconfirmed; it must still meet the stop rule
        rng = random.Random(91200)
        for _ in range(40000):
            sig = E._memo_record(rng.uniform(1e-8, 1.0 - 1e-8))
            y = 0.5 * sig.r_a + rng.uniform(12.0, 25.5)
            r = E.mu_a_inverse(sig.a, y)
            assert abs(E._mu_and_slope(sig, r)[0] - y) <= max(E._INVERT_TOL, math.ulp(y)), (sig.a, y)

    def test_tolerance_floor_at_one_ulp_of_target(self):
        # at a = 0.001 the targets run past y = 512, where one ulp of y
        # exceeds the absolute tolerance 1e-13; the solve then settles for
        # one ulp of y instead of hitting the iteration cap
        a = 0.001
        y_lo = 0.5 * math.pi / math.sin(math.pi * a) * (1.0 + 1e-9)
        y_hi = 0.5 * hyper.ramanujan_R(a, 1.0 - a) + 25.0
        rng = random.Random(20260)
        for y in [523.0400660893072] + [rng.uniform(y_lo, y_hi) for _ in range(500)]:
            r = E.mu_a_inverse(a, y)
            assert abs(E._mu_and_slope(E._memo_record(a), r)[0] - y) <= max(E._INVERT_TOL, math.ulp(y))

    @pytest.mark.parametrize("seed", [2026, 7, 11])
    def test_general_a_audit(self, seed, monkeypatch):
        # a across (0, 1), a quarter of the targets at a = 0.001 or 0.999,
        # where y reaches 512 and mu's rounding, about 2 ulp of y, exceeds
        # the tolerance: there Newton steps stall across the target and
        # the solver bisects.  (0.001, 500.4074428411587) is one of those
        mu_and_slope = E._mu_and_slope
        calls = [0]

        def counted(sig, r):
            calls[0] += 1
            return mu_and_slope(sig, r)

        monkeypatch.setattr(E, "_mu_and_slope", counted)
        rng = random.Random(seed)
        targets = []
        for _ in range(4000):
            u = rng.random()
            a = 0.001 if u < 0.125 else 0.999 if u < 0.25 else rng.uniform(0.001, 0.999)
            sig = E._memo_record(a)
            targets.append((a, rng.uniform(sig.c_sym, 0.5 * sig.r_a + E._START_MARGIN)))
        counts = []
        for a, y in targets + [(0.001, 500.4074428411587)]:
            calls[0] = 0
            r = E.mu_a_inverse(a, y)
            counts.append(calls[0])
            residual = abs(mu_and_slope(E._memo_record(a), r)[0] - y)
            assert residual <= max(E._INVERT_TOL, math.ulp(y)), (a, y)
        assert sum(counts) / len(counts) <= 1.7
        assert max(counts) <= 12

    @pytest.mark.parametrize("a", [0.001, 0.999] + [i / 40 for i in range(1, 40)])
    def test_newton_slope_factor_decreases(self, a):
        # d mu_a / d(log r) = -1 / (r'^2 F^2): r'^2 F(a,1-a;1;r^2)^2 strictly
        # decreasing makes mu_a concave decreasing in log r, which lets the
        # Newton solve run with no bracket
        sig = E._memo_record(a)
        g = [-1.0 / E._mu_and_slope(sig, k / 400 * math.sqrt(0.5))[1] for k in range(1, 401)]
        assert all(g1 < g0 for g0, g1 in zip(g, g[1:]))


def _outcome(fn, *args):
    # the value of a call, or the endpoint of the BracketError it raises
    try:
        return fn(*args)
    except BracketError as exc:
        return ("BracketError", exc.saturating_endpoint)


def _force_newton(monkeypatch, a):
    # every call at a reads a record without the closed forms: mu_a from
    # the series, its inverse from Newton
    newton = E._memo_record(a)._replace(mu_closed=None, mu_root=E._mu_inverse_lower)
    monkeypatch.setattr(E, "_memo_record", lambda _: newton)


class TestNomeInverse:
    """mu_a_inverse at a = 1/2, 1/3, 1/4, 1/6: r^2 from the nome q = exp(-2y)."""

    def test_the_four_signatures_take_the_nome_path(self):
        assert sorted(E._SIGNATURES) == sorted(_NOME_SIGNATURES)
        for a in _NOME_SIGNATURES + [0.3]:
            sig = E._memo_record(a)
            assert sig.c_sym == 0.5 * math.pi / sig.sin_pi_a
            assert (sig.mu_closed, sig.mu_root) == E._SIGNATURES.get(a, E._GENERAL)[:2]
        assert E._GENERAL == (None, E._mu_inverse_lower, None, None)

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_mu_residual_next_to_the_symmetry_value(self, a):
        # y = c (1 +- 10^-k): the direct path next to r = 1/sqrt(2), and
        # the reflected one through r'
        c_sym = E._memo_record(a).c_sym
        am = mp.mpf(a)
        worst = 0.0
        with mp.workdps(50):
            for k in range(1, 16):
                for y in (c_sym * (1.0 + 10.0 ** -k), c_sym * (1.0 - 10.0 ** -k)):
                    x = mp.mpf(E.mu_a_inverse(a, y)) ** 2
                    ref = (mp.pi / (2 * mp.sin(mp.pi * am))
                           * mp.hyp2f1(am, 1 - am, 1, 1 - x) / mp.hyp2f1(am, 1 - am, 1, x))
                    worst = max(worst, float(abs(ref / y - 1)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_agrees_with_the_newton_solver(self, a):
        # from c_sym to the underflow edge: the Newton solver stops within
        # 1e-13 of y in mu, about 1e-13 relative in r
        sig = E._memo_record(a)
        c_sym = sig.c_sym
        edge = 0.5 * sig.r_a - math.log(sys.float_info.min)
        rng = random.Random(1300)
        ys = ([c_sym * (1.0 + 10.0 ** -rng.uniform(0.0, 16.0)) for _ in range(1000)]
              + [rng.uniform(c_sym, edge - 0.01) for _ in range(1000)])
        for y in ys:
            r = E.mu_a_inverse(a, y)
            assert abs(r / E._mu_inverse_lower(sig, y) - 1.0) <= 1e-13, y

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_bracket_errors_match_the_newton_path(self, a, monkeypatch):
        # at y = 5e-324 the reflected target c_sym^2 / y overflows to inf
        ys = (800.0, math.inf, 1e-300, 5e-324)
        nome = [_outcome(E.mu_a_inverse, a, y) for y in ys]
        _force_newton(monkeypatch, a)
        assert nome == [_outcome(E.mu_a_inverse, a, y) for y in ys]
        assert nome == [("BracketError", 0.0), ("BracketError", 0.0)] + [("BracketError", 1.0)] * 2

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_phi_next_to_one_matches_the_newton_path(self, a, monkeypatch):
        # K = p > 1 moves the root still closer to 1, to the saturation
        # edge (K = 1/p moves it away, where the Newton solver's stop at
        # 1e-13 in mu shows as a few ulp of r)
        rng = random.Random(1301)
        calls = [(a, p, 1.0 - 10.0 ** -rng.uniform(6.0, 16.0))
                 for p in (2.0, 3.0, 5.0, 7.0, 11.0, 23.0) for _ in range(40)]
        nome = [_outcome(E.phi_k_a, *c) for c in calls]
        _force_newton(monkeypatch, a)
        newton = [_outcome(E.phi_k_a, *c) for c in calls]
        # a raise counts as its saturating endpoint 1.0: the two paths'
        # reflected roots rc differ by a few ulp, which may round r either
        # way next to 1.0
        for c, s, t in zip(calls, nome, newton):
            s, t = (v[1] if isinstance(v, tuple) else v for v in (s, t))
            assert abs(s - t) <= math.ulp(max(s, t)), c
        raised = sum(isinstance(v, tuple) for v in nome)
        assert 0 < raised < len(calls)  # both outcomes occur

    def test_reflected_root_next_to_one_is_the_nearest_float(self):
        # a = 1/2 below c_sym = pi/2: r' = theta_2(q)^2 / theta_3(q)^2 at
        # q = exp(-pi^2/(2y)) and r = sqrt(1 - r'^2) at 50 digits, for
        # roots within 1e-4 of 1; where r rounds to 1.0 the call raises
        rng = random.Random(1400)
        raised = nearest = 0
        with mp.workdps(50):
            for _ in range(2000):
                rc = mp.mpf(10.0 ** -rng.uniform(2.0, 11.5))
                y = float(mp.pi * mp.ellipk(rc * rc) / (2 * mp.ellipk(1 - rc * rc)))
                q = mp.exp(-mp.pi ** 2 / (2 * y))
                rp = (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2
                ref = float(mp.sqrt(1 - rp * rp))
                got = _outcome(E.mu_a_inverse, 0.5, y)
                if ref == 1.0:
                    assert got == ("BracketError", 1.0), y
                    raised += 1
                else:
                    assert abs(got - ref) <= math.ulp(ref), y
                    nearest += got == ref
        assert 0 < raised < 2000
        assert nearest >= 0.999 * (2000 - raised)

    @pytest.mark.parametrize("a", _NOME_SIGNATURES)
    def test_no_solver_at_the_nome_signatures(self, a, monkeypatch):
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernel, "invert_monotone", counted(kernel.invert_monotone))
        monkeypatch.setattr(E, "_mu_and_slope", counted(E._mu_and_slope))
        for i in range(-3000, 3001):  # y from 1e-300 to 1e300, both sides of c_sym
            _outcome(E.mu_a_inverse, a, 10.0 ** (i / 10.0))
        assert calls[0] == 0


class TestModularFunctionPhi:
    def test_identity_k(self):
        for r in (0.1, 0.5, 0.9):
            assert abs(E.phi_k(1.0, r) - r) < 1e-12

    def test_forward_mu_relation(self):
        s = E.phi_k_a(0.5, 2.0, 0.5)
        assert abs(E.mu_a(0.5, s) - E.mu_a(0.5, 0.5) / 2.0) <= 1e-12

    def test_inverse_composition(self):
        for r in (0.2, 0.6, 0.9):
            assert abs(E.phi_k(2.0, E.phi_k(0.5, r)) - r) < 1e-10

    def test_down_then_up_deep_degree(self):
        r = 0.05
        s = E.phi_k_a(0.5, 1.0 / 23.0, r)
        assert 0.0 < s < 1e-40  # far into the logarithmic tail
        assert abs(E.phi_k_a(0.5, 23.0, s) - r) < 1e-10

    def test_below_identity_for_small_k(self):
        for a in (0.5, 1.0 / 3.0):
            for p in (2.0, 5.0):
                assert E.phi_k_a(a, 1.0 / p, 0.7) < 0.7

    def test_saturation_signalled(self):
        with pytest.raises(BracketError) as exc:
            E.phi_k(23.0, 0.7)
        assert exc.value.saturating_endpoint == 1.0

    @pytest.mark.parametrize("call", [
        lambda: E.mu_a_inverse(0.3, 5e-324),
        lambda: E.mu_a_inverse(0.3, 1e-320),
        lambda: E.phi_k_a(0.3, 1e308, 0.9),
        lambda: E.phi_k_a(0.3, 1.7e308, 0.5),
    ], ids=["subnormal_target", "subnormal_target_2", "huge_k", "huge_k_2"])
    def test_saturation_signalled_at_general_a(self, call):
        # y below c_sym^2 / DBL_MAX reflects to an infinite target
        with pytest.raises(BracketError) as exc:
            call()
        assert exc.value.saturating_endpoint == 1.0

    @pytest.mark.parametrize("call", [
        lambda: E.mu_a_inverse(0.5, 800.0),
        lambda: E.mu_a_inverse(0.5, math.inf),
        lambda: E.phi_k_a(0.5, 0.5, 1e-300),
    ], ids=["deep_target", "infinite_target", "phi_deep"])
    def test_underflow_signalled(self, call):
        with pytest.raises(BracketError) as exc:
            call()
        assert exc.value.saturating_endpoint == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            E.phi_k(0.0, 0.5)
        for a in _NOME_SIGNATURES + [0.3]:  # mu_a(r) / inf = 0 has no root
            with pytest.raises(DomainError):
                E.phi_k_a(a, math.inf, 0.5)
        with pytest.raises(DomainError):
            E.phi_k(2.0, 1.0)


class TestLegendreRelations:
    @pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.77, 0.95])
    def test_classical(self, r):
        assert abs(E.legendre_residual(r)[0]) < 1e-12

    def test_generalized_quarter(self):
        # right side is pi (sqrt2/2) / 3 at a = 1/4
        rhs = math.pi * math.sin(math.pi / 4.0) / 3.0
        assert abs(rhs - math.pi * (math.sqrt(2.0) / 2.0) / 3.0) < 1e-15
        assert abs(E.generalized_legendre_residual(0.25, 0.3)[0]) < 1e-10

    def test_generalized_matches_classical_at_half(self):
        for r in (0.2, 0.5, 0.9):
            gap = abs(E.generalized_legendre_residual(0.5, r)[0] - E.legendre_residual(r)[0])
            assert gap < 1e-12

    @pytest.mark.parametrize("a", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.49])
    @pytest.mark.parametrize("r", [0.03, 0.4, 0.97])
    def test_generalized_grid(self, a, r):
        assert abs(E.generalized_legendre_residual(a, r)[0]) < 1e-10


class TestEllipsePerimeter:
    def test_circle(self):
        two_pi = 2.0 * math.pi
        assert abs(E.ellipse_perimeter(1.0) - two_pi) < 1e-13
        assert abs(E.muir_approx(1.0) - two_pi) < 1e-13
        assert abs(E.upper_approx(1.0) - two_pi) < 1e-13

    def test_degenerate_segment(self):
        assert abs(E.ellipse_perimeter(0.0) - 4.0) < 1e-14

    def test_ordering(self):
        for b in (0.0, 0.2, 0.5, 0.8, 0.99):
            L = E.ellipse_perimeter(b)
            assert E.muir_approx(b) <= L + 1e-12
            assert L <= E.upper_approx(b) + 1e-12


class TestOdeResiduals:
    def test_first_kind(self):
        assert abs(E.ode_residual("ka_ode", 0.5, 0.5)[0]) < 1e-12

    def test_second_kind(self):
        assert abs(E.ode_residual("ea_ode", 1.0 / 3.0, 0.4)[0]) < 4e-14

    def test_square_root_argument(self):
        assert abs(E.ode_residual("lemniscate_ode", 0.5, 0.5)[0]) < 2e-14

    def test_guard_band(self):
        with pytest.raises(DomainError):
            E.ode_residual("ka_ode", 0.5, 0.01)

    def test_unknown(self):
        with pytest.raises(DomainError):
            E.ode_residual("nope", 0.5, 0.5)


class TestSchwarzian:
    def test_residual_small(self):
        assert abs(E.schwarzian_residual(0.5, 0.5)[0]) < 5e-13
        assert abs(E.schwarzian_residual(0.25, 0.3)[0]) < 5e-13

    @pytest.mark.parametrize("r", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_step_halving_decay(self, r):
        # at h = 2.5e-3 the half step's third difference reads mu's last
        # bits, and the ratio falls below 3 at half the r in [0.3, 0.7]
        h = 5e-3
        r1 = abs(E.schwarzian_residual(0.5, r, step=h)[0])
        r2 = abs(E.schwarzian_residual(0.5, r, step=h / 2.0)[0])
        assert 3.0 <= r1 / r2 <= 40.0

    def test_guard(self):
        with pytest.raises(DomainError):
            E.schwarzian_residual(0.5, 0.05)


class TestInequalityBattery:
    @pytest.mark.parametrize("r", [1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-4])
    def test_arth_bounds(self, r):
        k = E.ellip_k(r)
        base = math.atanh(r) / r
        assert 0.5 * math.pi * math.sqrt(base) < k + 1e-12
        assert k < 0.5 * math.pi * base + 1e-12
        assert 0.5 * math.pi * base ** 0.75 < k + 1e-12

    def test_refined_exponent_is_sharp_near_zero(self):
        # the exponent 3/4 of (pi/2)(arth r/r)^q < K(r), raised by 1e-3 or
        # by a relative 1e-3, fails at every r to 0.1
        for q in (0.75 + 1e-3, 0.75 * (1.0 + 1e-3)):
            for r in kernel.Grid(1e-5, 0.1, 400, "logarithmic").points():
                assert 0.5 * math.pi * (math.atanh(r) / r) ** q > E.ellip_k(r), (q, r)

    def test_klog_coefficient_raised_by_1e3_fails_near_zero(self):
        # the coefficient pi/(4 log 2) - 1 of 1 + c (r')^2 < K(r)/log(4/r')
        # is sharp at r -> 0: raised by a relative 1e-3 it fails at every r
        # to 0.1
        c = (math.pi / (4.0 * math.log(2.0)) - 1.0) * (1.0 + 1e-3)
        for r in kernel.Grid(1e-5, 0.1, 400, "logarithmic").points():
            rp2 = (1.0 - r) * (1.0 + r)
            assert E.ellip_k(r) / math.log(4.0 / math.sqrt(rp2)) < 1.0 + c * rp2, r

    @pytest.mark.parametrize("r", [1e-4, 0.2, 0.6, 0.95, 1.0 - 1e-4])
    def test_klog_bounds(self, r):
        rp2 = (1.0 - r) * (1.0 + r)
        ratio = E.ellip_k(r) / math.log(4.0 / math.sqrt(rp2))
        assert ratio > 9.0 / (8.0 + r * r) - 1e-12
        assert ratio < 1.0 + 0.25 * rp2 + 1e-12
        assert ratio > 1.0 + (math.pi / (4.0 * math.log(2.0)) - 1.0) * rp2 - 1e-12
