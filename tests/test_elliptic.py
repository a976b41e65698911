import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from specfun import elliptic as E
from specfun import gamma, hyper, kernel
from specfun.errors import BracketError, DomainError, RangeError

mp.mp.dps = 40


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


class TestModulusPoint:
    def test_complement_invariant(self):
        for r in (1e-8, 0.3, 0.9999999):
            pt = E.ModulusPoint.from_r(r)
            assert 0.0 < pt.r < 1.0 and 0.0 < pt.r_prime < 1.0
            s = pt.r * pt.r + pt.r_prime * pt.r_prime
            assert abs(s - 1.0) <= math.ulp(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            E.ModulusPoint.from_r(1.0)


class TestSignatureParam:
    @staticmethod
    def _signatures():
        rng = random.Random(8080)
        return ([rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(2000)]
                + [10.0 ** -rng.uniform(0.0, 300.0) for _ in range(2000)]
                + [1.0 - 10.0 ** -k for k in range(1, 17)] + [0.5])

    def test_r_a_is_bit_identical_to_ramanujan_R(self):
        for a in self._signatures():
            sig = E.SignatureParam(a)
            assert repr(sig.r_a) == repr(hyper.ramanujan_R(a, 1.0 - a)), a
            assert repr(sig.sin_pi_a) == repr(gamma.sinpi(a)), a

    def test_r_a_overflow_is_range_error(self):
        # pi cot(pi a) overflows below about 5.6e-309, as in digamma
        with pytest.raises(RangeError):
            hyper.ramanujan_R(5e-324, 1.0)
        with pytest.raises(RangeError):
            E.SignatureParam(5e-324)

    def test_domain(self):
        for a in (0.0, 1.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                E.SignatureParam(a)

    def test_record_and_float_agree(self):
        rng = random.Random(8081)
        for _ in range(200):
            a, r = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            sig = E.SignatureParam(a)
            assert repr(E.mu_a(sig, r)) == repr(E.mu_a(a, r))
            assert repr(E.phi_k_a(sig, 0.5, r)) == repr(E.phi_k_a(a, 0.5, r))
        assert E.SignatureParam(0.3) == E.SignatureParam(0.3)
        assert hash(E.SignatureParam(0.3)) == hash(E.SignatureParam(0.3))

    @pytest.mark.parametrize("a", [1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 6.0, 0.05, 0.95])
    def test_digamma_calls_per_solve(self, a, monkeypatch):
        # R_a takes one digamma (the larger of a, 1 - a; the other comes
        # by reflection), once per solve; none when the record is given
        digamma = gamma.digamma
        calls = [0]

        def counted(x):
            calls[0] += 1
            return digamma(x)

        monkeypatch.setattr(gamma, "digamma", counted)
        sig = E.SignatureParam(a)
        calls[0] = 0
        rs = [0.02 + 0.0096 * i for i in range(100)]
        for p in (2.0, 5.0, 23.0):
            for r in rs:
                E.phi_k_a(sig, 1.0 / p, r)
        assert calls[0] == 0
        for p in (2.0, 5.0, 23.0):
            for r in rs:
                E.phi_k_a(a, 1.0 / p, r)
        assert calls[0] <= 2 * 3 * len(rs)

    def test_float_a_builds_one_record_per_process(self, monkeypatch):
        # the memo of records: 300 solves at one float a, one R_a
        digamma = gamma.digamma
        calls = [0]

        def counted(x):
            calls[0] += 1
            return digamma(x)

        monkeypatch.setattr(gamma, "digamma", counted)
        E._memo_record.cache_clear()
        for p in (2.0, 5.0, 23.0):
            for i in range(100):
                E.phi_k_a(0.3, 1.0 / p, 0.02 + 0.0096 * i)
        assert calls[0] == 1
        assert E._record(0.3) is E._record(0.3)

    def test_errors_are_not_memoized(self):
        E._memo_record.cache_clear()
        for _ in range(2):
            with pytest.raises(RangeError):
                E.phi_k_a(5e-324, 0.5, 0.5)
            with pytest.raises(DomainError):
                E.mu_a(1.5, 0.5)
        assert E._memo_record.cache_info().currsize == 0


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

    def test_guard(self):
        with pytest.raises(DomainError):
            E.mu(1e-9)
        with pytest.raises(DomainError):
            E.mu_a(0.3, 1.0 - 1e-9)

    @pytest.mark.parametrize("r", [math.nan, 0.0, 1.0, 1.5, -0.5])
    def test_unguarded_domain(self, r):
        # a NaN r used to loop forever in the series
        with pytest.raises(DomainError):
            E.mu_a_unguarded(0.3, r)

    # the extreme signatures test sin(pi a) next to 0 and 1 and the
    # digamma reflection in R_a; the three r laws cover the bulk and both
    # corners, past the public guard
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
                worst = max(worst, float(abs(E.mu_a_unguarded(a, r) / ref - 1)))
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
                product = E.mu_a_unguarded(a, r) * E.mu_a_unguarded(a, rp)
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
        _, slope = E._mu_and_slope(E.SignatureParam(a), r)
        stencil = kernel.derivative(lambda t: E.mu_a_unguarded(a, math.exp(t)), math.log(r))
        assert abs(slope - stencil) <= 1e-8 * abs(stencil)

    @pytest.mark.parametrize("a", [0.05, 1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 0.9])
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
        y_hi = 0.5 * hyper.ramanujan_R(a, 1.0 - a) + E._ASYM_MARGIN
        n = 400
        counts = []
        for i in range(n):
            y = y_lo + (y_hi - y_lo) * (i / n) ** 2
            calls[0] = 0
            r = E.mu_a_inverse(a, y)
            counts.append(calls[0])
            assert abs(mu_and_slope(E.SignatureParam(a), r)[0] - y) <= 1e-13
        assert max(counts) <= 6
        # the bracket ends are never needed: about 1.8 evaluations per solve
        assert sum(counts) / n <= 2.5

    @pytest.mark.parametrize("a", [0.5, 1.0 / 3.0, 0.25, 1.0 / 6.0, 0.05, 0.95])
    def test_no_root_finder_in_the_three_term_band(self, a, monkeypatch):
        invert = kernel.invert_monotone
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return invert(*args, **kwargs)

        monkeypatch.setattr(kernel, "invert_monotone", counted)
        r_half = 0.5 * E.SignatureParam(a).r_a
        for i in range(200):
            E.mu_a_inverse(a, r_half + E._START_MARGIN + (E._ASYM_MARGIN - E._START_MARGIN) * i / 200)
        assert calls[0] == 0
        E.mu_a_inverse(a, r_half + E._START_MARGIN - 0.01)
        assert calls[0] == 1

    def test_three_term_root_meets_the_solver_tolerance(self):
        # from 12 above R_a/2 (_START_MARGIN) to just past _ASYM_MARGIN the
        # start is returned unconfirmed; it must still meet the stop rule
        rng = random.Random(91200)
        for _ in range(40000):
            sig = E.SignatureParam(rng.uniform(1e-8, 1.0 - 1e-8))
            y = 0.5 * sig.r_a + rng.uniform(12.0, 25.5)
            r = E.mu_a_inverse(sig, y)
            assert abs(E._mu_and_slope(sig, r)[0] - y) <= max(E._INVERT_TOL, math.ulp(y)), (sig.a, y)

    def test_tolerance_floor_at_one_ulp_of_target(self):
        # at a = 0.001 the targets run past y = 512, where one ulp of y
        # exceeds the absolute tolerance 1e-13; the solve then settles for
        # one ulp of y instead of hitting the iteration cap
        a = 0.001
        y_lo = 0.5 * math.pi / math.sin(math.pi * a) * (1.0 + 1e-9)
        y_hi = 0.5 * hyper.ramanujan_R(a, 1.0 - a) + E._ASYM_MARGIN
        rng = random.Random(20260)
        for y in [523.0400660893072] + [rng.uniform(y_lo, y_hi) for _ in range(500)]:
            r = E.mu_a_inverse(a, y)
            assert abs(E._mu_and_slope(E.SignatureParam(a), r)[0] - y) <= max(E._INVERT_TOL, math.ulp(y))


class TestModularFunctionPhi:
    def test_identity_k(self):
        for r in (0.1, 0.5, 0.9):
            assert abs(E.phi_k(1.0, r) - r) < 1e-12

    def test_forward_mu_relation(self):
        s = E.phi_k_a(0.5, 2.0, 0.5)
        assert abs(E.mu_a_unguarded(0.5, s) - E.mu_a_unguarded(0.5, 0.5) / 2.0) <= 1e-12

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
        with pytest.raises(DomainError):
            E.phi_k(2.0, 1.0)


class TestLegendreRelations:
    @pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.77, 0.95])
    def test_classical(self, r):
        assert abs(E.legendre_residual(r)) < 1e-12

    def test_generalized_quarter(self):
        # right side is pi (sqrt2/2) / 3 at a = 1/4
        rhs = math.pi * math.sin(math.pi / 4.0) / 3.0
        assert abs(rhs - math.pi * (math.sqrt(2.0) / 2.0) / 3.0) < 1e-15
        assert abs(E.generalized_legendre_residual(0.25, 0.3)) < 1e-10

    def test_generalized_matches_classical_at_half(self):
        for r in (0.2, 0.5, 0.9):
            gap = abs(E.generalized_legendre_residual(0.5, r) - E.legendre_residual(r))
            assert gap < 1e-12

    @pytest.mark.parametrize("a", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.49])
    @pytest.mark.parametrize("r", [0.03, 0.4, 0.97])
    def test_generalized_grid(self, a, r):
        assert abs(E.generalized_legendre_residual(a, r)) < 1e-10


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
        assert abs(E.ode_residual("ka_ode", 0.5, 0.5)) < 1e-5

    def test_second_kind(self):
        assert abs(E.ode_residual("ea_ode", 1.0 / 3.0, 0.4)) < 1e-5

    def test_square_root_argument(self):
        assert abs(E.ode_residual("lemniscate_ode", 0.5, 0.5)) < 1e-4

    def test_guard_band(self):
        with pytest.raises(DomainError):
            E.ode_residual("ka_ode", 0.5, 0.01)

    def test_unknown(self):
        with pytest.raises(DomainError):
            E.ode_residual("nope", 0.5, 0.5)


class TestSchwarzian:
    def test_residual_small(self):
        assert abs(E.schwarzian_residual(0.5, 0.5)) < 1e-3
        assert abs(E.schwarzian_residual(0.25, 0.3)) < 1e-3

    def test_step_halving_decay(self):
        h = 1e-2 * 0.25
        r1 = abs(E.schwarzian_residual(0.5, 0.5, step=h))
        r2 = abs(E.schwarzian_residual(0.5, 0.5, step=h / 2.0))
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
        q = 0.75 + 1e-3
        r = 0.01
        assert 0.5 * math.pi * (math.atanh(r) / r) ** q > E.ellip_k(r)

    @pytest.mark.parametrize("r", [1e-4, 0.2, 0.6, 0.95, 1.0 - 1e-4])
    def test_klog_bounds(self, r):
        rp2 = (1.0 - r) * (1.0 + r)
        ratio = E.ellip_k(r) / math.log(4.0 / math.sqrt(rp2))
        assert ratio > 9.0 / (8.0 + r * r) - 1e-12
        assert ratio < 1.0 + 0.25 * rp2 + 1e-12
        assert ratio > 1.0 + (math.pi / (4.0 * math.log(2.0)) - 1.0) * rp2 - 1e-12
