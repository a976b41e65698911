import math
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from specfun import balls
from specfun.errors import RangeError

PI = math.pi


class TestVolumes:
    def test_low_dimensions(self):
        assert balls.ball_volume(0) == 1.0
        assert abs(balls.ball_volume(1) - 2.0) < 1e-14
        assert abs(balls.ball_volume(2) - PI) < 1e-13
        assert abs(balls.ball_volume(3) - 4.0 * PI / 3.0) < 1e-13

    def test_dimension_20_exact_form(self):
        # Omega_20 = pi^10 / 10!
        ref = PI ** 10 / math.factorial(10)
        assert abs(balls.ball_volume(20) - ref) <= 1e-12 * ref

    def test_high_dimension_no_overflow(self):
        # the volume itself leaves the normal range of binary64 at n = 436,
        # where it raises; the log-space value stays finite all the way up
        assert balls.ball_volume(435) >= sys.float_info.min
        for n in (436, 452, 453, 10_000):
            with pytest.raises(RangeError, match=rf"Omega_{n} is below the smallest normal float"):
                balls.ball_volume(n)
        lv = balls.log_ball_volume(10_000)
        assert math.isfinite(lv) and lv < -30_000.0

    def test_every_normal_volume_is_within_its_budget(self):
        # pi^(n/2) / Gamma(n/2 + 1) to n = 340, 7e-15; exp(log Omega_n) to
        # n = 435, 2e-13 (it read 1.3e-13 at n = 300 and 1.8e-13 at 433)
        mp = mpmath.mp
        with mp.workdps(50):
            for n in range(1, 436):
                ref = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
                err = float(abs((mp.mpf(balls.ball_volume(n)) - ref) / ref))
                assert err <= (7e-15 if n <= 340 else 2e-13), n

    def test_peak_then_decay(self):
        # Omega_n peaks at n = 5 and decreases from n = 7 on
        vols = [balls.ball_volume(n) for n in range(1, 12)]
        assert max(vols) == vols[4]
        assert all(vols[n] > vols[n + 1] for n in range(6, 10))

    def test_range(self):
        with pytest.raises(RangeError):
            balls.ball_volume(-1)
        with pytest.raises(RangeError):
            balls.ball_volume(10_001)


class TestSurface:
    def test_small_cases(self):
        assert abs(balls.sphere_area(1) - 2.0 * PI) < 1e-13
        assert abs(balls.sphere_area(2) - 4.0 * PI) < 1e-13
        assert abs(balls.sphere_area(9) - 10.0 * balls.ball_volume(10)) < 1e-13
        assert balls.sphere_area(434) == 435 * balls.ball_volume(435)
        for n_minus_1 in (435, 9999):
            with pytest.raises(RangeError):
                balls.sphere_area(n_minus_1)

    @given(st.integers(1, 250))
    @settings(max_examples=60)
    def test_surface_is_n_volume(self, n):
        assert balls.sphere_area(n - 1) == n * balls.ball_volume(n)
        assert balls.ball_volume(n) > 0.0

    @pytest.mark.parametrize("n_minus_1", [-1, 10_000, 2.5])
    def test_range_names_the_argument(self, n_minus_1):
        # omega_(n-1) needs Omega_n, so its own range stops at 10^4 - 1
        with pytest.raises(RangeError, match=rf"\[0, 9999\], got {n_minus_1}$"):
            balls.sphere_area(n_minus_1)


A_POW = 2.0 / math.sqrt(PI)
B_POW = math.sqrt(math.e)
A_SQRT, B_SQRT = 0.5, PI / 2.0 - 1.0
ALPHA_Q = 2.0 - math.log(PI) / math.log(2.0)
BETA_Q = 0.5
A_DIFF = (4.0 - PI) * math.sqrt(2.0)
B_DIFF = math.sqrt(2.0 * PI) / 2.0


class TestSharpInequalities:
    def test_printed_digits_of_constants(self):
        assert abs(A_POW - 1.12837) < 1e-5
        assert abs(B_POW - 1.64872) < 1e-5
        assert abs(B_SQRT - 0.57079) < 1e-5
        assert abs(ALPHA_Q - 0.34850) < 1e-5
        assert abs(A_DIFF - 1.2139) < 1e-4
        assert abs(B_DIFF - 1.2533) < 1e-4

    def test_power_family(self):
        for n in range(1, 201):
            t = balls.power_ratio(n)
            assert t >= A_POW - 1e-12
            assert t <= B_POW + 1e-12

    def test_sqrt_family(self):
        for n in range(1, 201):
            c = balls.sqrt_shift(n)
            assert c >= A_SQRT - 1e-10
            assert c <= B_SQRT + 1e-10

    def test_quotient_family(self):
        for n in range(1, 201):
            e = balls.quotient_exponent(n)
            assert e >= ALPHA_Q - 1e-10
            assert e <= BETA_Q + 1e-10

    def test_difference_family(self):
        for n in range(2, 201):
            d = balls.difference_scaled(n)
            assert d >= A_DIFF - 1e-12
            assert d < B_DIFF

    def test_equality_points(self):
        assert abs(balls.power_ratio(1) - A_POW) < 1e-13
        assert abs(balls.sqrt_shift(1) - B_SQRT) < 1e-13
        assert abs(balls.quotient_exponent(1) - ALPHA_Q) < 1e-12
        assert abs(balls.difference_scaled(2) - A_DIFF) < 1e-13

    def test_sharpness_spot_checks(self):
        bump = 1e-3
        assert balls.power_ratio(1) < A_POW * (1.0 + bump)
        assert balls.sqrt_shift(1) > B_SQRT * (1.0 - bump)
        assert balls.quotient_exponent(1) < ALPHA_Q * (1.0 + bump)
        assert balls.difference_scaled(2) < A_DIFF * (1.0 + bump)
        assert any(balls.difference_scaled(n) > B_DIFF * (1.0 - bump) for n in range(2, 201))


# each ratio's own range: Omega_(n+1) caps n at 10^4 - 1 where n + 1 enters
RATIO_RANGES = [
    (balls.power_ratio, 9999),
    (balls.sqrt_shift, 10_000),
    (balls.quotient_exponent, 9999),
    (balls.difference_scaled, 9999),
]


class TestRatioRanges:
    @pytest.mark.parametrize("fn, hi", RATIO_RANGES)
    def test_ends_of_the_range_are_finite(self, fn, hi):
        assert math.isfinite(fn(1)) and math.isfinite(fn(hi))

    @pytest.mark.parametrize("fn, hi", RATIO_RANGES)
    def test_outside_the_range_names_the_argument(self, fn, hi):
        for n in (0, hi + 1):
            with pytest.raises(RangeError, match=rf"\[1, {hi}\], got {n}$"):
                fn(n)


class TestAsymptoticShape:
    def test_root_power_decreasing_to_limit(self):
        prev = None
        for n in range(2, 201):
            v = math.exp(balls.log_ball_volume(n) / (n * math.log(n)))
            assert v > math.exp(-0.5)
            if prev is not None:
                assert v < prev
            prev = v
