import math

import pytest
from hypothesis import given, settings, strategies as st

from specfun.errors import DomainError, IterationCapError
from specfun.kernel import (
    BracketRoot,
    Grid,
    derivative,
    invert_monotone,
)


class TestDerivative:
    def test_square_order1(self):
        assert abs(derivative(lambda t: t * t, 2.0, order=1) - 4.0) < 1e-9

    def test_cube_order2(self):
        assert abs(derivative(lambda t: t ** 3, 1.0, order=2) - 6.0) < 1e-6

    def test_exp_order3(self):
        assert abs(derivative(math.exp, 0.0, order=3, step=1e-2) - 1.0) < 1e-4

    @pytest.mark.parametrize("x", [-2.5, 0.3, 1.5])
    def test_order3_default_step(self, x):
        # the 7-point stencil is exact on a quartic up to rounding, and its
        # default step is 1e-2 max(1, |x|)
        f = lambda t: 2.0 * t ** 4 - t ** 3 + 5.0
        got = derivative(f, x, order=3)
        assert got == derivative(f, x, order=3, step=1e-2 * max(1.0, abs(x)))
        assert abs(got - (48.0 * x - 6.0)) < 1e-8 * max(1.0, abs(48.0 * x - 6.0))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_halving_step_improves(self, order):
        # smooth transcendental, step far above the rounding floor
        f = math.sin
        x = 1.0
        h = 0.05
        exact = {1: math.cos(x), 2: -math.sin(x), 3: -math.cos(x)}[order]
        e1 = abs(derivative(f, x, order=order, step=h) - exact)
        e2 = abs(derivative(f, x, order=order, step=h / 2) - exact)
        assert e1 / e2 >= 3.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            derivative(math.log, 0.01, order=1, step=0.01, domain=(0.0, 1.0))

    def test_bad_order(self):
        with pytest.raises(DomainError):
            derivative(math.exp, 0.0, order=4)


class TestInvertMonotone:
    def test_identity(self):
        res = invert_monotone(lambda x: (x, 1.0), 0.3, 0.9, 1.0, tol=1e-14)
        assert isinstance(res, BracketRoot)
        assert abs(res.root - 0.3) < 1e-13
        assert abs(res.residual) <= 1e-14

    def test_decreasing(self):
        res = invert_monotone(lambda x: (1.0 - x ** 2, -2.0 * x), 0.5, 0.9, 1.0, tol=1e-13)
        assert abs(res.root - math.sqrt(0.5)) < 1e-12

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(0.02, 0.98))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random_monotone_cubic(self, c0, c1, c3, x):
        # convex increasing on [0, 1]: Newton from x_max falls onto the root
        f = lambda t: (c0 + c1 * t + c3 * t ** 3, c1 + 3.0 * c3 * t * t)
        target = f(x)[0]
        res = invert_monotone(f, target, 1.0, 1.0, tol=1e-13)
        assert abs(f(res.root)[0] - target) <= 1e-13
        assert abs(res.root - x) < 1e-9
        assert res.iterations <= 20

    def test_newton_cube(self):
        res = invert_monotone(lambda x: (x ** 3, 3.0 * x * x), 8.0, 3.0, 3.0, tol=1e-12)
        assert abs(res.root - 2.0) < 1e-12
        assert res.iterations <= 6

    def test_newton_from_start_point_skips_bracket_ends(self):
        seen = []

        def f(x):
            seen.append(x)
            return x ** 3, 3.0 * x * x

        res = invert_monotone(f, 8.0, 2.5, 3.0, tol=1e-12)
        assert abs(res.root - 2.0) < 1e-12
        assert 0.0 not in seen and 3.0 not in seen
        assert len(seen) == res.iterations <= 6

    # a start past x_max, and a first step from far left of the root that
    # overshoots past x_max, land on x_max
    @pytest.mark.parametrize("x0,clamped", [(10.0, 0), (0.05, 1)])
    def test_start_past_x_max_is_clamped(self, x0, clamped):
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 - x ** 2, -2.0 * x

        res = invert_monotone(f, 0.5, x0, 1.0, tol=1e-13)
        assert abs(res.root - math.sqrt(0.5)) < 1e-12
        assert seen[clamped] == 1.0 and max(seen) == 1.0

    @staticmethod
    def _noisy_cube(seen, delta):
        # x^3 off by delta, the sign of the error flipping at the root 2, as
        # rounding can make it: Newton steps then cross the target without
        # shrinking the residual
        def f(x):
            seen.append(x)
            return x ** 3 + (delta if x > 2.0 else -delta), 3.0 * x * x
        return f

    def test_noisy_f_reaches_the_stall_bisection(self):
        seen = []
        res = invert_monotone(self._noisy_cube(seen, 1e-9), 8.0, 2.5, 3.0, tol=1.5e-9)
        assert abs(res.residual) <= 1.5e-9
        assert abs(res.root - 2.0) < 1e-9
        # the last point is the midpoint of the two before it, across the target
        assert seen[-1] == 0.5 * (seen[-2] + seen[-3])
        assert (seen[-2] - 2.0) * (seen[-3] - 2.0) < 0.0
        assert len(seen) == res.iterations <= 10

    def test_iteration_cap_raises(self):
        # no x meets a tolerance below the noise: the cap ends the bisection
        seen = []
        with pytest.raises(IterationCapError):
            invert_monotone(self._noisy_cube(seen, 1e-9), 8.0, 2.5, 3.0, tol=1e-10, max_iter=60)
        assert len(seen) == 60

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(0.02, 0.98), st.floats(0.01, 0.99), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random_monotone_cubic_with_slope(self, c0, c1, c3, x, x0, sign):
        # sign 1 is convex increasing, sign -1 concave decreasing on [0, 1]
        f = lambda t: (sign * (c0 + c1 * t + c3 * t ** 3), sign * (c1 + 3.0 * c3 * t * t))
        target = f(x)[0]
        res = invert_monotone(f, target, x0, 1.0, tol=1e-13)
        assert abs(f(res.root)[0] - target) <= 1e-13
        assert abs(res.root - x) < 1e-9
        assert res.iterations <= 20


class TestGrid:
    @pytest.mark.parametrize("spacing,lo,hi", [
        ("linear", -2.0, 7.0),
        ("logarithmic", 1e-4, 50.0),
        ("atanh", 1e-5, 1.0 - 1e-5),
    ])
    def test_points_strictly_increasing_in_range(self, spacing, lo, hi):
        g = Grid(lo, hi, 257, spacing)
        pts = g.points()
        assert len(pts) == 257
        assert pts[0] == lo and pts[-1] == hi
        assert all(p2 > p1 for p1, p2 in zip(pts, pts[1:]))
        assert all(lo <= p <= hi for p in pts)

    def test_atanh_clusters_at_both_ends(self):
        pts = Grid(1e-4, 1.0 - 1e-4, 101, "atanh").points()
        first_gap = pts[1] - pts[0]
        mid_gap = pts[51] - pts[50]
        last_gap = pts[-1] - pts[-2]
        assert first_gap < 0.05 * mid_gap
        assert last_gap < 0.05 * mid_gap

    def test_invalid(self):
        with pytest.raises(DomainError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            Grid(-1.0, 1.0, 10, "logarithmic")
        with pytest.raises(DomainError):
            Grid(0.2, 1.5, 10, "atanh")
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 10, "exotic")
