import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specfun.errors import BracketError, DomainError
from specfun.kernel import (
    BracketRoot,
    Grid,
    compensated_sum,
    derivative,
    invert_monotone,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)


class TestCompensatedSum:
    def test_empty(self):
        assert compensated_sum([]) == 0.0

    @given(finite)
    def test_cancellation_pair(self, x):
        assert compensated_sum([x, -x]) == 0.0

    def test_small_increment_swarm(self):
        # 1 + 10^4 copies of 1e-16: exact sum 1 + 1e-12, verified by rationals
        terms = [1.0] + [1e-16] * 10**4
        exact = Fraction(1) + 10**4 * Fraction(1e-16)
        got = compensated_sum(terms)
        assert got == float(exact)

    def test_large_cancellation(self):
        assert compensated_sum([1.0, 1e100, -1e100]) == 1.0

    def test_million_terms_exact(self):
        # shuffled +/- pairs leave a known residue behind
        import random

        rng = random.Random(7)
        residue = [1e-3, -2.5e-7, 3.25]
        terms = []
        for _ in range(500_000):
            v = rng.uniform(-1e10, 1e10)
            terms.extend((v, -v))
        terms.extend(residue)
        rng.shuffle(terms)
        exact = math.fsum(residue)
        assert abs(compensated_sum(terms) - exact) <= 2.0 * math.ulp(exact)

    @given(st.lists(st.floats(min_value=-1e15, max_value=1e15,
                              allow_nan=False, allow_infinity=False), max_size=60),
           st.randoms())
    @settings(max_examples=150)
    def test_permutation_insensitive(self, xs, rng):
        base = compensated_sum(xs)
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert compensated_sum(shuffled) == base

    def test_non_finite_propagates(self):
        assert math.isnan(compensated_sum([float("inf"), float("-inf")]))
        assert compensated_sum([float("inf"), 1.0]) == float("inf")

    def test_iterables_are_read_once_each(self):
        # a generator is listed, so the non-finite fallback can reread it
        xs = [0.1, 1e100, 0.2, -1e100]
        assert compensated_sum(x for x in xs) == compensated_sum(xs) == 0.30000000000000004
        assert compensated_sum(tuple(xs)) == compensated_sum(xs)
        assert math.isnan(compensated_sum(x for x in (float("inf"), float("-inf"))))
        assert compensated_sum(iter([1e308, 1e308])) == float("inf")


class TestDerivative:
    def test_square_order1(self):
        assert abs(derivative(lambda t: t * t, 2.0, order=1) - 4.0) < 1e-9

    def test_cube_order2(self):
        assert abs(derivative(lambda t: t ** 3, 1.0, order=2) - 6.0) < 1e-6

    def test_exp_order3(self):
        assert abs(derivative(math.exp, 0.0, order=3, step=1e-2) - 1.0) < 1e-4

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
        res = invert_monotone(lambda x: x, 0.3, 0.0, 1.0, tol=1e-14)
        assert isinstance(res, BracketRoot)
        assert abs(res.root - 0.3) < 1e-13
        assert abs(res.residual) <= 1e-14

    def test_cube(self):
        res = invert_monotone(lambda x: x ** 3, 8.0, 0.0, 3.0, tol=1e-12)
        assert abs(res.root - 2.0) < 1e-12

    def test_decreasing(self):
        res = invert_monotone(lambda x: 1.0 - x ** 2, 0.5, 0.0, 1.0, tol=1e-13)
        assert abs(res.root - math.sqrt(0.5)) < 1e-12

    def test_not_enclosed(self):
        with pytest.raises(BracketError) as exc:
            invert_monotone(lambda x: x, 5.0, 0.0, 1.0)
        assert exc.value.saturating_endpoint == 1.0

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(0.02, 0.98))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random_monotone_cubic(self, c0, c1, c3, x):
        f = lambda t: c0 + c1 * t + c3 * t ** 3
        target = f(x)
        res = invert_monotone(f, target, 0.0, 1.0, tol=1e-13)
        assert abs(f(res.root) - target) <= 1e-13
        assert abs(res.root - x) < 1e-9
        assert res.iterations <= 200

    def test_newton_cube(self):
        res = invert_monotone(lambda x: (x ** 3, 3.0 * x * x), 8.0, 0.0, 3.0, tol=1e-12)
        assert abs(res.root - 2.0) < 1e-12
        assert res.iterations <= 6

    def test_newton_from_start_point_skips_bracket_ends(self):
        seen = []

        def f(x):
            seen.append(x)
            return x ** 3, 3.0 * x * x

        res = invert_monotone(f, 8.0, 0.0, 3.0, tol=1e-12, x0=2.5)
        assert abs(res.root - 2.0) < 1e-12
        assert 0.0 not in seen and 3.0 not in seen
        assert len(seen) == res.iterations <= 6

    @pytest.mark.parametrize("slope", [
        lambda x: -3.0 * x * x,
        lambda x: 1.0,
        lambda x: 300.0 * x * x,
        lambda x: 0.0,
        lambda x: math.nan,
    ], ids=["wrong_sign", "too_small", "too_steep", "zero", "nan"])
    @pytest.mark.parametrize("x0", [None, 1.0, 2.5])
    def test_wrong_slope_still_converges(self, slope, x0):
        res = invert_monotone(lambda x: (x ** 3, slope(x)), 8.0, 0.0, 3.0, tol=1e-12, x0=x0)
        assert abs(res.residual) <= 1e-12
        assert abs(res.root - 2.0) < 1e-12
        assert res.iterations <= 200

    @pytest.mark.parametrize("x0", [None, 0.5])
    def test_newton_not_enclosed(self, x0):
        with pytest.raises(BracketError) as exc:
            invert_monotone(lambda x: (x, 1.0), 5.0, 0.0, 1.0, x0=x0)
        assert exc.value.saturating_endpoint == 1.0
        with pytest.raises(BracketError) as exc:
            invert_monotone(lambda x: (-x, -1.0), 5.0, 0.0, 1.0, x0=x0)
        assert exc.value.saturating_endpoint == 0.0

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(0.02, 0.98), st.floats(0.01, 0.99), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random_monotone_cubic_with_slope(self, c0, c1, c3, x, x0, sign):
        f = lambda t: (sign * (c0 + c1 * t + c3 * t ** 3), sign * (c1 + 3.0 * c3 * t * t))
        target = f(x)[0]
        res = invert_monotone(f, target, 0.0, 1.0, tol=1e-13, x0=x0)
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
