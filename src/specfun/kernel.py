"""Shared numeric substrate.

Central-difference stencils, a bracketed monotone root finder, and grid
generation.  Everything here is a pure function of its inputs and safe
to call from any number of threads.  Exact summation is not wrapped
here: the library calls math.fsum directly.

The root finder takes Newton steps from the slope the function returns
with its value.  From a good start point, plain Newton finds the root
without evaluating the bracket ends; otherwise each step is accepted only
while it stays inside the current bracket and shrinks fast enough, and
bisection takes over when it does not.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BracketError, DomainError, IterationCapError

__all__ = [
    "BracketRoot",
    "Grid",
    "derivative",
    "invert_monotone",
]


# central stencils: orders 1 and 2 use 5 points, order 3 uses 7 points;
# all have O(step^4) truncation (the contract only promises O(step^2))
_DEFAULT_EPS = 2.220446049250313e-16


def _default_step(x: float, order: int) -> float:
    if order == 1:
        return _DEFAULT_EPS ** (1.0 / 3.0) * max(1.0, abs(x))
    if order == 2:
        return _DEFAULT_EPS ** 0.25
    return 1e-2 * max(1.0, abs(x))


def derivative(f, x: float, order: int = 1, step: float = None, domain: tuple = None) -> float:
    """Central-difference derivative of ``f`` at ``x`` of the given order.

    ``domain``, when given as (lo, hi), declares where ``f`` may be
    evaluated; a stencil point outside it raises DomainError.
    """
    if order not in (1, 2, 3):
        raise DomainError(f"derivative order must be 1, 2 or 3, got {order}")
    h = _default_step(x, order) if step is None else float(step)
    if h <= 0.0:
        raise DomainError("step must be positive")
    reach = 3 if order == 3 else 2
    if domain is not None:
        lo, hi = domain
        if x - reach * h < lo or x + reach * h > hi:
            raise DomainError(
                f"stencil [{x - reach * h}, {x + reach * h}] leaves domain [{lo}, {hi}]"
            )
    if order == 1:
        return (f(x - 2 * h) - 8.0 * f(x - h) + 8.0 * f(x + h) - f(x + 2 * h)) / (12.0 * h)
    if order == 2:
        return (
            -f(x - 2 * h) + 16.0 * f(x - h) - 30.0 * f(x) + 16.0 * f(x + h) - f(x + 2 * h)
        ) / (12.0 * h * h)
    return (
        f(x - 3 * h) - 8.0 * f(x - 2 * h) + 13.0 * f(x - h)
        - 13.0 * f(x + h) + 8.0 * f(x + 2 * h) - f(x + 3 * h)
    ) / (8.0 * h ** 3)


BracketRoot = namedtuple("BracketRoot", "root residual iterations")
BracketRoot.__doc__ = """Result of a bracketed inversion, a namedtuple: |f(root) - target| <= tol."""


def _residual(f, x: float, target: float):
    v, slope = f(x)
    return v - target, slope


def invert_monotone(
    f,
    target: float,
    bracket_lo: float,
    bracket_hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
    x0: float = None,
) -> BracketRoot:
    """Solve f(x) = target for strictly monotone f on [bracket_lo, bracket_hi].

    ``f`` returns the pair (f(x), f'(x)).  Given a start point ``x0``
    strictly inside the bracket, plain Newton steps run from x0 while each
    lands strictly inside the bracket and at least halves the residual, so
    a good start finds the root without evaluating the bracket ends.
    Otherwise both ends are evaluated (BracketError if they do not enclose
    the target) and safeguarded Newton goes on from the best point so far:
    a step is accepted while it lands strictly inside the current bracket
    and is no longer than half the previous step, and bisection takes its
    place when it does not.  A slope that is wrong, even in sign, zero or
    NaN, therefore still converges.  Tolerance is measured in function
    space; ``iterations`` counts the evaluations other than the two
    bracket ends.
    """
    a, b = float(bracket_lo), float(bracket_hi)
    if not a < b:
        raise BracketError(f"empty bracket [{a}, {b}]")
    it = 0
    seed = None
    if x0 is not None and a < x0 < b:
        x = float(x0)
        fx, dx = _residual(f, x, target)
        it = 1
        while abs(fx) > tol and it < max_iter:
            cand = x - fx / dx if dx else math.nan
            if not a < cand < b:
                break
            fc, dc = _residual(f, cand, target)
            it += 1
            stalled = not abs(fc) <= 0.5 * abs(fx)
            if abs(fc) < abs(fx):
                x, fx, dx = cand, fc, dc
            if stalled:
                break
        if abs(fx) <= tol:
            return BracketRoot(x, fx, it)
        seed = (x, fx, dx)

    fa, _ = _residual(f, a, target)
    fb, db = _residual(f, b, target)
    if fa * fb > 0.0:
        endpoint = a if abs(fa) < abs(fb) else b
        raise BracketError(
            f"target {target} not enclosed: f({a})-t={fa}, f({b})-t={fb}",
            saturating_endpoint=endpoint,
        )
    if abs(fa) <= tol:
        return BracketRoot(a, fa, it)
    if abs(fb) <= tol:
        return BracketRoot(b, fb, it)

    x_cur, f_cur, d_cur = b, fb, db
    if seed is not None:
        x_cur, f_cur, d_cur = seed
        if fa * f_cur < 0.0:
            b = x_cur
        else:
            a, fa = x_cur, f_cur
    step = b - a
    for it in range(it + 1, max_iter + 1):
        cand = x_cur - f_cur / d_cur if d_cur else math.nan
        # land strictly inside the bracket, at most half the last step, so a
        # too-steep slope cannot crawl
        if a < cand < b and abs(cand - x_cur) <= 0.5 * abs(step):
            x_new = cand
        else:
            x_new = 0.5 * (a + b)
        step = x_new - x_cur
        fx, dx = _residual(f, x_new, target)
        if abs(fx) <= tol:
            return BracketRoot(x_new, fx, it)
        if fa * fx < 0.0:
            b = x_new
        else:
            a, fa = x_new, fx
        x_cur, f_cur, d_cur = x_new, fx, dx
    raise IterationCapError(
        f"no convergence to tol={tol} after {max_iter} iterations; last residual {f_cur}"
    )


_SPACINGS = ("linear", "logarithmic", "atanh")


class Grid(namedtuple("Grid", "lo hi n spacing")):
    """Evaluation grid on [lo, hi] with n strictly increasing points, an
    immutable namedtuple; ``_make`` and ``_replace`` validate too.

    Spacings: ``linear``, ``logarithmic`` (lo > 0), and ``atanh``
    (lo, hi inside (0,1); points cluster at both endpoints, which is where
    the sharp inequalities live).
    """

    __slots__ = ()

    def __new__(cls, lo, hi, n, spacing="linear"):
        if not lo < hi:
            raise DomainError(f"grid needs lo < hi, got [{lo}, {hi}]")
        if n < 2:
            raise DomainError("grid needs n >= 2")
        if spacing not in _SPACINGS:
            raise DomainError(f"unknown spacing {spacing!r}; use one of {_SPACINGS}")
        if spacing == "logarithmic" and lo <= 0.0:
            raise DomainError("logarithmic spacing needs lo > 0")
        if spacing == "atanh" and not (0.0 < lo < hi < 1.0):
            raise DomainError("atanh spacing needs 0 < lo < hi < 1")
        return tuple.__new__(cls, (lo, hi, n, spacing))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def with_n(self, n: int) -> "Grid":
        return Grid(self.lo, self.hi, n, self.spacing)

    def points(self) -> list:
        n = self.n
        if self.spacing == "linear":
            step = (self.hi - self.lo) / (n - 1)
            pts = [self.lo + i * step for i in range(n)]
        elif self.spacing == "logarithmic":
            la, lb = math.log(self.lo), math.log(self.hi)
            step = (lb - la) / (n - 1)
            pts = [math.exp(la + i * step) for i in range(n)]
        else:
            ua = math.atanh(2.0 * self.lo - 1.0)
            ub = math.atanh(2.0 * self.hi - 1.0)
            step = (ub - ua) / (n - 1)
            pts = [0.5 * (1.0 + math.tanh(ua + i * step)) for i in range(n)]
        pts[0], pts[-1] = self.lo, self.hi
        return pts
