"""Shared numeric substrate.

Central-difference stencils, a Newton root finder for monotone functions
of one sign of curvature, grid generation, and the residual and scale of
an identity written as a vanishing sum.  Everything here is a pure
function of its inputs and safe to call from any number of threads.
Exact summation is not wrapped here: the library calls math.fsum directly.

The root finder takes Newton steps from the slope the function returns
with its value, each clamped to x <= x_max.  It needs no bracket: the
curvature keeps every iterate after the first on one side of the root.
"""

import math
from collections import namedtuple

from .errors import DomainError, IterationCapError

__all__ = [
    "BracketRoot",
    "Grid",
    "balance",
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
    if not 0.0 < h < math.inf:  # a NaN or infinite step gives NaN, not a derivative
        raise DomainError(f"step must be positive and finite, got {h}")
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


def balance(*terms):
    """(residual, scale) of an identity written as terms that sum to zero:
    their sum, added left to right, and sum |t|.  A residual that rounding
    alone leaves is a few eps * scale (Oettli and Prager's componentwise
    backward error; Higham, Accuracy and Stability, 1.10)."""
    total = scale = 0.0
    for t in terms:
        total += t
        scale += abs(t)
    return total, scale


BracketRoot = namedtuple("BracketRoot", "root residual iterations")
BracketRoot.__doc__ = """Result of invert_monotone, a namedtuple: |f(root) - target| <= tol."""


def invert_monotone(
    f,
    target: float,
    x0: float,
    x_max: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> BracketRoot:
    """Solve f(x) = target by Newton from x0, each iterate clamped to x <= x_max.

    ``f`` returns the pair (f(x), f'(x)) and is concave decreasing or
    convex increasing on x <= x_max, with the root there.  A Newton step
    from any point then lands at or right of the root, or is clamped to
    x_max, and from there the iterates fall monotonically onto it, so
    only the first step may cross the target.  A later step that crosses
    it without shrinking the residual was sent there by rounding in f;
    from then on the last two points, one on each side of the target,
    are bisected.  Tolerance is measured in function space;
    ``iterations`` counts the evaluations of f.  Raises IterationCapError
    after max_iter evaluations.
    """
    x = min(x0, x_max)
    fx, dx = f(x)
    fx -= target
    it, other = 1, None
    while not abs(fx) <= tol:
        if it >= max_iter:
            raise IterationCapError(
                f"no convergence to tol={tol} after {max_iter} iterations; last residual {fx}"
            )
        cand = min(x - fx / dx, x_max) if other is None else 0.5 * (x + other)
        fc, dc = f(cand)
        fc -= target
        it += 1
        if fc * fx < 0.0 and (other is not None or it > 2 and not abs(fc) < abs(fx)):
            other = x
        x, fx, dx = cand, fc, dc
    return BracketRoot(x, fx, it)


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
