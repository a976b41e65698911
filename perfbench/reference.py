"""mpmath references for the correctness pass (30 significant digits).

Runs after the timed loops and is left out of every time.  Inputs are
converted to mpmath exactly (a binary64 value is a dyadic rational), so
the reference is the true value at the point the library was given.
"""

from __future__ import annotations

import mpmath

DPS = 30
# the ring-modulus inverse switches to exp(R_a/2 - y) this far past R_a/2
ASYMPTOTE_MARGIN = 25.0


def _hyp_half(a, z, zc):
    """F(a, 1-a; 1; z) given z and its exact complement zc = 1 - z."""
    if zc > mpmath.mpf("1e-20"):
        extra = max(0, int(-mpmath.log10(zc)))
        with mpmath.workdps(DPS + extra):
            return mpmath.hyp2f1(a, 1 - a, 1, z)
    # DLMF 15.8.10 with c = a + b = 1: the log expansion in powers of zc;
    # at zc <= 1e-20 five terms are far below the working precision
    s, coef = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(5):
        s += coef * (2 * mpmath.digamma(k + 1) - mpmath.digamma(a + k)
                     - mpmath.digamma(1 - a + k) - mpmath.log(zc))
        coef *= (a + k) * (1 - a + k) / (k + 1) ** 2 * zc
    return mpmath.sinpi(a) / mpmath.pi * s


def mu_ref(a, r):
    """Ring modulus mu_a(r) = pi/(2 sin pi a) F(a,1-a;1;r'^2)/F(a,1-a;1;r^2)."""
    with mpmath.workdps(2 * DPS):
        a, r = mpmath.mpf(a), mpmath.mpf(r)
        z, zc = r * r, (1 - r) * (1 + r)
        ratio = _hyp_half(a, zc, z) / _hyp_half(a, z, zc)
        return mpmath.pi / (2 * mpmath.sinpi(a)) * ratio


def inverse_check(a, big_k, r, s):
    """Relative mu residual |mu(s) - mu(r)/K| / (mu(r)/K) of phi_k_a(a, K, r)
    and the inverse path the target y = mu(r)/K takes."""
    target = mu_ref(a, r) / mpmath.mpf(big_k)
    residual = abs(mu_ref(a, s) - target) / target if 0.0 < s < 1.0 else mpmath.inf
    with mpmath.workdps(DPS):
        c_sym = mpmath.pi / (2 * mpmath.sinpi(a))
        half_r = -mpmath.euler - (mpmath.digamma(a) + mpmath.digamma(1 - a)) / 2
        reflected = target < c_sym
        y = c_sym ** 2 / target if reflected else target
        if y >= half_r + ASYMPTOTE_MARGIN:
            path = "asymptote"
        else:
            path = "reflected" if reflected else "direct"
    return float(residual), path


def pointwise_value(kind: str, args: tuple):
    """The exact value of one pointwise op, to DPS digits."""
    with mpmath.workdps(DPS):
        if kind.startswith("f21."):
            return mpmath.hyp2f1(*args)
        if kind == "gamma":
            return mpmath.gamma(args[0])
        if kind == "log_gamma":
            return mpmath.loggamma(args[0])
        if kind == "digamma":
            return mpmath.digamma(args[0])
        if kind == "trigamma":
            return mpmath.psi(1, args[0])
        if kind == "beta":
            return mpmath.beta(*args)
        if kind == "ellip_k":
            return mpmath.ellipk(mpmath.mpf(args[0]) ** 2)
        if kind == "ellip_e":
            return mpmath.ellipe(mpmath.mpf(args[0]) ** 2)
        if kind == "k_a":
            a, r = args
            return mpmath.pi / 2 * mpmath.hyp2f1(a, 1 - mpmath.mpf(a), 1, mpmath.mpf(r) ** 2)
        if kind == "mu_a":
            return mu_ref(*args)
        if kind == "ball_volume":
            n = mpmath.mpf(args[0])
            return mpmath.pi ** (n / 2) / mpmath.gamma(n / 2 + 1)
    raise KeyError(kind)


def relative_error(value: float, exact) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact))
