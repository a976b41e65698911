"""Generalized modular equations and their algebraic identity certificates.

A modular equation of degree p in signature 1/a asks for s with
mu_a(s) = p mu_a(r); its solution is s = phi^a_(1/p)(r).  In the moduli
variables alpha = r^2, beta = s^2 the transcendental relation collapses,
for particular (a, p), to printed algebraic identities.  Each registered
identity is certified numerically as a residual of its printed form;
nothing here attempts to solve the algebraic forms directly.

The signature-3 degree-2 entry is registered in its classical cube-root
form (alpha beta)^(1/3) + ((1-alpha)(1-beta))^(1/3) = 1; the square root
sometimes seen on the first term fails numerically by ~1e-1 and is a
transcription error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, UnknownIdentityError
from .elliptic import SignatureParam, mu_a_unguarded, phi_k_a

__all__ = [
    "ModularSpec",
    "ModuliPair",
    "ModularIdentity",
    "IDENTITY_IDS",
    "solve_modular",
    "identity_residual",
    "get_identity",
]

_FORWARD_TOL = 1e-10


@dataclass(frozen=True)
class ModularSpec:
    signature_a: float
    degree_p: float

    def __post_init__(self):
        if not 0.0 < self.signature_a < 1.0:
            raise DomainError(f"signature parameter must lie in (0,1), got {self.signature_a}")
        if not self.degree_p >= 1.0:
            raise DomainError(f"degree must be >= 1, got {self.degree_p}")


@dataclass(frozen=True)
class ModuliPair:
    """alpha = r^2 and beta = s^2 of a solved modular equation.

    ``third`` carries the extra squared modulus that the degree-9 chain
    identity needs (classically written as a third Greek letter; no
    relation to the Euler-Mascheroni constant).
    """

    alpha: float
    beta: float
    third: Optional[float] = None


@dataclass(frozen=True)
class ModularIdentity:
    id: str
    signature_a: float
    degrees: tuple
    residual_fn: Callable[[ModuliPair], float]
    anchor: str


def solve_modular(spec: ModularSpec, r: float) -> ModuliPair:
    """Solve the degree-p equation at r and return (alpha, beta).

    The solution is verified forward: |mu_a(s) - p mu_a(r)| <= 1e-10.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    sig, p = SignatureParam(spec.signature_a), spec.degree_p
    s = phi_k_a(sig, 1.0 / p, r)
    gap = abs(mu_a_unguarded(sig, s) - p * mu_a_unguarded(sig, r))
    if gap > _FORWARD_TOL:
        raise RuntimeError(f"modular solve failed forward check: |mu(s) - p mu(r)| = {gap}")
    return ModuliPair(alpha=r * r, beta=s * s)


def _phi_sq(sig: SignatureParam, p: float, r: float) -> float:
    return phi_k_a(sig, 1.0 / p, r) ** 2


_THIRD = 1.0 / 3.0
_HALF = 0.5


def _res_deg3(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    return (al * be) ** 0.25 + ((1.0 - al) * (1.0 - be)) ** 0.25 - 1.0


def _res_deg5(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    q = al * be * (1.0 - al) * (1.0 - be)
    return math.sqrt(al * be) + math.sqrt((1.0 - al) * (1.0 - be)) + 2.0 * (16.0 * q) ** (1.0 / 6.0) - 1.0


def _res_deg7(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    return (al * be) ** 0.125 + ((1.0 - al) * (1.0 - be)) ** 0.125 - 1.0


def _res_deg9_chain(m: ModuliPair) -> float:
    al, be, ga = m.alpha, m.beta, m.third
    lhs = (al * (1.0 - ga)) ** 0.125 + (ga * (1.0 - al)) ** 0.125
    return lhs - 2.0 ** _THIRD * (be * (1.0 - be)) ** (1.0 / 24.0)


def _res_deg23(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    q = al * be * (1.0 - al) * (1.0 - be)
    return (al * be) ** 0.125 + ((1.0 - al) * (1.0 - be)) ** 0.125 + 2.0 ** (2.0 / 3.0) * q ** (1.0 / 24.0) - 1.0


def _res_mixed_357(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    lhs = math.sqrt(0.5 * (1.0 + math.sqrt(al * be) + math.sqrt((1.0 - al) * (1.0 - be))))
    rhs = (
        (al * be) ** 0.125
        + ((1.0 - al) * (1.0 - be)) ** 0.125
        - (al * be * (1.0 - al) * (1.0 - be)) ** 0.125
    )
    return lhs - rhs


def _res_sig3_deg2(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    return (al * be) ** _THIRD + ((1.0 - al) * (1.0 - be)) ** _THIRD - 1.0


def _res_sig3_deg5(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    q = al * be * (1.0 - al) * (1.0 - be)
    return (al * be) ** _THIRD + ((1.0 - al) * (1.0 - be)) ** _THIRD + 3.0 * q ** (1.0 / 6.0) - 1.0


def _res_sig3_deg11(m: ModuliPair) -> float:
    al, be = m.alpha, m.beta
    q = al * be * (1.0 - al) * (1.0 - be)
    lhs = (al * be) ** _THIRD + ((1.0 - al) * (1.0 - be)) ** _THIRD + 6.0 * q ** (1.0 / 6.0)
    lhs += 3.0 * math.sqrt(3.0) * q ** (1.0 / 12.0) * (
        (al * be) ** (1.0 / 6.0) + ((1.0 - al) * (1.0 - be)) ** (1.0 / 6.0)
    )
    return lhs - 1.0


_IDENTITIES = {}


def _register(identity: ModularIdentity):
    _IDENTITIES[identity.id] = identity


_register(ModularIdentity(
    "classical_deg3", _HALF, (3,), _res_deg3,
    "(ab)^(1/4) + ((1-a)(1-b))^(1/4) = 1",
))
_register(ModularIdentity(
    "classical_deg5", _HALF, (5,), _res_deg5,
    "(ab)^(1/2) + ((1-a)(1-b))^(1/2) + 2(16 ab(1-a)(1-b))^(1/6) = 1",
))
_register(ModularIdentity(
    "classical_deg7", _HALF, (7,), _res_deg7,
    "(ab)^(1/8) + ((1-a)(1-b))^(1/8) = 1",
))
_register(ModularIdentity(
    "classical_deg9_chain", _HALF, (3, 9), _res_deg9_chain,
    "(a(1-g))^(1/8) + (g(1-a))^(1/8) = 2^(1/3) (b(1-b))^(1/24)",
))
_register(ModularIdentity(
    "classical_deg23", _HALF, (23,), _res_deg23,
    "(ab)^(1/8) + ((1-a)(1-b))^(1/8) + 2^(2/3) (ab(1-a)(1-b))^(1/24) = 1",
))
_register(ModularIdentity(
    "classical_mixed_357", _HALF, (3, 5, 7), _res_mixed_357,
    "sqrt((1 + sqrt(ab) + sqrt((1-a)(1-b)))/2) = (ab)^(1/8) + ((1-a)(1-b))^(1/8) - (ab(1-a)(1-b))^(1/8)",
))
_register(ModularIdentity(
    "sig3_deg2", _THIRD, (2,), _res_sig3_deg2,
    "(ab)^(1/3) + ((1-a)(1-b))^(1/3) = 1",
))
_register(ModularIdentity(
    "sig3_deg5", _THIRD, (5,), _res_sig3_deg5,
    "(ab)^(1/3) + ((1-a)(1-b))^(1/3) + 3(ab(1-a)(1-b))^(1/6) = 1",
))
_register(ModularIdentity(
    "sig3_deg11", _THIRD, (11,), _res_sig3_deg11,
    "(ab)^(1/3) + ((1-a)(1-b))^(1/3) + 6 q^(1/6) + 3 sqrt(3) q^(1/12) ((ab)^(1/6) + ((1-a)(1-b))^(1/6)) = 1",
))

IDENTITY_IDS = tuple(sorted(_IDENTITIES))


def get_identity(identity_id: str) -> ModularIdentity:
    try:
        return _IDENTITIES[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def _moduli_for(identity: ModularIdentity, r: float):
    sig = SignatureParam(identity.signature_a)
    al = r * r
    if identity.id == "classical_deg9_chain":
        return [ModuliPair(al, _phi_sq(sig, 3.0, r), third=_phi_sq(sig, 9.0, r))]
    if identity.id == "classical_mixed_357":
        return [
            ModuliPair(al, _phi_sq(sig, 7.0, r)),
            ModuliPair(_phi_sq(sig, 3.0, r), _phi_sq(sig, 5.0, r)),
        ]
    p = float(identity.degrees[0])
    return [ModuliPair(al, _phi_sq(sig, p, r))]


def identity_residual(identity_id: str, r: float) -> float:
    """|LHS - RHS| of a registered identity at r; the mixed relation is
    evaluated under both of its parameterizations and the worse is kept."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    identity = get_identity(identity_id)
    return max(abs(identity.residual_fn(m)) for m in _moduli_for(identity, r))
