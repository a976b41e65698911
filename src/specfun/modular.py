"""Generalized modular equations and their algebraic identity certificates.

A modular equation of degree p in signature 1/a asks for s with
mu_a(s) = p mu_a(r); its solution is s = phi^a_(1/p)(r).  In the moduli
variables alpha = r^2, beta = s^2 the transcendental relation collapses,
for particular (a, p), to printed algebraic identities.  Each registered
identity is certified numerically as a residual of its printed form,
returned with the scale sum |term| of kernel.balance; nothing here
attempts to solve the algebraic forms directly.

Each identity lists its degrees, one tuple per parameterization: degree
p stands for the squared modulus phi^a_(1/p)(r)^2, degree 1 for
alpha = r^2; the mixed 3-5-7 relation has two, ((1, 7), (3, 5)).

The signature-3 degree-2 entry is registered in its classical cube-root
form (alpha beta)^(1/3) + ((1-alpha)(1-beta))^(1/3) = 1; the square root
sometimes seen on the first term fails numerically by ~1e-1 and is a
transcription error.
"""

import math
from collections import namedtuple

from .errors import DomainError, UnknownIdentityError
from .elliptic import phi_k_a
from .kernel import balance

__all__ = [
    "ModularIdentity",
    "IDENTITY_IDS",
    "identity_residual",
    "get_identity",
]


ModularIdentity = namedtuple("ModularIdentity", "id signature_a degrees residual_fn anchor")
ModularIdentity.__doc__ = """A registered identity, as a namedtuple: ``degrees`` holds, per
    parameterization, the degrees of its moduli in order, and ``residual_fn``
    takes those squared moduli positionally and returns (residual, scale)."""


_THIRD = 1.0 / 3.0
_HALF = 0.5


# p = alpha beta and s = (1 - alpha)(1 - beta), as the printed forms group them


def _res_deg3(al: float, be: float):
    return balance((al * be) ** 0.25, ((1.0 - al) * (1.0 - be)) ** 0.25, -1.0)


def _res_deg5(al: float, be: float):
    p, s = al * be, (1.0 - al) * (1.0 - be)
    return balance(math.sqrt(p), math.sqrt(s), 2.0 * (16.0 * p * s) ** (1.0 / 6.0), -1.0)


def _res_deg7(al: float, be: float):
    return balance((al * be) ** 0.125, ((1.0 - al) * (1.0 - be)) ** 0.125, -1.0)


def _res_deg9_chain(al: float, be: float, ga: float):
    return balance((al * (1.0 - ga)) ** 0.125, (ga * (1.0 - al)) ** 0.125,
                   -(2.0 ** _THIRD) * (be * (1.0 - be)) ** (1.0 / 24.0))


def _res_deg23(al: float, be: float):
    p, s = al * be, (1.0 - al) * (1.0 - be)
    return balance(p ** 0.125, s ** 0.125, 2.0 ** (2.0 / 3.0) * (p * s) ** (1.0 / 24.0), -1.0)


def _res_mixed_357(al: float, be: float):
    p, s = al * be, (1.0 - al) * (1.0 - be)
    lhs = math.sqrt(0.5 * (1.0 + math.sqrt(p) + math.sqrt(s)))
    return balance(lhs, -p ** 0.125, -s ** 0.125, (p * s) ** 0.125)


def _res_sig3_deg2(al: float, be: float):
    return balance((al * be) ** _THIRD, ((1.0 - al) * (1.0 - be)) ** _THIRD, -1.0)


def _res_sig3_deg5(al: float, be: float):
    p, s = al * be, (1.0 - al) * (1.0 - be)
    return balance(p ** _THIRD, s ** _THIRD, 3.0 * (p * s) ** (1.0 / 6.0), -1.0)


def _res_sig3_deg11(al: float, be: float):
    p, s = al * be, (1.0 - al) * (1.0 - be)
    mixed = 3.0 * math.sqrt(3.0) * (p * s) ** (1.0 / 12.0) * (p ** (1.0 / 6.0) + s ** (1.0 / 6.0))
    return balance(p ** _THIRD, s ** _THIRD, 6.0 * (p * s) ** (1.0 / 6.0), mixed, -1.0)


_IDENTITIES = {identity.id: identity for identity in (
    ModularIdentity(
        "classical_deg3", _HALF, ((1, 3),), _res_deg3,
        "(ab)^(1/4) + ((1-a)(1-b))^(1/4) = 1",
    ),
    ModularIdentity(
        "classical_deg5", _HALF, ((1, 5),), _res_deg5,
        "(ab)^(1/2) + ((1-a)(1-b))^(1/2) + 2(16 ab(1-a)(1-b))^(1/6) = 1",
    ),
    ModularIdentity(
        "classical_deg7", _HALF, ((1, 7),), _res_deg7,
        "(ab)^(1/8) + ((1-a)(1-b))^(1/8) = 1",
    ),
    ModularIdentity(
        "classical_deg9_chain", _HALF, ((1, 3, 9),), _res_deg9_chain,
        "(a(1-g))^(1/8) + (g(1-a))^(1/8) = 2^(1/3) (b(1-b))^(1/24)",
    ),
    ModularIdentity(
        "classical_deg23", _HALF, ((1, 23),), _res_deg23,
        "(ab)^(1/8) + ((1-a)(1-b))^(1/8) + 2^(2/3) (ab(1-a)(1-b))^(1/24) = 1",
    ),
    ModularIdentity(
        "classical_mixed_357", _HALF, ((1, 7), (3, 5)), _res_mixed_357,
        "sqrt((1 + sqrt(ab) + sqrt((1-a)(1-b)))/2) = (ab)^(1/8) + ((1-a)(1-b))^(1/8) - (ab(1-a)(1-b))^(1/8)",
    ),
    ModularIdentity(
        "sig3_deg2", _THIRD, ((1, 2),), _res_sig3_deg2,
        "(ab)^(1/3) + ((1-a)(1-b))^(1/3) = 1",
    ),
    ModularIdentity(
        "sig3_deg5", _THIRD, ((1, 5),), _res_sig3_deg5,
        "(ab)^(1/3) + ((1-a)(1-b))^(1/3) + 3(ab(1-a)(1-b))^(1/6) = 1",
    ),
    ModularIdentity(
        "sig3_deg11", _THIRD, ((1, 11),), _res_sig3_deg11,
        "(ab)^(1/3) + ((1-a)(1-b))^(1/3) + 6 q^(1/6) + 3 sqrt(3) q^(1/12) ((ab)^(1/6) + ((1-a)(1-b))^(1/6)) = 1",
    ),
)}

IDENTITY_IDS = tuple(sorted(_IDENTITIES))


def get_identity(identity_id: str) -> ModularIdentity:
    try:
        return _IDENTITIES[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def _moduli_for(identity: ModularIdentity, r: float) -> list:
    """The squared moduli of each parameterization, in ``degrees`` order."""
    a = identity.signature_a
    return [
        [r * r if p == 1 else phi_k_a(a, 1.0 / p, r) ** 2 for p in degrees]
        for degrees in identity.degrees
    ]


def identity_residual(identity_id: str, r: float):
    """(|LHS - RHS|, scale) of a registered identity at r; the mixed
    relation is evaluated under both of its parameterizations and the
    pair of the larger |LHS - RHS| / scale is kept."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    identity = get_identity(identity_id)
    residual, scale = max(
        (identity.residual_fn(*m) for m in _moduli_for(identity, r)),
        key=lambda pair: abs(pair[0]) / pair[1],
    )
    return abs(residual), scale
