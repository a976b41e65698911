"""specfun: special functions with a numerical identity-verification harness.

Modules
-------
kernel    shared numeric substrate (stencils, clamped Newton inversion,
          grids)
gamma     gamma family, Euler-Mascheroni accelerations, sixth-root expansion
balls     unit-ball volumes / sphere areas and their sharp inequalities
hyper     Gauss 2F1 engine and the classical product identities
elliptic  complete and generalized elliptic integrals, ring modulus, phi_K
modular   generalized modular equations and Ramanujan-style certificates
verify    check registry, grid execution, JSON/CSV reports
cli       command-line front end (``specfun``, ``python -m specfun.cli``);
          not imported by the package, import it as ``specfun.cli``
"""

from . import balls, elliptic, errors, gamma, hyper, kernel, modular, verify
from .elliptic import agm, ellip_e, ellip_k, mu, mu_a, phi_k, phi_k_a
from .gamma import EULER_GAMMA, beta, digamma, gamma as gamma_function, log_gamma, theta, trigamma
from .hyper import HyperParams, f21, hyp2f1, ramanujan_R
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "balls", "elliptic", "errors", "gamma", "hyper", "kernel", "modular",
    "verify", "agm", "ellip_e", "ellip_k", "mu", "mu_a", "phi_k", "phi_k_a",
    "EULER_GAMMA", "beta", "digamma", "gamma_function", "log_gamma", "theta",
    "trigamma", "HyperParams", "f21", "hyp2f1", "ramanujan_R", "run_suite",
    "__version__",
]
