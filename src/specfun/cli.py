"""Command-line front end.

    specfun eval <fn> <args...>
    specfun verify [--suite S] [--grid N] [--tol-scale S] [--json P | --csv P]
    specfun table (theta | gamma-const)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
verify names each failed check on stderr as
``FAIL <id> max_residual=<r> argmax=<x>``.  Numbers print in shortest
round-trip decimal; eval of a residual function prints the residual and
``scale=<sum of |terms|>``.
"""

import argparse
import math
import sys

from . import balls, elliptic, gamma, hyper, verify
from .errors import BracketError, DomainError, IterationCapError
from .gamma import DeTempleValues, GammaEstimate
from .hyper import EvalResult, HyperParams


def _f21_eval(a, b, c, x):
    return hyper.f21(HyperParams(a, b, c), x)


def _gauss_one(a, b, c):
    return hyper.gauss_value_at_one(HyperParams(a, b, c))


# name -> (callable, argument kinds); 'f' parses as float, 'i' as integer
_REGISTRY = {
    "gamma": (gamma.gamma, "f"),
    "log_gamma": (gamma.log_gamma, "f"),
    "digamma": (gamma.digamma, "f"),
    "trigamma": (gamma.trigamma, "f"),
    "beta": (gamma.beta, "ff"),
    "theta": (gamma.theta, "f"),
    "mono_f": (gamma.mono_f, "f"),
    "lemma_g": (gamma.lemma_g, "f"),
    "lemma_h": (gamma.lemma_h, "f"),
    "detemple": (gamma.detemple, "i"),
    "karatsuba_euler_gamma": (gamma.karatsuba_euler_gamma, "i"),
    "ramanujan_gamma": (gamma.ramanujan_gamma, "fi"),
    "ball_volume": (balls.ball_volume, "i"),
    "sphere_area": (balls.sphere_area, "i"),
    "pochhammer": (hyper.pochhammer, "fi"),
    "f21": (_f21_eval, "ffff"),
    "gauss_value_at_one": (_gauss_one, "fff"),
    "ramanujan_R": (hyper.ramanujan_R, "ff"),
    "f32_terminating": (hyper.f32_terminating, "ifff"),
    "agm": (elliptic.agm, "ff"),
    "ellip_k": (elliptic.ellip_k, "f"),
    "ellip_e": (elliptic.ellip_e, "f"),
    "ellip_k_prime": (elliptic.ellip_k_prime, "f"),
    "ellip_e_prime": (elliptic.ellip_e_prime, "f"),
    "k_a": (elliptic.k_a, "ff"),
    "e_a": (elliptic.e_a, "ff"),
    "mu": (elliptic.mu, "f"),
    "mu_a": (elliptic.mu_a, "ff"),
    "mu_a_inverse": (elliptic.mu_a_inverse, "ff"),
    "phi_k": (elliptic.phi_k, "ff"),
    "phi_k_a": (elliptic.phi_k_a, "fff"),
    "legendre_residual": (elliptic.legendre_residual, "f"),
    "generalized_legendre_residual": (elliptic.generalized_legendre_residual, "ff"),
    "ellipse_perimeter": (elliptic.ellipse_perimeter, "f"),
    "muir_approx": (elliptic.muir_approx, "f"),
    "upper_approx": (elliptic.upper_approx, "f"),
}


def _parse_args_for(kinds, raw):
    if len(raw) != len(kinds):
        raise ValueError(f"expected {len(kinds)} argument(s), got {len(raw)}")
    out = []
    for kind, token in zip(kinds, raw):
        v = float(token)
        # int() of inf raises OverflowError, not ValueError
        if kind == "i" and (not math.isfinite(v) or v != int(v)):
            raise ValueError(f"expected an integer, got {token}")
        out.append(int(v) if kind == "i" else v)
    return out


def _format_result(res) -> str:
    if isinstance(res, EvalResult):
        return (f"{res.value!r} abs_err_estimate={res.abs_err_estimate!r} "
                f"terms_used={res.terms_used} method={res.method}")
    if isinstance(res, GammaEstimate):
        return f"{res.value!r} error_bound={res.error_bound!r} method={res.method}"
    if isinstance(res, DeTempleValues):
        return f"{res.big_h!r} d_n={res.d_n!r} r_n={res.r_n!r}"
    if isinstance(res, tuple):  # a residual function's (residual, scale)
        return f"{res[0]!r} scale={res[1]!r}"
    return repr(float(res))


def _cmd_eval(args) -> int:
    name = args.function
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        print(f"unknown function {name!r}; available: {known}", file=sys.stderr)
        return 2
    fn, kinds = _REGISTRY[name]
    try:
        res = fn(*_parse_args_for(kinds, args.args))
    except (ValueError, OverflowError, BracketError, IterationCapError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    print(_format_result(res))
    return 0


def _cmd_verify(args) -> int:
    try:
        report = verify.run_suite(args.suite, grid_n=args.grid, tol_scale=args.tol_scale)
    except DomainError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    for r in report.results:
        if not r.passed:
            print(f"FAIL {r.id} max_residual={r.max_residual!r} argmax={r.argmax!r}",
                  file=sys.stderr)
    fmt, target = ("csv", args.csv_path) if args.csv_path else ("json", args.json_path)
    payload = verify.serialize(report, fmt)
    if not target:
        sys.stdout.write(payload.decode("utf-8"))
        return 0 if report.summary["failed"] == 0 else 1
    try:
        with open(target, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"cannot write report to {target}: {exc}", file=sys.stderr)
        return 3
    print(f"{report.summary['passed']}/{report.summary['total']} checks passed; "
          f"report written to {target}")
    return 0 if report.summary["failed"] == 0 else 1


def _cmd_table(args) -> int:
    if args.which == "theta":
        print(f"{'x':>8s} {'computed':>10s} {'recorded':>10s} {'gap':>10s}")
        labels = ["0"] + [f"{k}/12" for k in range(1, 12)] + ["1", "inf"]
        for label, (x, printed) in zip(labels, gamma.THETA_RECORD):
            t = gamma.theta(x)
            print(f"{label:>8s} {t:10.4f} {printed:10.4f} {abs(t - printed):10.2e}")
        return 0
    print("DeTemple acceleration R_n = H_n - log(n + 1/2):")
    print(f"{'n':>6s} {'R_n':>22s} {'R_n - g':>14s}")
    for n in (1, 10, 100, 1000):
        rec = gamma.detemple(n)
        print(f"{n:>6d} {rec.r_n!r:>22s} {rec.r_minus_gamma:14.6e}")
    print("exponential-series estimates with proven bound c_k:")
    print(f"{'k':>6s} {'estimate':>22s} {'c_k':>12s} {'|est - g|':>12s}")
    for k in (1, 5, 10, 20):
        est = gamma.karatsuba_euler_gamma(k)
        gap = abs(est.value - gamma.EULER_GAMMA)
        print(f"{k:>6d} {est.value!r:>22s} {est.error_bound:12.3e} {gap:12.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfun",
        description="Evaluate special functions and run the identity-verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a registered function")
    p_eval.add_argument("function", help="function name, e.g. gamma, theta, f21, mu_a")
    p_eval.add_argument("args", nargs="*", help="numeric arguments")
    p_eval.set_defaults(run=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=("all",) + verify.SUITES)
    p_verify.add_argument("--grid", type=int, default=None, metavar="N",
                          help="resize continuous grids to N points; "
                               "integer and tuple grids keep theirs")
    p_verify.add_argument("--tol-scale", type=float, default=1.0, metavar="S",
                          help="scale every tolerance, the rounding budget included")
    out = p_verify.add_mutually_exclusive_group()
    out.add_argument("--json", dest="json_path", metavar="PATH",
                     help="write a JSON report to PATH")
    out.add_argument("--csv", dest="csv_path", metavar="PATH",
                     help="write a CSV report to PATH")
    p_verify.set_defaults(run=_cmd_verify)

    p_table = sub.add_parser("table", help="print a reference table")
    p_table.add_argument("which", choices=("theta", "gamma-const"))
    p_table.set_defaults(run=_cmd_table)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
