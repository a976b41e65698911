"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``) and asserts
at the stated tolerance.  Two assertions that are numerically impossible as
literally stated are kept as strict xfails with the analysis in their
reason strings: the recorded theta values at x = 6/12 and 11/12 are
truncated rather than rounded (gaps 6.4e-5 and 6.7e-5 against a 5e-5
window), and the n = 1 value of the scaled DeTemple gap is
1 - g - log(3/2) = 0.0173192..., not 0.017347.

Grid-certified inequalities demonstrate but cannot prove sharpness; the
sharp constants are additionally pushed by 1e-3 perturbations where the
violation is reachable (see balls.sharpness_spotcheck and
elliptic.arth_exponent_sharp in the registry).
"""

import math
import time

import pytest

from specfun import balls, elliptic, gamma, hyper, modular, verify
from specfun.hyper import HyperParams
from specfun.kernel import Grid, derivative

EG = gamma.EULER_GAMMA


def _criterion(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


THETA_XS = [0.0] + [k / 12.0 for k in range(1, 12)] + [1.0]
THETA_PRINTED = [0.9675, 0.8071, 0.6160, 0.4867, 0.4029, 0.3509, 0.3207,
                 0.3058, 0.3014, 0.3041, 0.3118, 0.3227, 0.3359]
_TRUNCATED = {6, 11}  # indices of the two truncated entries


def test_criterion_01_theta_table():
    gaps = [abs(gamma.theta(x) - p) for x, p in zip(THETA_XS, THETA_PRINTED)]
    gaps.append(abs(gamma.theta(1e6) - 1.0))
    ok_rounded = all(g < 5e-5 for i, g in enumerate(gaps) if i not in _TRUNCATED)
    ok_truncated = all(gaps[i] < 1.01e-4 for i in _TRUNCATED)
    _criterion(1, ok_rounded and ok_truncated,
               f"14-entry record reproduced; max gap {max(gaps):.2e} "
               "(two source entries truncated, documented)")


@pytest.mark.xfail(strict=True, reason="theta_(6/12) = 0.3207634... and "
                   "theta_(11/12) = 0.3227664... are truncated to .3207/.3227 "
                   "in the source record, so their gaps exceed the 5e-5 window")
def test_criterion_01_strict_window_spec_defect():
    for x, p in zip(THETA_XS, THETA_PRINTED):
        assert abs(gamma.theta(x) - p) < 5e-5


def test_criterion_02_theta_growth():
    pts = Grid(1.0, 500.0, 500).points()
    vals = [gamma.theta(x) for x in pts]
    in_window = all(0.01 < v / 30.0 < 1.0 / 30.0 for v in vals)
    increasing = all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    _criterion(2, in_window and increasing,
               "theta/30 inside (1/100, 1/30) and strictly increasing on [1, 500]")


def test_criterion_03_detemple():
    gaps = gamma.detemple_gaps(10_000)
    bracket = all(
        1.0 / (24.0 * (n + 1.0) ** 2) < gap < 1.0 / (24.0 * n ** 2)
        for n, gap in enumerate(gaps, 1)
    )
    big_h = [n * n * gap for n, gap in enumerate(gaps, 1)]
    increasing = all(a < b for a, b in zip(big_h, big_h[1:]))
    h1_expected = 1.0 - EG - math.log(1.5)
    h1_ok = abs(big_h[0] - h1_expected) <= 1e-6
    _criterion(3, len(gaps) == 10_000 and bracket and increasing and h1_ok,
               f"bracket + monotone for n <= 1e4; H(1) = {big_h[0]:.10f}")


@pytest.mark.xfail(strict=True, reason="H(1) = 1 - g - log(3/2) = 0.0173192..., "
                   "so the literal 0.017347 +- 1e-6 target cannot be met")
def test_criterion_03_literal_h1_spec_defect():
    assert abs(gamma.detemple(1).big_h - 0.017347) <= 1e-6


def test_criterion_04_euler_gamma_series():
    ok = True
    for k in (1, 5, 10, 20):
        est = gamma.karatsuba_euler_gamma(k)
        ok = ok and abs(est.value - EG) <= est.error_bound
    est20 = gamma.karatsuba_euler_gamma(20)
    gap20 = abs(est20.value - EG)
    ok = ok and gap20 <= 1.7e-6
    _criterion(4, ok, f"|estimate - g| <= c_k for k in 1,5,10,20; k=20 gap {gap20:.2e}")


def test_criterion_05_sixthroot_expansion():
    ref = gamma.gamma(11.0)
    errs = [abs(gamma.ramanujan_gamma(10.0, t).value - ref) / ref for t in range(8)]
    ok = errs[7] <= 1e-9 and errs[7] < errs[0]
    ok = ok and all(errs[i] > errs[i + 1] for i in range(7))
    _criterion(5, ok, f"relative error falls {errs[0]:.1e} -> {errs[7]:.1e} "
                      "monotonically through the seven tail coefficients")


def test_criterion_06_gamma_bounds():
    ok = True
    for x in Grid(1.005, 100.0, 200).points():
        g = gamma.gamma(x)
        ok = ok and x ** ((1.0 - EG) * x - 1.0) < g < x ** (x - 1.0)
    a01, b01 = 1.0 - EG, 0.5 * (math.pi ** 2 / 6.0 - EG)
    for x in Grid(0.005, 0.995, 199).points():
        g = gamma.gamma(x)
        ok = ok and x ** (a01 * (x - 1.0) - EG) < g < x ** (b01 * (x - 1.0) - EG)
    for x in Grid(1.005, 100.0, 200).points():
        g = gamma.gamma(x)
        ok = ok and x ** (b01 * (x - 1.0) - EG) < g < x ** (x - 1.0 - EG)
    _criterion(6, ok, "interval bounds and both sharp-constant branches hold")


def test_criterion_07_ball_inequalities():
    lv = balls.log_ball_volume
    a_pow, b_pow = 2.0 / math.sqrt(math.pi), math.sqrt(math.e)
    a_sq, b_sq = 0.5, math.pi / 2.0 - 1.0
    alpha, beta = 2.0 - math.log(math.pi) / math.log(2.0), 0.5
    a_diff, b_diff = (4.0 - math.pi) * math.sqrt(2.0), math.sqrt(2.0 * math.pi) / 2.0
    digits_ok = (abs(a_pow - 1.12837) < 1e-5 and abs(b_sq - 0.57079) < 1e-5
                 and abs(alpha - 0.34850) < 1e-5 and abs(a_diff - 1.2139) < 1e-4
                 and abs(b_diff - 1.2533) < 1e-4)
    ok = digits_ok
    for n in range(1, 201):
        t = math.exp(lv(n) - n / (n + 1.0) * lv(n + 1))
        ok = ok and (a_pow - 1e-12 <= t <= b_pow + 1e-12)
        c = 2.0 * math.pi * math.exp(2.0 * (lv(n - 1) - lv(n))) - n
        ok = ok and (a_sq - 1e-10 <= c <= b_sq + 1e-10)
        e = (2.0 * lv(n) - lv(n - 1) - lv(n + 1)) / math.log1p(1.0 / n)
        ok = ok and (alpha - 1e-10 <= e <= beta + 1e-10)
    for n in range(2, 201):
        d = ((n + 1) * math.exp(lv(n + 1) - lv(n))
             - n * math.exp(lv(n) - lv(n - 1))) * math.sqrt(n)
        ok = ok and (a_diff - 1e-12 <= d < b_diff)
    _criterion(7, ok, "four sharp families hold on n <= 200 with the printed constants")


def test_criterion_08_agm_vs_series():
    worst = 0.0
    for r in Grid(1e-4, 1.0 - 1e-4, 512, "atanh").points():
        series = hyper.hyp2f1(0.5, 0.5, 1.0, r * r, one_minus_x=(1.0 - r) * (1.0 + r))
        worst = max(worst, abs(2.0 / math.pi * elliptic.ellip_k(r) - series))
    _criterion(8, worst < 1e-12, f"AGM and series agree to {worst:.2e} over 512 points")


def test_criterion_09_identity_residuals():
    worst_leg = max(abs(elliptic.legendre_residual(r)[0]) for r in Grid(0.01, 0.99, 99).points())
    ok = worst_leg < 1e-12

    worst_gen = 0.0
    for a in (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.49):
        for r in Grid(0.02, 0.98, 64, "atanh").points():
            worst_gen = max(worst_gen, abs(elliptic.generalized_legendre_residual(a, r)[0]))
    ok = ok and worst_gen < 1e-10

    worst_ell = max(
        abs(hyper.elliott_residual(a, b, c, x)[0])
        for a, b, c, x in verify._elliott_draws(100)
    )
    ok = ok and worst_ell < 1e-9

    worst_kum = 0.0
    for x in Grid(0.05, 0.95, 50).points():
        for p in ((0.5, 0.5, 0.5), (0.4, 0.6, 0.5)):
            worst_kum = max(worst_kum, abs(hyper.kummer_residual(*p, x)[0]))
    ok = ok and worst_kum < 1e-8

    cor_vals = [hyper.corollary44_value(0.3, 1.2, z) for z in (0.1, 0.3, 0.5, 0.7, 0.9)]
    cor_ref = hyper.corollary44_reference(0.3, 1.2)
    worst_cor = max(abs(v - cor_ref) for v in cor_vals)
    spread = max(cor_vals) - min(cor_vals)
    ok = ok and worst_cor < 1e-9 and spread < 2e-9

    worst_combo = 0.0
    for z in Grid(0.05, 0.95, 19).points():
        for p in ((0.5, 0.5, 1.0), (0.4, 0.8, 1.1)):
            worst_combo = max(worst_combo, abs(hyper.wronskian_combo_residual(*p, z)[0]))
    ok = ok and worst_combo < 1e-9

    _criterion(9, ok, f"legendre {worst_leg:.1e}, generalized {worst_gen:.1e}, "
                      f"elliott {worst_ell:.1e}, kummer {worst_kum:.1e}, "
                      f"products {max(worst_cor, worst_combo):.1e} (spread {spread:.1e})")


def test_criterion_10_derivative_relations():
    trip = (HyperParams(1.3, 0.7, 1.5), HyperParams(0.5, 0.5, 1.0))
    worst_derivative = 0.0
    worst_algebraic = 0.0
    for z in Grid(0.1, 0.9, 9).points():
        for p in trip:
            for which in ("d_u", "d_v", "sym_combo", "b_shift"):
                worst_derivative = max(worst_derivative, abs(hyper.contiguous_residual(which, p, z)[0]))
            worst_algebraic = max(worst_algebraic, abs(hyper.contiguous_residual("shift_c", p, z)[0]))
    ok = worst_derivative < 5e-14 and worst_algebraic < 5e-14

    worst_ode = 0.0
    for z in Grid(0.1, 0.9, 9).points():
        f = lambda t: hyper.hyp2f1(0.7, 1.1, 1.3, t)
        d1 = derivative(f, z, order=1, domain=(0.0, 1.0))
        d2 = derivative(f, z, order=2, domain=(0.0, 1.0))
        worst_ode = max(worst_ode, abs(
            z * (1.0 - z) * d2 + (1.3 - 2.8 * z) * d1 - 0.77 * f(z)
        ))
    for which in elliptic.ODE_IDS:
        for a in (0.5, 1.0 / 3.0):
            for r in (0.1, 0.5, 0.9):
                worst_ode = max(worst_ode, abs(elliptic.ode_residual(which, a, r)[0]))
    ok = ok and worst_ode < 1e-5

    worst_schwarz = max(abs(elliptic.schwarzian_residual(a, r)[0])
                        for a in (0.5, 0.25) for r in (0.2, 0.5, 0.8))
    h = 5e-3
    decay = abs(elliptic.schwarzian_residual(0.5, 0.5, step=h)[0]) / \
        abs(elliptic.schwarzian_residual(0.5, 0.5, step=h / 2.0)[0])
    ok = ok and worst_schwarz < 1e-3 and decay >= 3.0

    _criterion(10, ok, f"contiguous {worst_derivative:.1e}/{worst_algebraic:.1e}, "
                       f"ODEs {worst_ode:.1e}, Schwarzian {worst_schwarz:.1e} "
                       f"(step-halving gain {decay:.1f}x)")


def test_criterion_11_zero_balanced():
    ok = True
    worst = 0.0
    for a, b in ((0.5, 0.5), (1.0 / 3.0, 2.0 / 3.0), (0.25, 0.25)):
        w = 1e-6
        gap = abs(gamma.beta(a, b) * hyper.hyp2f1(a, b, a + b, 1.0 - w, one_minus_x=w)
                  + math.log(w) - hyper.ramanujan_R(a, b))
        bound = 10.0 * w * abs(math.log(w))
        worst = max(worst, gap / bound)
        ok = ok and gap <= bound
    r_gap = abs(hyper.ramanujan_R(0.5, 0.5) - math.log(16.0))
    ok = ok and r_gap <= 1e-12
    _criterion(11, ok, f"asymptotic gap <= {worst:.2f} of its bound; "
                       f"R(1/2,1/2) - log 16 = {r_gap:.1e}")


def test_criterion_12_k_battery():
    # margins at the grid corners sit at the equality ends of these sharp
    # bounds, so each comparison carries the standard 1e-12 rounding slack
    alzer_c = math.pi / (4.0 * math.log(2.0)) - 1.0
    slack = 1e-12
    ok = True
    for r in Grid(1e-4, 1.0 - 1e-4, 512, "atanh").points():
        k = elliptic.ellip_k(r)
        base = math.atanh(r) / r
        rp2 = (1.0 - r) * (1.0 + r)
        ratio = k / math.log(4.0 / math.sqrt(rp2))
        ok = ok and (k - 0.5 * math.pi * math.sqrt(base)) / k > -slack
        ok = ok and (0.5 * math.pi * base - k) / k > -slack
        ok = ok and (k - 0.5 * math.pi * base ** 0.75) / k > -slack
        ok = ok and ratio - 9.0 / (8.0 + r * r) > -slack
        ok = ok and 1.0 + 0.25 * rp2 - ratio > -slack
        ok = ok and ratio - (1.0 + alzer_c * rp2) > -slack
    for r in Grid(0.0, 1.0, 101).points():
        rp = math.sqrt((1.0 - r) * (1.0 + r))
        e_scaled = 2.0 / math.pi * elliptic.ellip_e(r)
        ok = ok and e_scaled - ((1.0 + rp ** 1.5) / 2.0) ** (2.0 / 3.0) > -slack
        ok = ok and math.sqrt((1.0 + rp * rp) / 2.0) - e_scaled > -slack
    _criterion(12, ok, "seven k-bounds over 512 stretched points; "
                       "perimeter bounds over [0, 1]")


def test_criterion_13_modular_equations():
    worst = 0.0
    grid = Grid(0.05, 0.95, 64, "atanh").points()
    for iid in modular.IDENTITY_IDS:
        for r in grid:
            worst = max(worst, modular.identity_residual(iid, r)[0])
    ok = worst <= 1e-6

    worst_rt = 0.0
    for a in (0.5, 1.0 / 3.0):
        for p in (2.0, 3.0, 5.0, 7.0, 11.0, 23.0):
            for r in grid[::8]:
                s = elliptic.phi_k_a(a, 1.0 / p, r)
                worst_rt = max(worst_rt, abs(elliptic.phi_k_a(a, p, s) - r))
        for p in (2.0, 3.0):  # ascending direction, representable range
            for r in grid[::8]:
                s = elliptic.phi_k_a(a, p, r)
                worst_rt = max(worst_rt, abs(elliptic.phi_k_a(a, 1.0 / p, s) - r))
    ok = ok and worst_rt <= 1e-9
    _criterion(13, ok, f"9 identities max residual {worst:.2e} on 64 points; "
                       f"phi round-trips to {worst_rt:.2e}")


def test_criterion_14_terminating_3f2():
    draws = verify._f32_draws(100)
    values = [hyper.f32_terminating(n, a, b, eps) for n, a, b, eps in draws]
    ok = all(v > 0.0 for v in values)
    _criterion(14, ok, f"100 window draws all positive (min {min(values):.3e})")


def test_criterion_15_property_slate():
    mono_vals = [gamma.mono_f(x) for x in Grid(1.02, 200.0, 200, "logarithmic").points()]
    ok = all(v2 > v1 for v1, v2 in zip(mono_vals, mono_vals[1:]))

    for a in (0.5, 1.0 / 3.0):
        mu_vals = [elliptic.mu_a(a, r) for r in Grid(1e-4, 1.0 - 1e-4, 64, "atanh").points()]
        ok = ok and all(v2 < v1 for v1, v2 in zip(mu_vals, mu_vals[1:]))

    for a in (0.5, 1.0 / 3.0):
        for p in (2.0, 5.0):
            ok = ok and all(
                elliptic.phi_k_a(a, 1.0 / p, r) < r for r in (0.05, 0.5, 0.95)
            )

    def second_diffs_positive(f, xs):
        vals = [f(x) for x in xs]
        return all(vals[i + 1] - 2.0 * vals[i] + vals[i - 1] > -1e-10
                   for i in range(1, len(vals) - 1))

    xs = [0.25 * (i + 1) for i in range(60)]
    k_fn = lambda x: hyper.hyp2f1(0.5, 0.5, 1.0, 1.0 - math.exp(-x), one_minus_x=math.exp(-x))
    ok = ok and second_diffs_positive(k_fn, xs)
    d = 0.9 + 0.8 - 0.5
    l_fn = lambda x: hyper.hyp2f1(0.9, 0.8, 0.5, 1.0 - (1.0 + x) ** (-1.0 / d),
                                  one_minus_x=(1.0 + x) ** (-1.0 / d))
    ok = ok and second_diffs_positive(l_fn, xs)

    root_vals = [math.exp(balls.log_ball_volume(n) / (n * math.log(n))) for n in range(2, 201)]
    ok = ok and all(v2 < v1 for v1, v2 in zip(root_vals, root_vals[1:]))

    qf = lambda x: hyper.ramanujan_R(x, 1.0 - x) * math.sin(math.pi * x)
    qf_vals = [qf(x) for x in Grid(0.001, 0.5, 120).points()]
    ok = ok and all(v2 < v1 for v1, v2 in zip(qf_vals, qf_vals[1:]))

    _criterion(15, ok, "monotone/convex shape properties all hold at their slacks")


def test_full_suite_green_and_fast():
    t0 = time.perf_counter()
    report = verify.run_suite("all")
    elapsed = time.perf_counter() - t0
    failed = [r.id for r in report.results if not r.passed]
    print(f"ACCEPTANCE --: full registry {report.summary} in {elapsed:.1f}s")
    assert not failed, f"failing checks: {failed}"
    assert elapsed < 60.0
