import hashlib
import json
import math
import random
import re

import pytest

from specfun import balls, elliptic, gamma, hyper, verify
from specfun.errors import DomainError
from specfun.kernel import Grid, balance
from specfun.verify import CheckResult, CheckSpec, Report


def _strip_volatile(payload):
    data = json.loads(payload)
    data.pop("created_at")
    for row in data["results"]:
        row.pop("elapsed_ms")
    return data


class TestRunner:
    def test_identity_kind(self):
        spec = CheckSpec("t.id", "x^2 residual", "identity", Grid(0.0, 1.0, 11), 1e-12,
                         lambda x: 0.0)
        res = verify.run_check(spec)
        assert res.passed and res.max_residual == 0.0 and res.points == 11

    def test_inequality_kind_failure_location(self):
        spec = CheckSpec("t.ineq", "margin", "inequality", Grid(0.0, 1.0, 11), 1e-12,
                         lambda x: 0.5 - x)
        res = verify.run_check(spec)
        assert not res.passed
        assert res.argmax == 1.0
        assert abs(res.max_residual - 0.5) < 1e-15

    def test_monotonicity_kind(self):
        spec = CheckSpec("t.mono", "values", "monotonicity", Grid(0.0, 1.0, 11), 1e-12,
                         lambda x: x * x)
        assert verify.run_check(spec).passed
        spec_bad = CheckSpec("t.mono2", "values", "monotonicity", Grid(0.0, 1.0, 11), 1e-12,
                             lambda x: -x)
        assert not verify.run_check(spec_bad).passed

    def test_convexity_kind(self):
        spec = CheckSpec("t.cvx", "values", "convexity", Grid(0.0, 1.0, 11), 1e-10,
                         lambda x: x * x)
        assert verify.run_check(spec).passed
        concave = CheckSpec("t.cvx2", "values", "convexity", Grid(0.0, 1.0, 11), 1e-10,
                            lambda x: -x * x)
        assert not verify.run_check(concave).passed

    def test_grid_override(self):
        spec = CheckSpec("t.grid", "identity", "identity", Grid(0.0, 1.0, 100), 1.0,
                         lambda x: 0.0)
        assert verify.run_check(spec, grid_n=7).points == 7

    def test_grid_override_keeps_integer_ranges(self):
        grid = range(2, 1001, 2)
        spec = CheckSpec("t.range", "identity", "identity", grid, 1.0, lambda n: 0.0)
        assert verify.run_check(spec, grid_n=7).points == len(grid)

    def test_tol_scale(self):
        spec = CheckSpec("t.tol", "identity", "identity", Grid(0.0, 1.0, 4), 1e-3,
                         lambda x: 1e-2)
        assert not verify.run_check(spec).passed
        assert verify.run_check(spec, tol_scale=100.0).passed

    @pytest.mark.parametrize("tol_scale", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_tol_scale_must_be_positive_and_finite(self, tol_scale):
        # nan, 0 or a negative scale would fail every check and inf pass every one
        spec = CheckSpec("t.tol", "identity", "identity", range(3), 1e-3, lambda n: 0.0)
        with pytest.raises(DomainError, match="tol_scale"):
            verify.run_check(spec, tol_scale=tol_scale)
        with pytest.raises(DomainError, match="tol_scale"):
            verify.run_suite("balls", tol_scale=tol_scale)

    @pytest.mark.parametrize("grid_n", [1, 0, -5, math.nan])
    def test_grid_n_below_two_is_refused(self, grid_n):
        # not clamped to 2 points, for continuous and integer grids alike
        for grid, points_at_two in ((Grid(0.0, 1.0, 100), 2), (range(3), 3)):
            spec = CheckSpec("t.grid", "identity", "identity", grid, 1.0, lambda x: 0.0)
            with pytest.raises(DomainError, match="grid_n"):
                verify.run_check(spec, grid_n=grid_n)
            assert verify.run_check(spec, grid_n=2).points == points_at_two

    @pytest.mark.parametrize("kind", ["identity", "inequality", "monotonicity", "convexity"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_fails(self, kind, bad):
        # a passing evaluator up to x = 0.3, and bad from there on: NaN
        # fails no comparison and +inf meets every margin, so only the
        # non-finite rule fails them
        good = {"identity": 0.0, "inequality": 1.0}
        spec = CheckSpec("t.bad", "values", kind, Grid(0.0, 1.0, 11), 1e-3,
                         lambda x: bad if x >= 0.3 - 1e-12 else good.get(kind, x * x))
        assert verify.run_check(CheckSpec("t.good", "values", kind, Grid(0.0, 0.2, 3), 1e-3,
                                          spec.evaluator)).passed
        res = verify.run_check(spec)
        assert not res.passed
        assert res.max_residual == math.inf
        assert res.argmax == pytest.approx(0.3)
        assert res.points == 11

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CheckSpec("x", "", "weird", Grid(0.0, 1.0, 4), 1e-3, lambda x: 0.0)
        with pytest.raises(DomainError):
            CheckSpec("x", "", "identity", Grid(0.0, 1.0, 4), 0.0, lambda x: 0.0)


class TestSlackReadings:
    # _between and the monotonicity steps are the balance-and-units
    # formula inlined; these pin that they give its bits
    @staticmethod
    def _values():
        rng = random.Random(2033)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 1.0, -1.0]
        vals = special + [rng.uniform(-2.0, 2.0) for _ in range(60)]
        vals += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0) for _ in range(60)]
        return vals

    @staticmethod
    def _outcome(f, *args):
        # repr keeps the sign of a zero and a NaN
        return repr(f(*args))

    def test_between_is_the_lesser_of_the_two_balanced_slacks(self):
        vals = self._values()
        rng = random.Random(7)
        triples = [(x, x, x) for x in vals]  # ties: both slacks 0
        triples += [(lo, v, hi) for lo in vals[:12] for v in vals[:12] for hi in vals[:12]]
        triples += [tuple(rng.choice(vals) for _ in range(3)) for _ in range(3000)]
        ref = lambda lo, v, hi: min(verify._units(*balance(v, -lo)), verify._units(*balance(hi, -v)))
        for args in triples:
            assert self._outcome(verify._between, *args) == self._outcome(ref, *args), args

    def test_a_sign_test_reads_one_value_against_its_own_size(self):
        # v >= 0 as _slack(v, 0.0): S = |v|, so +-1/eps or 0
        for v in self._values():
            sign = lambda v: verify._units(v, abs(v))
            assert self._outcome(verify._slack, v, 0.0) == self._outcome(sign, v), v

    def test_a_scale_below_the_normal_range_reads_exactly(self):
        # eps * scale underflows below a scale of about 1.1e-308: to 0 at
        # 1e-308, a ZeroDivisionError, and to a subnormal at 4e-308, which
        # read 2.02e15 for 2.25e15; the scale divides first, then eps
        assert verify._slack(1e-308, 0.0) == 2.0 ** 52
        assert verify._slack(3e-308, 1e-308) == pytest.approx(0.5 / verify._EPS, rel=1e-15)
        assert verify._units(-5e-324, 1e-323) == -0.5 / verify._EPS

    def test_dividing_by_the_scale_first_keeps_the_bits_where_eps_scale_is_normal(self):
        # eps is a power of two, so r / s / eps is r / (eps * s) rounded
        # once wherever eps * s and r / s are normal floats
        rng = random.Random(2034)
        for _ in range(20_000):
            s = 10.0 ** rng.uniform(-290.0, 308.0)
            r = s * rng.uniform(-1.0, 1.0)
            assert verify._units(r, s) == r / (verify._EPS * s), (r, s)
            hi, lo = s * rng.uniform(-1.0, 1.0), s * rng.uniform(-1.0, 1.0)
            want = hi - lo and (hi - lo) / (verify._EPS * (abs(hi) + abs(lo)))
            assert verify._slack(hi, lo) == want, (hi, lo)

    def test_inequality_reports_the_first_of_a_repeated_minimum(self):
        vals = [1.0, -3.0, 2.0, -3.0, -1.0]
        spec = CheckSpec("t.ineq", "", "inequality", range(5), 1.0, vals.__getitem__)
        res = verify.run_check(spec)
        assert (res.passed, res.max_residual, res.argmax) == (False, 3.0, 1.0)

    def test_an_identity_reports_the_first_of_a_repeated_largest_residual(self):
        vals = [1.0, 3.0, 2.0, -3.0, -1.0]
        spec = CheckSpec("t.id", "", "identity", range(5), 1.0, vals.__getitem__)
        res = verify.run_check(spec)
        assert (res.passed, res.max_residual, res.argmax) == (False, 3.0, 1.0)

    def test_an_inequality_that_holds_everywhere_reads_zero_at_the_first_point(self):
        spec = CheckSpec("t.ineq", "", "inequality", range(3, 9), 1.0, lambda n: 1.0 + n)
        res = verify.run_check(spec)
        assert (res.passed, repr(res.max_residual), res.argmax) == (True, "0.0", 3.0)

    def test_monotonicity_steps_are_slacks(self):
        vals = [v for v in self._values() if v == 0.0 or 1e-300 < abs(v) < 1e300]
        spec = CheckSpec("t.mono", "", "monotonicity", range(len(vals)), 1.0, vals.__getitem__)
        steps = [verify._units(*balance(v, -u)) for u, v in zip(vals, vals[1:])]
        worst = min(steps)
        res = verify.run_check(spec)
        assert repr(res.max_residual) == repr(-worst)
        assert res.argmax == 1.0 + steps.index(worst)


class TestSuites:
    def test_modular_has_nine_results(self):
        rep = verify.run_suite("modular", grid_n=8)
        assert len(rep.results) == 9
        assert rep.summary == {"total": 9, "passed": 9, "failed": 0}

    def test_gamma_suite_contents(self):
        rep = verify.run_suite("gamma", grid_n=64)
        ids = {r.id for r in rep.results}
        assert {"gamma.detemple_bracket", "gamma.bigh_monotone", "gamma.theta_table",
                "gamma.interval_bounds", "gamma.alzer_unit_interval",
                "gamma.alzer_beyond_one"} <= ids
        assert rep.summary["failed"] == 0

    def test_results_sorted_by_id(self):
        rep = verify.run_suite("balls", grid_n=16)
        ids = [r.id for r in rep.results]
        assert ids == sorted(ids)

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            verify.run_suite("bogus")

    def test_deterministic_modulo_volatile_fields(self):
        r1 = verify.run_suite("modular", grid_n=8)
        r2 = verify.run_suite("modular", grid_n=8)
        assert _strip_volatile(verify.serialize(r1, "json")) == \
            _strip_volatile(verify.serialize(r2, "json"))

    def test_grid_doubling_stability(self):
        # the budget is at least 4x the worst reading in rounding units on
        # the grids it was set on; doubling a grid from 32 to 64 and 128
        # points may take no budgeted check, identity or one-sided, past a
        # quarter of it (the one-sided readings are their violations:
        # balls.alzer_difference reads 3.7, elliptic.arth_refined 0.6)
        budget = verify._ROUNDING_BUDGET
        specs = [s for s in verify.build_checks() if s.tolerance == budget]
        assert len(specs) == 79
        assert sum(s.kind == "identity" for s in specs) == 33
        for n in (32, 64, 128):
            for spec in specs:
                assert verify.run_check(spec, grid_n=n).max_residual <= budget / 4.0, (spec.id, n)

    def test_tol_scale_can_fail_a_suite(self):
        rep = verify.run_suite("modular", grid_n=4, tol_scale=1e-9)
        assert rep.summary["failed"] > 0

    def test_2f1_identities_see_a_1e12_error(self, monkeypatch):
        # every 2F1 value off by 1e-12 c x relative reads 690 to 16,500
        # rounding units in these checks, above the budget of 64; unskewed
        # they read at most 12.8
        skewed_ids = [f"hyper.contiguous_{which}" for which in hyper.CONTIGUOUS_IDS] + [
            "hyper.hypergeometric_ode", "hyper.ode_square_argument", "hyper.wronskian_decay",
            "hyper.corollary44", "hyper.wronskian_combo", "hyper.elliott", "hyper.kummer",
            "elliptic.agm_vs_series", "elliptic.legendre_generalized", "elliptic.ka_ode",
            "elliptic.ea_ode", "elliptic.lemniscate_ode", "elliptic.schwarzian",
        ]
        dispatch = hyper._dispatch

        def skewed(a, b, c, x, w):
            v, e, n, method = dispatch(a, b, c, x, w)
            return v * (1.0 + 1e-12 * c * x), e, n, method

        specs = {s.id: s for s in verify.build_checks("hyper") + verify.build_checks("elliptic")}
        assert all(verify.run_check(specs[cid]).passed for cid in skewed_ids)
        monkeypatch.setattr(hyper, "_dispatch", skewed)
        for cid in skewed_ids:
            assert not verify.run_check(specs[cid]).passed, cid

    def test_rounding_budget_is_every_tolerance_but_six(self):
        # the six compare with a limit, a printed table or a stencil: their
        # gaps are truncation, not rounding
        truncation = {
            "hyper.derivative_formula", "hyper.gauss_value_limit", "hyper.growth_exp_endpoints",
            "hyper.growth_power_endpoints", "elliptic.e_a_endpoint", "gamma.theta_table",
        }
        specs = verify.build_checks()
        assert len(specs) == 85
        assert truncation <= {s.id for s in specs if s.kind == "identity"}
        for spec in specs:
            budgeted = spec.tolerance == verify._ROUNDING_BUDGET
            assert budgeted is (spec.id not in truncation), spec.id

    def test_registry_fingerprint(self):
        # a sha256 over every spec's (id, anchor, kind, grid, tolerance,
        # note) in build order: a grid, anchor or tolerance that moves, or a
        # check that appears or goes, changes it; a deliberate change
        # re-pins it and says why
        h = hashlib.sha256()
        for s in verify.build_checks():
            h.update(repr((s.id, s.anchor, s.kind, s.grid, s.tolerance, s.note)).encode())
        assert h.hexdigest() == "781244f5193e671113e3fb6eb9cb52eb3bf992c3845e36f6b22d04f755d7e409"

    def test_arth_refined_sees_a_1e13_error_in_k(self, monkeypatch):
        # K(r) 1e-13 low puts it below (pi/2)(arth r/r)^(3/4) near r = 1e-4
        # by about 226 rounding units; an absolute slack of 1e-12 hid that
        spec = {s.id: s for s in verify.build_checks("elliptic")}["elliptic.arth_refined"]
        assert verify.run_check(spec).passed
        ellip_k = elliptic.ellip_k
        monkeypatch.setattr(elliptic, "ellip_k", lambda r: ellip_k(r) * (1.0 - 1e-13))
        res = verify.run_check(spec)
        assert not res.passed
        assert 150.0 < res.max_residual < 300.0

    def test_arth_exponent_probe_fails_where_the_pushed_exponent_holds(self, monkeypatch):
        # K doubled lies above (pi/2)(arth r/r)^(3/4 + 1e-3) at every point
        # of the probe's grid, so the probe finds no break and reads -inf
        spec = {s.id: s for s in verify.build_checks("elliptic")}["elliptic.arth_exponent_sharp"]
        assert verify.run_check(spec).passed
        ellip_k = elliptic.ellip_k
        monkeypatch.setattr(elliptic, "ellip_k", lambda r: 2.0 * ellip_k(r))
        res = verify.run_check(spec)
        assert not res.passed
        assert res.max_residual == math.inf and res.argmax == 0.0

    def test_sharpness_probe_fails_a_loosened_constant(self, monkeypatch):
        # POWER_A 1% low: raised by 1e-3 it still holds at n = 1, so the
        # probe reads -inf, beyond any budget
        spec = {s.id: s for s in verify.build_checks("balls")}["balls.sharpness_spotcheck"]
        assert verify.run_check(spec).passed
        monkeypatch.setattr(balls, "POWER_A", balls.POWER_A * 0.99)
        res = verify.run_check(spec)
        assert not res.passed
        assert res.max_residual == math.inf and res.argmax == 0.0


class TestRunScopedMemo:
    # run_suite evaluates each distinct 2F1 of the hyper suite once per call
    # (hyper.EvalScope); the other suites run without a memo
    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_run_suite_equals_each_check_run_alone(self, suite):
        # run_check outside any scope stores nothing, so this compares the
        # memo's values with fresh evaluations, bit for bit
        report = verify.run_suite(suite)
        alone = sorted((verify.run_check(s) for s in verify.build_checks(suite)), key=lambda r: r.id)
        assert [(r.id, r.passed, repr(r.max_residual), repr(r.argmax), r.points) for r in report.results] == \
            [(r.id, r.passed, repr(r.max_residual), repr(r.argmax), r.points) for r in alone]

    def test_only_the_hyper_suite_runs_in_a_scope(self, monkeypatch):
        # the elliptic suite repeats no 2F1 argument and gamma, balls and
        # modular dispatch none, so a memo there would only cost
        scoped = {}
        run_check = verify.run_check

        def recording(spec, grid_n=None, tol_scale=1.0):
            scoped.setdefault(spec.id.split(".")[0], set()).add(hyper._MEMO.get() is not None)
            return run_check(spec, grid_n=grid_n, tol_scale=tol_scale)

        monkeypatch.setattr(verify, "run_check", recording)
        verify.run_suite("all", grid_n=7)
        assert scoped == {"hyper": {True}, **{s: {False} for s in verify.SUITES if s != "hyper"}}

    def test_no_scope_outlives_the_run(self, monkeypatch):
        verify.run_suite("balls")
        assert hyper._MEMO.get() is None

        def raising(spec, grid_n=None, tol_scale=1.0):
            assert hyper._MEMO.get() == {}
            raise RuntimeError(spec.id)

        monkeypatch.setattr(verify, "run_check", raising)
        with pytest.raises(RuntimeError):
            verify.run_suite("hyper")
        assert hyper._MEMO.get() is None

    def test_a_hyper_pass_evaluates_2735_distinct_arguments(self, monkeypatch):
        # an exact work count, with the complement in the key only past the
        # crossover, where the engine reads it
        calls = []
        evaluate = hyper._evaluate

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(hyper, "_evaluate", counting)
        verify.run_suite("hyper")
        assert len(calls) == 2735

    def test_nothing_carries_over_between_runs(self, monkeypatch):
        # each pass pays for its own evaluations, which keeps a benchmark of
        # repeated passes honest; the memo saves within a pass
        calls = []
        series = hyper._series

        def counting(*args):
            calls.append(args)
            return series(*args)

        monkeypatch.setattr(hyper, "_series", counting)
        counts = []
        for _ in range(2):
            del calls[:]
            verify.run_suite("hyper")
            counts.append(len(calls))
        del calls[:]
        for spec in verify.build_checks("hyper"):
            verify.run_check(spec)
        assert 0 < counts[0] == counts[1] < len(calls)


# the library values verify._shared evaluates once per point and suite, with
# their calls in one pass: (suite, run_suite, each spec run alone)
_SHARED_CALLS = {
    (elliptic, "ellip_k"): ("elliptic", 612, 3172),
    (gamma, "theta"): ("gamma", 514, 1014),
    (gamma, "mono_f"): ("gamma", 500, 700),
    (elliptic, "ellipse_perimeter"): ("elliptic", 101, 202),
    (elliptic, "phi_k_a"): ("elliptic", 1024, 1216),
}


def _records(results):
    return [(r.id, r.passed, repr(r.max_residual), repr(r.argmax), r.points) for r in results]


class TestSharedValues:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(_SHARED_CALLS, 0)

        def counting(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        for key in _SHARED_CALLS:
            monkeypatch.setattr(*key, counting(key, getattr(*key)))
        return counts

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_run_suite_equals_each_check_run_alone_at_seven_points(self, suite):
        # the default grids are compared in TestRunScopedMemo
        report = verify.run_suite(suite, grid_n=7)
        alone = sorted((verify.run_check(s, grid_n=7) for s in verify.build_checks(suite)),
                       key=lambda r: r.id)
        assert _records(report.results) == _records(alone)

    def test_a_pass_evaluates_each_shared_value_once_per_point(self, calls):
        for suite in ("gamma", "elliptic"):
            verify.run_suite(suite)
        assert calls == {key: want for key, (_, want, _) in _SHARED_CALLS.items()}

    def test_a_lone_run_check_shares_nothing(self, calls):
        for suite in ("gamma", "elliptic"):
            for spec in verify.build_checks(suite):
                verify.run_check(spec)
        assert calls == {key: alone for key, (_, _, alone) in _SHARED_CALLS.items()}

    def test_each_run_evaluates_everything_again(self, calls):
        for _ in range(2):
            for key in calls:
                calls[key] = 0
            verify.run_suite("elliptic")
            assert verify._SHARED.get() is None
            assert calls == {key: (want if suite == "elliptic" else 0)
                             for key, (suite, want, _) in _SHARED_CALLS.items()}

    def test_no_scope_outlives_a_raising_suite(self, monkeypatch):
        def raising(spec, grid_n=None, tol_scale=1.0):
            assert verify._SHARED.get() == {}
            raise RuntimeError(spec.id)

        monkeypatch.setattr(verify, "run_check", raising)
        with pytest.raises(RuntimeError):
            verify.run_suite("gamma")
        assert verify._SHARED.get() is None


class TestSerialization:
    def _tiny_report(self):
        res = CheckResult(id="a.b", passed=True, max_residual=1.25e-14,
                          argmax=0.5, points=3, elapsed_ms=1.5)
        return Report(created_at="2026-01-01T00:00:00+00:00", suite="gamma",
                      results=(res,), summary={"total": 1, "passed": 1, "failed": 0})

    def test_json_fields(self):
        payload = verify.serialize(self._tiny_report(), "json")
        data = json.loads(payload)
        assert set(data) == {"created_at", "suite", "results", "summary"}
        assert data["results"][0] == {
            "id": "a.b", "passed": True, "max_residual": 1.25e-14,
            "argmax": 0.5, "points": 3, "elapsed_ms": 1.5,
        }

    def test_json_roundtrip(self):
        rep = verify.run_suite("balls", grid_n=16)
        data = json.loads(verify.serialize(rep, "json"))
        back = Report(**{**data, "results": tuple(CheckResult(**r) for r in data["results"])})
        assert back == rep

    def test_empty_report(self):
        rep = Report(created_at="t", suite="gamma", results=(),
                     summary={"total": 0, "passed": 0, "failed": 0})
        data = json.loads(verify.serialize(rep, "json"))
        assert data["results"] == []
        assert data["summary"] == {"total": 0, "passed": 0, "failed": 0}

    def test_csv_shape(self):
        payload = verify.serialize(self._tiny_report(), "csv").decode()
        lines = [ln for ln in payload.split("\r\n") if ln]
        assert len(lines) == 2
        assert lines[0] == "id,passed,max_residual,argmax,points,elapsed_ms"
        assert lines[1].startswith("a.b,true,1.25e-14,0.5,3,")

    def test_csv_round_trip_decimal(self):
        payload = verify.serialize(self._tiny_report(), "csv").decode()
        value = payload.splitlines()[1].split(",")[2]
        assert float(value) == 1.25e-14

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            verify.serialize(self._tiny_report(), "xml")


def test_full_registry_ids_are_unique_and_namespaced():
    specs = verify.build_checks("all")
    ids = [s.id for s in specs]
    assert len(ids) == len(set(ids))
    pattern = re.compile(r"^(gamma|balls|hyper|elliptic|modular)\.[a-z0-9_]+$")
    assert all(pattern.match(i) for i in ids)
