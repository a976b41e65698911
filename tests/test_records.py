"""The ten result and parameter records are namedtuples that keep the
behaviour of the frozen dataclasses they replaced: field names and order,
keyword construction, defaults, repr text, immutability, equality and
hashing, and each validation rule's error class and message.  The package
import loads none of the modules the records and reports used to need."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import specfun
from specfun import gamma, hyper, kernel, modular, verify
from specfun.errors import DomainError, ParameterError

_RESULT = verify.CheckResult("c", False, float("inf"), 1.0, 2, 0.25)

# (record type, field names in order, positional values, the repr the dataclasses printed)
CASES = [
    (gamma.GammaEstimate, "value error_bound method", (1.5, 2e-16, "karatsuba_series"),
     "GammaEstimate(value=1.5, error_bound=2e-16, method='karatsuba_series')"),
    (gamma.DeTempleValues, "n d_n r_n big_h r_minus_gamma", (3, 0.5, 0.6, 0.01, 1e-3),
     "DeTempleValues(n=3, d_n=0.5, r_n=0.6, big_h=0.01, r_minus_gamma=0.001)"),
    (hyper.HyperParams, "a b c", (0.5, 1.5, 2.0), "HyperParams(a=0.5, b=1.5, c=2.0)"),
    (hyper.EvalResult, "value abs_err_estimate terms_used method", (1.25, 1e-16, 7, "direct_series"),
     "EvalResult(value=1.25, abs_err_estimate=1e-16, terms_used=7, method='direct_series')"),
    (kernel.BracketRoot, "root residual iterations", (0.5, -1e-15, 3),
     "BracketRoot(root=0.5, residual=-1e-15, iterations=3)"),
    (kernel.Grid, "lo hi n spacing", (0.0, 1.0, 5, "linear"),
     "Grid(lo=0.0, hi=1.0, n=5, spacing='linear')"),
    (modular.ModularIdentity, "id signature_a degrees residual_fn anchor", ("x", 0.5, ((1, 3),), abs, "anchor"),
     "ModularIdentity(id='x', signature_a=0.5, degrees=((1, 3),), "
     "residual_fn=<built-in function abs>, anchor='anchor')"),
    (verify.CheckSpec, "id anchor kind grid tolerance evaluator note",
     ("c", "a", "identity", (1.0, 2.0), 1e-9, abs, ""),
     "CheckSpec(id='c', anchor='a', kind='identity', grid=(1.0, 2.0), tolerance=1e-09, "
     "evaluator=<built-in function abs>, note='')"),
    (verify.CheckResult, "id passed max_residual argmax points elapsed_ms", ("c", True, 0.0, 1.0, 2, 0.25),
     "CheckResult(id='c', passed=True, max_residual=0.0, argmax=1.0, points=2, elapsed_ms=0.25)"),
    (verify.Report, "created_at suite results summary",
     ("2026-01-01T00:00:00+00:00", "all", (_RESULT,), {"total": 1}),
     "Report(created_at='2026-01-01T00:00:00+00:00', suite='all', results=(CheckResult(id='c', "
     "passed=False, max_residual=inf, argmax=1.0, points=2, elapsed_ms=0.25),), summary={'total': 1})"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_repr_is_unchanged(cls, names, values, text):
    assert repr(cls(*values)) == text


def test_field_names_and_order():
    for cls, names, _, _ in CASES:
        assert cls._fields == tuple(names.split())


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_keyword_construction_matches_positional(cls, names, values, text):
    rec = cls(**dict(zip(names.split(), values)))
    assert rec == cls(*values)
    assert [getattr(rec, name) for name in names.split()] == list(values)


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, values, text):
    rec = cls(*values)
    for name in names.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
def test_equal_instances_hash_equal(cls, names, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if cls is verify.Report:  # its summary is a dict, unhashable as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_defaults():
    assert kernel.Grid(0.0, 1.0, 5).spacing == "linear"
    assert kernel.Grid(lo=0.0, hi=1.0, n=5) == kernel.Grid(0.0, 1.0, 5, "linear")
    spec = verify.CheckSpec("c", "a", "identity", (1.0,), 1e-9, abs)
    assert spec.note == ""
    assert spec == verify.CheckSpec(id="c", anchor="a", kind="identity", grid=(1.0,),
                                    tolerance=1e-9, evaluator=abs, note="")


NAN = float("nan")

# each validation rule: (constructor, error class, message as the dataclasses raised it)
RULES = [
    (lambda: hyper.HyperParams(NAN, 1.0, 1.0), DomainError, "parameters must be finite, got (nan, 1.0, 1.0)"),
    (lambda: hyper.HyperParams(1.0, float("inf"), 1.0), DomainError,
     "parameters must be finite, got (1.0, inf, 1.0)"),
    (lambda: hyper.HyperParams(1.0, 1.0, -2.0), ParameterError, "c = -2.0 is a nonpositive integer"),
    (lambda: hyper.HyperParams(1.0, 1.0, 0.0), ParameterError, "c = 0.0 is a nonpositive integer"),
    (lambda: kernel.Grid(1.0, 1.0, 5), DomainError, "grid needs lo < hi, got [1.0, 1.0]"),
    (lambda: kernel.Grid(0.0, 1.0, 1), DomainError, "grid needs n >= 2"),
    (lambda: kernel.Grid(0.0, 1.0, 5, "cubic"), DomainError,
     "unknown spacing 'cubic'; use one of ('linear', 'logarithmic', 'atanh')"),
    (lambda: kernel.Grid(0.0, 1.0, 5, "logarithmic"), DomainError, "logarithmic spacing needs lo > 0"),
    (lambda: kernel.Grid(0.0, 1.0, 5, "atanh"), DomainError, "atanh spacing needs 0 < lo < hi < 1"),
    (lambda: verify.CheckSpec("c", "a", "other", (1.0,), 1e-9, abs), DomainError,
     "unknown check kind 'other'"),
    (lambda: verify.CheckSpec("c", "a", "identity", (1.0,), 0.0, abs), DomainError,
     "tolerance must be positive and finite"),
    (lambda: verify.CheckSpec("c", "a", "identity", (1.0,), NAN, abs), DomainError,
     "tolerance must be positive and finite"),
    (lambda: verify.CheckSpec("c", "a", "identity", (1.0,), float("inf"), abs), DomainError,
     "tolerance must be positive and finite"),
]


@pytest.mark.parametrize("make,error,message", RULES)
def test_validation_error_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_and_make_validate():
    grid = kernel.Grid(0.0, 1.0, 5)
    assert grid._replace(n=7) == kernel.Grid(0.0, 1.0, 7)
    with pytest.raises(DomainError, match="n >= 2"):
        grid._replace(n=1)
    with pytest.raises(ParameterError):
        hyper.HyperParams._make((1.0, 1.0, -1.0))
    spec = verify.CheckSpec("c", "a", "identity", (1.0,), 1e-9, abs)
    with pytest.raises(DomainError, match="tolerance"):
        spec._replace(tolerance=-1.0)


def test_grid_tuple_is_not_taken_for_a_point_list():
    # a Grid is a tuple now; run_check must still resize it, not list its fields
    spec = verify.CheckSpec("c", "a", "identity", kernel.Grid(0.0, 1.0, 5), 1.0, lambda x: 0.0)
    assert verify.run_check(spec).points == 5
    assert verify.run_check(spec, grid_n=9).points == 9


def test_import_loads_no_record_or_report_machinery():
    # dataclasses, csv, json and datetime cost import time that only
    # serialize and run_suite need, and then only csv, json and datetime;
    # every annotation evaluates as written, so no module needs __future__
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    code = (
        "import sys; before = set(sys.modules); import specfun, specfun.verify; "
        "print(sorted({'__future__', 'dataclasses', 'csv', 'json', 'datetime'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_library_module_imports_typing():
    pkg = os.path.dirname(specfun.__file__)
    for path in glob.glob(os.path.join(pkg, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "typing" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "typing", path
