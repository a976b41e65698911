"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once as the benchmark runner calls it, which reports
every metric, and once with one wrapped library function's output scaled
by 1 + 1e-6, which the correctness gate must catch.  The known-defect
stratum ``f21.near_integer`` is excused only while its error stays in
the limit ``BASELINE.json`` records, so a doubled or a NaN output of it
must fail the gate too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = "1"
# a wrapped function whose perturbation each workload's answers expose
PERTURB = {
    "registry": "elliptic.hyp2f1",
    "inverse": "elliptic.mu_a_inverse",
    "pointwise": "gamma.gamma",
}


def _run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, *extra],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    report, result = _run(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {}
    for line in report:
        if not line.startswith("#"):
            w, name, value, unit = line.split()
            assert w == workload
            printed[name] = (float(value), unit)
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert printed[name][1] == unit, name
    for name, unit in run.END_TO_END:
        assert printed[name][0] > 0.0, name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END + run.PER_LAYER)
    if workload == "pointwise":
        assert printed["kernel.invert_monotone.calls"][0] == 0.0
    if workload == "inverse":
        assert 7 <= printed["kernel.invert_monotone.f_evals"][0] <= 34


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_perturbed_answer_fails_the_gate(workload):
    _, result = _run(workload, "--perturb", PERTURB[workload])
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["accuracy.failed_share"]["value"] > 0.0


@pytest.mark.parametrize("factor", ["2", "nan"])
def test_a_broken_known_defect_fails_the_gate(factor):
    _, result = _run("pointwise", "--perturb", f"f21.near_integer={factor}")
    assert not result["correct"]
    assert result["failed"] > 0
