"""specfun benchmark: registry, inverse and pointwise workloads.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]

W is ``registry``, ``inverse``, ``pointwise`` or ``all`` (the default,
which runs each workload in turn).  ``--trace 0|1`` is accepted, as the
benchmark runner passes it, and changes nothing: every run measures
untraced, then traced, and reports every metric.

Every workload is a closed loop with one caller.  An op is one registry
pass (the five ``verify.run_suite`` calls), one inverse round (24
``elliptic.phi_k_a`` solves, one per signature and degree) or one
pointwise round (one call of each of the 16 pointwise kinds).  A round
sums calls of very different cost, so its latency has one mode and its
median is steady.  Inverse and pointwise rounds draw fresh inputs for
every op (see ``inputs.py``).

Each run starts worker processes one at a time; every worker's set-up is
measured and the median reported.  A worker runs its stream untraced for
most of its time, then continues it traced (see ``spans.py``); the
end-to-end metrics come from the untraced phase, the span metrics from
the traced one, and ``trace.overhead_share`` is the traced op time over
the untraced one, less 1.  Op and span times are taken at the reference
speed of ``clock.py``: each is scaled by how much slower or faster than
nominal a fixed pure-Python loop ran alongside it, which removes most of
the drift of a shared machine's CPU speed (``bench.calibration_ms`` is
the loop's mean time in the untraced loops, so a raw time is about the
reported one times ``bench.calibration_ms`` / 0.85).  Set-up and
cold-process times stay raw wall-clock: process start-up does not follow
the loop's speed, and scaling made them less steady.  Each op metric is
the median over the workers of that worker's figure, so a burst of noise
the loop misses spoils one worker only.  After the timed loops a series
of cold ``python -m specfun.cli`` processes runs, then the correctness
pass.  Report lines ``name value unit`` come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Correctness.  Every call is checked in the worker: one that raises or
returns a non-finite value fails.  The values of a uniform random sample
of each worker phase's rounds (``worker.SAMPLE_ROUNDS``) and of every
cold call are checked against mpmath: relative error above 1e-10 fails
(for an inverse, the relative mu residual), and a failing sampled op
counts for every op of its phase that the sample stands for.  On the
registry every check of every pass must pass, each pass must repeat the
first exactly, and the set of check ids must match ``BASELINE.json``.
``accuracy.failed_share`` is failed over attempted ops.  A known defect
listed in ``BASELINE.json`` is excused from ``failed`` (not from
``accuracy.failed_share``) only while its error stays within the limit
recorded there.  The run exits non-zero, without a result, when the
library source or mpmath is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from clock import monotonic_ns  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("registry", "inverse", "pointwise")
WORKERS = 3
SETUP_PROBES = 12
LOOP_SHARE = 0.95  # the cold CLI series gets the rest of --seconds
COLD_MIN = 5
REL_TOL = 1e-10
WORKER_GRACE_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
)

_LAYER_US = (
    "elliptic.mu_eval", "elliptic.phi_k_a", "elliptic.mu_a", "elliptic.k_a",
    "elliptic.ellip_k", "elliptic.ellip_e", "gamma.gamma", "gamma.log_gamma",
    "gamma.digamma", "gamma.trigamma", "gamma.lemma_g",
    "modular.identity_residual", "balls.ball_volume",
)
_INVERSE_PATHS = ("direct", "reflected", "asymptote")

# metrics from the traced phase
TRACED = (
    ("kernel.invert_monotone.calls", "count"),
    ("kernel.invert_monotone.iterations", "count"),
    ("kernel.invert_monotone.f_evals", "count"),
    ("kernel.invert_monotone.self_us", "us"),
    ("kernel.derivative.calls", "count"),
    ("elliptic.mu_a_inverse.us", "us"),
    ("elliptic.mu_a_inverse.asymptote_share", "share"),
    ("hyper.hyp2f1.calls", "count"),
    ("hyper.hyp2f1.self_us", "us"),
    ("gamma.calls_per_hyp2f1", "count"),
    ("modular.identity_residual.phi_calls", "count"),
) + tuple((f"{name}.us", "us") for name in _LAYER_US) + tuple(
    (f"hyper.f21.{s}.us", "us") for s in inputs.F21_STRATA
) + tuple(
    (f"verify.self_ms.{s}", "ms") for s in inputs.SUITES
) + (("trace.overhead_share", "share"),)

# metrics from the untraced phase, the cold calls and the checks
UNTRACED = tuple(
    (f"hyper.f21.{s}.{m}", u) for s in inputs.F21_STRATA
    for m, u in (("terms", "count"), ("max_rel_err", "rel"), ("err_underestimated", "share"))
) + tuple((f"verify.suite_s.{s}", "s") for s in inputs.SUITES) + (
    ("verify.worst_margin", "ratio"),
    ("cli.import_ms", "ms"),
    ("cli.cold_eval_ms", "ms"),
    ("bench.op_p90_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
    ("bench.calibration_ms", "ms"),
    ("accuracy.max_rel_err", "rel"),
    ("accuracy.failed_share", "share"),
    ("input.params_reuse_share", "share"),
) + tuple((f"input.f21_share.{s}", "share") for s in inputs.F21_STRATA) + tuple(
    (f"input.inverse_path_share.{p}", "share") for p in _INVERSE_PATHS
)

PER_LAYER = TRACED + UNTRACED


def _worker(cfg: dict) -> dict:
    """Start one worker and wait for it; the parent's clock starts set-up."""
    cfg = dict(cfg, spawn_ns=monotonic_ns())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=cfg["seconds"] + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cold_series(workload: str, seed: int, seconds: float):
    """Cold ``python -m specfun.cli`` processes, one at a time, on inputs
    of a stream of their own: (kind, args, seconds, returncode, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    budget = seconds * (1.0 - LOOP_SHARE)
    calls = []
    t_start = time.perf_counter()
    k = 0
    while len(calls) < COLD_MIN or time.perf_counter() - t_start < budget:
        if workload == "registry":
            kind, args = "suite.balls", ()
            cmd = ["verify", "--suite", "balls"]
        else:
            ops = inputs.round_ops(workload, seed, "cold", k // 16)
            kind, args = ops[k % 16]
            name = "f21" if kind.startswith("f21.") else kind
            cmd = ["eval", name, *map(repr, args)]
        k += 1
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "specfun.cli", *cmd], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        calls.append((kind, args, (time.perf_counter_ns() - t0) / 1e6,
                      proc.returncode, proc.stdout))
    return calls


def _quantile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _merge(workers: list, phase: str) -> dict:
    """Pool one phase of every worker; registry outputs must agree."""
    merged = {"ops": 0, "op_ns": [], "call_ns": {}, "outputs": {}, "samples": [],
              "mismatches": 0, "bad": 0, "errors": [], "traces": [], "calibration_ns": []}
    for stream, w in enumerate(workers):
        ph = w[phase]
        merged["ops"] += ph["ops"]
        merged["op_ns"] += ph["op_ns"]
        merged["mismatches"] += ph["mismatches"]
        merged["bad"] += ph["bad"]
        merged["errors"] += ph["errors"]
        merged["calibration_ns"] += ph["calibration_ns"]
        for label, (count, ns) in ph["call_ns"].items():
            acc = merged["call_ns"].setdefault(label, [0, 0])
            acc[0] += count
            acc[1] += ns
        for key, out in ph["outputs"].items():
            first = merged["outputs"].setdefault(key, out)
            if repr(first) != repr(out):
                merged["mismatches"] += 1
        if ph["sample"]:
            # each sampled round stands for ops / len(sample) rounds
            merged["samples"].append((stream, ph["ops"] / len(ph["sample"]), ph["sample"]))
        merged["traces"].append(ph["trace"])
    return merged


class Check:
    """Correctness bookkeeping for one run.  A record's weight is the
    number of ops it stands for."""

    def __init__(self, known_defects: dict):
        self.limits = {k: v["rel_err_times_gap_limit"] for k, v in known_defects.items()}
        self.attempted = 0
        self.failed = 0.0  # failures outside the known defects
        self.failed_all = 0.0
        self.max_rel_err = 0.0

    def ops(self, count: int):
        self.attempted += count

    def fail(self, weight: float, excused: bool = False):
        self.failed_all += weight
        if not excused:
            self.failed += weight

    def value(self, weight: float, kind: str, args: tuple, err: float):
        """Judge one value by its relative error (or mu residual)."""
        if err == err:  # NaN never raises the maximum
            self.max_rel_err = max(self.max_rel_err, err)
        if not err <= REL_TOL:
            # a known defect is excused while err * |d - m| stays in its limit
            limit = self.limits.get(kind)
            self.fail(weight, limit is not None and err * inputs.integer_gap(args) <= limit)

    def counts(self) -> tuple:
        # every weight is at least 1, so any failure rounds to at least 1
        return self.attempted, min(round(self.failed), self.attempted)


def _check_registry(plain, traced, baseline, check, metrics):
    ids, tolerances = [], plain["tolerances"]
    worst = 0.0
    for suite in inputs.SUITES:
        results = plain["outputs"].get(f"suite.{suite}", {"error": "suite not run"})
        passes = (plain["call_ns"].get(f"suite.{suite}", [0, 0])[0]
                  + traced["call_ns"].get(f"suite.{suite}", [0, 0])[0])
        if isinstance(results, dict):
            continue  # a raising suite is already counted in the phase's bad calls
        for cid, passed, max_residual in results:
            ids.append(cid)
            worst = max(worst, max_residual / tolerances[cid])
            check.ops(passes)
            if not passed:
                check.fail(passes)
    if sorted(ids) != sorted(baseline["registry_check_ids"]):
        check.fail(1)
    metrics["verify.worst_margin"] = worst
    for suite in inputs.SUITES:
        count, ns = plain["call_ns"].get(f"suite.{suite}", [1, 0])
        metrics[f"verify.suite_s.{suite}"] = ns / count / 1e9


def _judge(kind, args, value, weight, check):
    """mpmath check of one finite value; returns (error, inverse path)."""
    from reference import inverse_check, pointwise_value, relative_error

    path = None
    if kind == "phi_k_a":
        err, path = inverse_check(*args, value)
    else:
        err = relative_error(value, pointwise_value(kind, args))
    check.value(weight, kind, args, err)
    return err, path


def _check_rounds(workload, seed, phases, check, metrics):
    """Check the sampled rounds of every worker phase against mpmath."""
    from reference import pointwise_value

    paths = dict.fromkeys(_INVERSE_PATHS, 0)
    strata = {s: {"terms": [], "err": 0.0, "under": 0, "n": 0} for s in inputs.F21_STRATA}
    for phase in phases:
        for stream, weight, sample in phase["samples"]:
            for k, outs in sample:
                for (kind, args), out in zip(inputs.round_ops(workload, seed, stream, k), outs):
                    value = out[0] if isinstance(out, list) else out
                    if isinstance(out, dict) or value != value or abs(value) == float("inf"):
                        continue  # counted by the worker
                    err, path = _judge(kind, args, value, weight, check)
                    if path is not None:
                        paths[path] += 1
                    if kind.startswith("f21."):
                        st = strata[kind[4:]]
                        st["terms"].append(out[2])
                        st["err"] = max(st["err"], err)
                        st["under"] += abs(value - float(pointwise_value(kind, args))) > out[1]
                        st["n"] += 1
    for s, st in strata.items():
        metrics[f"hyper.f21.{s}.terms"] = float(statistics.median(st["terms"] or [0]))
        metrics[f"hyper.f21.{s}.max_rel_err"] = st["err"]
        metrics[f"hyper.f21.{s}.err_underestimated"] = st["under"] / max(st["n"], 1)
    if workload == "inverse":
        total = sum(paths.values()) or 1
        for p in _INVERSE_PATHS:
            metrics[f"input.inverse_path_share.{p}"] = paths[p] / total


def _check_cold(workload, calls, check):
    check.ops(len(calls))
    for kind, args, _, code, stdout in calls:
        if workload == "registry":
            if code != 0 or json.loads(stdout)["summary"]["failed"] != 0:
                check.fail(1)
            continue
        try:
            value = float(stdout.split()[0])
        except (IndexError, ValueError):
            value = float("nan")
        if code != 0 or value != value or abs(value) == float("inf"):
            check.fail(1)
        else:
            _judge(kind, args, value, 1, check)


def _traced_metrics(traces: list, ops: int, plain: dict, traced: dict) -> dict:
    totals, op_ns = {}, {}
    f_evals, iterations = [], []
    inverse_top, identity_phi = [0, 0, 0], [0, 0]
    gamma_in_2f1 = two_f_one = 0
    for t in traces:
        for name, vals in t["totals"].items():
            acc = totals.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += vals[i]
        for label, vals in t["op_ns"].items():
            acc = op_ns.setdefault(label, [0, 0, 0])
            for i in range(3):
                acc[i] += vals[i]
        f_evals += t["invert_f_evals"]
        iterations += t["invert_iterations"]
        inverse_top = [x + y for x, y in zip(inverse_top, t["inverse_top"])]
        identity_phi = [x + y for x, y in zip(identity_phi, t["identity_phi"])]
        gamma_in_2f1 += t["gamma_in_2f1"]
        two_f_one += t["two_f_one"]

    def per_call_us(name, self_time=False):
        calls, incl, self_ns = totals.get(name, [0, 0, 0])
        return (self_ns if self_time else incl) / calls / 1e3 if calls else 0.0

    m = {
        "kernel.invert_monotone.calls": totals.get("kernel.invert_monotone", [0])[0] / ops,
        "kernel.invert_monotone.iterations": float(statistics.median(iterations or [0])),
        "kernel.invert_monotone.f_evals": float(statistics.median(f_evals or [0])),
        "kernel.invert_monotone.self_us": per_call_us("kernel.invert_monotone", self_time=True),
        "kernel.derivative.calls": totals.get("kernel.derivative", [0])[0] / ops,
        "elliptic.mu_a_inverse.us": inverse_top[1] / inverse_top[0] / 1e3 if inverse_top[0] else 0.0,
        "elliptic.mu_a_inverse.asymptote_share": inverse_top[2] / inverse_top[0] if inverse_top[0] else 0.0,
        "hyper.hyp2f1.calls": totals.get("hyper.hyp2f1", [0])[0] / ops,
        "hyper.hyp2f1.self_us": per_call_us("hyper.hyp2f1", self_time=True),
        "gamma.calls_per_hyp2f1": gamma_in_2f1 / two_f_one if two_f_one else 0.0,
        "modular.identity_residual.phi_calls": identity_phi[1] / identity_phi[0] if identity_phi[0] else 0.0,
    }
    for name in _LAYER_US:
        m[f"{name}.us"] = per_call_us(name)
    for s in inputs.F21_STRATA:
        count, incl, _ = op_ns.get(f"f21.{s}", [0, 0, 0])
        m[f"hyper.f21.{s}.us"] = incl / count / 1e3 if count else 0.0
    for s in inputs.SUITES:
        count, _, self_ns = op_ns.get(f"suite.{s}", [0, 0, 0])
        m[f"verify.self_ms.{s}"] = self_ns / count / 1e6 if count else 0.0
    plain_mean = sum(plain["op_ns"]) / len(plain["op_ns"])
    traced_mean = sum(traced["op_ns"]) / len(traced["op_ns"])
    m["trace.overhead_share"] = traced_mean / plain_mean - 1.0
    return m


def run_workload(workload: str, seed: int, seconds: float, baseline: dict,
                 perturb: str = "") -> dict:
    cfg = {"workload": workload, "seed": seed, "src": str(SRC), "perturb": perturb}
    setups, imports, workers = [], [], []
    for stream in range(WORKERS):
        # set-up probes spread over the run, so no one slow spell sets them all
        for _ in range(SETUP_PROBES // WORKERS):
            probe = _worker(dict(cfg, stream=stream, seconds=0))
            setups.append(probe["setup_s"])
            imports.append(probe["import_ms"])
        w = _worker(dict(cfg, stream=stream, seconds=seconds * LOOP_SHARE / WORKERS))
        setups.append(w["setup_s"])
        imports.append(w["import_ms"])
        workers.append(w)
    cold = _cold_series(workload, seed, seconds)

    plain, traced = _merge(workers, "plain"), _merge(workers, "traced")
    check = Check(baseline["known_defects"].get(workload, {}))
    metrics = {name: 0.0 for name, _ in UNTRACED}
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["bench.calibration_ms"] = statistics.fmean(plain["calibration_ns"]) / 1e6
    for phase in (plain, traced):
        check.ops(sum(count for count, _ in phase["call_ns"].values()))
        check.fail(phase["bad"] + phase["mismatches"])
    if workload == "registry":
        plain["tolerances"] = workers[0]["tolerances"]
        _check_registry(plain, traced, baseline, check, metrics)
        for suite, out in traced["outputs"].items():
            if repr(out) != repr(plain["outputs"].get(suite)):
                check.fail(1)  # tracing must not change an answer
    else:
        _check_rounds(workload, seed, (plain, traced), check, metrics)
    _check_cold(workload, cold, check)
    attempted, failed = check.counts()
    metrics["accuracy.max_rel_err"] = check.max_rel_err
    metrics["accuracy.failed_share"] = check.failed_all / attempted

    with_params = sum(w["reuse"][0] for w in workers)
    metrics["input.params_reuse_share"] = (
        sum(w["reuse"][1] for w in workers) / with_params if with_params else 0.0)
    calls = sum(count for count, _ in plain["call_ns"].values())
    for s in inputs.F21_STRATA:
        metrics[f"input.f21_share.{s}"] = plain["call_ns"].get(f"f21.{s}", [0])[0] / calls

    # each worker's figure, then the median over workers: a burst of
    # machine noise that the reference loop misses spoils one worker only
    per_worker = [w["plain"]["op_ns"] for w in workers]
    metrics.update({
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(t) / (sum(t) / 1e9) for t in per_worker),
        "op_p50_ms": statistics.median(statistics.median(t) for t in per_worker) / 1e6,
        "bench.op_p90_ms": statistics.median(_quantile(t, 90) for t in per_worker) / 1e6,
        "bench.op_p99_ms": _quantile(plain["op_ns"], 99) / 1e6,
        "cli.cold_eval_ms": statistics.median(c[2] for c in cold),
    })
    metrics.update(_traced_metrics(traced["traces"], traced["ops"], plain, traced))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": (plain["errors"] + traced["errors"])[:5],
        "samples": {"ops": len(plain["op_ns"]), "setups": len(setups), "cold": len(cold)},
    }


def _report(workload: str, result: dict) -> dict:
    """Print every metric as a report line; return them for the result."""
    m = result["metrics"]
    print(f"# workload {workload}: {result['samples']['ops']} untraced ops, "
          f"{result['samples']['setups']} set-ups, {result['samples']['cold']} cold CLI calls; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for label, args, out in result["errors"]:
        print(f"# failed call {label}{tuple(args)}: {out}")
    for name, unit in END_TO_END + PER_LAYER:
        print(f"{workload} {name} {m[name]!r} {unit}")
    return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END + PER_LAYER}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=1, choices=(0, 1),
                        help="accepted for the benchmark runner; every run is traced")
    parser.add_argument("--perturb", default="",
                        help="NAME[=FACTOR]: scale the output of op label or library "
                             "function NAME by FACTOR, default 1+1e-6 (gate self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "specfun" / "__init__.py").is_file():
        return _fail(f"library source not found under {SRC}")
    try:
        import mpmath  # noqa: F401
    except ImportError:
        return _fail("mpmath is needed for the correctness pass")
    baseline = json.loads((HERE / "BASELINE.json").read_text())
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, baseline, args.perturb)
        metrics = _report(workload, result)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
