"""One benchmark worker process: set up, run the timed loops, report.

Started by ``run.py`` as ``python3 worker.py '<json config>'``; prints
one JSON object on stdout.  Set-up is measured from the moment the
parent started this process (CLOCK_MONOTONIC, shared by all processes)
to the first timed op.  The worker runs its stream untraced, then
continues it traced.  Op and span times are reported at the reference
speed (see ``clock.py``).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

import inputs
from clock import monotonic_ns, reference_loop_ns, speed_scale
from spans import Tracer

MODULES = ("balls", "elliptic", "gamma", "hyper", "kernel", "modular", "verify")
PERTURBATION = 1.0 + 1e-6
PLAIN_SHARE = 0.8  # of the worker's time; the traced phase gets the rest
CALIBRATE_EVERY_NS = 100_000_000
CALIBRATION_WINDOW = 4  # reference-loop samples each side of an op
# rounds of each phase kept, uniformly at random, for the mpmath check
SAMPLE_ROUNDS = {"inverse": 4, "pointwise": 40}


def _import_library(src: str) -> dict:
    sys.path.insert(0, src)
    import importlib

    specfun = importlib.import_module("specfun")
    if not os.path.abspath(specfun.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"specfun imported from {specfun.__file__}, not from {src}")
    return {name: importlib.import_module(f"specfun.{name}") for name in MODULES}


def _call_table(m: dict) -> dict:
    """label -> (callable, normalize).  Callables look the library name up
    at call time, so the tracer's wrappers are seen once installed."""
    hyper, gamma, elliptic, balls, verify = (
        m["hyper"], m["gamma"], m["elliptic"], m["balls"], m["verify"])
    params = hyper.HyperParams

    def f21(a, b, c, x):
        return hyper.f21(params(a, b, c), x)

    def f21_out(res):
        return (res.value, res.abs_err_estimate, res.terms_used, res.method)

    def report_out(rep):
        return tuple((r.id, r.passed, r.max_residual) for r in rep.results)

    table = {f"f21.{s}": (f21, f21_out) for s in inputs.F21_STRATA}
    table.update({
        "gamma": (lambda x: gamma.gamma(x), float),
        "log_gamma": (lambda x: gamma.log_gamma(x), float),
        "digamma": (lambda x: gamma.digamma(x), float),
        "trigamma": (lambda x: gamma.trigamma(x), float),
        "beta": (lambda a, b: gamma.beta(a, b), float),
        "ellip_k": (lambda r: elliptic.ellip_k(r), float),
        "ellip_e": (lambda r: elliptic.ellip_e(r), float),
        "k_a": (lambda a, r: elliptic.k_a(a, r), float),
        "mu_a": (lambda a, r: elliptic.mu_a(a, r), float),
        "ball_volume": (lambda n: balls.ball_volume(n), float),
        "phi_k_a": (lambda a, k, r: elliptic.phi_k_a(a, k, r), float),
    })
    for suite in inputs.SUITES:
        table[f"suite.{suite}"] = (lambda s=suite: verify.run_suite(s), report_out)
    return table


def _perturb(m: dict, table: dict, spec: str):
    """Scale one output by a factor, 1 + 1e-6 unless ``NAME=FACTOR`` says
    otherwise (gate self-test).  NAME is an op label such as
    ``f21.near_integer`` or a library function such as ``gamma.gamma``."""
    name, _, factor = spec.partition("=")
    factor = float(factor) if factor else PERTURBATION
    if name in table:
        fn, normalize = table[name]

        def scaled(res):
            out = normalize(res)
            return (out[0] * factor,) + out[1:] if isinstance(out, tuple) else out * factor

        table[name] = (fn, scaled)
        return
    mod_name, attr = name.rsplit(".", 1)
    mod = m[mod_name]
    original = getattr(mod, attr)
    setattr(mod, attr, lambda *a, **k: original(*a, **k) * factor)


class Reuse:
    """Counts ops whose non-argument parameters repeat an earlier op of
    this process, the only reuse a cache inside the library could see."""

    def __init__(self):
        self.seen = set()
        self.with_params = 0
        self.repeats = 0

    def see(self, kind: str, args: tuple):
        key = inputs.non_argument_params(kind, args)
        if key is None:
            return
        self.with_params += 1
        h = hash((kind, key))
        if h in self.seen:
            self.repeats += 1
        else:
            self.seen.add(h)


def run_phase(cfg: dict, table: dict, seconds: float, first_round: int,
              reuse: Reuse, tracer=None) -> dict:
    """Closed loop, one caller: the next op starts when the last ends.

    Round ``first_round + n`` of this worker's stream is the n-th op.
    Every call is checked for an exception or a non-finite value; a
    uniform random sample of the rounds (registry: the first pass, which
    every later pass must repeat exactly) is kept for the mpmath check.
    The reference loop runs between calls every CALIBRATE_EVERY_NS, and
    each op's time is scaled to the reference speed by the samples taken
    within CALIBRATION_WINDOW samples of it.
    """
    workload, seed, stream = cfg["workload"], cfg["seed"], cfg["stream"]
    registry = workload == "registry"
    size = SAMPLE_ROUNDS.get(workload, 0)
    picker = random.Random(f"sample/{seed}/{stream}/{first_round}")
    outputs, sample = {}, []
    op_ns, op_cal, call_ns = [], [], {}
    mismatches = bad = 0
    errors = []
    clock = time.perf_counter_ns
    cals = [reference_loop_ns()]
    last_cal = clock()
    deadline = last_cal + int(seconds * 1e9)
    n = 0
    while n == 0 or clock() < deadline:
        ops = inputs.round_ops(workload, seed, stream, first_round + n)
        total = 0
        outs = []
        op_cal.append(len(cals))
        for label, args in ops:
            if clock() - last_cal >= CALIBRATE_EVERY_NS:
                cals.append(reference_loop_ns())
                last_cal = clock()
            fn, normalize = table[label]
            try:
                if tracer is None:
                    t0 = clock()
                    out = fn(*args)
                    dt = clock() - t0
                else:
                    out = tracer.run_op(label, fn, *args)
                    dt = tracer.last_ns
                out = normalize(out)
            except Exception as exc:  # a failed op is counted, not fatal
                dt = tracer.last_ns if tracer is not None else clock() - t0
                out = {"error": f"{type(exc).__name__}: {exc}"}
            if isinstance(out, dict) or not (
                    registry or math.isfinite(out[0] if isinstance(out, tuple) else out)):
                bad += 1
                if len(errors) < 5:
                    errors.append([label, list(args), out])
            total += dt
            acc = call_ns.setdefault(label, [0, []])
            acc[0] += 1
            acc[1].append((n, dt))
            outs.append(out)
            reuse.see(label, args)
        if registry:
            for (label, _), out in zip(ops, outs):
                first = outputs.setdefault(label, out)
                if first is not out and repr(first) != repr(out):
                    mismatches += 1
        elif len(sample) < size:
            sample.append([first_round + n, outs])
        else:
            j = picker.randrange(n + 1)
            if j < size:
                sample[j] = [first_round + n, outs]
        op_ns.append(total)
        n += 1
    w = CALIBRATION_WINDOW
    scales = [speed_scale(cals[max(0, c - w):c + w]) for c in op_cal]
    for acc in call_ns.values():
        acc[1] = sum(dt * scales[k] for k, dt in acc[1])
    return {
        "ops": n, "op_ns": [t * s for t, s in zip(op_ns, scales)], "call_ns": call_ns,
        "outputs": outputs, "sample": sample, "mismatches": mismatches,
        "bad": bad, "errors": errors, "calibration_ns": cals,
        "trace": _scaled(tracer.summary(), speed_scale(cals)) if tracer is not None else None,
    }


def _scaled(summary: dict, scale: float) -> dict:
    """Span times of a traced phase, taken at the reference speed."""
    for table in (summary["totals"], summary["op_ns"]):
        for vals in table.values():
            vals[1] *= scale
            vals[2] *= scale
    summary["inverse_top"][1] *= scale
    return summary


def main(cfg: dict) -> dict:
    t_import = monotonic_ns()
    modules = _import_library(cfg["src"])
    import_ns = monotonic_ns() - t_import
    table = _call_table(modules)
    if cfg.get("perturb"):
        _perturb(modules, table, cfg["perturb"])
    setup_ns = monotonic_ns() - cfg["spawn_ns"]
    result = {"setup_s": setup_ns / 1e9, "import_ms": import_ns / 1e6}
    if cfg["seconds"] <= 0:
        return result
    reuse = Reuse()
    plain = run_phase(cfg, table, cfg["seconds"] * PLAIN_SHARE, 0, reuse)
    if cfg["workload"] == "registry":
        result["tolerances"] = {s.id: s.tolerance for s in modules["verify"].build_checks()}
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = run_phase(cfg, table, cfg["seconds"] * (1.0 - PLAIN_SHARE), plain["ops"],
                           reuse, tracer)
    finally:
        tracer.uninstall()
    result.update(plain=plain, traced=traced,
                  reuse=[reuse.with_params, reuse.repeats])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
