"""Outside-in span tracing of the specfun layers.

Each layer is timed by replacing a public function at the name its
caller binds (``elliptic.hyp2f1`` is the 2F1 that the elliptic layer
calls, ``hyper.gamma`` the gamma that 2F1 calls, and so on); nothing
under ``src/`` changes.  A span is ``(name, start_ns, end_ns, parent,
op_id)``.  Spans are kept in memory for the op in flight and folded into
per-layer totals when it ends, so memory stays bounded by one op.  A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  A function reached through several
# bindings gets one wrapper per binding and one span name.
PATCHES = (
    ("elliptic", "hyp2f1", "hyper.hyp2f1"),
    ("hyper", "f21", "hyper.f21"),
    ("hyper", "gamma", "gamma.gamma"),
    ("hyper", "digamma", "gamma.digamma"),
    ("hyper", "log_gamma", "gamma.log_gamma"),
    ("balls", "log_gamma", "gamma.log_gamma"),
    ("gamma", "gamma", "gamma.gamma"),
    ("gamma", "digamma", "gamma.digamma"),
    ("gamma", "log_gamma", "gamma.log_gamma"),
    ("gamma", "trigamma", "gamma.trigamma"),
    ("gamma", "lemma_g", "gamma.lemma_g"),
    ("balls", "ball_volume", "balls.ball_volume"),
    ("elliptic", "ellip_k", "elliptic.ellip_k"),
    ("elliptic", "ellip_e", "elliptic.ellip_e"),
    ("elliptic", "k_a", "elliptic.k_a"),
    ("elliptic", "mu_a", "elliptic.mu_a"),
    ("elliptic", "phi_k_a", "elliptic.phi_k_a"),
    ("modular", "phi_k_a", "elliptic.phi_k_a"),
    ("elliptic", "mu_a_inverse", "elliptic.mu_a_inverse"),
    ("modular", "identity_residual", "modular.identity_residual"),
    ("kernel", "derivative", "kernel.derivative"),
    ("verify", "derivative", "kernel.derivative"),
)

TWO_F_ONE = ("hyper.hyp2f1", "hyper.f21")
GAMMA_FAMILY = ("gamma.gamma", "gamma.digamma", "gamma.log_gamma", "gamma.trigamma")


class Tracer:
    """Records spans around the patched layer functions of one process."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op_id = 0
        self.op_label = ""
        self.last_ns = 0  # inclusive time of the last root span
        self._saved = []
        # folded totals: name -> [calls, inclusive ns, self ns]
        self.totals = defaultdict(lambda: [0, 0, 0])
        self.op_ns = defaultdict(lambda: [0, 0, 0])  # op label -> [ops, inclusive ns, self ns]
        self.invert_iterations = []
        self.invert_f_evals = []
        self.inverse_top = [0, 0, 0]  # top-level mu_a_inverse: calls, ns, asymptote
        self.identity_phi = [0, 0]  # identity_residual calls, phi_k_a children
        self.gamma_in_2f1 = 0  # gamma-family calls made directly by a 2F1
        self.two_f_one = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return traced

    def _counting_invert(self, original):
        """invert_monotone that traces and counts its mu evaluations."""

        def invert_monotone(f, target, *args, **kwargs):
            count = [0]
            traced_f = self.span("elliptic.mu_eval", f)

            def counted(x):
                count[0] += 1
                return traced_f(x)

            res = original(counted, target, *args, **kwargs)
            self.invert_iterations.append(res.iterations)
            self.invert_f_evals.append(count[0])
            return res

        return invert_monotone

    def install(self):
        for mod_name, attr, span_name in PATCHES:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(span_name, original))
        kernel = self.modules["kernel"]
        original = kernel.invert_monotone
        self._saved.append((kernel, "invert_monotone", original))
        kernel.invert_monotone = self.span(
            "kernel.invert_monotone", self._counting_invert(original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def run_op(self, label, fn, *args):
        """Run one library call under a root span, then fold its spans."""
        self.op_label = label
        try:
            return self.span("op", fn)(*args)
        finally:
            self.fold()
            self.op_id += 1

    def fold(self):
        spans = self.spans
        n = len(spans)
        child_ns = [0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        top_inverse = [-1] * n
        has_invert = {}
        totals = self.totals
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            if parent < 0:
                self.last_ns = dur
                t = self.op_ns[self.op_label]
                t[0] += 1
                t[1] += dur
                t[2] += dur - child_ns[i]
                continue
            t = totals[name]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child_ns[i]
            pname = spans[parent][0]
            if name in TWO_F_ONE:
                self.two_f_one += 1
            elif name in GAMMA_FAMILY and pname in TWO_F_ONE:
                self.gamma_in_2f1 += 1
            top_inverse[i] = top_inverse[parent]
            if name == "elliptic.mu_a_inverse" and top_inverse[i] < 0:
                top_inverse[i] = i
                has_invert[i] = False
                self.inverse_top[0] += 1
                self.inverse_top[1] += dur
            elif name == "kernel.invert_monotone" and top_inverse[i] >= 0:
                has_invert[top_inverse[i]] = True
            elif name == "elliptic.phi_k_a" and pname == "modular.identity_residual":
                self.identity_phi[1] += 1
            if name == "modular.identity_residual":
                self.identity_phi[0] += 1
        self.inverse_top[2] += sum(1 for v in has_invert.values() if not v)
        spans.clear()

    def summary(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "op_ns": {k: list(v) for k, v in self.op_ns.items()},
            "invert_iterations": self.invert_iterations,
            "invert_f_evals": self.invert_f_evals,
            "inverse_top": self.inverse_top,
            "identity_phi": self.identity_phi,
            "gamma_in_2f1": self.gamma_in_2f1,
            "two_f_one": self.two_f_one,
        }
