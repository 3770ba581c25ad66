"""Per-layer tracing of ``dualdeg`` from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records one span per call, and restores the originals on
exit.  A function imported by name into another module (``certify`` imports
``brouwer_nd_regular`` from ``degree``) is replaced there too, so calls through
either binding are seen.  Operator handles returned by ``operators.build`` and
``operators.build_finite`` get a traced ``apply_fn``, and the field returned by
``ProblemSpec.field`` gets a counting ``rhs``.  Nothing inside ``src/`` changes.

Spans stay in memory as ``(name, start, end, parent, call)`` tuples, where
``parent`` is the index of the enclosing span (-1 at the root) and ``call`` is
the id of the workload call (one ``problems.run``) that caused them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

from dualdeg import certify, degree, flows, gridfn, operators, problems, report
from dualdeg.gridfn import GridFunction
from dualdeg.operators import C1Function

TRACED_MODULES = (gridfn, flows, operators, degree, certify, problems, report)

# ``operators.apply`` only forwards to ``handle.apply_fn``, which is traced per
# handle under the ``operators.apply.<name>`` spans.
UNTRACED = {"operators.apply"}

APPLY_PREFIX = "operators.apply."

# Handle names the benchmark workloads build; each gets calls and seconds.
APPLY_NAMES = ("K", "K1", "K2", "K3", "K4", "K5", "Kgamma", "Keta", "Khat3",
               "KhatP", "Ktilde", "Kdir", "Kdir1", "Kdir2", "Kdelay",
               "Kdelay1", "Kdelay2", "K6", "K7", "K8")

DEGREE_ENGINES = ("brouwer_1d", "brouwer_2d_winding", "brouwer_nd_regular")


def _layer_metrics() -> dict[str, str]:
    """Per-layer metric names and units, in the order they are reported."""
    units: dict[str, str] = {}

    def span(name, *fields):
        units.update({f"{name}.{f}": "s" if f in ("s", "self_s") else "count"
                      for f in fields})

    for fn in ("nemytskii", "nemytskii_delay"):
        span(f"gridfn.{fn}", "calls", "self_s", "nodes")
    span("gridfn.cumulative_integral", "calls", "self_s")
    for fn in ("flow", "mu_dirichlet", "dde_flow", "eta_periodic_solve"):
        span(f"flows.{fn}", "calls", "self_s")
    units.update({"flows.rk4_steps": "count", "flows.rhs_evals": "count"})
    span("operators.apply", "calls", "s")
    for name in APPLY_NAMES:
        span(APPLY_PREFIX + name, "calls", "s")
    units["operators.apply.distinct_ratio"] = "ratio"
    for fn in ("brouwer_1d", "brouwer_nd_regular", "finite_rank_reduce",
               "fd_jacobian"):
        span(f"degree.{fn}", "calls", "self_s")
    units.update({"degree.zeros": "count", "degree.certified_ratio": "ratio"})
    span("certify.certify_homotopy", "calls", "self_s", "refinements")
    units["certify.certify_homotopy.admissible_ratio"] = "ratio"
    span("certify.find_fixed_points", "calls", "self_s", "found")
    span("certify.check_common_core", "calls", "self_s")
    span("certify.verify_duality", "calls", "s")
    span("problems.run", "calls", "s")
    span("report.canonical_json", "calls", "self_s")
    return units


LAYER_METRICS = _layer_metrics()


def _argument(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _input_bytes(x) -> bytes:
    if isinstance(x, GridFunction):
        return x.values.tobytes()
    if isinstance(x, C1Function):
        return x.values.values.tobytes() + x.deriv0.tobytes()
    return np.asarray(x, dtype=float).tobytes()


class Tracer:
    """Span recorder and work counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.call = 0
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._apply_keys: set = set()
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        """Span-recording wrapper; ``on_return`` may replace the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.call)
            return out if on_return is None else on_return(out)

        traced.__traced__ = True
        return traced

    def _hooks(self, qual: str, fn):
        """(on_call, on_return) that update the work counters for ``qual``."""
        counts = self.counts
        sig = inspect.signature(fn)
        if qual in ("gridfn.nemytskii", "gridfn.nemytskii_delay"):
            def on_call(a, k):
                counts[f"{qual}.nodes"] += _argument(sig, a, k, "x").grid.m + 1
            return on_call, None
        if qual == "flows.flow":
            def on_call(a, k):
                counts["flows.rk4_steps"] += _argument(sig, a, k, "grid").m
            return on_call, None
        if qual == "flows.mu_dirichlet":
            def on_call(a, k):
                counts["flows.rk4_steps"] += _argument(sig, a, k, "m")
            return on_call, None
        if qual == "flows.dde_flow":
            def on_call(a, k):
                h = _argument(sig, a, k, "history").grid.h
                counts["flows.rk4_steps"] += round(_argument(sig, a, k, "horizon") / h)
            return on_call, None
        if qual in ("operators.build", "operators.build_finite"):
            return None, self._trace_handle
        if qual in [f"degree.{e}" for e in DEGREE_ENGINES]:
            def on_return(res):
                counts["degree.engine_results"] += 1
                counts["degree.certified"] += bool(res.certified)
                counts["degree.zeros"] += len(res.zeros)
                return res
            return None, on_return
        if qual == "certify.certify_homotopy":
            def on_return(cert):
                counts["certify.certify_homotopy.refinements"] += cert.refinements
                counts["certify.certify_homotopy.admissible"] += bool(cert.admissible)
                return cert
            return None, on_return
        if qual == "certify.find_fixed_points":
            def on_return(found):
                counts["certify.find_fixed_points.found"] += len(found)
                return found
            return None, on_return
        return None, None

    def _trace_handle(self, handle):
        if getattr(handle.apply_fn, "__traced__", False):
            return handle  # ``build`` delegates finite names to ``build_finite``
        keys = self._apply_keys
        tag = f"{handle.name}|{sorted(handle.params.items())!r}"

        def on_call(a, k):
            digest = hashlib.blake2b(_input_bytes(a[0]), digest_size=16).digest()
            keys.add((self.call, tag, digest))

        apply_fn = self._wrap(APPLY_PREFIX + handle.name, handle.apply_fn,
                              on_call=on_call)
        return dataclasses.replace(handle, apply_fn=apply_fn)

    def _count_rhs(self, rhs):
        counts = self.counts

        def counted(*args):
            counts["flows.rhs_evals"] += 1
            return rhs(*args)

        return counted

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                qual = f"{short}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNTRACED):
                    continue
                wrappers[id(fn)] = self._wrap(qual, fn, *self._hooks(qual, fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "dualdeg" or n.startswith("dualdeg.")]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._set(ns, name, wrappers[id(value)])
        field = problems.ProblemSpec.field

        def traced_field(spec):
            fs = field(spec)
            return dataclasses.replace(fs, rhs=self._count_rhs(fs.rhs))

        self._set(problems.ProblemSpec, "field", traced_field)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its children;
        calls are synchronous, so children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["s"] += t1 - t0
            t["self_s"] += t1 - t0 - child[sid]
        return totals

    def metrics(self) -> dict[str, float]:
        """Every metric in ``LAYER_METRICS``; absent layers read 0."""
        totals = self.span_totals()
        c = self.counts
        out: dict[str, float] = {}
        for key in LAYER_METRICS:
            span, _, field = key.rpartition(".")
            if field in ("calls", "s", "self_s"):
                out[key] = totals[span][field] if span in totals else 0
            else:
                out[key] = c.get(key, 0)
        # no handle applies another traced handle, so application spans are
        # disjoint and their totals add up
        spans = [t for name, t in totals.items() if name.startswith(APPLY_PREFIX)]
        applies = sum(t["calls"] for t in spans)
        out["operators.apply.calls"] = applies
        out["operators.apply.s"] = sum(t["s"] for t in spans)
        out["operators.apply.distinct_ratio"] = (
            len(self._apply_keys) / applies if applies else 0.0)
        engines = c["degree.engine_results"]
        out["degree.certified_ratio"] = c["degree.certified"] / engines if engines else 0.0
        homotopies = totals["certify.certify_homotopy"]["calls"]
        out["certify.certify_homotopy.admissible_ratio"] = (
            c["certify.certify_homotopy.admissible"] / homotopies if homotopies else 0.0)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0 - base,
                                     "end": t1 - base, "parent": parent,
                                     "call": call}, separators=(",", ":")))
                fh.write("\n")
