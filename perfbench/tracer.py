"""Per-layer tracing of gkm from outside the package.

Every public function of the nine layer modules is replaced by a wrapper in
every namespace that binds it (`core.u_all`, `verify.u_all`, `sampler.density`,
the `gkm` package itself, verify's suite table, ...), so calls between
modules and within a module both pass through it.  Each call is a span with a
name, start, end and parent; a layer's self time is its spans' time minus
the time of their child spans.  Counters are kept at the same boundaries.
Spans are held in memory and written out by the caller at the end.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "chebyshev", "symfun", "orthopoly", "conjugate", "oracle", "sampler", "verify", "cli")
SUITES = ("normalization", "identities", "genfun", "orthogonality", "conjugate", "markov", "trivariate", "sampling")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _file_stats(path):
    """(data rows, bytes) of a written CSV file; rows exclude the two header lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    return max(data.count(b"\n") - 2, 0), len(data)


class Tracer:
    def __init__(self, gkm):
        self.gkm = gkm
        self.errors = gkm.errors
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.recording = True
        self._stack: list = []  # [span index or -1, child time, name id]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.paramsets: set = set()
        self._installed: list = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> None:
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    def _wrap(self, layer: str, name: str, fn):
        nid = self.name_id(name)
        observe = self._observer(name)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent, parent_nid = (stack[-1][0], stack[-1][2]) if stack else (-1, -1)
            idx = -1
            if tracer.recording:
                idx = len(tracer.span_name)
                tracer.span_name.append(nid)
                tracer.span_parent.append(parent)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(layer, exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if idx >= 0:
                    tracer.span_start[idx] = t0
                    tracer.span_end[idx] = t1
                tracer.self_s[layer] += dur - frame[1]
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, kwargs, result, parent_nid)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _on_error(self, layer: str, exc: Exception) -> None:
        # an exception passes several wrappers on its way out; count it once
        if getattr(exc, "_perfbench_seen", False):
            return
        exc._perfbench_seen = True
        if layer == "core" and isinstance(exc, self.errors.DegenerateParameters):
            self.counts["core.degenerate_refusals"] += 1
        if layer == "oracle" and isinstance(exc, (self.errors.NonConvergence, self.errors.EstimatorDisagreement)):
            self.counts["oracle.nonconvergence"] += 1

    # -- counters at the boundaries ------------------------------------------

    def _observer(self, name: str):
        c = self.counts
        gkm = self.gkm
        if name in ("core.A_special", "core.A_closed", "oracle.normalizer_numeric"):
            def obs(args, kwargs, result, parent):
                p = _arg(args, kwargs, 0, "p")
                if isinstance(p, gkm.core.ParamSet):
                    c["core.A_evals"] += 1
                    self.paramsets.add(p)
            return obs
        if name == "core.density":
            return lambda args, kwargs, r, parent: c.update({"core.density.points": np.size(_arg(args, kwargs, 1, "x"))})
        if name == "core.density_series":
            return lambda args, kwargs, r, parent: c.update({"core.density_series.points": np.size(_arg(args, kwargs, 1, "x"))})
        if name == "core.series_truncation_order":
            series_id = self.name_id("core.density_series")

            def obs(args, kwargs, result, parent):
                if parent == series_id:
                    c["core.density_series.terms"] += result + 1
            return obs
        if name == "core.B_prefix":
            return lambda args, kwargs, r, parent: c.update({"core.B_prefix.terms": _arg(args, kwargs, 1, "K") + 1})
        if name == "chebyshev.u_all":
            return lambda args, kwargs, r, parent: c.update(
                {"chebyshev.u_all.elements": (_arg(args, kwargs, 0, "kmax") + 1) * np.size(_arg(args, kwargs, 1, "x"))}
            )
        if name.startswith("oracle."):
            def obs(args, kwargs, result, parent):
                if isinstance(result, gkm.oracle.IntegrationResult):
                    c["oracle.evals"] += result.evaluations
            return obs
        if name == "sampler.sample":
            return lambda args, kwargs, r, parent: c.update({"sampler.draws": _arg(args, kwargs, 1, "count")})
        if name == "sampler.ks_statistic":
            return lambda args, kwargs, r, parent: c.update({"sampler.ks_points": np.size(_arg(args, kwargs, 0, "samples"))})
        if name == "verify.run_verify":
            return lambda args, kwargs, r, parent: c.update({"verify.checks": len(r["checks"])})
        if name == "cli.main":
            def obs(args, kwargs, result, parent):
                argv = list(_arg(args, kwargs, 0, "argv") or ())
                if "--out" not in argv:
                    return
                out = argv[argv.index("--out") + 1]
                for path in (out, out + ".json"):
                    if os.path.exists(path):
                        rows, size = _file_stats(path)
                        if path == out:
                            c["cli.rows_written"] += rows
                        c["cli.bytes_written"] += size
            return obs
        return None

    # -- installation ----------------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of the layer modules; returns how many."""
        import importlib

        wrapped = {}
        modules = {layer: importlib.import_module(f"gkm.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj))
        namespaces = [vars(self.gkm)] + [vars(m) for m in modules.values()] + [modules["verify"]._SUITE_FN]
        for ns in namespaces:
            for key, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[key] = hit[1]
                    self._installed.append((ns, key, obj))
        return len(wrapped)

    def uninstall(self) -> None:
        for ns, key, obj in self._installed:
            ns[key] = obj
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int, ref_s: float) -> dict:
        """Per-round per-layer metrics; times in ref, counts as integers."""

        def per_round(total):
            if isinstance(total, int):
                if total % rounds:
                    raise ArithmeticError(f"count {total} is not the same in each of {rounds} rounds")
                return total // rounds
            return total / rounds

        def t(seconds):
            return per_round(seconds) / ref_s

        calls = self.calls
        layer_calls = Counter()
        for name, n in calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        c = self.counts
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("oracle.self_ref", t(self.self_s["oracle"]), "ref")
        put("oracle.calls", per_round(layer_calls["oracle"]), "count")
        put("oracle.evals", per_round(c["oracle.evals"]), "count")
        put("oracle.nonconvergence", per_round(c["oracle.nonconvergence"]), "count")
        for s in SUITES:
            put(f"verify.suite.{s}.ref", t(self.total_s[f"verify.suite_{s}"]), "ref")
        put("verify.checks", per_round(c["verify.checks"]), "count")
        put("core.self_ref", t(self.self_s["core"]), "ref")
        for fn in ("density", "normalizer", "A_special", "A_closed", "B_coeff", "B_prefix", "moment"):
            put(f"core.{fn}.calls", per_round(calls[f"core.{fn}"]), "count")
        put("core.density.points", per_round(c["core.density.points"]), "count")
        put("core.B_prefix.terms", per_round(c["core.B_prefix.terms"]), "count")
        put("core.degenerate_refusals", per_round(c["core.degenerate_refusals"]), "count")
        a_evals = per_round(c["core.A_evals"])
        put("core.A_evals_per_paramset", a_evals / len(self.paramsets) if self.paramsets else 0.0, "ratio")
        put("core.density_series.points", per_round(c["core.density_series.points"]), "count")
        put("core.density_series.terms", per_round(c["core.density_series.terms"]), "count")
        put("chebyshev.self_ref", t(self.self_s["chebyshev"]), "ref")
        put("chebyshev.u_all.calls", per_round(calls["chebyshev.u_all"]), "count")
        elements = per_round(c["chebyshev.u_all.elements"])
        put("chebyshev.u_all.elements", elements, "count")
        put("chebyshev.u_all.bytes_computed", 8 * elements, "bytes")
        put("symfun.self_ref", t(self.self_s["symfun"]), "ref")
        put("symfun.calls", per_round(layer_calls["symfun"]), "count")
        put("orthopoly.self_ref", t(self.self_s["orthopoly"]), "ref")
        put("orthopoly.P_coeffs.calls", per_round(calls["orthopoly.P_coeffs"]), "count")
        put("orthopoly.gram.calls", per_round(calls["orthopoly.gram"]), "count")
        put("conjugate.self_ref", t(self.self_s["conjugate"]), "ref")
        put("conjugate.calls", per_round(layer_calls["conjugate"]), "count")
        put("sampler.self_ref", t(self.self_s["sampler"]), "ref")
        put("sampler.build_cdf.calls", per_round(calls["sampler.build_cdf"]), "count")
        put("sampler.draws", per_round(c["sampler.draws"]), "count")
        put("sampler.ks_points", per_round(c["sampler.ks_points"]), "count")
        put("cli.self_ref", t(self.self_s["cli"]), "ref")
        put("cli.commands", per_round(calls["cli.main"]), "count")
        put("cli.rows_written", per_round(c["cli.rows_written"]), "count")
        put("cli.bytes_written", per_round(c["cli.bytes_written"]), "bytes")
        return m

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_name))
            ],
        }
