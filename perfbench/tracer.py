"""Span tracing around the public functions of the gisieve layers.

Tracing is installed from outside the package: each traced function is
replaced, in every loaded ``gisieve.*`` module that binds it, by a wrapper
that records one span per call.  A span is (id, name, start, end, parent
id, thread id); the parent is the innermost traced call open in the same
thread, so a layer's self time is its span minus its children in that
thread.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

#: (metric prefix, module, attribute); "Class.method" wraps a method.
TARGETS = (
    ("gauss.unit_residues", "gisieve.gauss", "unit_residues"),
    ("gauss.mod_inverse", "gisieve.gauss", "mod_inverse"),
    ("gauss.ideals_up_to_norm", "gisieve.gauss", "ideals_up_to_norm"),
    ("expsums.f_sum_values", "gisieve.expsums", "f_sum_values"),
    ("expsums.kloosterman", "gisieve.expsums", "kloosterman"),
    ("expsums.f_sum", "gisieve.expsums", "f_sum"),
    ("characters.char_group", "gisieve.characters", "char_group"),
    ("characters.conductor", "gisieve.characters", "DirichletChar.conductor"),
    ("characters.f_sum_hat", "gisieve.characters", "f_sum_hat"),
    ("characters.twisted_mult_residual", "gisieve.characters", "twisted_mult_residual"),
    ("characters.value_matrix", "gisieve.characters", "CharGroup.value_matrix"),
    ("archimedean.bessel_integral_weighted", "gisieve.archimedean", "bessel_integral_weighted"),
    ("archimedean.bessel_integral_deriv", "gisieve.archimedean", "bessel_integral_deriv"),
    ("archimedean.bessel_integral_spectral", "gisieve.archimedean", "bessel_integral_spectral"),
    ("archimedean.small_z_bound_constant", "gisieve.archimedean", "small_z_bound_constant"),
    ("spectral.kuznetsov_geometric", "gisieve.spectral", "kuznetsov_geometric"),
    ("spectral.eisenstein_sieve_sum", "gisieve.spectral", "eisenstein_sieve_sum"),
    ("spectral.hecke_zeta", "gisieve.spectral", "hecke_zeta"),
    ("sievelab.run_trials", "gisieve.sievelab", "run_trials"),
    ("sievelab.quad_form", "gisieve.sievelab", "quad_form"),
    ("sievelab.hybrid_lhs", "gisieve.sievelab", "hybrid_lhs"),
    ("cli.verify_all", "gisieve.cli", "verify_all"),
)

#: Per-layer metrics, in report order: (name, unit, better).
LAYER_METRICS = (
    ("gauss.unit_residues.calls", "count", "lower"),
    ("gauss.unit_residues.self_s", "s", "lower"),
    ("gauss.mod_inverse.calls", "count", "lower"),
    ("gauss.mod_inverse.self_s", "s", "lower"),
    ("gauss.ideals_up_to_norm.self_s", "s", "lower"),
    ("expsums.f_sum_values.calls", "count", "lower"),
    ("expsums.f_sum_values.self_s", "s", "lower"),
    ("expsums.f_sum_values.distinct_frac", "ratio", "higher"),
    ("expsums.kloosterman.calls", "count", "lower"),
    ("expsums.kloosterman.self_s", "s", "lower"),
    ("expsums.f_sum.calls", "count", "lower"),
    ("expsums.f_sum.self_s", "s", "lower"),
    ("characters.char_group.calls", "count", "lower"),
    ("characters.char_group.self_s", "s", "lower"),
    ("characters.char_group.hit_ratio", "ratio", "higher"),
    ("characters.conductor.calls", "count", "lower"),
    ("characters.conductor.self_s", "s", "lower"),
    ("characters.f_sum_hat.calls", "count", "lower"),
    ("characters.f_sum_hat.self_s", "s", "lower"),
    ("characters.twisted_mult_residual.calls", "count", "lower"),
    ("characters.twisted_mult_residual.self_s", "s", "lower"),
    ("characters.value_matrix.calls", "count", "lower"),
    ("characters.value_matrix.self_s", "s", "lower"),
    ("characters.value_matrix.bytes", "B", "lower"),
    *(
        (f"archimedean.bessel_integral_{rep}.{stat}", unit, "lower")
        for rep in ("weighted", "deriv", "spectral")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_s", "s"), ("max_s", "s"))
    ),
    ("archimedean.small_z_bound_constant.self_s", "s", "lower"),
    ("spectral.kuznetsov_geometric.calls", "count", "lower"),
    ("spectral.kuznetsov_geometric.self_s", "s", "lower"),
    ("spectral.kuznetsov_geometric.archimedean_frac", "ratio", "lower"),
    ("spectral.eisenstein_sieve_sum.calls", "count", "lower"),
    ("spectral.eisenstein_sieve_sum.self_s", "s", "lower"),
    ("spectral.hecke_zeta.calls", "count", "lower"),
    ("spectral.hecke_zeta.self_s", "s", "lower"),
    ("sievelab.run_trials.calls", "count", "lower"),
    ("sievelab.run_trials.self_s", "s", "lower"),
    ("sievelab.quad_form.self_s", "s", "lower"),
    ("sievelab.hybrid_lhs.self_s", "s", "lower"),
    ("sievelab.cpu_over_wall", "ratio", "lower"),
    ("cli.verify_all.calls", "count", "lower"),
    ("cli.verify_all.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: dict[str, object] = {}
        # per-call extras: f_sum_values moduli, value_matrix sizes, pool CPU
        self.moduli: list = []
        self.matrix_bytes = 0
        self.pool_cpu_s = 0.0

    def span(self, name: str, fn):
        """Wrap fn so each call records a span called name."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

        return traced

    def install(self) -> None:
        """Wrap every target in each gisieve module that binds it."""
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._originals[name] = getattr(cls, meth)
                setattr(cls, meth, self.span(name, self._with_extras(name, getattr(cls, meth))))
                continue
            original = getattr(module, attr)
            self._originals[name] = original
            wrapped = self.span(name, self._with_extras(name, original))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("gisieve"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _with_extras(self, name: str, fn):
        """Record the per-call data that some metrics need."""
        if name == "expsums.f_sum_values":
            def f_sum_values(c, *args, **kwargs):
                self.moduli.append(c)
                return fn(c, *args, **kwargs)
            return f_sum_values
        if name == "characters.value_matrix":
            def value_matrix(group):
                self.matrix_bytes += group.order**2 * 16
                return fn(group)
            return value_matrix
        if name == "sievelab.run_trials":
            def run_trials(*args, **kwargs):
                c0 = time.process_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.pool_cpu_s += time.process_time() - c0
            return run_trials
        return fn

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the recorded spans; the trace overhead,
        which needs an untraced run, is left for the caller."""
        durations = defaultdict(list)
        child_time = defaultdict(float)
        by_id = {}
        for sid, name, t0, t1, parent, _ in self.spans:
            durations[name].append(t1 - t0)
            by_id[sid] = (name, parent)
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            self_s[name] += (t1 - t0) - child_time[sid]

        # archimedean time spent under kuznetsov_geometric
        under_kuz = 0.0
        for sid, name, t0, t1, parent, _ in self.spans:
            if not name.startswith("archimedean."):
                continue
            while parent >= 0:
                pname, parent = by_id[parent]
                if pname == "spectral.kuznetsov_geometric":
                    under_kuz += t1 - t0
                    break
        kuz_total = sum(durations["spectral.kuznetsov_geometric"])

        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS[:-1]:
            fn_name, _, stat = metric.rpartition(".")
            calls = durations.get(fn_name, [])
            if stat == "calls":
                out[metric] = len(calls)
            elif stat == "self_s":
                out[metric] = self_s.get(fn_name, 0.0)
            elif stat == "p50_s":
                out[metric] = statistics.median(calls) if calls else 0.0
            elif stat == "max_s":
                out[metric] = max(calls, default=0.0)
        n_fv = len(durations["expsums.f_sum_values"])
        out["expsums.f_sum_values.distinct_frac"] = (
            len(set(self.moduli)) / n_fv if n_fv else 0.0
        )
        char_group = self._originals.get("characters.char_group")
        info = char_group.cache_info() if char_group else None
        looked_up = info.hits + info.misses if info else 0
        out["characters.char_group.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out["characters.value_matrix.bytes"] = self.matrix_bytes
        out["spectral.kuznetsov_geometric.archimedean_frac"] = (
            under_kuz / kuz_total if kuz_total else 0.0
        )
        pool_wall = sum(durations["sievelab.run_trials"])
        out["sievelab.cpu_over_wall"] = self.pool_cpu_s / pool_wall if pool_wall else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: one [id, name, start, end, parent, thread] each."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "thread"],
                 "spans": sorted(self.spans)},
                fh,
            )

