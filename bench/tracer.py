"""Span tracer for the traced benchmark run.

It wraps the public functions of each isocap layer from outside the
package: every module binding that holds one of the functions below is
replaced by a wrapper that records a span (name, start, end, parent,
thread) and the layer's work counts.  Spans stay in memory until the run
ends.  ``uninstall`` puts every original binding back, so untraced
commands run the package exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

# layer -> wrapped public functions; the layer name is the package module
LAYERS = {
    "sphere": ("harmonic_basis", "synthesize", "build_quadrature"),
    "domains": ("generate_family", "nearly_spherical_from_phi"),
    "stability": ("project_barycenter",),
    "capacity": ("deficit", "cap_exterior_harmonic", "cap_relative_harmonic",
                 "cap_wos", "counter_uniform"),
    "asymmetry": ("fraenkel", "symdiff_volume", "alpha", "alpha_R",
                  "fraenkel_mc", "symdiff_volume_mc"),
    "harness": ("run_sweep", "run_truncation", "write_csv", "write_json"),
}

# extra work counts: metric name -> unit; each is recorded per command
COUNTS = {
    "sphere.harmonic_basis.rows": "count",
    "capacity.cap_wos.walks": "count",
    "capacity.counter_uniform.values": "count",
    "asymmetry.fraenkel.evaluations": "count",
    "asymmetry.fraenkel_mc.evaluations": "count",
    "harness.bytes_written": "bytes",
}
RATIOS = {
    # metric -> (numerator count, denominator function's calls)
    "sphere.harmonic_basis.rows_per_call": ("sphere.harmonic_basis.rows",
                                            "sphere.harmonic_basis"),
    "asymmetry.fraenkel.evaluations_per_call": ("asymmetry.fraenkel.evaluations",
                                                "asymmetry.fraenkel"),
}
SUMMARY = {
    "trace.overhead_s": "s",   # traced minus untraced median wall time
    "trace.wall_s": "s",       # median wall time of a traced command
    "trace.self_s": "s",       # sum of all wrapped functions' self time
}


def _harmonic_rows(call, result):
    return {"sphere.harmonic_basis.rows": result.shape[0]}


def _wos_walks(call, result):
    cfg = call.arguments.get("cfg")
    if cfg is None:
        cfg = sys.modules["isocap.capacity"].WosConfig()
    return {"capacity.cap_wos.walks": cfg.num_walks}


def _uniform_values(call, result):
    return {"capacity.counter_uniform.values": result.size}


def _evaluations(metric):
    return lambda call, result: {metric: result.evaluations}


def _bytes_written(call, result):
    paths = result[-1]
    return {"harness.bytes_written": sum(os.path.getsize(p) for p in paths.values() if p)}


COUNTERS = {
    "sphere.harmonic_basis": _harmonic_rows,
    "capacity.cap_wos": _wos_walks,
    "capacity.counter_uniform": _uniform_values,
    "asymmetry.fraenkel": _evaluations("asymmetry.fraenkel.evaluations"),
    "asymmetry.fraenkel_mc": _evaluations("asymmetry.fraenkel_mc.evaluations"),
    "harness.run_sweep": _bytes_written,
    "harness.run_truncation": _bytes_written,
}


def functions() -> list:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in functions():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update(COUNTS)
    units.update({name: "count/call" for name in RATIOS})
    units.update(SUMMARY)
    return units


def _find(layer: str, fn: str):
    """The function object, looked up in the layer module and then in its
    submodules.  Modules come from sys.modules because the package
    attribute ``isocap.capacity`` is the capacity() function, not the
    module."""
    prefix = f"isocap.{layer}"
    for modname in sorted(sys.modules):
        if modname == prefix or modname.startswith(prefix + "."):
            obj = getattr(sys.modules[modname], fn, None)
            if callable(obj):
                return obj
    return None


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, thread, outermost, command]
        self.counts = {}
        self.counter_errors = set()
        self.absent = []
        self.command = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread().ident
        self._bindings = []  # (module, attribute, original)

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            # a compiled function: time it, but report its counts as unavailable
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            else:
                # no open span on this thread: a pool thread's spans belong
                # to the span the main thread is waiting in
                try:
                    parent = tracer._main_stack[-1][0]
                except IndexError:
                    parent = -1
            outermost = all(open_name != name for _, open_name in stack)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = [name, start, end, parent, threading.get_ident(),
                                     outermost, tracer.command]
            if counter is not None:
                tracer._count(name, counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, counter, signature, args, kwargs, result):
        try:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            increments = counter(call, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            # the function changed shape, or has no signature to bind the
            # arguments with: report the count as unavailable
            self.counter_errors.add(name)
            return
        with self._lock:
            for key, value in increments.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        """Wrap every function at every isocap module binding that holds it."""
        self.absent = []
        for name in functions():
            layer, fn = name.split(".", 1)
            original = _find(layer, fn)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "isocap" or modname.startswith("isocap.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    def summary(self, commands: int) -> dict:
        """Per-command averages of calls, self and total time, and counts."""
        children = {}
        for span in self.spans:
            children.setdefault(span[3], []).append((span[1], span[2]))
        calls, self_s, total_s = {}, {}, {}
        for idx, (name, start, end, _, _, outermost, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            if outermost:
                total_s[name] = total_s.get(name, 0.0) + (end - start)
        out = {}
        for name in functions():
            out[f"{name}.calls"] = calls.get(name, 0) / commands
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / commands
            out[f"{name}.total_s"] = total_s.get(name, 0.0) / commands
        for name in COUNTS:
            out[name] = self.counts.get(name, 0) / commands
        for name, (count, fn) in RATIOS.items():
            n = calls.get(fn, 0)
            out[name] = self.counts.get(count, 0) / n if n else 0.0
        out["trace.self_s"] = sum(self_s.values()) / commands
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread, _, command in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread,
                                     "command": command}) + "\n")
