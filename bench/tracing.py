"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``minkruled`` namespace that binds it (``cli.analyze_transversal`` is
``transversal.analyze``; ``verify.synthesize_surface`` is
``synthesis.synthesize_surface``) and on the classes that own methods; the
``uninstall`` method restores the originals.  Nothing under ``src/`` changes.

Each span records its id, its parent span, the job it ran in, its name and
its start and end.  A function already on the span stack (recursion) opens
no new span, so ``calls`` counts outermost calls only.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path) of each traced public function; the module is its layer.
TARGETS = (
    ("expressions", "evaluate"),
    ("expressions", "differentiate"),
    ("expressions", "parse"),
    ("numerics", "uniform_arclength_nodes"),
    ("numerics", "adaptive_simpson"),
    ("synthesis", "synthesize_surface"),
    ("synthesis", "integrate_frame"),
    ("synthesis", "SampledSurface.frames"),
    ("ruled", "striction_predicates"),
    ("ruled", "sample_frames"),
    ("ruled", "classify"),
    ("ruled", "distribution_parameter"),
    ("ruled", "striction"),
    ("ruled", "sampled_ruled_invariants"),
    ("transversal", "analyze"),
    ("transversal", "coincidence_condition"),
    ("transversal", "developability_condition"),
    ("transversal", "corollary_checks"),
    ("transversal", "to_explicit"),
    ("verify", "run_all"),
    ("verify", "run_striction_suite"),
    ("verify", "run_coincidence_suite"),
    ("verify", "run_developability_suite"),
    ("cli", "parse_config"),
    ("cli", "export_report"),
    ("cli", "export_obj"),
)
LAYERS = ("expressions", "numerics", "synthesis", "ruled", "transversal", "verify", "cli")
VERDICTS = ("pass", "fail", "skip", "error")


class Tracer:
    """Collects spans and per-function work counts for one traced run."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, job_id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.synthesis_keys = set()
        self.job_id = None
        self._stack = []
        self._active = set()
        self._next_id = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, observe):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]  # span id, seconds spent in child spans
            parent = stack[-1][0] if stack else None
            tracer._active.add(name)
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._active.discard(name)
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((frame[0], parent, tracer.job_id, name, start, end))
                if observe is not None:
                    observe(tracer, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target in every ``minkruled`` namespace that binds it."""
        import minkruled  # noqa: F401  (the package must be importable)

        modules = [m for n, m in list(sys.modules.items()) if n == "minkruled" or n.startswith("minkruled.")]
        for module_name, path in TARGETS:
            owner = sys.modules[f"minkruled.{module_name}"]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            wrapper = self._wrap(original, name, _OBSERVERS.get(name))
            if owner_path:  # a method: rebinding the class attribute covers every caller
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, namespace, key, original, wrapper):
        setattr(namespace, key, wrapper)
        self._restore.append((namespace, key, original))

    def uninstall(self):
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_seconds(self, job_id) -> float:
        """Summed self time of the spans of one job."""
        spans = [span for span in self.spans if span[2] == job_id]
        children = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            children[parent] += end - start
        return sum((end - start) - children[span_id] for span_id, _, _, _, start, end in spans)

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per function, plus work counts."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            layer_self[module_name] += self.self_s[name]
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = (seconds, "s")
        c = self.counts
        out["expressions.evaluate.points"] = (c["expressions.evaluate.points"], "count")
        out["numerics.uniform_arclength_nodes.nodes"] = (c["numerics.uniform_arclength_nodes.nodes"], "count")
        out["synthesis.SampledSurface.frames.rows"] = (c["synthesis.SampledSurface.frames.rows"], "count")
        out["ruled.striction_predicates.frames"] = (c["ruled.striction_predicates.frames"], "count")
        out["cli.export_report.bytes"] = (c["cli.export_report.bytes"], "B")
        out["cli.export_obj.bytes"] = (c["cli.export_obj.bytes"], "B")
        steps = c["synthesis.rk4_steps"]
        synth_self = self.self_s["synthesis.synthesize_surface"] + self.self_s["synthesis.integrate_frame"]
        out["synthesis.rk4_steps"] = (steps, "count")
        out["synthesis.rk4_steps_per_s"] = (steps / synth_self if synth_self > 0 else 0.0, "1/s")
        synth_calls = self.calls["synthesis.synthesize_surface"] + self.calls["synthesis.integrate_frame"]
        out["synthesis.unique_frac"] = (
            len(self.synthesis_keys) / synth_calls if synth_calls else 0.0, "frac"
        )
        out["verify.cases"] = (c["verify.cases"], "count")
        for verdict in VERDICTS:
            out[f"verify.verdict.{verdict}"] = (c[f"verify.verdict.{verdict}"], "count")
        return out

    def spans_json(self) -> list:
        return [list(span) for span in self.spans]


# -- work counters, read from arguments and results after a span closes -------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _synthesis_key(data) -> tuple:
    from minkruled.expressions import to_string

    frame = tuple(float(x) for v in data.initial_frame for x in v)
    return (
        to_string(data.k1), to_string(data.k2), to_string(data.theta),
        data.epsilon, tuple(data.s_range), data.step, frame,
    )


def _observe_synthesis(tracer, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    tracer.counts["synthesis.rk4_steps"] += data.n_steps
    tracer.synthesis_keys.add(_synthesis_key(data))


def _observe_suite(tracer, args, kwargs, result):
    if result is None:
        return
    for case in result.cases:
        tracer.counts["verify.cases"] += 1
        tracer.counts[f"verify.verdict.{case.verdict}"] += 1


def _observe_bytes(name):
    def observe(tracer, args, kwargs, result):
        path = _arg(args, kwargs, 1, "path")
        if os.path.isfile(path):
            tracer.counts[f"{name}.bytes"] += os.path.getsize(path)

    return observe


def _observe_count(counter, index, arg_name, measure):
    def observe(tracer, args, kwargs, result):
        tracer.counts[counter] += measure(_arg(args, kwargs, index, arg_name))

    return observe


_OBSERVERS = {
    "expressions.evaluate": _observe_count("expressions.evaluate.points", 1, "s", np.size),
    "numerics.uniform_arclength_nodes": _observe_count(
        "numerics.uniform_arclength_nodes.nodes", 3, "n", int
    ),
    "synthesis.synthesize_surface": _observe_synthesis,
    "synthesis.integrate_frame": _observe_synthesis,
    "synthesis.SampledSurface.frames": _observe_count(
        "synthesis.SampledSurface.frames.rows", 0, "self", len
    ),
    "ruled.striction_predicates": _observe_count(
        "ruled.striction_predicates.frames", 0, "frames", lambda frames: len(list(frames))
    ),
    "verify.run_striction_suite": _observe_suite,
    "verify.run_coincidence_suite": _observe_suite,
    "verify.run_developability_suite": _observe_suite,
    "cli.export_report": _observe_bytes("cli.export_report"),
    "cli.export_obj": _observe_bytes("cli.export_obj"),
}
