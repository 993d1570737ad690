"""Spans around calls into the tripop modules, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules at each
module attribute that holds it, so a call through ``cli``, ``leakage`` or
``verification`` (which import ``integrate`` by name) lands in the wrapper.
``Pulse.value`` and ``Pulse.area`` are wrapped on the class, which also
catches the bound method ``integrate`` takes once per run.

Each span records (id, parent, name, start_ns, end_ns, error, attrs) and is
kept in memory.  Calls in ``HOT`` are far too many for one span each (about
a million ``Pulse.value`` calls per sweep pass), so they are aggregated as a
count and total time per parent span, plus one duration per call for
percentiles.  A span's self time is its duration minus its child spans and
its hot calls; a layer's self time is the sum over the layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("pulses", "dressed", "conditions", "propagate", "leakage", "verification", "cli")

HOT = frozenset({
    "pulses.Pulse.value",
    "pulses.Pulse.area",
    "conditions.condition_from_odd_pair",
    "conditions.classify_cases",
    "dressed.cubic_coefficients",
})


def _integrate_attrs(args, result):
    config, pulse, t_end = args["config"], args["pulse"], args["t_end"]
    steps = max(1, math.ceil(t_end / config.resolve_dt(pulse, t_end) - 1e-12))
    return {"steps": steps, "norm_drift": None if result is None else float(result.norm_drift)}


def _actions_attrs(args, result):
    return {"actions": int(getattr(args["actions"], "size", 1))}


# Span attributes taken from a call's inputs and result, for the counts that
# the layer metrics need.  Called after the span closes, outside its timing.
OBSERVERS = {
    "propagate.integrate": _integrate_attrs,
    "dressed.populations_general_array": _actions_attrs,
    "conditions.populations_closed_form_array": _actions_attrs,
    "conditions.enumerate_conditions": lambda args, result: {"rows": 0 if result is None else len(result)},
    "verification.check_condition": lambda args, result: {"passed": result is not None and result.passed},
}


class Tracer:
    """In-memory spans for one traced pass; not thread-safe (the benchmark is single-threaded)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: dict[str, dict] = {}
        self._stack = [0]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one workload stage."""
        sid, parent, start = self._open()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, parent, name, start, error, None)

    def _open(self):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid, parent, name, start, error, attrs):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, error, attrs))

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._open()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                attrs = None
                if observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = observe(bound.arguments, result)
                tracer.spans.append((sid, parent, name, start, end, error, attrs))

        return wrapper

    def _hot_wrapper(self, name, fn):
        entry = {"durations": array("q"), "by_parent": {}, "errors": 0}
        self.hot[name] = entry
        durations, by_parent, stack = entry["durations"], entry["by_parent"], self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                entry["errors"] += 1
                raise
            finally:
                d = clock() - start
                durations.append(d)
                acc = by_parent.get(stack[-1])
                if acc is None:
                    by_parent[stack[-1]] = [1, d]
                else:
                    acc[0] += 1
                    acc[1] += d

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever a tripop module holds it."""
        modules = [importlib.import_module(f"tripop.{layer}") for layer in LAYERS]
        holders = [m for n, m in sorted(sys.modules.items()) if n == "tripop" or n.startswith("tripop.")]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._hot_wrapper(name, fn) if name in HOT else self._span_wrapper(name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, fn))
        pulse_cls = importlib.import_module("tripop.pulses").Pulse
        for method in ("value", "area"):
            fn = pulse_cls.__dict__[method]
            setattr(pulse_cls, method, self._hot_wrapper(f"pulses.Pulse.{method}", fn))
            self._undo.append((pulse_cls, method, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def write(self, path, header: dict) -> None:
        """Spans and hot-call aggregates as one JSON document."""
        payload = {
            **header,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "error", "attrs"],
            "spans": self.spans,
            "hot": {
                name: {
                    "calls": len(e["durations"]), "errors": e["errors"],
                    "by_parent": {str(p): acc for p, acc in e["by_parent"].items()},
                }
                for name, e in self.hot.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


# -- per-layer metrics ---------------------------------------------------------


def percentiles(samples) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, n) of a sample.

    The tail is the highest percentile with at least ten samples beyond it;
    with ten samples or fewer there is none, and the maximum stands in.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 100.0, 0
    s = sorted(samples)
    median = s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])
    if n <= 10:
        return median, s[-1], 100.0, n
    return median, s[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass: ({name: (value, unit)}, detail)."""
    child_ns: dict[int, int] = {}
    for sid, parent, name, start, end, *_ in tracer.spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    for entry in tracer.hot.values():
        for parent, (_, total) in entry["by_parent"].items():
            child_ns[parent] = child_ns.get(parent, 0) + total

    self_ns = {layer: 0 for layer in LAYERS}
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        sid, _, name, start, end = span[:5]
        layer = name.split(".", 1)[0]
        if layer in self_ns:
            self_ns[layer] += (end - start) - child_ns.get(sid, 0)
        by_name.setdefault(name, []).append(span)
    for name, entry in tracer.hot.items():
        self_ns[name.split(".", 1)[0]] += sum(entry["durations"])

    def spans(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s[4] - s[3] for s in spans(name)) * 1e-9

    def durations_us(name):
        return [(s[4] - s[3]) * 1e-3 for s in spans(name)]

    def attr_sum(name, key):
        return sum(s[6][key] for s in spans(name) if s[6] is not None and s[6][key] is not None)

    def ratio(num, den):
        return num / den if den else 1.0

    def hot_durations_ns(name):
        return tracer.hot[name]["durations"] if name in tracer.hot else array("q")

    detail = {}

    def pct(key, samples_us):
        p50, tail, tail_pct, n = percentiles(samples_us)
        detail[key] = {"p50_us": p50, "tail_us": tail, "tail_percentile": tail_pct, "samples": n}
        return p50, tail

    steps = attr_sum("propagate.integrate", "steps")
    drifts = [s[6]["norm_drift"] for s in spans("propagate.integrate") if s[6] and s[6]["norm_drift"] is not None]
    value_ns = hot_durations_ns("pulses.Pulse.value")
    area_ns = hot_durations_ns("pulses.Pulse.area")
    area_p50, area_tail = pct("pulses.area", [d * 1e-3 for d in area_ns])
    basis = spans("dressed.build_dressed_basis")
    basis_p50, basis_tail = pct("dressed.basis", durations_us("dressed.build_dressed_basis"))
    amp_p50, _ = pct("dressed.amp", durations_us("dressed.amplitudes_at"))
    pop_actions = attr_sum("dressed.populations_general_array", "actions")
    validate_p50, _ = pct("conditions.validate", durations_us("conditions.validate_condition"))
    closed_actions = attr_sum("conditions.populations_closed_form_array", "actions")
    checks = spans("verification.check_condition")

    metrics = {
        "propagate.runs": (len(spans("propagate.integrate")), "count"),
        "propagate.config_steps": (steps, "count"),
        "propagate.self_s": (self_ns["propagate"] * 1e-9, "s"),
        "propagate.us_per_config_step": (total_s("propagate.integrate") * 1e6 / steps if steps else 0.0, "us"),
        "propagate.norm_drift_max": (max(drifts, default=0.0), "1"),
        "pulses.value_calls": (len(value_ns), "count"),
        "pulses.value_s": (sum(value_ns) * 1e-9, "s"),
        "pulses.area_calls": (len(area_ns), "count"),
        "pulses.area_s": (sum(area_ns) * 1e-9, "s"),
        "pulses.area_us_p50": (area_p50, "us"),
        "pulses.area_us_tail": (area_tail, "us"),
        "dressed.basis_calls": (len(basis), "count"),
        "dressed.basis_ok_ratio": (ratio(sum(s[5] is None for s in basis), len(basis)), "1"),
        "dressed.basis_us_p50": (basis_p50, "us"),
        "dressed.basis_us_tail": (basis_tail, "us"),
        "dressed.pop_ns_per_action": (
            total_s("dressed.populations_general_array") * 1e9 / pop_actions if pop_actions else 0.0, "ns"),
        "dressed.amp_us_p50": (amp_p50, "us"),
        "conditions.rows": (attr_sum("conditions.enumerate_conditions", "rows"), "count"),
        "conditions.enumerate_s": (total_s("conditions.enumerate_conditions"), "s"),
        "conditions.validate_calls": (len(spans("conditions.validate_condition")), "count"),
        "conditions.validate_us_p50": (validate_p50, "us"),
        "conditions.closed_form_ns_per_action": (
            total_s("conditions.populations_closed_form_array") * 1e9 / closed_actions if closed_actions else 0.0,
            "ns"),
        "leakage.deficit_calls": (len(spans("leakage.measured_deficit")), "count"),
        "leakage.self_s": (self_ns["leakage"] * 1e-9, "s"),
        "verification.checks": (len(checks), "count"),
        "verification.pass_ratio": (ratio(sum(bool(s[6] and s[6]["passed"]) for s in checks), len(checks)), "1"),
        "verification.self_s": (self_ns["verification"] * 1e-9, "s"),
        "cli.self_s": (self_ns["cli"] * 1e-9, "s"),
    }
    detail["self_s"] = {layer: ns * 1e-9 for layer, ns in self_ns.items()}
    detail["spans"] = len(tracer.spans)
    detail["hot_calls"] = {name: len(e["durations"]) for name, e in tracer.hot.items()}
    return metrics, detail
