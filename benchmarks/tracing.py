"""Spans recorded from outside the package, and the per-layer figures.

The traced run replaces module globals of the package with wrappers that
record a span per call: name, start, end, parent span and request id. A
function is wrapped at the name its caller looks up: the CLI's imports for
calls the CLI makes, ``requirements.nadir`` / ``requirements.simulate`` for
calls sizing makes, and the allocator's own globals for calls inside the
allocator. A name that no longer exists is skipped and its figures read 0.

Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name); the layer is the span name's prefix.
WRAPS = (
    ("cli", "load_scenario", "scenario.load"),
    ("cli", "determine_requirement", "requirements.sizing"),
    ("cli", "in_feasible_region", "requirements.cell"),
    ("cli", "metrics", "freq_model.metrics"),
    ("cli", "response_curve", "freq_model.response_curve"),
    ("cli", "simulate", "ode_oracle.direct"),
    ("cli", "compare_single_objective", "allocator.compare"),
    ("cli", "pareto_front", "allocator.front"),
    ("requirements", "nadir", "freq_model.nadir"),
    ("requirements", "simulate", "ode_oracle.fallback"),
    ("allocator", "solve_scalarized", "allocator.solve"),
    ("allocator", "non_dominated_mask", "allocator.filter"),
    ("allocator", "nash_bargain", "allocator.bargain"),
)
LAYERS = ("scenario", "freq_model", "requirements", "ode_oracle", "allocator", "cli")
ROOT = "cli.main"

# Unit and better direction of every per-layer figure. Per-request figures
# divide by the traced requests, per-call figures by that span's calls.
METRICS = {
    "trace.requests": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_rps": ("1/s", "higher"),
    "trace.traced_rps": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.residual_ms": ("ms", "lower"),
    "trace.residual_share": ("ratio", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "cli.self_ms": ("ms", "lower"),
    "scenario.load_calls": ("1/req", "lower"),
    "scenario.load_ms": ("ms", "lower"),
    "freq_model.nadir_calls": ("1/req", "lower"),
    "freq_model.nadir_us": ("us", "lower"),
    "freq_model.overdamped_raises": ("1/req", "lower"),
    "freq_model.response_curve_ms": ("ms", "lower"),
    "requirements.sizing_calls": ("1/req", "lower"),
    "requirements.sizing_ms": ("ms", "lower"),
    "requirements.nadir_evals_per_sizing": ("count", "lower"),
    "requirements.cells": ("1/req", "lower"),
    "requirements.cell_us": ("us", "lower"),
    "requirements.fallback_sims": ("1/req", "lower"),
    "requirements.closed_form_share": ("ratio", "higher"),
    "ode_oracle.calls": ("1/req", "lower"),
    "ode_oracle.rk4_steps": ("1/req", "lower"),
    "ode_oracle.steps_per_s": ("1/s", "higher"),
    "ode_oracle.fallback_ms": ("ms", "lower"),
    "ode_oracle.direct_ms": ("ms", "lower"),
    "allocator.solve_calls": ("1/req", "lower"),
    "allocator.solve_us": ("us", "lower"),
    "allocator.filter_ms": ("ms", "lower"),
    "allocator.filter_rows_in": ("count", "lower"),
    "allocator.filter_rows_kept": ("count", "lower"),
    "allocator.front_keep_ratio": ("ratio", "lower"),
    "allocator.bargain_ms": ("ms", "lower"),
    "allocator.bargain_degenerate": ("1/req", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "cli.self_us_per_kb": ("us/KB", "lower"),
    "cli.exit_2": ("count", "lower"),
    "cli.exit_3": ("count", "lower"),
    "cli.exit_4": ("count", "lower"),
}

# Span record fields.
NAME, START, END, PARENT, REQUEST, INFO = range(6)


def _rk4_steps(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    return {"steps": int(round(cfg.t_end / cfg.dt))} if cfg is not None else None


def _filter_rows(args, kwargs, result):
    return {"rows_in": len(args[0]), "rows_kept": int(result.sum())}


def _degenerate(args, kwargs, result):
    return {"degenerate": bool(result.degenerate)}


INFO_OF = {
    "ode_oracle.direct": _rk4_steps,
    "ode_oracle.fallback": _rk4_steps,
    "allocator.filter": _filter_rows,
    "allocator.bargain": _degenerate,
}


class Tracer:
    """Collects spans from wrapped functions; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def span(self, name: str, fn, info=None):
        """Wrap fn so each call records a span named name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, kwargs, result)
                return result
            except Exception as exc:
                rec[INFO] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def install(self, modules: dict) -> None:
        self.missing = []
        for mod_name, attr, name in WRAPS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, INFO_OF.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                doc = {
                    "name": rec[NAME],
                    "start": round(rec[START] - t0, 9),
                    "end": round(rec[END] - t0, 9),
                    "parent": rec[PARENT],
                    "request": rec[REQUEST],
                }
                if rec[INFO]:
                    doc.update(rec[INFO])
                fh.write(json.dumps(doc) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _under(spans: list[list], idx: int, ancestor: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


class _Index:
    """Spans grouped by name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, rec in enumerate(spans):
            self.by_name[rec[NAME]].append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.by_name[name])

    def info_sum(self, name: str, key: str):
        return sum((self.spans[i][INFO] or {}).get(key, 0) for i in self.by_name[name])


# Per-call costs: metric -> (span name, scale). A function the workload never
# calls is costed on the example probe instead (see layer_metrics).
PER_CALL = {
    "scenario.load_ms": ("scenario.load", 1e3),
    "freq_model.nadir_us": ("freq_model.nadir", 1e6),
    "freq_model.response_curve_ms": ("freq_model.response_curve", 1e3),
    "requirements.sizing_ms": ("requirements.sizing", 1e3),
    "requirements.cell_us": ("requirements.cell", 1e6),
    "ode_oracle.fallback_ms": ("ode_oracle.fallback", 1e3),
    "ode_oracle.direct_ms": ("ode_oracle.direct", 1e3),
    "allocator.solve_us": ("allocator.solve", 1e6),
    "allocator.filter_ms": ("allocator.filter", 1e3),
    "allocator.bargain_ms": ("allocator.bargain", 1e3),
}
ODE_SPANS = ("ode_oracle.direct", "ode_oracle.fallback")


def layer_metrics(spans: list[list], requests: list[dict], wall_s: float, probe=()) -> dict:
    """Per-layer figures of one traced run.

    ``requests`` holds, per request, its exit code and output bytes;
    ``wall_s`` is the traced phase's wall time, checks included. Shares
    divide by ``wall_s``; per-request figures by the request count. Per-call
    costs divide by that function's calls; when the workload never calls
    it, they come from ``probe``, the spans of the example-scenario probe,
    so every run reports every layer's unit cost.
    """
    n_req = max(1, len(requests))
    idx, probe_idx = _Index(spans), _Index(list(probe))
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        layer_self[rec[NAME].split(".", 1)[0]] += selfs[i]

    def per_call(name, scale):
        src = idx if idx.calls(name) else probe_idx
        return scale * src.total(name) / src.calls(name) if src.calls(name) else 0.0

    def steps_per_s(src):
        time_s = sum(src.total(n) for n in ODE_SPANS)
        return sum(src.info_sum(n, "steps") for n in ODE_SPANS) / time_s if time_s > 0 else 0.0

    nadir_raised = [(spans[i][INFO] or {}).get("raised") for i in idx.by_name["freq_model.nadir"]]
    nadir_calls = len(nadir_raised)
    sizing_calls = idx.calls("requirements.sizing")
    sizing_nadirs = sum(_under(spans, i, "requirements.sizing") for i in idx.by_name["freq_model.nadir"])
    filters = idx.calls("allocator.filter")
    rows_in = idx.info_sum("allocator.filter", "rows_in")
    rows_kept = idx.info_sum("allocator.filter", "rows_kept")
    bytes_out = sum(r["bytes"] for r in requests)
    residual = wall_s - idx.total(ROOT)

    m = {
        "trace.requests": len(requests),
        "trace.spans": len(spans),
        "trace.residual_ms": 1e3 * residual / n_req,
        "trace.residual_share": residual / wall_s if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall_s if wall_s > 0 else 0.0
    m.update({name: per_call(span, scale) for name, (span, scale) in PER_CALL.items()})
    m.update(
        {
            "scenario.load_calls": idx.calls("scenario.load") / n_req,
            "freq_model.nadir_calls": nadir_calls / n_req,
            "freq_model.overdamped_raises": nadir_raised.count("OverdampedError") / n_req,
            "requirements.sizing_calls": sizing_calls / n_req,
            "requirements.nadir_evals_per_sizing": sizing_nadirs / sizing_calls if sizing_calls else 0.0,
            "requirements.cells": idx.calls("requirements.cell") / n_req,
            "requirements.fallback_sims": idx.calls("ode_oracle.fallback") / n_req,
            "requirements.closed_form_share": (
                nadir_raised.count(None) / nadir_calls if nadir_calls else 0.0
            ),
            "ode_oracle.calls": sum(idx.calls(n) for n in ODE_SPANS) / n_req,
            "ode_oracle.rk4_steps": sum(idx.info_sum(n, "steps") for n in ODE_SPANS) / n_req,
            "ode_oracle.steps_per_s": steps_per_s(idx) or steps_per_s(probe_idx),
            "allocator.solve_calls": idx.calls("allocator.solve") / n_req,
            "allocator.filter_rows_in": rows_in / filters if filters else 0.0,
            "allocator.filter_rows_kept": rows_kept / filters if filters else 0.0,
            "allocator.front_keep_ratio": rows_kept / rows_in if rows_in else 0.0,
            "allocator.bargain_degenerate": idx.info_sum("allocator.bargain", "degenerate") / n_req,
            "cli.self_ms": 1e3 * layer_self["cli"] / n_req,
            "cli.bytes_out": bytes_out / n_req,
            "cli.self_us_per_kb": 1e6 * layer_self["cli"] / (bytes_out / 1024) if bytes_out else 0.0,
        }
    )
    for code in (2, 3, 4):
        m[f"cli.exit_{code}"] = sum(r["code"] == code for r in requests)
    return m
