"""Command-line interface: scenario file in, JSON or CSV report out.

Commands:

* ``simulate``      closed-form and/or simulated disturbance trajectory
* ``requirements``  minimal (inertia, damping) requirement and its metrics
* ``allocate``      requirement allocation with Nash bargaining vs cost-only
* ``pareto``        sampled Pareto front of the allocation problem
* ``region``        feasibility sweep over the (inertia, damping) plane

Exit codes: 0 success, 2 configuration/validation error, 3 numeric-regime
error, 4 unsatisfiable or infeasible problem. Errors are emitted as one JSON
object on stderr. Output is deterministic for a given scenario: floats are
rounded to 12 significant digits and no timestamps or machine state appear.

One writer produces every report. JSON output is byte for byte what
``json.dumps(doc, indent=2)`` writes for the document with its floats
rounded, so each float is the shortest repr of its rounded value; CSV
writes floats as ``%.12g``, one ``%`` format string per row. The standard
encoder itself is not used for reports: with ``indent`` set it runs in pure
Python, one call per value, and a trajectory holds over 10^5 values.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .allocator import (
    AllocationProblem,
    ParetoPoint,
    compare_single_objective,
    pareto_front,
    vpp_profit,
)
from .errors import (
    EmptyFrontError,
    InfeasibleError,
    MissingCompensationError,
    NeverActivatesError,
    NonFiniteError,
    OverdampedError,
    UnsatisfiableError,
)
from .freq_model import VppParams, metrics, qss, response_curve, rocof_max
from .ode_oracle import simulate
from .requirements import Requirement, determine_requirement, in_feasible_region
from .scenario import Scenario, load_scenario

__all__ = ["main"]

_CONFIG_ERRORS = (ValueError, MissingCompensationError, EmptyFrontError)
_NUMERIC_ERRORS = (OverdampedError, NeverActivatesError, NonFiniteError)
_UNSAT_ERRORS = (UnsatisfiableError, InfeasibleError)


# format(x, ".12") rounds x to 12 significant digits and writes the rounded
# float as json does ("0.5", "-0.0", "1.0", "1e-05"): a decimal of at most
# 12 digits is its own shortest repr. The notation differs in two ranges,
# 1e11 <= |x| < 1e16, which repr writes positionally, and below the normal
# range (e-3xx), where fewer digits can suffice; there repr decides.
_NOT_REPR = re.compile(r"e(?:\+1[1-5]|-3\d\d)(?!\d)")


def _floats(values, sep: str) -> str:
    """Join floats rounded to 12 significant digits with ``sep``, each spelled
    as ``json`` spells the rounded value (NaN, Infinity and -Infinity too)."""
    text = sep.join(map(format, values, repeat(".12")))
    if _NOT_REPR.search(text):
        text = sep.join([repr(float(format(v, ".12"))) for v in values])
    if "n" in text:  # only "nan" and "inf" hold an "n"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json(obj, indent: str = "") -> str:
    """The bytes of ``json.dumps(obj, indent=2)`` with every float rounded to
    12 significant digits, numpy scalars and arrays taken as Python values.
    Dict keys are strings.

    A flat list of floats, which is what trajectories and fronts are made
    of, is formatted in one pass and joined once."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{json.dumps(k)}: {_json(v, inner)}" for k, v in obj.items())
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            body = _floats(obj, sep)
        else:
            body = sep.join([_json(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, (float, np.floating)):
        return _floats((obj,), "")
    if isinstance(obj, np.integer):
        obj = int(obj)
    return json.dumps(obj)


def _csv(header: list[str], cols) -> str:
    """Header line, then one line per row of the equal-length columns.

    Each column holds one type: floats are written with ``%.12g``, any
    other value as ``str()`` would write it. Rows are formatted by one
    ``%`` string each."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
    lines = [",".join(header)]
    if cols and len(cols[0]):
        row = ",".join("%.12g" if isinstance(c[0], float) else "%s" for c in cols)
        lines += map(row.__mod__, zip(*cols))
    return "\n".join(lines) + "\n"


def _point_dict(p: ParetoPoint) -> dict:
    return {
        "weights": p.weights,
        "h_s": p.allocation.h,
        "d_pu": p.allocation.d,
        "f_vpp": p.objectives.f_vpp,
        "f_ibr": p.objectives.f_ibr,
    }


def _front_csv(problem: AllocationProblem, front: list[ParetoPoint]) -> str:
    """The front's objective matrix: one row per point, f_vpp then f_ibr_1..N."""
    header = ["f_vpp"] + [f"f_ibr_{k + 1}" for k in range(problem.n)]
    return _csv(header, np.array([p.objectives.as_array() for p in front]).T)


def _required_totals(sc: Scenario) -> tuple[VppParams, dict]:
    """Totals to allocate: the scenario's explicit VPP pair if present,
    otherwise the minimal sized requirement."""
    if sc.vpp is not None:
        return sc.vpp, {
            "h_re_s": sc.vpp.h_vpp,
            "d_re_pu": sc.vpp.d_vpp,
            "source": "scenario-vpp",
        }
    req = determine_requirement(sc.grid, sc.disturbance, sc.limits)
    return VppParams(h_vpp=req.h_re, d_vpp=req.d_re), {
        "h_re_s": req.h_re,
        "d_re_pu": req.d_re,
        "source": "sizing",
        "binding_h": req.binding_h,
        "binding_d": req.binding_d,
        "nadir_monotone": req.nadir_monotone,
    }


def _allocation_problem(sc: Scenario, vpp: VppParams) -> AllocationProblem:
    if not sc.ibrs:
        raise ValueError("scenario has no 'ibrs' section; nothing to allocate")
    return AllocationProblem(
        ibrs=tuple(sc.ibrs),
        h_re=vpp.h_vpp,
        d_re=vpp.d_vpp,
        delta_p=sc.disturbance.delta_p,
        compensation=sc.compensation,
    )


def _metrics_dict(sc: Scenario, req: Requirement) -> dict:
    vpp = VppParams(h_vpp=req.h_re, d_vpp=req.d_re)
    try:
        m = metrics(sc.grid, vpp, sc.disturbance)
        return {
            "rocof_hz_per_s": m.rocof_max,
            "nadir_hz": m.nadir,
            "qss_hz": m.qss,
            "t_nadir_s": m.t_nadir,
            "t_db1_s": m.t_db1,
            "t_db2_s": m.t_db2,
        }
    except (OverdampedError, NeverActivatesError):
        # Outside the oscillatory closed form; report what is still defined,
        # with the nadir the sizing search already evaluated at this point.
        return {
            "rocof_hz_per_s": rocof_max(sc.grid, vpp, sc.disturbance),
            "nadir_hz": req.nadir_hz,
            "qss_hz": qss(sc.grid, vpp, sc.disturbance),
            "t_nadir_s": None,
            "t_db1_s": None,
            "t_db2_s": None,
        }


def cmd_simulate(sc: Scenario, args: argparse.Namespace) -> str:
    vpp, _ = _required_totals(sc)
    fmt = args.format or "csv"
    which = args.which
    need_ode = which in ("ode", "both")
    traj = simulate(sc.grid, vpp, sc.disturbance, sc.sim) if need_ode else None
    if which == "closed-form":
        n = int(round(sc.sim.t_end / sc.sim.dt))
        times = np.arange(n + 1) * sc.sim.dt
    else:
        times = traj.times
    closed = (
        response_curve(sc.grid, vpp, sc.disturbance, times)
        if which in ("closed-form", "both")
        else None
    )
    if which == "closed-form":
        header = ["t", "delta_f_hz"]
        cols = [times, closed]
    elif which == "ode":
        header = ["t", "delta_f_hz", "p_sg_pu", "p_vpp_pu"]
        cols = [traj.times, traj.delta_f, traj.p_sg, traj.p_vpp]
    else:
        header = ["t", "delta_f_closed_hz", "delta_f_ode_hz", "p_sg_pu", "p_vpp_pu"]
        cols = [times, closed, traj.delta_f, traj.p_sg, traj.p_vpp]
    if fmt == "json":
        return _json(dict(zip(header, cols))) + "\n"
    return _csv(header, cols)


def cmd_requirements(sc: Scenario, args: argparse.Namespace) -> str:
    req = determine_requirement(sc.grid, sc.disturbance, sc.limits)
    doc = {
        "requirement": {
            "h_re_s": req.h_re,
            "d_re_pu": req.d_re,
            "binding_h": req.binding_h,
            "binding_d": req.binding_d,
            "nadir_monotone": req.nadir_monotone,
        },
        "metrics": _metrics_dict(sc, req),
    }
    fmt = args.format or "json"
    if fmt == "csv":
        row = {**doc["requirement"], **doc["metrics"]}
        return _csv(list(row), [[v] for v in row.values()])
    return _json(doc) + "\n"


def cmd_allocate(sc: Scenario, args: argparse.Namespace) -> str:
    vpp, req_doc = _required_totals(sc)
    problem = _allocation_problem(sc, vpp)
    report = compare_single_objective(problem, n_samples=sc.n_samples, seed=sc.seed)
    result = report.bargain
    fmt = args.format or "json"
    if fmt == "csv":
        return _front_csv(problem, result.front)
    doc = {
        "requirement": req_doc,
        "bargain": {
            "chosen_index": result.chosen_index,
            "nash_value": result.nash_value,
            "degenerate": result.degenerate,
            "positive_count": result.positive_count,
            "positive_product": result.positive_product,
            "disagreement": {
                "f_vpp": result.disagreement.f_vpp,
                "f_ibr": result.disagreement.f_ibr,
            },
            "chosen": _point_dict(result.chosen),
            "front_size": len(result.front),
            "front": [_point_dict(p) for p in result.front],
        },
        "economic": _point_dict(report.economic),
        "comparison": {
            "bargain_effective": report.bargain_effective,
            "economic_effective": report.economic_effective,
            "nash_delta": report.nash_delta,
            "nash_delta_pct": report.nash_delta_pct,
            "f_vpp_bargain": report.f_vpp_bargain,
            "f_vpp_economic": report.f_vpp_economic,
            "f_vpp_delta": report.f_vpp_delta,
            "f_vpp_delta_pct": report.f_vpp_delta_pct,
        },
    }
    if sc.compensation is not None:
        doc["profit"] = {
            "bargain": vpp_profit(problem, result.chosen.allocation),
            "economic": vpp_profit(problem, report.economic.allocation),
        }
    return _json(doc) + "\n"


def cmd_pareto(sc: Scenario, args: argparse.Namespace) -> str:
    vpp, _ = _required_totals(sc)
    problem = _allocation_problem(sc, vpp)
    front = pareto_front(problem, n_samples=sc.n_samples, seed=sc.seed)
    fmt = args.format or "json"
    if fmt == "csv":
        return _front_csv(problem, front)
    return _json({"front_size": len(front), "points": [_point_dict(p) for p in front]}) + "\n"


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        nh, nd = int(a), int(b)
    except ValueError as exc:
        raise ValueError(f"resolution must look like '25x25', got {text!r}") from exc
    if nh < 1 or nd < 1:
        raise ValueError("resolution counts must be at least 1")
    return nh, nd


def cmd_region(sc: Scenario, args: argparse.Namespace) -> str:
    nh, nd = _parse_resolution(args.resolution)
    h_grid = np.linspace(0.0, sc.limits.h_vpp_max, nh)
    d_grid = np.linspace(0.0, sc.limits.d_vpp_max, nd)
    cells = [(float(h), float(d)) for h in h_grid for d in d_grid]
    if args.include_required:
        req = determine_requirement(sc.grid, sc.disturbance, sc.limits)
        cells.append((req.h_re, req.d_re))
    points = []
    for h, d in cells:
        ok, violated = in_feasible_region(
            sc.grid, sc.disturbance, sc.limits, VppParams(h_vpp=h, d_vpp=d)
        )
        points.append((h, d, ok, violated))
    fmt = args.format or "csv"
    if fmt == "json":
        doc = {
            "points": [
                {"h_vpp_s": h, "d_vpp_pu": d, "feasible": ok, "violated": violated}
                for h, d, ok, violated in points
            ]
        }
        return _json(doc) + "\n"
    hs, ds, oks, violated = zip(*points)
    cols = [hs, ds, [int(ok) for ok in oks], [";".join(v) for v in violated]]
    return _csv(["h_vpp_s", "d_vpp_pu", "feasible", "violated"], cols)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vppfreq",
        description="Frequency-regulation sizing and allocation for virtual power plants",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    common.add_argument("--out", help="write output here instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="disturbance trajectory")
    p.add_argument(
        "--which",
        choices=["closed-form", "ode", "both"],
        default="both",
        help="closed-form curve, simulated trajectory, or both aligned",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("requirements", parents=[common], help="minimal sizing")
    p.set_defaults(func=cmd_requirements)

    p = sub.add_parser("allocate", parents=[common], help="bargained allocation")
    p.add_argument("--samples", type=int, help="override sampling.n_samples")
    p.add_argument("--seed", type=int, help="override sampling.seed")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("pareto", parents=[common], help="sampled Pareto front")
    p.add_argument("--samples", type=int, help="override sampling.n_samples")
    p.add_argument("--seed", type=int, help="override sampling.seed")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("region", parents=[common], help="feasibility sweep")
    p.add_argument("--resolution", default="25x25", help="grid as 'NHxND' (default 25x25)")
    p.add_argument(
        "--include-required",
        action="store_true",
        help="append the minimal-requirement point to the sweep",
    )
    p.set_defaults(func=cmd_region)
    return parser


def _emit_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(doc) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        if getattr(args, "samples", None) is not None:
            if args.samples < 1:
                raise ValueError("--samples must be at least 1")
            sc.n_samples = args.samples
        if getattr(args, "seed", None) is not None:
            sc.seed = args.seed
        text = args.func(sc, args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except _CONFIG_ERRORS as exc:
        _emit_error(exc)
        return 2
    except _UNSAT_ERRORS as exc:
        _emit_error(exc)
        return 4
    except _NUMERIC_ERRORS as exc:
        _emit_error(exc)
        return 3
    except OSError as exc:
        _emit_error(exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
