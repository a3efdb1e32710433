"""Scenario files: one JSON document describing a complete study case.

Keys carry unit suffixes (``h0_s``, ``f_db1_hz``, ...) so a scenario is
readable without the schema at hand. Unknown keys are rejected to catch
typos early; optional sections fall back to defaults. Every field is a
finite JSON number (``true`` is not a number); the IBR box bounds may be
``null`` for "unbounded". A scenario survives a parse -> serialize -> parse
round trip unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .allocator import IbrSpec
from .freq_model import Disturbance, GridParams, VppParams
from .ode_oracle import SimConfig
from .requirements import SecurityLimits

__all__ = ["Scenario", "parse_scenario", "load_scenario", "scenario_to_dict"]


@dataclass
class Scenario:
    """Everything one study needs: grid, event, limits, fleet and settings."""

    grid: GridParams
    disturbance: Disturbance
    limits: SecurityLimits
    vpp: VppParams | None = None
    ibrs: list[IbrSpec] = field(default_factory=list)
    n_samples: int = 200
    seed: int = 0
    sim: SimConfig = field(default_factory=SimConfig)
    compensation: tuple[float, float] | None = None


def _number(where: str, value: Any, *, integer: bool = False) -> Any:
    """Validate one numeric field; returns it as written (an int when integer
    is set, which accepts only integral values)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{where} must be finite, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{where} must be an integer, got {value!r}")
        return int(value)
    return value


def _section(
    data: dict,
    name: str,
    required: tuple[str, ...],
    optional: dict[str, Any],
    *,
    integer: bool = False,
) -> dict:
    """Extract one schema section, rejecting unknown or missing keys and
    non-numeric values. A field whose default is None may also be null."""
    raw = data.get(name)
    if raw is None:
        raise ValueError(f"scenario is missing the required section {name!r}")
    if not isinstance(raw, dict):
        raise ValueError(f"scenario section {name!r} must be an object")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValueError(f"section {name!r} is missing keys: {missing}")
    out = dict(optional)
    out.update(raw)
    for key, value in out.items():
        if value is None and key in optional and optional[key] is None:
            continue
        out[key] = _number(f"{name}.{key}", value, integer=integer)
    return out


def parse_scenario(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    known = {"grid", "disturbance", "limits", "vpp", "ibrs", "sampling", "sim", "compensation"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown top-level scenario keys: {sorted(unknown)}")

    g = _section(
        data,
        "grid",
        ("d0_pu", "h0_s", "r_pu", "t_sg_s", "f0_hz", "f_db1_hz", "f_db2_hz"),
        {},
    )
    grid = GridParams(
        d0=g["d0_pu"],
        h0=g["h0_s"],
        r=g["r_pu"],
        t_sg=g["t_sg_s"],
        f0=g["f0_hz"],
        f_db1=g["f_db1_hz"],
        f_db2=g["f_db2_hz"],
    )

    dd = _section(data, "disturbance", ("delta_p_pu",), {})
    disturbance = Disturbance(delta_p=dd["delta_p_pu"])
    # A deficit the load damping absorbs inside the first dead band would
    # never activate either droop channel; reject it as a configuration error.
    if disturbance.delta_p <= grid.f_db1 / grid.f0 * grid.d0:
        raise ValueError(
            "delta_p_pu is too small to drive the frequency outside the VPP dead band"
        )

    lm = _section(
        data,
        "limits",
        ("rocof_limit_hz_per_s", "nadir_limit_hz", "qss_limit_hz"),
        {"h_vpp_max_s": 50.0, "d_vpp_max_pu": 50.0},
    )
    limits = SecurityLimits(
        rocof_lim=lm["rocof_limit_hz_per_s"],
        nadir_lim=lm["nadir_limit_hz"],
        qss_lim=lm["qss_limit_hz"],
        h_vpp_max=lm["h_vpp_max_s"],
        d_vpp_max=lm["d_vpp_max_pu"],
    )

    vpp = None
    if data.get("vpp") is not None:
        v = _section(data, "vpp", ("h_vpp_s", "d_vpp_pu"), {})
        vpp = VppParams(h_vpp=v["h_vpp_s"], d_vpp=v["d_vpp_pu"])

    ibrs = []
    raw_ibrs = data.get("ibrs", [])
    if not isinstance(raw_ibrs, list):
        raise ValueError("'ibrs' must be a list")
    for i, raw in enumerate(raw_ibrs):
        try:
            u = _section(
                {"ibr": raw},
                "ibr",
                ("alpha_per_s", "beta_per_pu", "p_rated_pu"),
                {"h_min_s": 0.0, "h_max_s": None, "d_min_pu": 0.0, "d_max_pu": None},
            )
            ibrs.append(
                IbrSpec(
                    alpha=u["alpha_per_s"],
                    beta=u["beta_per_pu"],
                    p_rated=u["p_rated_pu"],
                    h_min=u["h_min_s"],
                    h_max=u["h_max_s"],
                    d_min=u["d_min_pu"],
                    d_max=u["d_max_pu"],
                )
            )
        except ValueError as exc:
            raise ValueError(f"ibrs[{i}]: {exc}") from exc

    sampling = _section(data, "sampling", (), {"n_samples": 200, "seed": 0}, integer=True) if "sampling" in data else {"n_samples": 200, "seed": 0}
    n_samples = sampling["n_samples"]
    seed = sampling["seed"]
    if n_samples < 1:
        raise ValueError("sampling.n_samples must be at least 1")

    if "sim" in data:
        sm = _section(data, "sim", (), {"dt_s": 1e-3, "t_end_s": 30.0, "t_vpp_s": 0.0})
        sim = SimConfig(dt=sm["dt_s"], t_end=sm["t_end_s"], t_vpp=sm["t_vpp_s"])
    else:
        sim = SimConfig()

    compensation = None
    if data.get("compensation") is not None:
        cp = _section(data, "compensation", ("price_h_per_s", "price_d_per_pu"), {})
        compensation = (float(cp["price_h_per_s"]), float(cp["price_d_per_pu"]))

    return Scenario(
        grid=grid,
        disturbance=disturbance,
        limits=limits,
        vpp=vpp,
        ibrs=ibrs,
        n_samples=n_samples,
        seed=seed,
        sim=sim,
        compensation=compensation,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in scenario file {path}: {exc}") from exc
    return parse_scenario(data)


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize a Scenario back to its JSON document form."""
    doc: dict[str, Any] = {
        "grid": {
            "d0_pu": sc.grid.d0,
            "h0_s": sc.grid.h0,
            "r_pu": sc.grid.r,
            "t_sg_s": sc.grid.t_sg,
            "f0_hz": sc.grid.f0,
            "f_db1_hz": sc.grid.f_db1,
            "f_db2_hz": sc.grid.f_db2,
        },
        "disturbance": {"delta_p_pu": sc.disturbance.delta_p},
        "limits": {
            "rocof_limit_hz_per_s": sc.limits.rocof_lim,
            "nadir_limit_hz": sc.limits.nadir_lim,
            "qss_limit_hz": sc.limits.qss_lim,
            "h_vpp_max_s": sc.limits.h_vpp_max,
            "d_vpp_max_pu": sc.limits.d_vpp_max,
        },
    }
    if sc.vpp is not None:
        doc["vpp"] = {"h_vpp_s": sc.vpp.h_vpp, "d_vpp_pu": sc.vpp.d_vpp}
    if sc.ibrs:
        doc["ibrs"] = [
            {
                "alpha_per_s": u.alpha,
                "beta_per_pu": u.beta,
                "p_rated_pu": u.p_rated,
                "h_min_s": u.h_min,
                "h_max_s": u.h_max,
                "d_min_pu": u.d_min,
                "d_max_pu": u.d_max,
            }
            for u in sc.ibrs
        ]
    doc["sampling"] = {"n_samples": sc.n_samples, "seed": sc.seed}
    doc["sim"] = {"dt_s": sc.sim.dt, "t_end_s": sc.sim.t_end, "t_vpp_s": sc.sim.t_vpp}
    if sc.compensation is not None:
        doc["compensation"] = {
            "price_h_per_s": sc.compensation[0],
            "price_d_per_pu": sc.compensation[1],
        }
    return doc
