"""Reference time-domain simulation of the nonlinear frequency dynamics.

Integrates the swing equation with load damping, a first-order governor with
a droop dead band, and the VPP's dead-banded droop, using a fixed-step
classical fourth-order Runge-Kutta scheme. The VPP's synthetic inertia is
folded into the swing constant (it acts on the same derivative term), while
its droop channel can optionally pass through a first-order actuation lag.

This module exists to validate the closed-form model: it shares no algebra
with it beyond the underlying differential equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .freq_model import Disturbance, GridParams, VppParams

__all__ = ["SimConfig", "Trajectory", "simulate"]


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    dt:     step size, s
    t_end:  simulation horizon, s
    t_vpp:  VPP droop actuation time constant, s (0 disables the lag)
    """

    dt: float = 1e-3
    t_end: float = 30.0
    t_vpp: float = 0.0

    def __post_init__(self) -> None:
        if not self.dt > 0.0 or not self.t_end > 0.0:
            raise ValueError("dt and t_end must be strictly positive")
        if self.t_vpp < 0.0:
            raise ValueError("t_vpp must be non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Sampled simulation output.

    times:   sample instants, s (uniform grid including t = 0)
    delta_f: frequency deviation, Hz
    p_sg:    synchronous governor power output, p.u.
    p_vpp:   VPP power output (droop plus synthetic inertia), p.u.
    """

    times: np.ndarray
    delta_f: np.ndarray
    p_sg: np.ndarray
    p_vpp: np.ndarray


def simulate(
    grid: GridParams,
    vpp: VppParams,
    dist: Disturbance,
    cfg: SimConfig | None = None,
) -> Trajectory:
    """Integrate the disturbance response from rest and sample every step.

    Raises NonFiniteError as soon as the frequency state stops being finite,
    which in practice means the step size is too large for the dynamics.
    """
    if cfg is None:
        cfg = SimConfig()
    f0 = grid.f0
    f1 = grid.f_db1 / f0
    f2 = grid.f_db2 / f0
    nf1, nf2 = -f1, -f2
    two_h = 2.0 * (grid.h0 + vpp.h_vpp)
    two_hv = 2.0 * vpp.h_vpp
    d0 = grid.d0
    d_v = vpp.d_vpp
    nd_v = -d_v
    r = grid.r
    t_sg = grid.t_sg
    t_vpp = cfg.t_vpp
    ndp = -dist.delta_p
    dt = cfg.dt
    half_dt = 0.5 * dt
    dt_6 = dt / 6.0
    lag = t_vpp > 0.0

    n = int(round(cfg.t_end / dt))
    times = np.arange(n + 1) * dt
    out_f = np.empty(n + 1)
    out_sg = np.empty(n + 1)
    out_vpp = np.empty(n + 1)
    w_f, w_sg, w_vpp = memoryview(out_f), memoryview(out_sg), memoryview(out_vpp)

    # State: frequency deviation (p.u.), governor output (p.u.) and lagged
    # VPP droop output (p.u., only moves when the lag is active). The right-
    # hand side is written out at each RK4 stage; (a, b, c) is its value at
    # the sampled state, which gives the recorded VPP power and is the first
    # stage of the next step. Operands keep the order of the plain
    # "k1 + 2 k2 + 2 k3 + k4" form, so the results are fixed bit for bit
    # (the tests compare against that form).
    df = psg = pvd = 0.0
    for i in range(n + 1):
        if i:
            y = df + half_dt * a
            s = psg + half_dt * b
            v = pvd + half_dt * c
            x1 = y - f1 if y > f1 else (y + f1 if y < nf1 else 0.0)
            x2 = y - f2 if y > f2 else (y + f2 if y < nf2 else 0.0)
            a2 = (ndp - d0 * y + (v if lag else nd_v * x1) + s) / two_h
            b2 = (-s - r * x2) / t_sg
            c2 = (-v - d_v * x1) / t_vpp if lag else 0.0

            y = df + half_dt * a2
            s = psg + half_dt * b2
            v = pvd + half_dt * c2
            x1 = y - f1 if y > f1 else (y + f1 if y < nf1 else 0.0)
            x2 = y - f2 if y > f2 else (y + f2 if y < nf2 else 0.0)
            a3 = (ndp - d0 * y + (v if lag else nd_v * x1) + s) / two_h
            b3 = (-s - r * x2) / t_sg
            c3 = (-v - d_v * x1) / t_vpp if lag else 0.0

            y = df + dt * a3
            s = psg + dt * b3
            v = pvd + dt * c3
            x1 = y - f1 if y > f1 else (y + f1 if y < nf1 else 0.0)
            x2 = y - f2 if y > f2 else (y + f2 if y < nf2 else 0.0)
            a4 = (ndp - d0 * y + (v if lag else nd_v * x1) + s) / two_h
            b4 = (-s - r * x2) / t_sg
            c4 = (-v - d_v * x1) / t_vpp if lag else 0.0

            df += dt_6 * (a + 2.0 * a2 + 2.0 * a3 + a4)
            psg += dt_6 * (b + 2.0 * b2 + 2.0 * b3 + b4)
            pvd += dt_6 * (c + 2.0 * c2 + 2.0 * c3 + c4)
            if not math.isfinite(df):
                raise NonFiniteError(
                    f"frequency state became non-finite at t = {i * dt:.6g} s; "
                    "reduce the step size"
                )
        x1 = df - f1 if df > f1 else (df + f1 if df < nf1 else 0.0)
        x2 = df - f2 if df > f2 else (df + f2 if df < nf2 else 0.0)
        droop = pvd if lag else nd_v * x1
        a = (ndp - d0 * df + droop + psg) / two_h
        b = (-psg - r * x2) / t_sg
        c = (-pvd - d_v * x1) / t_vpp if lag else 0.0
        w_f[i] = df * f0
        w_sg[i] = psg
        w_vpp[i] = droop - two_hv * a
    return Trajectory(times=times, delta_f=out_f, p_sg=out_sg, p_vpp=out_vpp)
