"""Sizing of the VPP regulation requirement against security limits.

The three security metrics separate cleanly: the quasi-steady-state deviation
depends only on damping, the peak rate of change of frequency only on inertia,
and the nadir on both. That structure gives a two-stage procedure: solve the
damping requirement in closed form from the steady-state limit, then find the
smallest inertia whose nadir meets the dip limit (the rate-of-change bound is
a closed-form floor for that search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DeadbandExceedsLimitError,
    NeverActivatesError,
    OverdampedError,
    UnsatisfiableError,
)
from .freq_model import Disturbance, GridParams, VppParams, nadir, qss, rocof_max
from .ode_oracle import SimConfig, simulate

__all__ = [
    "SecurityLimits",
    "Requirement",
    "min_damping_for_qss",
    "min_inertia_for_rocof",
    "in_feasible_region",
    "determine_requirement",
]

# Relative slack on limit comparisons. Published operating points are rounded
# to ~4 significant digits, so exact comparisons would reject pairs that are
# feasible for every practical purpose.
_RTOL = 1e-3


@dataclass(frozen=True)
class SecurityLimits:
    """Security limits and VPP capability caps.

    rocof_lim: largest admissible rate of change of frequency, Hz/s
    nadir_lim: largest admissible frequency dip, Hz
    qss_lim:   largest admissible quasi-steady-state deviation, Hz
    h_vpp_max: largest virtual inertia the VPP can provide, s
    d_vpp_max: largest virtual damping the VPP can provide, p.u.
    """

    rocof_lim: float
    nadir_lim: float
    qss_lim: float
    h_vpp_max: float = 50.0
    d_vpp_max: float = 50.0

    def __post_init__(self) -> None:
        for name in ("rocof_lim", "nadir_lim", "qss_lim", "h_vpp_max", "d_vpp_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"SecurityLimits.{name} must be strictly positive")
        if self.qss_lim > self.nadir_lim:
            raise ValueError("qss_lim cannot exceed nadir_lim")


@dataclass(frozen=True)
class Requirement:
    """Minimal VPP contribution that renders the system secure.

    h_re / d_re:  required virtual inertia (s) and damping (p.u.)
    binding_h:    which constraint fixes h_re ("nadir", "rocof" or
                  "lower-bound" when no extra inertia is needed)
    binding_d:    which constraint fixes d_re ("qss" or "lower-bound")
    nadir_hz:     nadir magnitude (Hz) at (h_re, d_re), as the search
                  evaluated it (closed form or simulation fallback)
    nadir_monotone: whether the nadir decreased monotonically with inertia
                  over the probed search interval (the bisection assumption)
    """

    h_re: float
    d_re: float
    binding_h: str
    binding_d: str
    nadir_hz: float
    nadir_monotone: bool = True


def min_damping_for_qss(
    grid: GridParams, dist: Disturbance, limits: SecurityLimits
) -> float:
    """Smallest virtual damping meeting the quasi-steady-state limit.

    Closed-form inversion of the steady-state deviation in the damping;
    clamped at zero when the grid alone already satisfies the limit.
    """
    q = limits.qss_lim / grid.f0
    f1_pu = grid.f_db1 / grid.f0
    f2_pu = grid.f_db2 / grid.f0
    if q <= f1_pu:
        raise DeadbandExceedsLimitError(
            "qss limit lies inside the VPP droop dead band; no amount of "
            "damping can reach it"
        )
    val = (dist.delta_p + grid.r * f2_pu - q * (grid.d0 + grid.r)) / (q - f1_pu)
    return max(0.0, val)


def min_inertia_for_rocof(
    grid: GridParams, dist: Disturbance, limits: SecurityLimits
) -> float:
    """Smallest virtual inertia meeting the rate-of-change limit."""
    lim_pu = limits.rocof_lim / grid.f0
    return max(0.0, dist.delta_p / (2.0 * lim_pu) - grid.h0)


def _nadir_hz(grid: GridParams, vpp: VppParams, dist: Disturbance) -> float:
    """Nadir magnitude (Hz); falls back to simulation outside the closed
    form's regime (overdamped response, disturbance inside a dead band)."""
    try:
        return nadir(grid, vpp, dist)[0]
    except OverdampedError:
        cfg = SimConfig(dt=1e-3, t_end=max(40.0, 10.0 * grid.t_sg))
        return float(np.max(np.abs(simulate(grid, vpp, dist, cfg).delta_f)))
    except NeverActivatesError:
        # Deviation never leaves the first dead band: the extreme of the
        # damping-only decay is its asymptote.
        return grid.f0 * dist.delta_p / grid.d0


def in_feasible_region(
    grid: GridParams,
    dist: Disturbance,
    limits: SecurityLimits,
    vpp: VppParams,
) -> tuple[bool, list[str]]:
    """Check one (inertia, damping) pair against all limits and caps.

    Returns (feasible, violated) where violated names each failed
    constraint: "rocof", "nadir", "qss", "h_vpp_max", "d_vpp_max".
    Limit comparisons carry a small relative slack so published rounded
    operating points evaluate as feasible.
    """
    violated = []
    if rocof_max(grid, vpp, dist) > limits.rocof_lim * (1.0 + _RTOL):
        violated.append("rocof")
    if _nadir_hz(grid, vpp, dist) > limits.nadir_lim * (1.0 + _RTOL):
        violated.append("nadir")
    if qss(grid, vpp, dist) > limits.qss_lim * (1.0 + _RTOL):
        violated.append("qss")
    if vpp.h_vpp > limits.h_vpp_max * (1.0 + _RTOL):
        violated.append("h_vpp_max")
    if vpp.d_vpp > limits.d_vpp_max * (1.0 + _RTOL):
        violated.append("d_vpp_max")
    return (not violated, violated)


def determine_requirement(
    grid: GridParams,
    dist: Disturbance,
    limits: SecurityLimits,
    *,
    bisect_tol: float = 1e-3,
) -> Requirement:
    """Two-stage minimal sizing of the VPP requirement.

    Stage 1 fixes the damping from the quasi-steady-state limit in closed
    form. Stage 2 takes the rate-of-change inertia floor and, if the nadir
    limit is still violated there, bisects the inertia up to the capability
    cap, relying on the nadir decreasing with inertia. That monotonicity is
    probed on a coarse grid first; if it fails, a fine linear scan replaces
    the bisection and the result is flagged.

    Raises UnsatisfiableError when either requirement exceeds its capability
    cap or the nadir limit is unattainable within the caps, and
    DeadbandExceedsLimitError when the qss limit sits inside the VPP dead
    band.
    """
    d_re = min_damping_for_qss(grid, dist, limits)
    if d_re > limits.d_vpp_max:
        raise UnsatisfiableError(
            f"required damping {d_re:.4f} p.u. exceeds the capability cap "
            f"{limits.d_vpp_max} p.u."
        )
    binding_d = "qss" if d_re > 0.0 else "lower-bound"

    h_lo = min_inertia_for_rocof(grid, dist, limits)
    if h_lo > limits.h_vpp_max:
        raise UnsatisfiableError(
            f"required inertia {h_lo:.4f} s exceeds the capability cap "
            f"{limits.h_vpp_max} s"
        )

    def dip(h: float) -> float:
        return _nadir_hz(grid, VppParams(h_vpp=h, d_vpp=d_re), dist)

    dip_lo = dip(h_lo)
    if dip_lo <= limits.nadir_lim:
        binding_h = "rocof" if h_lo > 0.0 else "lower-bound"
        return Requirement(
            h_re=h_lo, d_re=d_re, binding_h=binding_h, binding_d=binding_d, nadir_hz=dip_lo
        )

    h_hi = limits.h_vpp_max
    dip_hi = dip(h_hi)
    if dip_hi > limits.nadir_lim:
        raise UnsatisfiableError(
            f"nadir limit {limits.nadir_lim} Hz unattainable: "
            f"{dip_hi:.4f} Hz at the inertia cap {h_hi} s"
        )

    probe = np.linspace(h_lo, h_hi, 50)
    dips = np.array([dip(h) for h in probe])
    monotone = bool(np.all(np.diff(dips) <= 1e-9))
    if monotone:
        lo, hi = h_lo, h_hi
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            dip_mid = dip(mid)
            if dip_mid <= limits.nadir_lim:
                hi, dip_hi = mid, dip_mid
            else:
                lo = mid
        h_re, nadir_re = hi, dip_hi
    else:
        for h in np.arange(h_lo, h_hi + bisect_tol, bisect_tol):
            h_re = float(h)
            nadir_re = dip(h_re)
            if nadir_re <= limits.nadir_lim:
                break
        else:  # pragma: no cover - cap already checked above
            raise UnsatisfiableError("nadir limit unattainable within the inertia cap")
    return Requirement(
        h_re=h_re,
        d_re=d_re,
        binding_h="nadir",
        binding_d=binding_d,
        nadir_hz=nadir_re,
        nadir_monotone=monotone,
    )
