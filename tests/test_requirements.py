"""Two-stage sizing: closed-form floors, feasibility checks, bisection."""

import pytest

import vppfreq as v
import vppfreq.requirements as requirements
from conftest import make_grid
from vppfreq.requirements import _nadir_hz


def test_min_damping_closed_form(grid, dist, limits):
    d_re = v.min_damping_for_qss(grid, dist, limits)
    # Direct arithmetic on the steady-state balance in per-unit.
    q, f1, f2 = 0.35 / 50.0, 0.03 / 50.0, 0.033 / 50.0
    expected = (0.25 + 25.0 * f2 - q * (2.0 + 25.0)) / (q - f1)
    assert d_re == pytest.approx(expected, abs=1e-9)
    assert d_re == pytest.approx(12.109375, abs=1e-6)
    # Self-consistency: that damping meets the limit exactly.
    assert v.qss(grid, v.VppParams(0.0, d_re), dist) == pytest.approx(0.35, abs=1e-9)


def test_min_damping_clamped_at_zero(grid, dist):
    loose = v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.6, qss_lim=0.55)
    assert v.min_damping_for_qss(grid, dist, loose) == 0.0


def test_min_damping_rejects_limit_inside_deadband(grid, dist):
    inside = v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.5, qss_lim=0.03)
    with pytest.raises(v.DeadbandExceedsLimitError):
        v.min_damping_for_qss(grid, dist, inside)


def test_min_inertia_closed_form(grid, dist, limits):
    h_re = v.min_inertia_for_rocof(grid, dist, limits)
    assert h_re == pytest.approx(0.25 / (2.0 * 0.4 / 50.0) - 10.0, abs=1e-9)
    assert h_re == pytest.approx(5.625, abs=1e-9)
    # Self-consistency: at the floor the limit is met exactly.
    assert v.rocof_max(grid, v.VppParams(h_re, 0.0), dist) == pytest.approx(0.4, abs=1e-9)


def test_min_inertia_clamped_at_zero(grid, dist):
    loose = v.SecurityLimits(rocof_lim=0.7, nadir_lim=0.5, qss_lim=0.35)
    assert v.min_inertia_for_rocof(grid, dist, loose) == 0.0


def test_published_pair_is_feasible(grid, dist, limits, published_vpp):
    ok, violated = v.in_feasible_region(grid, dist, limits, published_vpp)
    assert ok
    assert violated == []


def test_no_vpp_violates_all_limits(grid, dist, limits):
    ok, violated = v.in_feasible_region(grid, dist, limits, v.VppParams(0.0, 0.0))
    assert not ok
    assert set(violated) == {"rocof", "nadir", "qss"}


def test_capability_caps_reported(grid, dist, limits):
    ok, violated = v.in_feasible_region(grid, dist, limits, v.VppParams(60.0, 55.0))
    assert not ok
    assert "h_vpp_max" in violated
    assert "d_vpp_max" in violated


def test_requirement_benchmark(grid, dist, limits):
    req = v.determine_requirement(grid, dist, limits)
    assert req.d_re == pytest.approx(12.109375, abs=1e-6)
    assert 18.5 <= req.h_re <= 19.6
    assert req.binding_h == "nadir"
    assert req.binding_d == "qss"
    assert req.nadir_monotone
    vpp = v.VppParams(req.h_re, req.d_re)
    dip, _ = v.nadir(grid, vpp, dist)
    assert dip <= 0.5 + 1e-4
    assert dip >= 0.5 - 5e-3
    ok, violated = v.in_feasible_region(grid, dist, limits, vpp)
    assert ok, violated


def test_requirement_is_minimal(grid, dist, limits):
    req = v.determine_requirement(grid, dist, limits)
    less_h = v.VppParams(req.h_re - 1.0, req.d_re)
    ok, violated = v.in_feasible_region(grid, dist, limits, less_h)
    assert not ok and "nadir" in violated
    less_d = v.VppParams(req.h_re, req.d_re - 0.1)
    ok, violated = v.in_feasible_region(grid, dist, limits, less_d)
    assert not ok and "qss" in violated


def test_requirement_rocof_binding(grid, dist):
    tight_rocof = v.SecurityLimits(rocof_lim=0.25, nadir_lim=0.6, qss_lim=0.35)
    req = v.determine_requirement(grid, dist, tight_rocof)
    assert req.h_re == pytest.approx(15.0, abs=1e-9)
    assert req.binding_h == "rocof"


def test_requirement_lower_bounds(grid, dist):
    loose = v.SecurityLimits(rocof_lim=0.7, nadir_lim=1.2, qss_lim=0.55)
    req = v.determine_requirement(grid, dist, loose)
    assert req.h_re == 0.0
    assert req.d_re == 0.0
    assert req.binding_h == "lower-bound"
    assert req.binding_d == "lower-bound"


def test_requirement_unsatisfiable_damping_cap(grid, dist):
    capped = v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.5, qss_lim=0.35, d_vpp_max=10.0)
    with pytest.raises(v.UnsatisfiableError):
        v.determine_requirement(grid, dist, capped)


def test_requirement_unsatisfiable_nadir(grid, dist):
    # The dip at the inertia cap is ~0.43 Hz, so 0.36 Hz cannot be met.
    impossible = v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.36, qss_lim=0.35)
    with pytest.raises(v.UnsatisfiableError):
        v.determine_requirement(grid, dist, impossible)


def test_requirement_overdamped_uses_simulation(dist):
    # A fast governor makes the response overdamped; sizing must fall back to
    # the simulated dip instead of the oscillatory closed form.
    fast = make_grid(t_sg=0.01, f_db1=0.0, f_db2=0.0)
    lim = v.SecurityLimits(rocof_lim=0.25, nadir_lim=0.6, qss_lim=0.4)
    req = v.determine_requirement(fast, dist, lim)
    assert req.h_re == pytest.approx(15.0, abs=1e-9)
    assert req.binding_h == "rocof"
    ok, violated = v.in_feasible_region(fast, dist, lim, v.VppParams(req.h_re, req.d_re))
    assert ok, violated


@pytest.mark.parametrize(
    "fast, lim, binding_h",
    [
        (False, v.SecurityLimits(rocof_lim=0.25, nadir_lim=0.6, qss_lim=0.35), "rocof"),
        (False, v.SecurityLimits(rocof_lim=0.7, nadir_lim=1.2, qss_lim=0.55), "lower-bound"),
        (False, v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.5, qss_lim=0.35), "nadir"),
        (True, v.SecurityLimits(rocof_lim=0.25, nadir_lim=0.6, qss_lim=0.4), "rocof"),
    ],
)
def test_requirement_carries_its_nadir(dist, fast, lim, binding_h):
    grid = make_grid(t_sg=0.01, f_db1=0.0, f_db2=0.0) if fast else make_grid()
    req = v.determine_requirement(grid, dist, lim)
    assert req.binding_h == binding_h
    assert req.nadir_hz == _nadir_hz(grid, v.VppParams(req.h_re, req.d_re), dist)


def test_unattainable_nadir_evaluates_the_cap_once(grid, dist, monkeypatch):
    evaluated = []

    def counting(grid_, vpp, dist_):
        evaluated.append(vpp.h_vpp)
        return _nadir_hz(grid_, vpp, dist_)

    monkeypatch.setattr(requirements, "_nadir_hz", counting)
    impossible = v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.36, qss_lim=0.35)
    with pytest.raises(v.UnsatisfiableError, match="unattainable"):
        v.determine_requirement(grid, dist, impossible)
    assert evaluated == [v.min_inertia_for_rocof(grid, dist, impossible), impossible.h_vpp_max]


def test_requirement_never_activating_disturbance(grid):
    # A deficit absorbed inside the dead band needs no VPP support at all.
    tiny = v.Disturbance(delta_p=0.001)
    req = v.determine_requirement(grid, tiny, v.SecurityLimits(0.4, 0.5, 0.35))
    assert req.h_re == 0.0
    assert req.d_re == 0.0


def test_limits_validation():
    with pytest.raises(ValueError):
        v.SecurityLimits(rocof_lim=0.0, nadir_lim=0.5, qss_lim=0.35)
    with pytest.raises(ValueError):
        v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.3, qss_lim=0.35)
    with pytest.raises(ValueError):
        v.SecurityLimits(rocof_lim=0.4, nadir_lim=0.5, qss_lim=0.35, h_vpp_max=0.0)
