"""Reference simulation: physical sanity, convergence, closed-form agreement."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import vppfreq as v
from conftest import make_grid


def _deadband(x, width):
    if x > width:
        return x - width
    if x < -width:
        return x + width
    return 0.0


def _reference_simulate(grid, vpp, dist, cfg):
    """The textbook RK4 loop, one rhs call per stage: the arithmetic that
    v.simulate must reproduce bit for bit."""
    f1 = grid.f_db1 / grid.f0
    f2 = grid.f_db2 / grid.f0
    two_h = 2.0 * (grid.h0 + vpp.h_vpp)
    d0, d_v, r, t_sg, dp, dt = grid.d0, vpp.d_vpp, grid.r, grid.t_sg, dist.delta_p, cfg.dt
    lag = cfg.t_vpp > 0.0
    n = int(round(cfg.t_end / dt))
    times = np.arange(n + 1) * dt
    out_f, out_sg, out_vpp = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    df = psg = pvd = 0.0

    def rhs(df_, psg_, pvd_):
        droop = pvd_ if lag else -d_v * _deadband(df_, f1)
        ddf = (-dp - d0 * df_ + droop + psg_) / two_h
        dpsg = (-psg_ - r * _deadband(df_, f2)) / t_sg
        dpvd = (-pvd_ - d_v * _deadband(df_, f1)) / cfg.t_vpp if lag else 0.0
        return ddf, dpsg, dpvd

    def record(i):
        ddf = rhs(df, psg, pvd)[0]
        droop = pvd if lag else -d_v * _deadband(df, f1)
        out_f[i] = df * grid.f0
        out_sg[i] = psg
        out_vpp[i] = droop - 2.0 * vpp.h_vpp * ddf

    record(0)
    for i in range(1, n + 1):
        k1 = rhs(df, psg, pvd)
        k2 = rhs(df + 0.5 * dt * k1[0], psg + 0.5 * dt * k1[1], pvd + 0.5 * dt * k1[2])
        k3 = rhs(df + 0.5 * dt * k2[0], psg + 0.5 * dt * k2[1], pvd + 0.5 * dt * k2[2])
        k4 = rhs(df + dt * k3[0], psg + dt * k3[1], pvd + dt * k3[2])
        df += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        psg += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        pvd += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not math.isfinite(df):
            raise v.NonFiniteError(
                f"frequency state became non-finite at t = {i * dt:.6g} s; "
                "reduce the step size"
            )
        record(i)
    return v.Trajectory(times=times, delta_f=out_f, p_sg=out_sg, p_vpp=out_vpp)


@pytest.mark.parametrize("seed", range(8))
def test_simulate_matches_reference_loop_bitwise(seed):
    # Each seed covers lag off and on; the draws include zero dead bands,
    # a fast (overdamped) governor and no VPP at all.
    rng = np.random.default_rng(seed)
    no_bands = seed % 4 == 1
    grid = make_grid(
        d0=rng.uniform(0.5, 3.0),
        h0=rng.uniform(2.0, 12.0),
        r=rng.uniform(10.0, 30.0),
        t_sg=rng.uniform(0.01, 0.3) if seed % 2 else rng.uniform(2.0, 10.0),
        f_db1=0.0 if no_bands else rng.uniform(0.0, 0.05),
        f_db2=0.0 if no_bands else 0.06,
    )
    vpp = v.VppParams(0.0, 0.0) if seed == 0 else v.VppParams(rng.uniform(0, 30), rng.uniform(0, 30))
    dist = v.Disturbance(rng.uniform(0.05, 0.4))
    for t_vpp in (0.0, rng.uniform(0.05, 0.5)):
        cfg = v.SimConfig(dt=rng.choice([5e-4, 1e-3, 5e-3]), t_end=2.0, t_vpp=t_vpp)
        got = v.simulate(grid, vpp, dist, cfg)
        want = _reference_simulate(grid, vpp, dist, cfg)
        for name in ("times", "delta_f", "p_sg", "p_vpp"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (name, t_vpp)


def test_nonfinite_matches_reference_loop(grid, dist, published_vpp):
    cfg = v.SimConfig(dt=50.0, t_end=5000.0)
    with pytest.raises(v.NonFiniteError) as want:
        _reference_simulate(grid, published_vpp, dist, cfg)
    with pytest.raises(v.NonFiniteError) as got:
        v.simulate(grid, published_vpp, dist, cfg)
    assert str(got.value) == str(want.value)


def test_steady_state_matches_droop_balance(dist):
    # No dead bands, no VPP: the deviation settles where load damping plus
    # governor droop absorb the deficit.
    flat = make_grid(f_db1=0.0, f_db2=0.0)
    traj = v.simulate(flat, v.VppParams(0.0, 0.0), dist, v.SimConfig(dt=1e-3, t_end=120.0))
    expected = -dist.delta_p / (flat.d0 + flat.r) * flat.f0
    assert traj.delta_f[-1] == pytest.approx(expected, abs=1e-3)


def test_initial_slope_matches_inertia(grid, dist, published_vpp):
    cfg = v.SimConfig(dt=1e-3, t_end=0.1)
    traj = v.simulate(grid, published_vpp, dist, cfg)
    slope = (traj.delta_f[1] - traj.delta_f[0]) / cfg.dt
    expected = -grid.f0 * dist.delta_p / (2.0 * (grid.h0 + published_vpp.h_vpp))
    assert slope == pytest.approx(expected, rel=0.01)


def test_matches_closed_form_on_benchmark(grid, dist, published_vpp):
    cfg = v.SimConfig(dt=1e-3, t_end=30.0)
    traj = v.simulate(grid, published_vpp, dist, cfg)
    closed = v.response_curve(grid, published_vpp, dist, traj.times)
    peak = float(np.max(np.abs(traj.delta_f)))
    dev = float(np.max(np.abs(closed - traj.delta_f)))
    assert dev <= 0.05 * peak


def test_nadir_agreement_with_closed_form(grid, dist, published_vpp):
    traj = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=15.0))
    sim_dip = float(np.max(np.abs(traj.delta_f)))
    dip, t_n = v.nadir(grid, published_vpp, dist)
    assert sim_dip == pytest.approx(dip, rel=0.05)
    assert float(traj.times[int(np.argmax(np.abs(traj.delta_f)))]) == pytest.approx(t_n, abs=0.2)


def test_long_run_settles_to_qss(grid, dist, published_vpp):
    # By t = 200 s the transient has fully decayed; the simulated deviation
    # must equal the closed-form steady-state magnitude.
    traj = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=200.0))
    assert abs(traj.delta_f[-1]) == pytest.approx(v.qss(grid, published_vpp, dist), abs=1e-3)


def test_step_halving_is_converged(grid, dist, published_vpp):
    coarse = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=10.0))
    fine = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=5e-4, t_end=10.0))
    dip_coarse = float(np.max(np.abs(coarse.delta_f)))
    dip_fine = float(np.max(np.abs(fine.delta_f)))
    assert abs(dip_coarse - dip_fine) < 1e-6


@pytest.mark.parametrize("t_sg", [5.0, 0.01])
def test_linear_case_matches_matrix_exponential(dist, t_sg):
    # With both dead bands at zero the dynamics are linear and time-invariant,
    # so the trajectory must equal the matrix-exponential solution. The fast
    # governor case is overdamped, which the simulation handles unchanged.
    flat = make_grid(f_db1=0.0, f_db2=0.0, t_sg=t_sg)
    vpp = v.VppParams(h_vpp=5.0, d_vpp=3.0)
    h2 = 2.0 * (flat.h0 + vpp.h_vpp)
    d = flat.d0 + vpp.d_vpp
    a = np.array([[-d / h2, 1.0 / h2], [-flat.r / t_sg, -1.0 / t_sg]])
    b = np.array([-dist.delta_p / h2, 0.0])
    traj = v.simulate(flat, vpp, dist, v.SimConfig(dt=1e-3, t_end=20.0))
    a_inv_b = np.linalg.solve(a, b)
    for t in np.arange(0.5, 20.5, 0.5):
        x = (expm(a * t) - np.eye(2)) @ a_inv_b
        i = int(round(t / 1e-3))
        assert traj.delta_f[i] == pytest.approx(x[0] * flat.f0, abs=1e-6)


def test_vpp_power_consistent_with_state(grid, dist, published_vpp):
    # Away from dead-band kinks the recorded VPP power must equal the droop
    # term plus the synthetic-inertia term rebuilt from the sampled slope.
    cfg = v.SimConfig(dt=1e-3, t_end=8.0)
    traj = v.simulate(grid, published_vpp, dist, cfg)
    f1 = grid.f_db1 / grid.f0
    for t_probe in (1.0, 2.5, 4.0, 6.0):
        i = int(round(t_probe / cfg.dt))
        df = traj.delta_f[i] / grid.f0
        slope = (traj.delta_f[i + 1] - traj.delta_f[i - 1]) / (2.0 * cfg.dt) / grid.f0
        droop = df + f1 if df < -f1 else (df - f1 if df > f1 else 0.0)
        expected = -published_vpp.d_vpp * droop - 2.0 * published_vpp.h_vpp * slope
        assert traj.p_vpp[i] == pytest.approx(expected, abs=1e-5)


def test_governor_power_within_droop_limit(grid, dist, published_vpp):
    traj = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=30.0))
    bound = grid.r * float(np.max(np.abs(traj.delta_f))) / grid.f0
    assert float(np.max(np.abs(traj.p_sg))) <= bound + 1e-9


def test_nonfinite_raises(grid, dist, published_vpp):
    with pytest.raises(v.NonFiniteError):
        v.simulate(grid, published_vpp, dist, v.SimConfig(dt=50.0, t_end=5000.0))


def test_droop_lag_deepens_the_dip(grid, dist, published_vpp):
    base = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=15.0))
    lagged = v.simulate(grid, published_vpp, dist, v.SimConfig(dt=1e-3, t_end=15.0, t_vpp=0.5))
    dip_base = float(np.max(np.abs(base.delta_f)))
    dip_lagged = float(np.max(np.abs(lagged.delta_f)))
    assert dip_lagged >= dip_base - 1e-9
    assert math.isfinite(dip_lagged)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        v.SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        v.SimConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        v.SimConfig(t_vpp=-0.1)
    with pytest.raises(TypeError):
        v.SimConfig(method="euler")


def test_trajectory_shapes(grid, dist, published_vpp):
    cfg = v.SimConfig(dt=1e-3, t_end=1.0)
    traj = v.simulate(grid, published_vpp, dist, cfg)
    n = int(round(cfg.t_end / cfg.dt)) + 1
    assert traj.times.shape == (n,)
    assert traj.delta_f.shape == (n,)
    assert traj.p_sg.shape == (n,)
    assert traj.p_vpp.shape == (n,)
    assert traj.times[0] == 0.0
    assert traj.delta_f[0] == 0.0
