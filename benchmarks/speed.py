"""Machine-speed gauge: scales request latencies to a fixed reference speed.

The benchmark runs on small virtual machines that share their physical
cores with other tenants. There the same CPU-bound work runs 20-40% faster
or slower from one spell of a few seconds to the next, and the guest sees no
steal time, so neither CPU time nor a longer run removes the swing: ten runs
of the same code spread by 10-30% (q3 - q1 over the median).

The gauge times a fixed reference kernel right before every request. The
kernel is the benchmark's own code and imports nothing of the package: a
scalar RK4 loop in Python, a dense dominance test in numpy and float
formatting, the three kinds of work the workloads spend their time on. A
request's latency is scaled by REFERENCE_S over the mean of the kernel times
just before and just after it, which gives its latency at the reference
speed. A change to the program moves its requests and not the kernel, so it
shows in full; a spell that slows the machine slows both and cancels.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median time of one kernel() on the machine of BENCH_seed.json (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6). Fixed, so that a slow run
# and a fast run are scaled to the same speed.
REFERENCE_S = 5.0e-3

_POINTS = np.sin(np.arange(200 * 9, dtype=float)).reshape(200, 9)


def _rk4(n: int = 1500, dt: float = 1e-3) -> np.ndarray:
    """A damped oscillator stepped in Python floats, recorded into an array."""
    x, v = 1.0, 0.0
    out = np.empty(n)

    def f(x: float, v: float) -> tuple[float, float]:
        return v, -4.0 * x - 0.3 * v

    for i in range(n):
        k1 = f(x, v)
        k2 = f(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1])
        k3 = f(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1])
        k4 = f(x + dt * k3[0], v + dt * k3[1])
        x += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        out[i] = x
    return out


def _dominance() -> int:
    return int((_POINTS[:, None, :] <= _POINTS[None, :, :]).all(axis=2).sum())


def _format(xs: np.ndarray) -> int:
    flat = "\n".join(f"{a:.9g}" for a in xs[:300].tolist())
    nested = json.dumps(
        {"rows": [{"h": float(a), "d": float(b)} for a, b in zip(xs[:150], xs[150:300])]},
        indent=2,
    )
    return len(flat) + len(nested)


def kernel() -> float:
    """Run the reference work once; return its duration in seconds."""
    t0 = time.perf_counter()
    _format(_rk4())
    _dominance()
    return time.perf_counter() - t0


def scaled(latencies: list[float], at: list[int], kernels: list[float]) -> list[float]:
    """Latencies at the reference speed.

    kernels[at[i]] ran just before request i and kernels[at[i] + 1] just
    after it."""
    return [
        dt * REFERENCE_S / (0.5 * (kernels[j] + kernels[j + 1]))
        for dt, j in zip(latencies, at)
    ]
