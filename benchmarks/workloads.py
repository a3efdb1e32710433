"""Seeded request pools for the three benchmark workloads.

Every scenario is generated around ``scenarios/example.json``: each grid
parameter, the disturbance and the VPP pair are scaled by a factor in
U(0.5, 1.5), as the randomized acceptance test does. The factors are
stratified: in a pool of n slots each factor takes one value in each of n
equal-width strata, slot i always gets the same strata (a permutation fixed
per factor) and the seed moves each value within its stratum. Two seeds
thus differ in every input but share the spread and the combinations of
input sizes, which keeps the seed-to-seed spread of a run's figures small.
The sizes that set a request's cost (fleet N and S; trajectory dt, t_end
and lag; the governor lag of a sizing or sweep that falls back to
simulation, whose runs last max(40 s, 10 t_sg)) are the midpoints of their
strata, the same for every seed; a slot whose scenario is redrawn keeps
them.

A pool is a fixed list of CLI requests. The command mix is a fixed pattern
of slots, the same for every seed; only the scenarios differ. The benchmark
cycles through the pool in order, in a closed loop with one client.

Two input rules keep every request answerable on a correct program:

* the governor droop and lag scales satisfy r_scale * t_sg_scale <= 1.2.
  Slow, stiff governors (product above about 1.4) overshoot so far that
  the 0.5 Hz nadir limit is unattainable within the 50 s inertia cap, and
  sizing answers "unsatisfiable" (exit 4);
* trajectory scenarios are underdamped at their VPP pair (damping ratio
  below 0.98), because the oscillatory closed form is only defined there.

Where a workload needs a share of some behaviour, such as sizings that
fall back to simulation, the slots that carry it are drawn by damping-ratio
class (closed forms below), so the share is fixed rather than drawn.

The generator imports nothing from the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sizing-study", "fleet-allocation", "trajectory-export")

# The values of scenarios/example.json that generated scenarios scale; kept
# here so an edit of the example does not change the workloads.
EXAMPLE_GRID = {
    "d0_pu": 2.0,
    "h0_s": 10.0,
    "r_pu": 25.0,
    "t_sg_s": 5.0,
    "f0_hz": 50.0,
    "f_db1_hz": 0.03,
    "f_db2_hz": 0.033,
}
EXAMPLE_LIMITS = {
    "rocof_limit_hz_per_s": 0.4,
    "nadir_limit_hz": 0.5,
    "qss_limit_hz": 0.35,
    "h_vpp_max_s": 50.0,
    "d_vpp_max_pu": 50.0,
}
EXAMPLE_DELTA_P = 0.25
# The rounded minimal requirement of the example grid (published pair).
EXAMPLE_VPP = (19.125, 12.109)

MAX_PRODUCT_R_TSG = 1.2
MAX_ZETA_CLOSED_FORM = 0.98
ZETA_FULL_SEARCH = 0.55
# S^2 * (N + 1) sizes the dense Pareto filter's boolean temporaries (one
# byte each). The largest request, N = 32 at this bound (S = 778), sits in
# every pool; all others stay under half the bound (S <= 1054 at N = 8,
# S <= 392 at N = 64), so that one request sets a run's peak memory
# whatever the seed.
FILTER_CELLS_MAX = 2 * 10**7


@dataclass
class Request:
    """One CLI call: its argv (scenario path included) and what to check."""

    argv: list[str]
    scenario: str
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


class _Strata:
    """Stratified factors in [0, 1): slot i of key k always falls in the
    same one of n equal-width strata, through a permutation fixed per key;
    the seed only moves each factor within its stratum."""

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self._n = n
        self._cols: dict[str, list[float]] = {}

    def _perm(self, key: str) -> list[int]:
        return random.Random(f"strata:{key}:{self._n}").sample(range(self._n), self._n)

    def u(self, key: str, i: int) -> float:
        col = self._cols.get(key)
        if col is None:
            col = [(k + self._rng.random()) / self._n for k in self._perm(key)]
            self._cols[key] = col
        return col[i]

    def mid(self, key: str, i: int) -> float:
        """The midpoint of slot i's stratum: the same for every seed."""
        return (self._perm(key)[i] + 0.5) / self._n

    def redraw(self, i: int) -> None:
        """Draw slot i afresh over [0, 1) (for inputs that were rejected)."""
        for col in self._cols.values():
            col[i] = self._rng.random()

    def scale(self, key: str, i: int) -> float:
        return 0.5 + self.u(key, i)


def _grid(st: _Strata, i: int, fixed_t_sg: bool) -> dict:
    g = dict(EXAMPLE_GRID)
    t_s = 0.5 + st.mid("t_sg", i) if fixed_t_sg else st.scale("t_sg", i)
    r_hi = min(1.5, MAX_PRODUCT_R_TSG / t_s)
    r_s = 0.5 + st.u("r", i) * (r_hi - 0.5)
    db = st.scale("db", i)
    g["d0_pu"] *= st.scale("d0", i)
    g["h0_s"] *= st.scale("h0", i)
    g["r_pu"] *= r_s
    g["t_sg_s"] *= t_s
    g["f_db1_hz"] *= db
    g["f_db2_hz"] *= db
    return {k: _r6(v) for k, v in g.items()}


def _r6(x: float) -> float:
    return float(f"{x:.6g}")


def damping_ratio(grid: dict, h_vpp: float, d_vpp: float) -> float:
    """Damping ratio of the droop-active second-order branch."""
    h = grid["h0_s"] + h_vpp
    d = grid["d0_pu"] + d_vpp
    t = grid["t_sg_s"]
    return (2.0 * h + d * t) / (2.0 * math.sqrt(2.0 * t * h * (grid["r_pu"] + d)))


def _scenario(grid: dict, delta_p: float, **extra) -> dict:
    doc = {
        "grid": grid,
        "disturbance": {"delta_p_pu": _r6(delta_p)},
        "limits": dict(EXAMPLE_LIMITS),
    }
    doc.update(extra)
    return doc


def min_damping(grid: dict, delta_p: float) -> float:
    """Damping requirement from the quasi-steady-state limit (closed form)."""
    q = EXAMPLE_LIMITS["qss_limit_hz"] / grid["f0_hz"]
    f1 = grid["f_db1_hz"] / grid["f0_hz"]
    f2 = grid["f_db2_hz"] / grid["f0_hz"]
    return max(0.0, (delta_p + grid["r_pu"] * f2 - q * (grid["d0_pu"] + grid["r_pu"])) / (q - f1))


def min_inertia(grid: dict, delta_p: float) -> float:
    """Inertia floor from the rate-of-change limit (closed form)."""
    lim = EXAMPLE_LIMITS["rocof_limit_hz_per_s"] / grid["f0_hz"]
    return max(0.0, delta_p / (2.0 * lim) - grid["h0_s"])


def _search_zetas(grid: dict, delta_p: float) -> tuple[float, float, float]:
    """Damping ratios along the sizing search at the damping requirement: at
    the inertia floor, 2 s above it, and at the inertia cap. The ratio is
    quasi-convex in inertia, so the two ends bound the whole interval."""
    d_re = min_damping(grid, delta_p)
    floor = min_inertia(grid, delta_p)
    return (
        damping_ratio(grid, floor, d_re),
        damping_ratio(grid, floor + 2.0, d_re),
        damping_ratio(grid, EXAMPLE_LIMITS["h_vpp_max_s"], d_re),
    )


def underdamped_search(grid: dict, delta_p: float) -> bool:
    floor, _, cap = _search_zetas(grid, delta_p)
    return floor < 1.0 and cap < 1.0


def full_search(grid: dict, delta_p: float) -> bool:
    """Underdamped over the search and lightly damped at the inertia floor.

    Below a damping ratio of 0.55 at the floor the nadir there almost always
    (about 49 in 50 draws) breaks the limit, so sizing runs its whole
    closed-form search: probe, bisection, about 68 nadir evaluations.
    Above it, about half of the sizings stop at the floor after one
    evaluation; a mix of both would put the median latency between two modes.
    """
    floor, _, cap = _search_zetas(grid, delta_p)
    return floor < ZETA_FULL_SEARCH and cap < 1.0


def overdamped_at_floor_only(grid: dict, delta_p: float) -> bool:
    floor, above, cap = _search_zetas(grid, delta_p)
    return above < 1.0 <= floor and cap < 1.0


def overdamped_cells(grid: dict, nh: int, nd: int) -> int:
    """Cells of an nh x nd region sweep whose response is overdamped."""
    hs = [EXAMPLE_LIMITS["h_vpp_max_s"] * k / (nh - 1) for k in range(nh)]
    ds = [EXAMPLE_LIMITS["d_vpp_max_pu"] * k / (nd - 1) for k in range(nd)]
    return sum(damping_ratio(grid, h, d) >= 1.0 for h in hs for d in ds)


def _vpp(st: _Strata, i: int) -> tuple[float, float]:
    return (
        _r6(EXAMPLE_VPP[0] * st.scale("h_vpp", i)),
        _r6(EXAMPLE_VPP[1] * st.scale("d_vpp", i)),
    )


def _draw(st: _Strata, i: int, accept, fixed_t_sg: bool = False) -> tuple[dict, float]:
    """This slot's grid and disturbance, redrawn until ``accept`` holds."""
    for _ in range(10000):
        grid = _grid(st, i, fixed_t_sg)
        delta_p = EXAMPLE_DELTA_P * st.scale("dp", i)
        if accept(grid, delta_p):
            return grid, delta_p
        st.redraw(i)
    raise RuntimeError("could not draw a scenario with the requested property")


# Slot patterns: the command mix of each workload, identical for every seed.
# Sizing: 32 slots hold 27 plain sizings (underdamped over the whole inertia
# search, closed form only), 4 sizings whose search starts in an overdamped
# strip at the inertia floor (simulation fallback), and one region sweep with
# exactly REGION_OVERDAMPED_CELLS overdamped cells. Fixing these counts
# rather than drawing them keeps a run's share of fallback work, which sets
# the throughput and the tail, the same for every seed. With 4 + 1 slow slots
# in 32, p90 falls among the fallback sizings.
SIZING_PATTERN = tuple(
    "region" if k == 31 else "requirements-fallback" if k % 8 == 3 else
    "requirements-csv" if k % 4 == 2 else "requirements"
    for k in range(32)
)
REGION_OVERDAMPED_CELLS = 3
FLEET_PATTERN = (
    "allocate", "pareto-csv", "allocate", "allocate-csv",
    "allocate", "pareto", "allocate", "pareto-csv",
)
TRAJECTORY_PATTERN = (
    "both-csv", "ode-csv", "closed-form-csv", "both-json",
    "both-csv", "ode-json", "closed-form-json", "both-csv",
)
# A trajectory request costs 15-500 ms and its cost follows its step count
# and output size, so the trajectory pool is small (each slot repeats about
# 15 times in a 30 s run) and its sizes (dt, t_end, lag) are stratum
# midpoints, the same for every seed; the seed draws the grid, disturbance
# and VPP pair.
POOL_SIZE = {"sizing-study": 128, "fleet-allocation": 32, "trajectory-export": 16}


def _sizing(rng: random.Random, out: Path) -> list[Request]:
    n = POOL_SIZE["sizing-study"]
    st = _Strata(rng, n)
    reqs = []
    for i in range(n):
        kind = SIZING_PATTERN[i % len(SIZING_PATTERN)]
        if kind == "region":
            nh = 3 + int(st.u("nh", i) * 3)
            nd = 3 + int(st.u("nd", i) * 3)

            def accept(g, dp, nh=nh, nd=nd):
                return (
                    overdamped_cells(g, nh, nd) == REGION_OVERDAMPED_CELLS
                    and underdamped_search(g, dp)
                )

            path = _write(out, i, _scenario(*_draw(st, i, accept, fixed_t_sg=True)))
            argv = ["region", "--scenario", path, "--resolution", f"{nh}x{nd}",
                    "--include-required"]
            if i % 64 == 63:
                argv += ["--format", "json"]
            reqs.append(Request(argv, path, {"cells": nh * nd + 1}))
        else:
            fallback = kind == "requirements-fallback"
            accept = overdamped_at_floor_only if fallback else full_search
            path = _write(out, i, _scenario(*_draw(st, i, accept, fixed_t_sg=fallback)))
            argv = ["requirements", "--scenario", path]
            if kind == "requirements-csv":
                argv += ["--format", "csv"]
            reqs.append(Request(argv, path))
    return reqs


def _fleet(rng: random.Random, out: Path) -> list[Request]:
    n = POOL_SIZE["fleet-allocation"]
    st = _Strata(rng, n)
    reqs = []
    for i in range(n):
        kind = FLEET_PATTERN[i % len(FLEET_PATTERN)]
        grid, delta_p = _draw(st, i, underdamped_search)
        if i == 0:
            # The largest request of the pool (see FILTER_CELLS_MAX).
            n_ibr = 32
            n_samples = int(math.sqrt(FILTER_CELLS_MAX / (n_ibr + 1)))
        else:
            # Sizes are stratum midpoints, the same for every seed: a
            # request's cost grows with N * S (the report lists every front
            # point) and S^2 * (N + 1) (the filter).
            n_ibr = int(round(8 * 8 ** st.mid("n_ibr", i)))
            n_samples = int(round(200 * 10 ** st.mid("samples", i)))
            n_samples = min(n_samples, int(math.sqrt(FILTER_CELLS_MAX / 2 / (n_ibr + 1))))
        explicit_vpp = i % 8 != 7
        # Ratings sum to 1.2-2x the disturbance, so the rating-share default
        # boxes can always absorb the totals; lower bounds stay small.
        raw = [rng.uniform(0.2, 1.0) for _ in range(n_ibr)]
        total = delta_p * rng.uniform(1.2, 2.0)
        lo_cap = 0.8 / n_ibr if explicit_vpp else 0.0
        ibrs = [
            {
                "alpha_per_s": round(rng.uniform(0.5, 4.5), 4),
                "beta_per_pu": round(rng.uniform(0.5, 3.5), 4),
                "p_rated_pu": _r6(total * w / sum(raw)),
                "h_min_s": round(rng.uniform(0.0, lo_cap), 6),
                "d_min_pu": round(rng.uniform(0.0, lo_cap), 6),
            }
            for w in raw
        ]
        extra = {"ibrs": ibrs, "sampling": {"n_samples": n_samples, "seed": rng.randrange(2**31)}}
        if explicit_vpp:
            h_vpp, d_vpp = _vpp(st, i)
            extra["vpp"] = {"h_vpp_s": h_vpp, "d_vpp_pu": d_vpp}
        doc = _scenario(grid, delta_p, **extra)
        path = _write(out, i, doc)
        cmd, _, fmt = kind.partition("-")
        argv = [cmd, "--scenario", path] + (["--format", fmt] if fmt else [])
        reqs.append(Request(argv, path, {"format": fmt or "json"}))
    return reqs


def _trajectory(rng: random.Random, out: Path) -> list[Request]:
    n = POOL_SIZE["trajectory-export"]
    st = _Strata(rng, n)
    reqs = []
    for i in range(n):
        kind = TRAJECTORY_PATTERN[i % len(TRAJECTORY_PATTERN)]
        which, _, fmt = kind.rpartition("-")
        if i == 0:
            # The longest export sits in every pool (peak memory, as above).
            dt, t_end = 1e-3, 30.0
        else:
            dt = _r6(1e-3 * 5 ** st.mid("dt", i))
            t_end = round(10.0 + 20.0 * st.mid("t_end", i), 2)
        # Lag on half the slots of each command kind, alternating per block.
        lagged = (i + i // len(TRAJECTORY_PATTERN)) % 2 == 1
        t_vpp = round(0.05 + 0.45 * st.mid("t_vpp", i), 4) if lagged else 0.0

        def accept(g, dp, i=i):
            activates = dp > g["f_db2_hz"] / g["f0_hz"] * g["d0_pu"]
            return activates and damping_ratio(g, *_vpp(st, i)) < MAX_ZETA_CLOSED_FORM

        grid, delta_p = _draw(st, i, accept)
        h_vpp, d_vpp = _vpp(st, i)
        doc = _scenario(
            grid, delta_p,
            vpp={"h_vpp_s": h_vpp, "d_vpp_pu": d_vpp},
            sim={"dt_s": dt, "t_end_s": t_end, "t_vpp_s": t_vpp},
        )
        path = _write(out, i, doc)
        argv = ["simulate", "--scenario", path, "--which", which, "--format", fmt]
        reqs.append(Request(argv, path, {"which": which, "format": fmt}))
    return reqs


def _write(out: Path, i: int, doc: dict) -> str:
    path = out / f"{i:03d}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, out: Path) -> list[Request]:
    """Write the pool's scenario files under ``out`` and return its requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.json"):
        old.unlink()
    rng = random.Random(f"{workload}:{seed}")
    build = {"sizing-study": _sizing, "fleet-allocation": _fleet, "trajectory-export": _trajectory}
    return build[workload](rng, out)
