"""Property checks on CLI outputs.

Each check tests properties that any correct program has, not bytes, so a
change that relabels a cell or picks a different but valid allocation is
not counted as an error. Every check recomputes what it needs from the
scenario document with its own one-line formulas; nothing here imports the
package under test.

A check returns None when the output passes and a short reason otherwise.
"""

from __future__ import annotations

import io
import json

import numpy as np

# The program's own slack on limit comparisons (requirements._RTOL).
LIMIT_RTOL = 1e-3
# Sum and recomputation tolerance, relative to the magnitudes involved.
SUM_RTOL = 1e-9
# Dominance slack of the allocator (allocator._TOL).
DOMINANCE_TOL = 1e-9
# Reports round floats to 12 significant digits.
ROUND_RTOL = 1e-11
# Closed form vs. simulation, as a share of the simulated peak (the bound of
# the randomized acceptance test, which runs without actuation lag).
TRAJECTORY_SHARE = 0.05
REFUSAL_CODES = (2, 3, 4)


def check(request, code, stdout: str, stderr: str, scenario: dict) -> str | None:
    """Verdict on one request: None if correct, else the reason."""
    if code in REFUSAL_CODES:
        return _check_refusal(stderr)
    if code != 0:
        return f"exit code {code!r}"
    fmt = _format(request.argv)
    try:
        return CHECKS[request.kind](scenario, request, fmt, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable {request.kind} output: {type(exc).__name__}: {exc}"


def _check_refusal(stderr: str) -> str | None:
    lines = stderr.strip().splitlines()
    if len(lines) != 1:
        return f"refusal wrote {len(lines)} stderr lines, expected one JSON object"
    doc = json.loads(lines[0])
    if not isinstance(doc, dict) or "error" not in doc:
        return "refusal stderr is not an error object"
    return None


def _format(argv: list[str]) -> str | None:
    return argv[argv.index("--format") + 1] if "--format" in argv else None


def _close(a: float, b: float, rtol: float = SUM_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- requirements -----------------------------------------------------------


def check_requirements(sc: dict, request, fmt: str | None, text: str) -> str | None:
    if fmt == "csv":
        header, rows = _csv(text)
        if len(rows) != 1:
            return f"requirements CSV has {len(rows)} rows, expected 1"
        row = dict(zip(header, rows[0]))
        req = {k: float(row[k]) for k in ("h_re_s", "d_re_pu")}
        met = {k: float(row[k]) for k in ("rocof_hz_per_s", "nadir_hz", "qss_hz")}
    else:
        doc = json.loads(text)
        req, met = doc["requirement"], doc["metrics"]
    lim = sc["limits"]
    for key, limit in (
        ("nadir_hz", lim["nadir_limit_hz"]),
        ("qss_hz", lim["qss_limit_hz"]),
        ("rocof_hz_per_s", lim["rocof_limit_hz_per_s"]),
    ):
        if not met[key] <= limit * (1.0 + LIMIT_RTOL):
            return f"{key} {met[key]} exceeds its limit {limit}"
    for key, cap in (("h_re_s", lim["h_vpp_max_s"]), ("d_re_pu", lim["d_vpp_max_pu"])):
        if not 0.0 <= req[key] <= cap:
            return f"{key} {req[key]} outside [0, {cap}]"
    return None


# -- region -----------------------------------------------------------------


def rocof_hz_per_s(sc: dict, h_vpp: float) -> float:
    g = sc["grid"]
    return g["f0_hz"] * sc["disturbance"]["delta_p_pu"] / (2.0 * (g["h0_s"] + h_vpp))


def qss_hz(sc: dict, d_vpp: float) -> float:
    g = sc["grid"]
    f1, f2 = g["f_db1_hz"] / g["f0_hz"], g["f_db2_hz"] / g["f0_hz"]
    num = sc["disturbance"]["delta_p_pu"] + d_vpp * f1 + g["r_pu"] * f2
    return g["f0_hz"] * num / (d_vpp + g["d0_pu"] + g["r_pu"])


def _label(value: float, limit: float) -> bool | None:
    """Whether value breaks limit with the program's slack; None when the
    12-digit rounding of the cell coordinates could flip the answer."""
    bound = limit * (1.0 + LIMIT_RTOL)
    if abs(value - bound) <= 1e-9 * bound:
        return None
    return value > bound


def check_region(sc: dict, request, fmt: str | None, text: str) -> str | None:
    if fmt == "json":
        pts = json.loads(text)["points"]
        cells = [(p["h_vpp_s"], p["d_vpp_pu"], p["feasible"], p["violated"]) for p in pts]
    else:
        header, rows = _csv(text)
        if header != ["h_vpp_s", "d_vpp_pu", "feasible", "violated"]:
            return f"region CSV header {header}"
        cells = [
            (float(h), float(d), f == "1", v.split(";") if v else []) for h, d, f, v in rows
        ]
    if len(cells) != request.expect["cells"]:
        return f"region has {len(cells)} cells, expected {request.expect['cells']}"
    lim = sc["limits"]
    nh, nd = (int(x) for x in request.argv[request.argv.index("--resolution") + 1].split("x"))
    for k, (h, d, feasible, violated) in enumerate(cells[: nh * nd]):
        h_want = lim["h_vpp_max_s"] * (k // nd) / max(nh - 1, 1)
        d_want = lim["d_vpp_max_pu"] * (k % nd) / max(nd - 1, 1)
        if not (_close(h, h_want, ROUND_RTOL) and _close(d, d_want, ROUND_RTOL)):
            return f"cell {k} at ({h}, {d}), expected ({h_want}, {d_want})"
    allowed = {"rocof", "nadir", "qss", "h_vpp_max", "d_vpp_max"}
    for h, d, feasible, violated in cells:
        if not set(violated) <= allowed or len(set(violated)) != len(violated):
            return f"cell ({h}, {d}) has labels {violated}"
        if feasible != (not violated):
            return f"cell ({h}, {d}) feasible={feasible} with labels {violated}"
        for name, value, limit in (
            ("rocof", rocof_hz_per_s(sc, h), lim["rocof_limit_hz_per_s"]),
            ("qss", qss_hz(sc, d), lim["qss_limit_hz"]),
            ("h_vpp_max", h, lim["h_vpp_max_s"]),
            ("d_vpp_max", d, lim["d_vpp_max_pu"]),
        ):
            want = _label(value, limit)
            if want is not None and want != (name in violated):
                return f"cell ({h}, {d}): label {name!r} should be {want}"
    if "--include-required" in request.argv and not cells[-1][2]:
        return f"required point {cells[-1][:2]} labelled infeasible: {cells[-1][3]}"
    return None


# -- allocate / pareto ------------------------------------------------------


def _fleet(sc: dict) -> dict:
    ibrs = sc["ibrs"]
    return {
        "alpha": np.array([u["alpha_per_s"] for u in ibrs]),
        "beta": np.array([u["beta_per_pu"] for u in ibrs]),
        "share": np.array([u["p_rated_pu"] for u in ibrs]) / sc["disturbance"]["delta_p_pu"],
        "h_min": np.array([u.get("h_min_s", 0.0) for u in ibrs]),
        "d_min": np.array([u.get("d_min_pu", 0.0) for u in ibrs]),
        "h_max": [u.get("h_max_s") for u in ibrs],
        "d_max": [u.get("d_max_pu") for u in ibrs],
    }


def _boxes(fleet: dict, h_re: float, d_re: float):
    def hi(given, total, lo):
        return np.array(
            [g if g is not None else max(total * s, m) for g, s, m in zip(given, fleet["share"], lo)]
        )

    return hi(fleet["h_max"], h_re, fleet["h_min"]), hi(fleet["d_max"], d_re, fleet["d_min"])


def _check_allocations(points: list[dict], fleet: dict, h_re: float, d_re: float) -> str | None:
    """Totals, boxes and objective values of each reported allocation."""
    h = np.array([p["h_s"] for p in points], dtype=float)
    d = np.array([p["d_pu"] for p in points], dtype=float)
    n = len(fleet["alpha"])
    if h.shape != (len(points), n) or d.shape != (len(points), n):
        return "an allocation has the wrong number of IBRs"
    for name, x, total in (("inertia", h, h_re), ("damping", d, d_re)):
        off = np.abs(x.sum(axis=1) - total) > SUM_RTOL * max(1.0, total)
        if off.any():
            k = int(np.argmax(off))
            return f"point {k}: {name} allocation sums to {float(x[k].sum())!r}, required {total!r}"
    h_hi, d_hi = _boxes(fleet, h_re, d_re)
    slack = 1e-9 * max(1.0, h_re, d_re)
    if np.any(h < fleet["h_min"] - slack) or np.any(h > h_hi + slack):
        return "an inertia allocation leaves its boxes"
    if np.any(d < fleet["d_min"] - slack) or np.any(d > d_hi + slack):
        return "a damping allocation leaves its boxes"
    f_vpp = h @ fleet["alpha"] + d @ fleet["beta"]
    got = np.array([p["f_vpp"] for p in points], dtype=float)
    if not np.allclose(got, f_vpp, rtol=SUM_RTOL, atol=SUM_RTOL):
        return "an f_vpp does not match its allocation"
    f_ibr = d_re * fleet["share"] - d
    got = np.array([p["f_ibr"] for p in points], dtype=float)
    if not np.allclose(got, f_ibr, rtol=SUM_RTOL, atol=SUM_RTOL * max(1.0, d_re)):
        return "an f_ibr does not match its damping allocation"
    return None


def dominated_pair(obj: np.ndarray) -> tuple[int, int] | None:
    """Two distinct rows (j, i) where row j dominates row i beyond the
    allocator's slack widened by the output rounding, or None if the rows
    form a front. Exact duplicates are a valid front and are merged first;
    the indices refer to the distinct rows in sorted order."""
    obj = np.unique(np.asarray(obj, dtype=float), axis=0)
    rounding = 2.0 * ROUND_RTOL * np.abs(obj).max(axis=0)
    no_worse_slack = DOMINANCE_TOL - rounding
    better_slack = DOMINANCE_TOL + rounding
    # Blocks of rows keep the temporaries near a million elements; pairs
    # that fail "no worse" on a column are dropped before the next one.
    step = max(1, 2**20 // len(obj))
    for start in range(0, len(obj), step):
        block = obj[start : start + step]
        j, i = np.nonzero(obj[:, None, 0] - block[None, :, 0] <= no_worse_slack[0])
        for k in range(1, obj.shape[1]):
            keep = obj[j, k] - block[i, k] <= no_worse_slack[k]
            j, i = j[keep], i[keep]
        for c in range(0, len(j), 2**14):
            jc, ic = j[c : c + 2**14], i[c : c + 2**14]
            hit = ((obj[jc] - block[ic]) < -better_slack).any(axis=1)
            if hit.any():
                k = int(np.argmax(hit))
                return int(jc[k]), int(start + ic[k])
    return None


def _front_matrix(points: list[dict]) -> np.ndarray:
    return np.array([[p["f_vpp"], *p["f_ibr"]] for p in points], dtype=float)


def _check_front_csv(sc: dict, text: str, n_samples_max: int) -> str | None:
    header, rows = _csv(text)
    n = len(sc["ibrs"])
    if header != ["f_vpp"] + [f"f_ibr_{k + 1}" for k in range(n)]:
        return "front CSV header does not name one column per IBR"
    obj = np.array(rows, dtype=float)
    if obj.ndim != 2 or obj.shape[1] != n + 1:
        return "front CSV rows have the wrong width"
    if not 1 <= len(obj) <= n_samples_max:
        return f"front CSV has {len(obj)} rows"
    if not np.all(np.isfinite(obj)):
        return "front CSV holds a non-finite value"
    # Every allocation puts the same damping total, so each row's shortfalls
    # sum to the same constant.
    sums = obj[:, 1:].sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(obj[:, 1:]))) * n)
    if np.ptp(sums) > 1e-9 * scale:
        return "front CSV rows disagree on the damping total"
    pair = dominated_pair(obj)
    if pair is not None:
        return f"front CSV row {pair[0]} dominates row {pair[1]}"
    return None


def _totals(sc: dict, doc: dict | None) -> tuple[float, float] | None:
    if "vpp" in sc:
        return sc["vpp"]["h_vpp_s"], sc["vpp"]["d_vpp_pu"]
    if doc is not None:
        return doc["requirement"]["h_re_s"], doc["requirement"]["d_re_pu"]
    return None


def _check_points(sc: dict, front: list[dict], totals, extra: list[dict] = ()) -> str | None:
    """Allocations of the front (and of extra points) hold; the front is one."""
    why = _check_allocations(front + list(extra), _fleet(sc), *totals)
    if why:
        return why
    pair = dominated_pair(_front_matrix(front))
    if pair is not None:
        return f"front point {pair[0]} dominates point {pair[1]}"
    return None


def _n_samples(sc: dict) -> int:
    return sc.get("sampling", {}).get("n_samples", 200)


def check_allocate(sc: dict, request, fmt: str | None, text: str) -> str | None:
    if fmt == "csv":
        return _check_front_csv(sc, text, _n_samples(sc) + 1)
    doc = json.loads(text)
    totals = _totals(sc, doc)
    if "vpp" in sc and not (
        _close(doc["requirement"]["h_re_s"], totals[0])
        and _close(doc["requirement"]["d_re_pu"], totals[1])
    ):
        return "allocate reports totals other than the scenario's VPP pair"
    bargain = doc["bargain"]
    front = bargain["front"]
    if bargain["front_size"] != len(front):
        return f"front_size {bargain['front_size']} but {len(front)} points"
    if front[bargain["chosen_index"]] != bargain["chosen"]:
        return "the chosen point is not the front point at chosen_index"
    return _check_points(sc, front, totals, [doc["economic"]])


def check_pareto(sc: dict, request, fmt: str | None, text: str) -> str | None:
    if fmt == "csv":
        return _check_front_csv(sc, text, _n_samples(sc))
    doc = json.loads(text)
    if doc["front_size"] != len(doc["points"]):
        return f"front_size {doc['front_size']} but {len(doc['points'])} points"
    # Sized totals are not in the pareto report: every allocation must then
    # agree with the first one's totals.
    points = doc["points"]
    totals = _totals(sc, None) or (sum(points[0]["h_s"]), sum(points[0]["d_pu"]))
    return _check_points(sc, points, totals)


# -- simulate ---------------------------------------------------------------


def check_simulate(sc: dict, request, fmt: str | None, text: str) -> str | None:
    sim = sc["sim"]
    n_rows = int(round(sim["t_end_s"] / sim["dt_s"])) + 1
    if fmt == "json":
        cols = {k: np.asarray(v, dtype=float) for k, v in json.loads(text).items()}
    else:
        header = text[: text.index("\n")].split(",")
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != len(header):
            return "trajectory CSV rows have the wrong width"
        cols = dict(zip(header, data.T))
    which = request.expect["which"]
    want = {
        "closed-form": ["t", "delta_f_hz"],
        "ode": ["t", "delta_f_hz", "p_sg_pu", "p_vpp_pu"],
        "both": ["t", "delta_f_closed_hz", "delta_f_ode_hz", "p_sg_pu", "p_vpp_pu"],
    }[which]
    if list(cols) != want:
        return f"trajectory columns {list(cols)}, expected {want}"
    for name, col in cols.items():
        if len(col) != n_rows:
            return f"column {name} has {len(col)} rows, expected {n_rows}"
        if not np.all(np.isfinite(col)):
            return f"column {name} holds a non-finite value"
    t = cols["t"]
    if not (t[0] == 0.0 and _close(float(t[-1]), (n_rows - 1) * sim["dt_s"], ROUND_RTOL)):
        return "time column does not span the uniform grid"
    if which == "both" and sim["t_vpp_s"] == 0.0:
        # The closed form models no actuation lag; it is held to the
        # acceptance bound only on lag-free runs.
        ode = cols["delta_f_ode_hz"]
        peak = float(np.max(np.abs(ode)))
        dev = float(np.max(np.abs(cols["delta_f_closed_hz"] - ode)))
        if not dev <= TRAJECTORY_SHARE * peak:
            return f"closed form deviates {dev / peak:.2%} of peak from the simulation"
    return None


CHECKS = {
    "requirements": check_requirements,
    "region": check_region,
    "allocate": check_allocate,
    "pareto": check_pareto,
    "simulate": check_simulate,
}
