"""Closed-loop client: one process, one client, requests through the CLI.

Runs in a fresh interpreter started by run.py, which prints its result.
Each request is one ``vppfreq.cli.main(argv)`` call with stdout and stderr
captured in memory; its latency covers argument parsing, the computation
and writing the report. Output checks and the speed gauge's reference
kernel (speed.py) run between requests and are not part of any latency or
of the measured time.

Usage (from the root of a checkout):
    python3 benchmarks/worker.py loop --manifest FILE --seconds S --trace 0|1 [--trace-out FILE]
    python3 benchmarks/worker.py golden [--skip NAME ...]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
from workloads import Request

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import vppfreq.allocator as allocator  # noqa: E402
import vppfreq.cli as cli  # noqa: E402
import vppfreq.requirements as requirements  # noqa: E402

# Default output of each command on the example scenario, plus the
# 2000-sample allocation, compared byte for byte against golden.json.
GOLDEN = {
    "requirements": ["requirements"],
    "simulate": ["simulate"],
    "allocate": ["allocate"],
    "pareto": ["pareto"],
    "region": ["region"],
    "allocate-2000": ["allocate", "--samples", "2000"],
}
EXAMPLE = "scenarios/example.json"
# Traced once per traced run on the example scenario, to cost the functions
# a workload never calls (the 3x3 sweep has overdamped cells, so it also
# runs the simulation fallback).
PROBE = (
    ["requirements"],
    ["simulate", "--which", "both"],
    ["allocate"],
    ["region", "--resolution", "3x3", "--include-required"],
)


def call(main, argv: list[str]) -> tuple[object, str, str, float]:
    """One request: (exit code or None on a traceback, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is an error, not a refusal
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Loop:
    """Runs a request pool in a closed loop and keeps the verdicts."""

    def __init__(self, requests: list[Request], scenarios: dict):
        self.requests = requests
        self.scenarios = scenarios
        self.errors: list[str] = []

    def verdict(self, req: Request, code, out: str, err: str) -> str:
        why = checks.check(req, code, out, err, self.scenarios[req.scenario])
        if code in checks.REFUSAL_CODES and why is None:
            return "refused"
        if why is not None:
            self.errors.append(f"{' '.join(req.argv)}: {why}")
            return "error"
        return "ok"

    def warm_up(self, main) -> list[str]:
        """One untimed request of each command, so lazy set-up is done."""
        seen, verdicts = set(), []
        for req in self.requests:
            if req.kind not in seen:
                seen.add(req.kind)
                code, out, err, _ = call(main, req.argv)
                verdicts.append(self.verdict(req, code, out, err))
        for _ in range(3):
            speed.kernel()
        return verdicts

    def run(self, sides: list, seconds: float) -> list[dict]:
        """Send requests until each side's summed latency reaches ``seconds``.

        A side is (main, enter, leave); enter(i) and leave() run around its
        call of request i, outside its latency. With two sides every request
        goes to both, in alternating order, so both see the same machine
        conditions and the same requests."""
        phases = [
            {"latencies": [], "slots": [], "kernel_at": [], "verdicts": [], "records": [],
             "busy_s": 0.0, "wall_s": 0.0}
            for _ in sides
        ]
        kernels = []
        i = 0
        while min(p["busy_s"] for p in phases) < seconds:
            req = self.requests[i % len(self.requests)]
            order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
            for k in order:
                main, enter, leave = sides[k]
                phase = phases[k]
                # Each CLI call normally runs in a fresh process. Collecting
                # the garbage of earlier requests and checks first, outside
                # every timing, keeps a full collection of that garbage out
                # of this request's latency; collections the request's own
                # allocations trigger still count.
                gc.collect()
                phase["kernel_at"].append(len(kernels))
                kernels.append(speed.kernel())
                t0 = time.perf_counter()
                if enter is not None:
                    enter(i)
                try:
                    code, out, err, dt = call(main, req.argv)
                finally:
                    if leave is not None:
                        leave()
                phase["busy_s"] += dt
                phase["latencies"].append(dt)
                phase["slots"].append(i % len(self.requests))
                phase["records"].append({"code": code, "bytes": len(out.encode("utf-8"))})
                phase["verdicts"].append(self.verdict(req, code, out, err))
                phase["wall_s"] += time.perf_counter() - t0
            i += 1
        kernels.append(speed.kernel())
        for phase in phases:
            phase["scaled"] = speed.scaled(phase["latencies"], phase["kernel_at"], kernels)
            phase["speed"] = speed.REFERENCE_S / statistics.median(kernels)
        return phases


def slot_median(latencies: list[float], slots: list[int]) -> float:
    """Median over the pool's slots of each slot's mean latency.

    The loop repeats every slot of the pool, and a slot's requests are the
    same request, so its mean over the repeats is its latency. The shared
    machine switches between fast and slow spells for seconds at a time;
    a mean weighs the spells by their length, where a median of the pooled
    latencies jumps to the slow level once slow spells hold half the run."""
    by_slot: dict[int, list[float]] = {}
    for dt, slot in zip(latencies, slots):
        by_slot.setdefault(slot, []).append(dt)
    return statistics.median(statistics.fmean(v) for v in by_slot.values())


def _timings(lat: list[float], slots: list[int]) -> tuple[float, float, float]:
    """Throughput (1/s), p50 and p90 latency (ms)."""
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return len(lat) / sum(lat), 1e3 * slot_median(lat, slots), 1e3 * deciles[8]


def summary(phase: dict) -> dict:
    """Timings at the reference speed, and as measured under ``raw``."""
    rps, p50, p90 = _timings(phase["scaled"], phase["slots"])
    raw_rps, raw_p50, raw_p90 = _timings(phase["latencies"], phase["slots"])
    return {
        "requests": len(phase["latencies"]),
        "throughput_rps": rps,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "raw": {"throughput_rps": raw_rps, "latency_p50_ms": raw_p50, "latency_p90_ms": raw_p90,
                "speed": phase["speed"]},
        "errors": phase["verdicts"].count("error"),
        "refused": phase["verdicts"].count("refused"),
    }


def cmd_loop(args) -> dict:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    requests = [Request(**r) for r in manifest["requests"]]
    scenarios = {
        r.scenario: json.loads(Path(r.scenario).read_text(encoding="utf-8")) for r in requests
    }
    loop = Loop(requests, scenarios)
    warm = loop.warm_up(cli.main)
    sides = [(cli.main, None, None)]
    if args.trace:
        tracer = tracing.Tracer()
        modules = {"cli": cli, "requirements": requirements, "allocator": allocator}
        root = tracer.span(tracing.ROOT, cli.main)

        def enter(i):
            tracer.request = i
            tracer.install(modules)

        sides.append((root, enter, tracer.uninstall))
    phases = loop.run(sides, args.seconds)
    result = {
        "warmup": {"requests": len(warm), "errors": warm.count("error"), "refused": warm.count("refused")},
        "untraced": summary(phases[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        probe = tracing.Tracer()
        probe_root = probe.span(tracing.ROOT, cli.main)
        probe.install(modules)
        try:
            for argv in PROBE:
                call(probe_root, [*argv, "--scenario", EXAMPLE])
        finally:
            probe.uninstall()
        traced = phases[1]
        result["traced"] = summary(traced)
        result["layers"] = tracing.layer_metrics(
            tracer.spans, traced["records"], traced["wall_s"], probe.spans
        )
        result["layers"]["trace.overhead_pct"] = 100.0 * (
            1.0 - result["traced"]["throughput_rps"] / result["untraced"]["throughput_rps"]
        )
        result["missing_wraps"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out, tracer.spans[0][tracing.START] if tracer.spans else 0.0)
    result["errors"] = loop.errors[:5]
    return result


def cmd_golden(args) -> dict:
    digests = {}
    for name, argv in GOLDEN.items():
        if name in args.skip:
            continue
        code, out, err, _ = call(cli.main, argv + ["--scenario", EXAMPLE])
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest() if code == 0 else f"exit {code}"
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("loop")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p = sub.add_parser("golden")
    p.add_argument("--skip", nargs="*", default=[])
    args = parser.parse_args()
    result = cmd_loop(args) if args.mode == "loop" else cmd_golden(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
