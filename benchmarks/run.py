"""vppfreq benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sizing-study --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 25

One run generates the workload's request pool from the seed, times the
set-up of a fresh interpreter, runs the pool in a closed loop with one
client in a fresh worker process, and checks every output. ``--trace 1``
sends every request twice, untraced and with spans recorded around each
layer, and reports the per-layer figures instead of the end-to-end ones.
Each run also recomputes the golden digests of the example scenario.
Throughput and latencies are reported at a fixed reference machine speed
(speed.py); each run also prints them as measured, with the speed it saw.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = ".bench_out"
SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 170
READY = "import vppfreq.cli; print('ready', flush=True)"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One client and no extra threads: pin the BLAS pools numpy may start.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(root: Path, env: dict) -> float:
    """Median time from launching an interpreter to a ready ``vppfreq.cli``.

    The first launch compiles bytecode and is not counted."""
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", READY], cwd=root, env=env, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import vppfreq.cli")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def worker(root: Path, env: dict, args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree_key(root: Path) -> str:
    """Identity of everything the example outputs depend on."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update((root / "scenarios" / "example.json").read_bytes())
    h.update(f"{sys.version}|{metadata.version('numpy')}".encode())
    return h.hexdigest()


def golden(root: Path, env: dict) -> dict:
    """Recompute the golden digests and compare them with golden.json.

    The 25x25 region sweep takes about 20 s, most of a run's budget; its
    digest is recomputed once per source tree and interpreter and reused
    while both stay the same, since the program is deterministic."""
    want = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["sha256"]
    cache = root / OUT / "golden-region.json"
    key = _tree_key(root)
    cached = json.loads(cache.read_text()) if cache.exists() else {}
    skip = ["region"] if cached.get("key") == key else []
    got = worker(root, env, ["golden", "--skip", *skip])
    if skip:
        got["region"] = cached["digest"]
    else:
        cache.write_text(json.dumps({"key": key, "digest": got["region"]}))
    mismatched = sorted(name for name in want if got.get(name) != want[name])
    return {"checked": len(want), "mismatched": mismatched, "region_cached": bool(skip)}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = _env(root)
    pool_dir = root / OUT / f"{workload}-seed{seed}"
    requests = workloads.generate(workload, seed, pool_dir)
    manifest = pool_dir / "manifest.json"
    manifest.write_text(json.dumps({"requests": [asdict(r) for r in requests]}), encoding="utf-8")

    setup = None if trace else setup_seconds(root, env)
    args = ["loop", "--manifest", str(manifest), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--trace-out", str(root / OUT / f"trace-{workload}-seed{seed}.jsonl")]
    res = worker(root, env, args)
    gold = golden(root, env)

    phases = [res["untraced"]] + ([res["traced"]] if trace else [])
    attempted = res["warmup"]["requests"] + sum(p["requests"] for p in phases) + gold["checked"]
    errors = res["warmup"]["errors"] + sum(p["errors"] for p in phases) + len(gold["mismatched"])
    refused = res["warmup"]["refused"] + sum(p["refused"] for p in phases)
    u = res["untraced"]
    if trace:
        layers = dict(res["layers"], **{
            "trace.untraced_rps": u["throughput_rps"],
            "trace.traced_rps": res["traced"]["throughput_rps"],
        })
        metrics = {k: (layers[k], unit) for k, (unit, _) in tracing.METRICS.items()}
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "throughput_rps": (u["throughput_rps"], "1/s"),
            "latency_p50_ms": (u["latency_p50_ms"], "ms"),
            "latency_p90_ms": (u["latency_p90_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "correct": errors == 0,
        "attempted": attempted,
        "failed": errors + refused,
        "errors": errors,
        "refused": refused,
        "samples": u["requests"],
        "raw": u["raw"],
        "golden": gold,
        "error_examples": res["errors"],
        "missing_wraps": res.get("missing_wraps", []),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    n = result["attempted"]
    lines = [
        f"# {result['workload']} seed={result['seed']}: {result['samples']} timed requests, "
        f"closed loop, 1 client",
        f"  error_rate     {result['errors'] / n:.4f} ratio ({result['errors']} of {n} attempted)",
        f"  refused_rate   {result['refused'] / n:.4f} ratio ({result['refused']} of {n} attempted)",
        f"  golden         {result['golden']['checked'] - len(result['golden']['mismatched'])}"
        f"/{result['golden']['checked']} digests match"
        + (f"; mismatched: {result['golden']['mismatched']}" if result["golden"]["mismatched"] else ""),
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    raw = result["raw"]
    lines.append(
        f"  as measured, at {raw['speed']:.3f}x the reference speed: "
        f"throughput_rps {raw['throughput_rps']:.6g} 1/s, latency_p50_ms {raw['latency_p50_ms']:.6g} ms, "
        f"latency_p90_ms {raw['latency_p90_ms']:.6g} ms"
    )
    for example in result["error_examples"]:
        lines.append(f"  error: {example[:300]}")
    if result["missing_wraps"]:
        lines.append(f"  not traced (name gone): {', '.join(result['missing_wraps'])}")
    return lines


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "vppfreq" / "cli.py").is_file():
        sys.stderr.write("benchmark: run from the root of a vppfreq checkout (no src/vppfreq here)\n")
        return 2
    (root / OUT).mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_one(root, name, args.seed, args.seconds, 0 if args.all else args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
            sys.stderr.write(f"benchmark: {name}: {exc}\n")
            return 1
        results.append(result)
        print("\n".join(describe(result)), flush=True)
    if args.all:
        print(json.dumps({"machine": machine(), "runs": results}))
        return 0
    r = results[0]
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
