"""Self-tests of the benchmark: generator, output checks, span arithmetic.

Run from the root of a checkout (about 10 s):

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = Path.cwd() / ".bench_out" / "selftest"


def _cli(argv: list[str]) -> str:
    import vppfreq.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _pool(workload: str, seed: int = 7, tag: str = "a"):
    return workloads.generate(workload, seed, SCRATCH / f"{workload}-{tag}")


def _first(requests, kind: str, **expect):
    for r in requests:
        if r.kind == kind and all(r.expect.get(k) == v for k, v in expect.items()):
            return r
    raise LookupError(kind)


def _verdict(req, text: str) -> str | None:
    sc = json.loads(Path(req.scenario).read_text())
    return checks.check(req, 0, text, "", sc)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = _pool(name, 3, "a"), _pool(name, 3, "b")
            self.assertEqual([r.argv[0] for r in a], [r.argv[0] for r in b])
            for ra, rb in zip(a, b):
                self.assertEqual(ra.argv[3:], rb.argv[3:])
                self.assertEqual(Path(ra.scenario).read_text(), Path(rb.scenario).read_text())

    def test_other_seed_other_inputs(self):
        a, b = _pool("sizing-study", 3, "a"), _pool("sizing-study", 4, "b")
        texts = lambda pool: [Path(r.scenario).read_text() for r in pool]  # noqa: E731
        self.assertNotEqual(texts(a), texts(b))

    def test_command_mix_is_fixed(self):
        a, b = _pool("fleet-allocation", 1, "a"), _pool("fleet-allocation", 2, "b")
        strip = lambda pool: [(r.argv[0], r.argv[3:]) for r in pool]  # noqa: E731
        self.assertEqual(strip(a), strip(b))

    def test_request_sizes_are_fixed(self):
        def sizes(pool):
            docs = [json.loads(Path(r.scenario).read_text()) for r in pool]
            return [(d.get("sim"), len(d.get("ibrs", [])), d.get("sampling", {}).get("n_samples"))
                    for d in docs]

        for name in ("fleet-allocation", "trajectory-export"):
            self.assertEqual(sizes(_pool(name, 1, "a")), sizes(_pool(name, 2, "b")))

        def fallback_lags(pool):
            pattern = workloads.SIZING_PATTERN
            return [json.loads(Path(r.scenario).read_text())["grid"]["t_sg_s"]
                    for i, r in enumerate(pool)
                    if pattern[i % len(pattern)] in ("region", "requirements-fallback")]

        a, b = _pool("sizing-study", 1, "a"), _pool("sizing-study", 2, "b")
        self.assertEqual(fallback_lags(a), fallback_lags(b))


class LatencyTest(unittest.TestCase):
    def test_median_of_slot_means(self):
        import worker

        lat = [1.0, 10.0, 5.0, 3.0, 5.0, 20.0]
        slots = [0, 1, 2, 0, 2, 2]
        # Slot means 2, 10 and 10; the pooled median would be 5.
        self.assertEqual(worker.slot_median(lat, slots), 10.0)

    def test_scaled_to_reference_speed(self):
        ref = speed.REFERENCE_S
        # Kernels around request 0 at reference speed, around request 1
        # twice as slow on both sides, around request 2 slow then fast.
        kernels = [ref, ref, 2 * ref, 2 * ref, ref]
        got = speed.scaled([0.1, 0.4, 0.3], [0, 2, 3], kernels)
        for g, want in zip(got, [0.1, 0.2, 0.2]):
            self.assertAlmostEqual(g, want)


class OutputCheckTest(unittest.TestCase):
    """Each check passes the real output and rejects a corrupted one."""

    @classmethod
    def setUpClass(cls):
        cls.sizing = _pool("sizing-study")
        cls.fleet = _pool("fleet-allocation")
        cls.traj = _pool("trajectory-export")

    def test_requirements(self):
        req = _first(self.sizing, "requirements")
        text = _cli(req.argv)
        self.assertIsNone(_verdict(req, text))
        doc = json.loads(text)
        nadir = doc["metrics"]["nadir_hz"]
        flipped = text.replace(repr(nadir), repr(nadir).replace("0.", "0.9", 1), 1)
        self.assertNotEqual(flipped, text)
        self.assertIn("nadir_hz", _verdict(req, flipped))

    def test_region(self):
        req = _first(self.sizing, "region")
        text = _cli(req.argv)
        self.assertIsNone(_verdict(req, text))
        # Drop the rocof label from the first cell that carries it.
        bad = re.sub(r",(\d)(,.*?)rocof;?", r",\1\2", text, count=1)
        self.assertNotEqual(bad, text)
        self.assertIsNotNone(_verdict(req, bad))
        short = "".join(text.splitlines(keepends=True)[:-1])
        self.assertIn("cells", _verdict(req, short))

    def test_allocate_off_total(self):
        req = _first(self.fleet, "allocate", format="json")
        text = _cli(req.argv)
        self.assertIsNone(_verdict(req, text))
        doc = json.loads(text)
        doc["bargain"]["front"][0]["d_pu"][0] += 0.01
        self.assertIn("sums to", _verdict(req, json.dumps(doc)))

    def test_allocate_flipped_digit(self):
        req = _first(self.fleet, "allocate", format="json")
        doc = json.loads(_cli(req.argv))
        chosen = doc["bargain"]["chosen_index"]
        doc["bargain"]["chosen"]["f_vpp"] += 1.0
        self.assertIn("chosen", _verdict(req, json.dumps(doc)))
        doc["bargain"]["chosen"]["f_vpp"] -= 1.0
        doc["bargain"]["front"][1 - min(chosen, 1)]["f_vpp"] *= 1.1
        self.assertIn("f_vpp", _verdict(req, json.dumps(doc)))

    def test_front_dominated_row(self):
        req = _first(self.fleet, "pareto", format="csv")
        text = _cli(req.argv)
        self.assertIsNone(_verdict(req, text))
        lines = text.splitlines()
        worse = lines[1].split(",")
        worse[0] = repr(float(worse[0]) + 1.0)
        bad = "\n".join(lines[:2] + [",".join(worse)] + lines[3:]) + "\n"
        self.assertIn("dominates", _verdict(req, bad))

    def test_simulate_short_trajectory(self):
        req = _first(self.traj, "simulate", which="both", format="csv")
        text = _cli(req.argv)
        self.assertIsNone(_verdict(req, text))
        short = "".join(text.splitlines(keepends=True)[:-1])
        self.assertIn("rows", _verdict(req, short))

    def test_simulate_flipped_closed_form(self):
        req = next(
            r for r in self.traj
            if r.expect == {"which": "both", "format": "json"}
            and json.loads(Path(r.scenario).read_text())["sim"]["t_vpp_s"] == 0.0
        )
        doc = json.loads(_cli(req.argv))
        k = len(doc["t"]) // 2
        doc["delta_f_closed_hz"][k] *= 2.0
        self.assertIn("deviates", _verdict(req, json.dumps(doc)))
        doc["delta_f_closed_hz"][k] = float("nan")
        self.assertIn("non-finite", _verdict(req, json.dumps(doc)))

    def test_refusal_and_traceback(self):
        req = _first(self.sizing, "requirements")
        sc = json.loads(Path(req.scenario).read_text())
        ok = '{"error": "UnsatisfiableError", "message": "x"}\n'
        self.assertIsNone(checks.check(req, 4, "", ok, sc))
        self.assertIsNotNone(checks.check(req, 4, "", ok + ok, sc))
        self.assertIsNotNone(checks.check(req, None, "", "Traceback", sc))
        self.assertIsNotNone(checks.check(req, 1, "", "", sc))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_of_nested_tree(self):
        # root [0, 10] > sizing [1, 7] > nadir [2, 3], nadir [4, 6] > sim [4.5, 5.5]
        # root also holds load [8, 9].
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0, None],
            ["requirements.sizing", 1.0, 7.0, 0, 0, None],
            ["freq_model.nadir", 2.0, 3.0, 1, 0, None],
            ["freq_model.nadir", 4.0, 6.0, 1, 0, {"raised": "OverdampedError"}],
            ["ode_oracle.fallback", 4.5, 5.5, 3, 0, {"steps": 40000}],
            ["scenario.load", 8.0, 9.0, 0, 0, None],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
        m = tracing.layer_metrics(spans, [{"code": 0, "bytes": 2048}], wall_s=12.0)
        self.assertAlmostEqual(m["cli.self_ms"], 3000.0)
        for layer, share in (("cli", 3), ("requirements", 3), ("freq_model", 2),
                             ("ode_oracle", 1), ("scenario", 1), ("allocator", 0)):
            self.assertAlmostEqual(m[f"{layer}.self_share"], share / 12.0)
        self.assertAlmostEqual(m["trace.residual_ms"], 2000.0)
        self.assertAlmostEqual(m["trace.residual_share"], 2.0 / 12.0)
        self.assertEqual(m["requirements.nadir_evals_per_sizing"], 2.0)
        self.assertEqual(m["requirements.closed_form_share"], 0.5)
        self.assertEqual(m["ode_oracle.rk4_steps"], 40000.0)
        self.assertAlmostEqual(m["ode_oracle.steps_per_s"], 40000.0)
        self.assertAlmostEqual(m["freq_model.nadir_us"], 1.5e6)
        self.assertAlmostEqual(m["cli.self_us_per_kb"], 3e6 / 2.0)
        # A function the workload never called is costed on the probe.
        self.assertEqual(m["allocator.solve_us"], 0.0)
        probe = [["cli.main", 0.0, 1.0, -1, 0, None], ["allocator.solve", 0.5, 0.75, 0, 0, None]]
        m = tracing.layer_metrics(spans, [{"code": 0, "bytes": 2048}], 12.0, probe)
        self.assertAlmostEqual(m["allocator.solve_us"], 250000.0)
        self.assertAlmostEqual(m["freq_model.nadir_us"], 1.5e6)
        self.assertEqual(m["allocator.solve_calls"], 0.0)

    def test_missing_name_reads_zero(self):
        tracer = tracing.Tracer()
        modules = {
            "cli": types.SimpleNamespace(),
            "requirements": types.SimpleNamespace(nadir=lambda *a: (0.4, 1.0)),
            "allocator": types.SimpleNamespace(),
        }
        tracer.install(modules)
        self.assertIn("requirements.simulate", tracer.missing)
        modules["requirements"].nadir()
        tracer.uninstall()
        m = tracing.layer_metrics(tracer.spans, [{"code": 0, "bytes": 0}], wall_s=1.0)
        self.assertEqual(m["requirements.fallback_sims"], 0.0)
        self.assertEqual(m["freq_model.nadir_calls"], 1.0)
        self.assertEqual(set(m) | {"trace.untraced_rps", "trace.traced_rps", "trace.overhead_pct"},
                         set(tracing.METRICS))


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
