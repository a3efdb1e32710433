"""Scenario files and the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vppfreq as v
import vppfreq.requirements as requirements
from vppfreq.cli import main
from vppfreq.scenario import parse_scenario, scenario_to_dict

SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "example.json")


def _base_doc() -> dict:
    return json.loads(Path(SCENARIO).read_text())


def _write_doc(tmp_path: Path, doc: dict, name: str = "case.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- scenario


def test_scenario_round_trip():
    sc = v.load_scenario(SCENARIO)
    doc = scenario_to_dict(sc)
    again = scenario_to_dict(parse_scenario(doc))
    assert doc == again
    assert sc.grid.f0 == 50.0
    assert len(sc.ibrs) == 8
    assert sc.n_samples == 200
    assert sc.seed == 42


def test_scenario_rejects_unknown_keys(tmp_path):
    doc = _base_doc()
    doc["grid"]["mystery"] = 1.0
    with pytest.raises(ValueError, match="mystery"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["extra_section"] = {}
    with pytest.raises(ValueError, match="extra_section"):
        parse_scenario(doc)


def test_scenario_rejects_missing_section():
    doc = _base_doc()
    del doc["limits"]
    with pytest.raises(ValueError, match="limits"):
        parse_scenario(doc)


def test_scenario_rejects_rise_event():
    doc = _base_doc()
    doc["disturbance"]["delta_p_pu"] = -0.25
    with pytest.raises(ValueError):
        parse_scenario(doc)


def test_scenario_rejects_subband_disturbance():
    doc = _base_doc()
    doc["disturbance"]["delta_p_pu"] = 0.001
    with pytest.raises(ValueError, match="dead band"):
        parse_scenario(doc)


def test_scenario_rejects_bad_ibr():
    doc = _base_doc()
    doc["ibrs"][2]["alpha_per_s"] = -1.0
    with pytest.raises(ValueError, match=r"ibrs\[2\]"):
        parse_scenario(doc)


def test_scenario_optional_sections_default():
    doc = _base_doc()
    del doc["ibrs"]
    del doc["sampling"]
    del doc["sim"]
    sc = parse_scenario(doc)
    assert sc.ibrs == []
    assert sc.n_samples == 200
    assert sc.seed == 0
    assert sc.sim.dt == 1e-3
    assert sc.compensation is None


# ---------------------------------------------------------------- commands


def test_cli_requirements_json(capsys):
    code, out, _ = run_cli(["requirements", "--scenario", SCENARIO], capsys)
    assert code == 0
    doc = json.loads(out)
    assert 18.5 <= doc["requirement"]["h_re_s"] <= 19.6
    assert doc["requirement"]["d_re_pu"] == pytest.approx(12.109375, abs=1e-6)
    assert doc["requirement"]["binding_h"] == "nadir"
    assert doc["metrics"]["qss_hz"] == pytest.approx(0.35, abs=1e-6)
    assert doc["metrics"]["nadir_hz"] == pytest.approx(0.5, abs=5e-3)


def test_cli_simulate_both_csv(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scenario", SCENARIO, "--which", "both", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,delta_f_closed_hz,delta_f_ode_hz,p_sg_pu,p_vpp_pu"
    assert len(lines) == 30001 + 1
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(30.0, abs=1e-9)
    assert last[1] == pytest.approx(-0.35, abs=1e-3)
    assert last[2] == pytest.approx(-0.35, abs=1e-3)


def test_cli_simulate_closed_json(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scenario", SCENARIO, "--which", "closed-form", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"t", "delta_f_hz"}
    assert doc["delta_f_hz"][0] == 0.0


def test_cli_simulate_without_ibrs_is_valid(tmp_path, capsys):
    doc = _base_doc()
    del doc["ibrs"]
    doc["vpp"] = {"h_vpp_s": 19.125, "d_vpp_pu": 12.109}
    path = _write_doc(tmp_path, doc)
    code, out, _ = run_cli(
        ["simulate", "--scenario", path, "--which", "ode", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.startswith("t,delta_f_hz,p_sg_pu,p_vpp_pu")


def test_cli_allocate_json_structure(capsys):
    code, out, _ = run_cli(["allocate", "--scenario", SCENARIO, "--samples", "40"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["requirement"]["source"] == "sizing"
    bargain = doc["bargain"]
    assert bargain["front_size"] == len(bargain["front"])
    assert len(bargain["chosen"]["h_s"]) == 8
    assert sum(bargain["chosen"]["h_s"]) == pytest.approx(doc["requirement"]["h_re_s"], abs=1e-6)
    assert sum(bargain["chosen"]["d_pu"]) == pytest.approx(doc["requirement"]["d_re_pu"], abs=1e-6)
    comp = doc["comparison"]
    assert comp["nash_delta"] > 0.0
    assert comp["f_vpp_delta"] > 0.0


def test_cli_allocate_csv_matrix(capsys):
    code, out, _ = run_cli(
        ["allocate", "--scenario", SCENARIO, "--samples", "40", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "f_vpp," + ",".join(f"f_ibr_{k}" for k in range(1, 9))
    assert len(lines) > 1


def test_cli_allocate_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a1.json"
    out2 = tmp_path / "a2.json"
    assert main(["allocate", "--scenario", SCENARIO, "--samples", "60", "--out", str(out1)]) == 0
    assert main(["allocate", "--scenario", SCENARIO, "--samples", "60", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_allocate_explicit_vpp_totals(tmp_path, capsys):
    doc = _base_doc()
    doc["vpp"] = {"h_vpp_s": 10.0, "d_vpp_pu": 8.0}
    path = _write_doc(tmp_path, doc)
    code, out, _ = run_cli(["allocate", "--scenario", path, "--samples", "20"], capsys)
    assert code == 0
    doc_out = json.loads(out)
    assert doc_out["requirement"]["source"] == "scenario-vpp"
    assert doc_out["requirement"]["h_re_s"] == 10.0


def test_cli_allocate_single_ibr_trivial(tmp_path, capsys):
    doc = _base_doc()
    doc["ibrs"] = [
        {
            "alpha_per_s": 1.0,
            "beta_per_pu": 1.0,
            "p_rated_pu": 0.25,
            "h_min_s": 0.0,
            "h_max_s": 100.0,
            "d_min_pu": 0.0,
            "d_max_pu": 100.0,
        }
    ]
    path = _write_doc(tmp_path, doc)
    code, out, _ = run_cli(["allocate", "--scenario", path, "--samples", "10"], capsys)
    assert code == 0
    doc_out = json.loads(out)
    chosen = doc_out["bargain"]["chosen"]
    assert chosen["h_s"][0] == pytest.approx(doc_out["requirement"]["h_re_s"], abs=1e-6)
    assert chosen["d_pu"][0] == pytest.approx(doc_out["requirement"]["d_re_pu"], abs=1e-6)


def test_cli_allocate_profit_block(tmp_path, capsys):
    doc = _base_doc()
    doc["compensation"] = {"price_h_per_s": 3.0, "price_d_per_pu": 2.0}
    path = _write_doc(tmp_path, doc)
    code, out, _ = run_cli(["allocate", "--scenario", path, "--samples", "20"], capsys)
    assert code == 0
    doc_out = json.loads(out)
    assert "profit" in doc_out
    assert doc_out["profit"]["economic"] >= doc_out["profit"]["bargain"]


def test_cli_pareto_json_and_csv(capsys):
    code, out, _ = run_cli(["pareto", "--scenario", SCENARIO, "--samples", "30"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["front_size"] == len(doc["points"]) > 0
    code, out, _ = run_cli(
        ["pareto", "--scenario", SCENARIO, "--samples", "30", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("f_vpp,f_ibr_1")
    assert len(lines) == doc["front_size"] + 1


def test_cli_region_single_cell(capsys):
    code, out, _ = run_cli(
        ["region", "--scenario", SCENARIO, "--resolution", "1x1"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "h_vpp_s,d_vpp_pu,feasible,violated"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[:3] == ["0", "0", "0"]
    assert "rocof" in cells[3] and "qss" in cells[3]


def test_cli_region_includes_required_point(capsys):
    code, out, _ = run_cli(
        ["region", "--scenario", SCENARIO, "--resolution", "1x1", "--include-required"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    required = lines[2].split(",")
    assert float(required[0]) == pytest.approx(19.0, abs=0.6)
    assert required[2] == "1"
    assert required[3] == ""


def test_cli_region_json_grid(capsys):
    code, out, _ = run_cli(
        ["region", "--scenario", SCENARIO, "--resolution", "3x4", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 12
    corner = doc["points"][-1]
    assert corner["h_vpp_s"] == 50.0
    assert corner["d_vpp_pu"] == 50.0
    assert corner["feasible"] is True


# ---------------------------------------------------------------- failures


def test_cli_invalid_scenario_exit_2(tmp_path, capsys):
    doc = _base_doc()
    doc["grid"]["typo_key"] = 1.0
    path = _write_doc(tmp_path, doc)
    code, out, err = run_cli(["requirements", "--scenario", path], capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "typo_key" in error["message"]


def test_cli_missing_file_exit_2(capsys):
    code, _, err = run_cli(["requirements", "--scenario", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert json.loads(err)["error"]


def test_cli_unsatisfiable_exit_4(tmp_path, capsys):
    doc = _base_doc()
    doc["limits"]["d_vpp_max_pu"] = 5.0
    path = _write_doc(tmp_path, doc)
    code, _, err = run_cli(["requirements", "--scenario", path], capsys)
    assert code == 4
    assert json.loads(err)["error"] == "UnsatisfiableError"


def test_cli_overdamped_exit_3(tmp_path, capsys):
    doc = _base_doc()
    doc["grid"]["t_sg_s"] = 0.01
    doc["grid"]["f_db1_hz"] = 0.0
    doc["grid"]["f_db2_hz"] = 0.0
    doc["vpp"] = {"h_vpp_s": 19.125, "d_vpp_pu": 12.109}
    path = _write_doc(tmp_path, doc)
    code, _, err = run_cli(
        ["simulate", "--scenario", path, "--which", "closed-form"], capsys
    )
    assert code == 3
    assert json.loads(err)["error"] == "OverdampedError"


def test_cli_overdamped_sizing_simulates_once(tmp_path, capsys, monkeypatch):
    # Overdamped at the rate-of-change floor: sizing simulates the dip there
    # and the metrics report reuses it.
    doc = _base_doc()
    doc["grid"].update(t_sg_s=0.01, f_db1_hz=0.0, f_db2_hz=0.0)
    doc["limits"].update(rocof_limit_hz_per_s=0.25, nadir_limit_hz=0.6, qss_limit_hz=0.4)
    path = _write_doc(tmp_path, doc)
    calls = []

    def counting(*args):
        calls.append(args)
        return v.simulate(*args)

    monkeypatch.setattr(requirements, "simulate", counting)
    code, out, _ = run_cli(["requirements", "--scenario", path], capsys)
    assert code == 0
    assert len(calls) == 1
    report = json.loads(out)
    assert report["requirement"]["binding_h"] == "rocof"
    assert report["metrics"]["t_nadir_s"] is None
    dip = max(abs(x) for x in v.simulate(*calls[0]).delta_f.tolist())
    assert report["metrics"]["nadir_hz"] == float(f"{dip:.12g}")


NON_NUMBERS = [
    ("grid", "d0_pu", "2.0", "grid.d0_pu must be a number"),
    ("grid", "h0_s", None, "grid.h0_s must be a number"),
    ("disturbance", "delta_p_pu", True, "must be a number"),
    ("disturbance", "delta_p_pu", float("inf"), "must be finite"),
    ("limits", "nadir_limit_hz", float("nan"), "must be finite"),
    ("limits", "h_vpp_max_s", [50.0], "must be a number"),
    ("sim", "dt_s", "0.001", "sim.dt_s must be a number"),
    ("sampling", "n_samples", 2.7, "sampling.n_samples must be an integer"),
    ("sampling", "seed", False, "sampling.seed must be a number"),
    ("ibrs", "alpha_per_s", "3", r"ibrs\[0\]: ibr.alpha_per_s must be a number"),
    ("ibrs", "h_min_s", None, r"ibrs\[0\]: ibr.h_min_s must be a number"),
    ("compensation", "price_h_per_s", "1.5", "must be a number"),
    ("vpp", "d_vpp_pu", 10**400, "must be finite"),
]


@pytest.mark.parametrize(
    "section, key, value, fragment",
    NON_NUMBERS,
    ids=[f"{s}.{k}-{type(val).__name__}" for s, k, val, _ in NON_NUMBERS],
)
def test_cli_rejects_non_numbers_exit_2(tmp_path, capsys, section, key, value, fragment):
    doc = _base_doc()
    doc["vpp"] = {"h_vpp_s": 19.125, "d_vpp_pu": 12.109}
    doc["compensation"] = {"price_h_per_s": 1.0, "price_d_per_pu": 1.0}
    target = doc["ibrs"][0] if section == "ibrs" else doc[section]
    target[key] = value
    path = _write_doc(tmp_path, doc)
    code, out, err = run_cli(["requirements", "--scenario", path], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueError"
    assert re.search(fragment, error["message"])


def test_scenario_accepts_integral_numbers_and_null_bounds():
    doc = _base_doc()
    doc["grid"]["d0_pu"] = 2
    doc["sampling"]["n_samples"] = 150.0
    doc["ibrs"][0]["h_max_s"] = None
    sc = parse_scenario(doc)
    assert sc.grid.d0 == 2
    assert sc.n_samples == 150 and isinstance(sc.n_samples, int)
    assert sc.ibrs[0].h_max is None


def test_cli_allocate_without_ibrs_exit_2(tmp_path, capsys):
    doc = _base_doc()
    del doc["ibrs"]
    path = _write_doc(tmp_path, doc)
    code, _, err = run_cli(["allocate", "--scenario", path], capsys)
    assert code == 2
    assert "ibrs" in json.loads(err)["message"]


def test_cli_entry_point_subprocess():
    # The child imports the package under test, also when it is not installed.
    src = str(Path(v.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "vppfreq", "requirements", "--scenario", SCENARIO],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["requirement"]["d_re_pu"] == pytest.approx(12.109375, abs=1e-6)
