"""The CLI's report writer against the plain encoders it replaces.

The reference below is the writer the CLI used before: every float rounded
to 12 significant digits by a recursive pass, then ``json.dumps(indent=2)``;
CSV values written one by one, ``%.12g`` for floats and ``str()`` for the
rest. ``vppfreq.cli`` must produce the same bytes on any document.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vppfreq.cli import _csv, _json, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = str(ROOT / "scenarios" / "example.json")


# ------------------------------------------------------------ reference


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def reference_json(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2)


def reference_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ strategies

# Where "%.12g" and repr change notation or precision, plus the extremes.
EDGE_FLOATS = (
    0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 1e-5, 1e-7, 999999999999.5, 1e12, 123456789012.0,
    1234567890123456.0, 9999999999999999.0, 1e16, -1e16, 1.5e300, 2.2250738585072014e-308,
    2.225073858507e-308, 1e-310, 4.2412302487e-313, 5e-324, 1.7976931348623157e308, float("nan"),
    float("inf"), float("-inf"),
)

floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
float_arrays = st.lists(floats, max_size=12).map(lambda xs: np.array(xs, dtype=np.float64))
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
arrays = st.one_of(
    float_arrays,
    float_arrays.map(lambda a: a.reshape(-1, 1)),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(st.booleans(), max_size=6).map(lambda xs: np.array(xs, dtype=bool)),
)
documents = st.recursive(
    st.one_of(scalars, arrays, st.lists(floats, max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)

# About a second for the three property tests together.
FAST = settings(max_examples=50, deadline=None)


# ------------------------------------------------------------ writer


@FAST
@given(documents)
def test_json_matches_reference(doc):
    assert _json(doc) == reference_json(doc)


@FAST
@given(st.lists(floats, min_size=1, max_size=300), st.integers(min_value=0, max_value=3))
def test_json_float_column_matches_reference(values, depth):
    # A long flat column at some nesting depth: the shape of a trajectory.
    doc = {"t": np.array(values)}
    for _ in range(depth):
        doc = {"x": [doc, values]}
    assert _json(doc) == reference_json(doc)


def test_json_edge_values_spelled_as_json():
    for v in EDGE_FLOATS:  # alone, since one odd value changes how a list is written
        assert _json([v, 0.5]) == reference_json([v, 0.5])
    doc = {"v": list(EDGE_FLOATS), "s": "é€😀", "e": [], "d": {}, "n": None}
    assert _json(doc) == reference_json(doc)
    assert '"v": [\n    0.0,\n    -0.0,\n    1.0,' in _json(doc)
    assert "1000000000000.0" in _json(doc)  # "%.12g" would write 1e+12
    assert "1e-05" in _json(doc) and "5e-324" in _json(doc)
    assert "NaN" in _json(doc) and "-Infinity" in _json(doc)


def test_json_rejects_what_json_rejects():
    for bad in ({"x": object()}, {"x": np.bool_(True)}, [np.array([object()])]):
        with pytest.raises(TypeError):
            reference_json(bad)
        with pytest.raises(TypeError):
            _json(bad)


@FAST
@given(
    st.integers(min_value=0, max_value=20),
    st.lists(
        st.sampled_from(["float", "f64", "array", "int", "bool", "none", "str"]), min_size=1, max_size=6
    ),
    st.data(),
)
def test_csv_matches_reference(n_rows, kinds, data):
    strategies = {
        "float": floats,
        "f64": floats.map(np.float64),
        "array": floats,
        "int": st.integers(min_value=-(2**70), max_value=2**70),
        "bool": st.booleans(),
        "none": st.none(),
        "str": st.text(max_size=6),
    }
    cols = []
    # One value type per column, as in every CSV report.
    for kind in kinds:
        col = data.draw(st.lists(strategies[kind], min_size=n_rows, max_size=n_rows))
        cols.append(np.array(col, dtype=np.float64) if kind == "array" else col)
    header = [f"c{k}" for k in range(len(cols))]
    rows = [[col[i] for col in cols] for i in range(n_rows)]
    assert _csv(header, cols) == reference_csv(header, rows)


# ------------------------------------------------------------ every writer path


def _digest(argv: list[str], capsys) -> str:
    assert main(argv + ["--scenario", SCENARIO]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


GOLDEN = json.loads((ROOT / "benchmarks" / "golden.json").read_text(encoding="utf-8"))["sha256"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("requirements", ["requirements"]),
        ("simulate", ["simulate"]),
        ("allocate", ["allocate"]),
        ("pareto", ["pareto"]),
        ("allocate-2000", ["allocate", "--samples", "2000"]),
    ],
)
def test_golden_digests(name, argv, capsys):
    assert _digest(argv, capsys) == GOLDEN[name]


# Formats the golden digests do not cover, pinned at the writer's
# introduction from the output of the encoders it replaced.
PINNED = {
    "requirements-csv": (
        ["requirements", "--format", "csv"],
        "310d93762227db938c7317c488e942d632666bf104a744b3d6d16e992024d991",
    ),
    "simulate-json": (
        ["simulate", "--format", "json"],
        "aa8348081a3e55eb6728e78f1524e00ab07d57eded700c1d9ee6f05f4d945df2",
    ),
    "simulate-closed-form-json": (
        ["simulate", "--which", "closed-form", "--format", "json"],
        "95fdd728e96abc37ef8e07ce4a269fc096e2cea333b569b6c02f2a58c49dab69",
    ),
    "allocate-csv": (
        ["allocate", "--format", "csv"],
        "122d58f4915a1049011fb50cb070069bae0836173c02f47ca53ad19ed71e00da",
    ),
    "pareto-csv": (
        ["pareto", "--format", "csv"],
        "8ebc2e331264a2d7e954862331e5050ec6d9a7198239d80fa8f8229fd53d0418",
    ),
    "region-4x4-csv": (
        ["region", "--resolution", "4x4", "--include-required"],
        "9b73c43ab94af6d86a3629f2750f0f3df884b7c05c4f785038517465ddb72bf0",
    ),
    "region-4x4-json": (
        ["region", "--resolution", "4x4", "--include-required", "--format", "json"],
        "53a58a305e1866b282cd80737e32fa8c01efd4bec4441f5919d683cb4e96c7c2",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_format_digests(name, capsys):
    argv, want = PINNED[name]
    assert _digest(argv, capsys) == want
