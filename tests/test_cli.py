"""CLI: config validation, commands, exit codes, report and mesh formats."""

import json
import math
import os
import resource
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from minkruled import cli, transversal
from minkruled import expressions as ex
from minkruled.cli import main, parse_config
from minkruled.errors import ConfigError

HERE = os.path.dirname(__file__)
SCHEMA_PATH = os.path.join(HERE, "..", "docs", "report.schema.json")
CONFIG_DIR = os.path.join(HERE, "..", "demos", "configs")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL_INTRINSIC = {
    "mode": "intrinsic",
    "k1": "1",
    "k2": "0",
    "theta": "1",
    "s_range": [0.0, 1.0],
    "step": 0.001,
}


def validate_report(path, schema):
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    jsonschema.validate(report, schema)
    return report


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_minimal(tmp_path):
    cfg = parse_config(write_config(tmp_path, "c.json", MINIMAL_INTRINSIC))
    assert cfg.mode == "intrinsic"
    assert cfg.data.step == 0.001
    assert cfg.data.epsilon == -1


def test_parse_config_bad_expression(tmp_path):
    payload = dict(MINIMAL_INTRINSIC, k1="cosh(")
    with pytest.raises(ConfigError, match="offset 5"):
        parse_config(write_config(tmp_path, "c.json", payload))


def test_parse_config_unknown_key(tmp_path):
    payload = dict(MINIMAL_INTRINSIC, kappa1="1")
    with pytest.raises(ConfigError, match="kappa1"):
        parse_config(write_config(tmp_path, "c.json", payload))


def test_parse_config_missing_key(tmp_path):
    payload = {k: v for k, v in MINIMAL_INTRINSIC.items() if k != "step"}
    with pytest.raises(ConfigError, match="step"):
        parse_config(write_config(tmp_path, "c.json", payload))


def test_main_exit_code_2_on_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", dict(MINIMAL_INTRINSIC, kappa1="1"))
    assert main(["synthesize", "--config", path]) == 2
    assert "kappa1" in capsys.readouterr().err
    assert main(["synthesize", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


BAD_VALUE_CONFIGS = [
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"k1_values": ["x"]}), id="suite-k1-not-number"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"families": 5}), id="suite-families-not-list"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"tolerance": "big"}), id="suite-tolerance-not-number"),
    pytest.param(
        dict(MINIMAL_INTRINSIC, initial_frame=[[1, 0, 0], [0, "x", 0], [0, 0, -1]]),
        id="initial-frame-not-number",
    ),
    pytest.param(dict(MINIMAL_INTRINSIC, s_range=[0.0, math.inf]), id="s-range-infinite"),
    pytest.param(
        dict(
            MINIMAL_INTRINSIC,
            suite={"k1_values": [1.0], "k2_values": [0.5], "theta_values": [0.5], "step": -0.01},
        ),
        id="suite-step-negative",
    ),
    pytest.param(
        dict(MINIMAL_INTRINSIC, initial_frame=[[2, 0, 0], [0, 1, 0], [0, 0, -1]]),
        id="initial-frame-not-orthonormal",
    ),
    # the default frame is canonical only for epsilon = -1
    pytest.param(dict(MINIMAL_INTRINSIC, epsilon=1), id="epsilon-positive-default-frame"),
    # JSON booleans are not numbers
    pytest.param(dict(MINIMAL_INTRINSIC, epsilon=True), id="epsilon-boolean"),
    pytest.param(dict(MINIMAL_INTRINSIC, step=True), id="step-boolean"),
    pytest.param(dict(MINIMAL_INTRINSIC, s_range=[False, True]), id="s-range-boolean"),
    pytest.param(
        dict(MINIMAL_INTRINSIC, suite={"k1_values": [True], "k2_values": [0.5], "theta_values": [0.5]}),
        id="suite-k1-boolean",
    ),
    pytest.param(dict(MINIMAL_INTRINSIC, tolerances={"general_eps": True}), id="tolerance-boolean"),
    pytest.param(dict(MINIMAL_INTRINSIC, step=10**400), id="step-integer-overflows-float"),
]


@pytest.mark.parametrize("command", ["synthesize", "transversal", "verify"])
@pytest.mark.parametrize("payload", BAD_VALUE_CONFIGS)
def test_bad_config_values_exit_2(tmp_path, capsys, command, payload):
    if command == "transversal":
        payload = dict(payload, transversal={"kind": "beta", "angle": "pi/4"})
    # json.dumps writes math.inf as Infinity, which json.load accepts
    path = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", path, "--output-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


# the ruling 2*(cosh, sinh, 0) is unit only if normalize_q is really on
NON_UNIT_EXPLICIT = {
    "mode": "explicit",
    "f": ["0.9*s", "0", "0.7*s"],
    "q": ["2*cosh(0.8*s)", "2*sinh(0.8*s)", "0"],
    "u_range": [0.0, 1.0],
    "samples": 11,
    "normalize_q": True,
}


@pytest.mark.parametrize("command", ["analyze", "mesh"])
@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(dict(NON_UNIT_EXPLICIT, normalize_q="false"), id="normalize-q-string"),
        pytest.param(dict(NON_UNIT_EXPLICIT, u_range=[False, True]), id="u-range-boolean"),
    ],
)
def test_bad_explicit_values_exit_2(tmp_path, capsys, command, payload):
    path = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", path, "--output-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block",
    [
        pytest.param({"kind": "beta", "angle": "pi/4", "branch": "timelike"}, id="beta-with-branch"),
        pytest.param({"kind": "alpha", "angle": "1"}, id="alpha-without-branch"),
        pytest.param({"kind": "gamma", "angle": "1", "branch": "lightlike"}, id="gamma-lightlike"),
    ],
)
def test_transversal_branch_rules_exit_2(tmp_path, capsys, block):
    path = write_config(tmp_path, "c.json", dict(MINIMAL_INTRINSIC, transversal=block))
    assert main(["transversal", "--config", path, "--output-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


def test_main_exit_code_1_on_degeneracy(tmp_path, capsys):
    payload = {
        "mode": "explicit",
        "f": ["0", "0", "s"],
        "q": ["1", "0", "0"],  # constant ruling: cylinder
        "u_range": [0.0, 1.0],
        "samples": 21,
        "output": {"report_path": "r.json"},
    }
    path = write_config(tmp_path, "c.json", payload)
    assert main(["analyze", "--config", path, "--output-dir", str(tmp_path)]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# end-to-end commands
# ---------------------------------------------------------------------------


def test_analyze_helicoid_end_to_end(tmp_path, schema):
    config = os.path.join(CONFIG_DIR, "helicoid_analyze.json")
    assert main(["analyze", "--config", config, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "helicoid_report.json", schema)
    assert report["classification"]["class"] == "N-"
    assert report["classification"]["skew"] is True
    drall = np.array(report["samples"]["drall"], dtype=float)
    assert np.max(np.abs(drall - 1.0)) <= 1e-9
    # deterministic: a second run produces byte-identical output
    first = (tmp_path / "helicoid_report.json").read_bytes()
    assert main(["analyze", "--config", config, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "helicoid_report.json").read_bytes() == first


def test_analyze_evaluates_each_field_node_once_per_grid(tmp_path, monkeypatch):
    """An analyze job of the benchmark's seed-71 T1 surface makes at most 900 node
    evaluations: each grid evaluates a node its fields share once."""
    nodes, apply = [], ex._apply
    monkeypatch.setattr(ex, "_apply", lambda node, *args: nodes.append(node is not None) or apply(node, *args))
    config = write_config(tmp_path, "t1.json", {
        "mode": "explicit", "f": ["0.94*s", "0", "0.78*s"], "q": ["cosh(0.76*s)", "sinh(0.76*s)", "0"],
        "u_range": [0.0, 0.92], "samples": 101, "output": {"report_path": "report.json"},
    })
    assert main(["analyze", "--config", config, "--output-dir", str(tmp_path)]) == 0
    assert 0 < sum(nodes) <= 900


def test_synthesize_end_to_end(tmp_path, schema):
    config = os.path.join(CONFIG_DIR, "hyperbolic_synthesize.json")
    assert main(["synthesize", "--config", config, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "synthesis_report.json", schema)
    assert report["frame_residuals"]["ruling_norm"] <= 1e-9
    assert report["drall"]["oracle_max_gap"] <= 1e-6


def test_transversal_end_to_end(tmp_path, schema):
    config = os.path.join(CONFIG_DIR, "beta_transversal.json")
    assert main(["transversal", "--config", config, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "beta_report.json", schema)
    d = np.array(report["samples"]["d_closed"], dtype=float)
    assert np.max(np.abs(d + math.sinh(1.0))) <= 1e-9
    assert report["agreement"]["rel_d"] <= 1e-5
    assert report["agreement"]["printed_sign_flip"] is True
    assert not report["agreement"]["closed_form_suspect"]
    assert any("sign" in w for w in report["warnings"])


def test_transversal_analyzes_once(tmp_path, monkeypatch):
    # both condition reports read the command's one analysis; only the
    # corollary checks may run an analysis of their own
    calls = []
    original = transversal.analyze

    def counted(surf, spec):
        calls.append(spec)
        return original(surf, spec)

    monkeypatch.setattr(transversal, "analyze", counted)
    monkeypatch.setattr(cli, "analyze_transversal", counted)
    config = os.path.join(CONFIG_DIR, "beta_transversal.json")
    assert main(["transversal", "--config", config, "--output-dir", str(tmp_path)]) == 0
    assert 1 <= len(calls) <= 2


def test_transversal_with_undefined_base_drall_nulls_the_corollaries(tmp_path, schema):
    # theta = 0 makes the base developable, but k1 = 0 leaves its drall
    # undefined, so the corollary checks cannot run; the rest of the report can
    payload = {
        "mode": "intrinsic",
        "k1": "0",
        "k2": "-0.5",
        "theta": "0",
        "s_range": [0.0, 1.0],
        "step": 0.01,
        "transversal": {"kind": "beta", "angle": "0.7"},
        "output": {"report_path": "beta_report.json"},
    }
    config = write_config(tmp_path, "c.json", payload)
    out_dir = tmp_path / "out"
    assert main(["transversal", "--config", config, "--output-dir", str(out_dir)]) == 0
    report = validate_report(out_dir / "beta_report.json", schema)
    assert report["corollaries"] is None
    assert "corollary checks skipped: base drall undefined where k1 = 0" in report["warnings"]
    assert report["coincidence"] is not None and report["developability"] is not None


def test_mesh_end_to_end(tmp_path):
    config = os.path.join(CONFIG_DIR, "hyperbolic_mesh.json")
    assert main(["mesh", "--config", config, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "surface.obj").read_text().splitlines()
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 101 * 21
    assert len(faces) == 100 * 20
    # striction curve starts at the origin and v = 0 is the middle column:
    # vertex (s=0, v=0) is the canonical zero line
    assert "v 0 0 0" in vertices
    first = (tmp_path / "surface.obj").read_bytes()
    assert main(["mesh", "--config", config, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "surface.obj").read_bytes() == first


def test_verify_end_to_end_small(tmp_path, schema):
    payload = dict(
        MINIMAL_INTRINSIC,
        suite={
            "k1_values": [1.0],
            "k2_values": [0.0, 2.0],
            "theta_values": [0.0, 0.5493061443340549],
            "step": 0.002,
        },
        output={"report_path": "verify.json"},
    )
    path = write_config(tmp_path, "c.json", payload)
    assert main(["verify", "--config", path, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "verify.json", schema)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["error"] == 0
    assert len(report["suites"]) == 3



def test_verify_zero_k1_reports(tmp_path, schema, capsys):
    payload = dict(
        MINIMAL_INTRINSIC,
        suite={"k1_values": [0.0], "k2_values": [0.5], "theta_values": [0.0]},
        output={"report_path": "verify.json"},
    )
    path = write_config(tmp_path, "c.json", payload)
    assert main(["verify", "--config", path, "--output-dir", str(tmp_path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    validate_report(tmp_path / "verify.json", schema)


@pytest.mark.parametrize("samples", [2, 3, 6])
def test_analyze_too_few_samples_skips_predicates(tmp_path, schema, samples):
    payload = {
        "mode": "explicit",
        "f": ["0.9*s", "0", "0.7*s"],
        "q": ["cosh(0.8*s)", "sinh(0.8*s)", "0"],
        "u_range": [0.0, 1.0],
        "samples": samples,
        "output": {"report_path": "report.json"},
    }
    path = write_config(tmp_path, "c.json", payload)
    assert main(["analyze", "--config", path, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "report.json", schema)
    assert report["striction_predicates"] is None
    assert report["warnings"] == ["predicates need at least 7 samples; predicates skipped"]
    assert len(report["samples"]["arc_length"]) == samples
    assert all(theta is not None for theta in report["samples"]["theta"])

def test_transversal_requires_intrinsic(tmp_path, capsys):
    payload = {
        "mode": "explicit",
        "f": ["0", "0", "s"],
        "q": ["cosh(s)", "sinh(s)", "0"],
        "u_range": [0.0, 1.0],
        "samples": 11,
    }
    path = write_config(tmp_path, "c.json", payload)
    assert main(["transversal", "--config", path]) == 2
    capsys.readouterr()


def test_tolerance_flag(tmp_path, schema):
    config = os.path.join(CONFIG_DIR, "helicoid_analyze.json")
    assert (
        main(
            [
                "analyze",
                "--config",
                config,
                "--output-dir",
                str(tmp_path),
                "--tolerance",
                "2.0",
            ]
        )
        == 0
    )
    report = validate_report(tmp_path / "helicoid_report.json", schema)
    # with a huge tolerance the |d| = 1 surface counts as developable
    assert report["classification"]["developable"] is True


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_tolerance_flag_rejects_non_positive_or_non_finite(tmp_path, capsys, value):
    # as suite.tolerance: Infinity in the config does, --tolerance inf exits 2
    payload = dict(
        MINIMAL_INTRINSIC,
        suite={"k1_values": [1.0], "k2_values": [0.5], "theta_values": [0.5]},
        output={"report_path": "verify.json"},
    )
    path = write_config(tmp_path, "c.json", payload)
    argv = ["verify", "--config", path, "--output-dir", str(tmp_path), f"--tolerance={value}"]
    assert main(argv) == 2
    assert "--tolerance must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_report_echoes_expressions(tmp_path, schema):
    config = os.path.join(CONFIG_DIR, "beta_transversal.json")
    assert main(["transversal", "--config", config, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "beta_report.json", schema)
    assert report["config"]["k1"] == "1"
    assert report["config"]["transversal"]["angle"] == "pi/4"


# ---------------------------------------------------------------------------
# writers: the same bytes as the per-value writers they replaced
# ---------------------------------------------------------------------------


def reference_obj_text(grid):
    """The OBJ text of the per-vertex f-string writer, kept as the reference."""
    ns, nv, _ = grid.shape
    lines = []
    for i in range(ns):
        for j in range(nv):
            x, y, z = grid[i, j]
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for i in range(ns - 1):
        for j in range(nv - 1):
            base = i * nv + j + 1
            lines.append(f"f {base} {base + nv} {base + nv + 1} {base + 1}")
    return "\n".join(lines) + "\n"


def reference_sanitize(value, warnings, context):
    """The list-walking sanitizer, kept as the reference."""
    if isinstance(value, dict):
        return {k: reference_sanitize(v, warnings, f"{context}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_sanitize(v, warnings, context) for v in value]
    if isinstance(value, np.ndarray):
        return reference_sanitize(value.tolist(), warnings, context)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        warnings.append(f"{context}: non-finite value replaced by null")
        return None
    return value


SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
    1.7976931348623157e308, 3.0, -7.0, 1e16, 123456789012345678.0, 0.1, 1 / 3,
]


def obj_grid(ns, nv, seed):
    """Random (ns, nv, 3) grid over 16 decades, with integral and special floats."""
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((ns, nv, 3)) * 10.0 ** rng.uniform(-8, 8, (ns, nv, 3))
    flat = grid.reshape(-1)
    positions = rng.choice(flat.size, size=min(flat.size, 3 * len(SPECIAL_FLOATS)), replace=False)
    integral = rng.random(flat.size) < 0.1
    flat[integral] = np.round(flat[integral])
    flat[positions] = np.resize(SPECIAL_FLOATS, positions.size)
    return grid


@pytest.mark.parametrize(
    "shape,chunk",
    [((2, 2), None), ((2, 2), 1), ((101, 81), None), ((64, 64), 4096), ((65, 65), 4096)]
    # a (3, 4) grid has 12 vertex rows and 6 faces: these chunks fall just
    # below, at and just above the length of each table
    + [((3, 4), chunk) for chunk in (5, 6, 7, 11, 12, 13)],
)
def test_export_obj_matches_per_vertex_writer(tmp_path, monkeypatch, shape, chunk):
    # (64, 64) has 4096 vertex rows and (65, 65) 4096 faces
    if chunk is not None:
        monkeypatch.setattr(cli, "OBJ_CHUNK_ROWS", chunk)
    grid = obj_grid(*shape, seed=sum(shape) + (chunk or 0))
    cli.export_obj(grid, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(grid).encode("utf-8")


def with_non_finite(array, index, value):
    out = np.array(array, dtype=float)
    out.reshape(-1)[index] = value
    return out


SANITIZE_CASES = {
    "nested": {
        "a": {"b": (1.0, float("nan"), [2, np.float64(np.inf)]), "c": None, "d": "text"},
        "e": [True, 3, np.int64(4), np.float32(1.5), np.float64(-np.inf)],
    },
    "numpy-scalars": [np.float64(0.5), np.float64(np.nan), np.int32(-3), np.float16(2.0)],
    "int-array": np.arange(-5, 6),
    "bool-array": np.array([True, False, True]),
    "empty-array": np.zeros(0),
    "finite-2d": np.linspace(-1.0, 1.0, 12).reshape(4, 3),
    "arrays-in-dict": {
        f"{kind}-{where}": with_non_finite(np.linspace(0.0, 1.0, 9), index, value)
        for kind, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
        for where, index in (("first", 0), ("middle", 4), ("last", -1))
    },
    "nan-2d": with_non_finite(np.ones((5, 3)), 7, np.nan),
    "array-list": [np.array([1.0, np.inf]), np.array([np.nan]), np.array([2, 3])],
}


@pytest.mark.parametrize("name", sorted(SANITIZE_CASES))
def test_sanitize_matches_list_walk(name):
    value = SANITIZE_CASES[name]
    got_warnings, ref_warnings = [], []
    got = cli._sanitize(value, got_warnings, name)
    ref = reference_sanitize(value, ref_warnings, name)
    assert json.dumps(got, indent=2, allow_nan=False) == json.dumps(ref, indent=2, allow_nan=False)
    assert got_warnings == ref_warnings


def test_export_report_of_arrays_matches_lists(tmp_path):
    # the command functions hand arrays to the report: the bytes must be those of the lists
    curve = with_non_finite(np.ones((7, 3)), 10, np.nan)
    arrays = {
        "samples": {"s": np.linspace(0.0, 1.0, 7), "c": curve},
        "valid": np.array([True, False]),
        "gap": np.float64(np.inf),
        "warnings": ["kept first"],
    }
    lists = {
        "samples": {"s": arrays["samples"]["s"].tolist(), "c": curve.tolist()},
        "valid": [True, False],
        "gap": math.inf,
    }
    cli.export_report(arrays, str(tmp_path / "r.json"))
    ref_warnings = ["kept first"]
    body = {k: reference_sanitize(v, ref_warnings, k) for k, v in lists.items()}
    body["warnings"] = ref_warnings
    expected = json.dumps(body, indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "r.json").read_bytes() == expected.encode("utf-8")


def test_export_obj_rejects_non_finite(tmp_path):
    grid = obj_grid(3, 4, seed=0)
    grid[1, 2, 0] = np.nan
    target = tmp_path / "new" / "m.obj"
    with pytest.raises(ValueError, match="non-finite"):
        cli.export_obj(grid, str(target))
    assert not target.parent.exists()


def cap_address_space():
    """Cap the address space at 2 GiB, so an oversized allocation fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_cli(tmp_path, command, payload, preexec_fn=None):
    """Run the CLI in a fresh interpreter so stderr holds everything it prints."""
    config = write_config(tmp_path, "c.json", payload)
    env = dict(os.environ)
    src = os.path.join(HERE, "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "minkruled.cli", command, "--config", config,
         "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
    )


def load_demo(name):
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


BLOWN_UP_FRAME = {
    "mode": "intrinsic",
    "k1": "1e200",
    "k2": "0.1",
    "theta": "0.5",
    "s_range": [0, 1],
    "step": 0.01,
    "output": {"report_path": "r.json", "mesh_path": "m.obj"},
}


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("synthesize", BLOWN_UP_FRAME, "frame integration overflowed"),
        ("mesh", BLOWN_UP_FRAME, "frame integration overflowed"),
        (
            "mesh",
            dict(
                load_demo("hyperbolic_mesh"),
                output={"mesh_path": "surface.obj", "v_range": [-1e308, 1e308]},
            ),
            "non-finite vertices",
        ),
        (
            # the report is built before the mesh, but must not be written
            "synthesize",
            dict(
                load_demo("hyperbolic_mesh"),
                output={
                    "report_path": "report.json",
                    "mesh_path": "surface.obj",
                    "v_range": [-1e308, 1e308],
                },
            ),
            "non-finite vertices",
        ),
    ],
    ids=[
        "synthesize-frame-overflow",
        "mesh-frame-overflow",
        "mesh-v-range-overflow",
        "synthesize-mesh-v-range-overflow",
    ],
)
def test_non_finite_results_exit_1(tmp_path, command, payload, message):
    result = run_cli(tmp_path, command, payload)
    assert result.returncode == 1
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("synthesize", dict(load_demo("hyperbolic_synthesize"), step=1e-15), "MAX_STEPS"),
        ("analyze", dict(load_demo("helicoid_analyze"), samples=10**12), "MAX_SAMPLES"),
        (
            "mesh",
            dict(load_demo("hyperbolic_mesh"), output={"mesh_path": "m.obj", "v_samples": 10**12}),
            "MAX_MESH_VERTICES",
        ),
        (
            # the report is built before the mesh, but must not be written
            "synthesize",
            dict(
                load_demo("hyperbolic_mesh"),
                output={"report_path": "r.json", "mesh_path": "m.obj", "v_samples": 10**12},
            ),
            "MAX_MESH_VERTICES",
        ),
    ],
    ids=["synthesize-step", "analyze-samples", "mesh-v-samples", "synthesize-mesh-v-samples"],
)
def test_oversized_work_exits_2(tmp_path, command, payload, message):
    # each input asks for terabytes in one allocation; without a cap that
    # allocation fails at once under the address-space limit, with a traceback
    result = run_cli(tmp_path, command, payload, preexec_fn=cap_address_space)
    assert result.returncode == 2
    assert "config error" in result.stderr and message in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "k1", ["(" * 3000 + "1" + ")" * 3000, "-" * 5000 + "1"], ids=["parentheses", "minus-signs"]
)
def test_nesting_past_the_cap_exits_2(tmp_path, k1):
    result = run_cli(tmp_path, "synthesize", dict(load_demo("hyperbolic_synthesize"), k1=k1))
    assert result.returncode == 2
    assert "config.k1: nesting deeper than MAX_NESTING = 100 at offset 100" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,payload",
    [
        ("synthesize", dict(load_demo("hyperbolic_synthesize"), k1="+".join(["0.001*s"] * 3000))),
        ("analyze", dict(load_demo("helicoid_analyze"), f=["+".join(["0.001*s"] * 3000), "0", "s"])),
    ],
    ids=["synthesize-k1", "analyze-f0"],
)
def test_long_flat_sums_run_end_to_end(tmp_path, command, payload):
    # 3000 terms nest 3000 deep on the left; every pass after parsing iterates
    result = run_cli(tmp_path, command, payload)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert os.listdir(tmp_path / "out")


def test_parse_config_builds_no_derived_surface(tmp_path):
    # the derivatives are built on first use, outside the setup every run pays
    cfg = parse_config(write_config(tmp_path, "c.json", load_demo("helicoid_analyze")))
    assert "_d" not in cfg.surface.__dict__
