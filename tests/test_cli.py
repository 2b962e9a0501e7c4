"""CLI: config validation, commands, exit codes, report and mesh formats."""

import dataclasses
import enum
import inspect
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minkruled import cli, transversal
from minkruled import expressions as ex
from minkruled.cli import main, parse_config
from minkruled.errors import ConfigError, NonTimelikeStrictionError
from minkruled.lorentz import Tolerances
from minkruled.ruled import arc_length, distribution_parameter, striction
from minkruled.verify import SuiteConfig

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
    # an empty list made verify pass vacuously; a repeat wrote each record twice
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"families": []}), id="suite-families-empty"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"families": ["alpha", "alpha"]}), id="suite-families-repeated"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"tolerance": "big"}), id="suite-tolerance-not-number"),
    # the suite has one constant angle; a list of them was read only at index 0
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"angle_values": [0.5]}), id="suite-angle-values-unknown"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"angle": [0.5]}), id="suite-angle-list"),
    pytest.param(dict(MINIMAL_INTRINSIC, suite={"angle": math.inf}), id="suite-angle-infinite"),
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
    # output paths are used as given: str() of anything else made a file named "None"
    pytest.param(dict(MINIMAL_INTRINSIC, output={"report_path": None}), id="report-path-null"),
    pytest.param(dict(MINIMAL_INTRINSIC, output={"mesh_path": ["a"]}), id="mesh-path-list"),
    pytest.param(dict(MINIMAL_INTRINSIC, output={"report_path": ""}), id="report-path-empty"),
    # open() refuses a NUL with a ValueError, which exited 1 as a degeneracy
    pytest.param(dict(MINIMAL_INTRINSIC, output={"report_path": "a\0b.json"}), id="report-path-nul"),
    pytest.param(dict(MINIMAL_INTRINSIC, output={"mesh_path": "a\0b.obj"}), id="mesh-path-nul"),
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
        pytest.param(dict(NON_UNIT_EXPLICIT, tolerances={"general_eps": True}), id="tolerance-boolean"),
        pytest.param(dict(NON_UNIT_EXPLICIT, output={"mesh_path": "a\0b.obj"}), id="mesh-path-nul"),
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


# each mode reads its own keys: a key of the other mode, or one no command reads, exits 2
OTHER_MODE_KEYS = [
    pytest.param(NON_UNIT_EXPLICIT, key, value, key, id=f"explicit-{key}")
    for key, value in [
        ("k1", "banana("), ("k2", "0"), ("theta", "1"), ("epsilon", -1), ("s_range", [0.0, 1.0]),
        ("step", -5), ("initial_frame", "x"), ("transversal", {"kind": "beta", "angle": "pi/4"}),
        ("suite", {"k1_values": [1.0]}),
    ]
] + [
    pytest.param(MINIMAL_INTRINSIC, key, value, key, id=f"intrinsic-{key}")
    for key, value in [
        ("f", "nonsense"), ("q", ["1", "0", "0"]), ("u_range", [0.0, 1.0]), ("samples", -3),
        ("normalize_q", "maybe"), ("tolerances", {"general_eps": 1e-6}),
    ]
] + [pytest.param(NON_UNIT_EXPLICIT, "tolerances", {"frame_eps": 1e-10}, "frame_eps", id="explicit-frame_eps")]


@pytest.mark.parametrize("payload,key,value,named", OTHER_MODE_KEYS)
def test_keys_a_mode_does_not_read_exit_2(tmp_path, capsys, payload, key, value, named):
    command = "analyze" if payload["mode"] == "explicit" else "synthesize"
    payload = dict(payload, output={"report_path": "r.json", "mesh_path": "m.obj"}, **{key: value})
    path = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", path, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(named) in err
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("owner,table", [(SuiteConfig, "_SUITE"), (Tolerances, "_TOLERANCES")])
def test_each_block_table_holds_its_owner_fields(owner, table):
    # a field added to the type must be settable from the config block, and
    # every key of the block must reach the type's constructor
    keys = set(getattr(cli, table))
    assert {field.name for field in dataclasses.fields(owner)} <= keys
    assert keys <= set(inspect.signature(owner).parameters)


@pytest.mark.parametrize(
    "command,payload",
    [
        ("analyze", NON_UNIT_EXPLICIT),
        ("synthesize", MINIMAL_INTRINSIC),
        ("transversal", dict(MINIMAL_INTRINSIC, transversal={"kind": "beta", "angle": "pi/4"})),
    ],
    ids=["analyze", "synthesize", "transversal"],
)
@pytest.mark.parametrize(
    "report_path,mesh_path",
    [("out.txt", "./out.txt"), ("sub/../out.txt", "out.txt"), ("{out}/out.txt", "out.txt")],
    ids=["dot-slash", "dot-dot", "absolute"],
)
def test_report_and_mesh_naming_one_file_exit_2(tmp_path, capsys, command, payload, report_path, mesh_path):
    # the mesh, written second, replaced the report
    out = tmp_path / "out"
    output = {"report_path": report_path.format(out=out), "mesh_path": mesh_path}
    path = write_config(tmp_path, "c.json", dict(payload, output=output))
    assert main([command, "--config", path, "--output-dir", str(out)]) == 2
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


# the benchmark's T1 base: its striction speed is not constant, so nodes
# equally spaced in striction arc length are not equally spaced in u
T1_ANALYZE = {
    "mode": "explicit",
    "f": ["0.94*s", "0", "0.78*s"],
    "q": ["cosh(0.76*s)", "sinh(0.76*s)", "0"],
    "u_range": [0.0, 1.0],
    "samples": 101,
    "output": {"report_path": "report.json"},
}


def test_analyze_rows_sit_at_one_arc_length_node(tmp_path, schema):
    config = write_config(tmp_path, "t1.json", T1_ANALYZE)
    assert main(["analyze", "--config", config, "--output-dir", str(tmp_path)]) == 0
    samples = validate_report(tmp_path / "report.json", schema)["samples"]
    surface = parse_config(config).surface
    u = samples["u"]
    gaps = [abs(arc_length(surface, x) - s) for x, s in zip(u, samples["arc_length"])]
    assert max(gaps) <= 1e-9
    assert samples["drall"] == [distribution_parameter(surface, x) for x in u]
    assert samples["strictional_distance"] == [striction(surface, x)[0] for x in u]
    assert np.ptp(np.diff(u)) > 1e-3  # the nodes are not evenly spaced in u


def test_analyze_skips_predicates_where_the_stencil_tangent_is_not_timelike(tmp_path, schema, monkeypatch):
    def not_timelike(track, tol):
        raise NonTimelikeStrictionError("stencil striction tangent is not timelike on the interior")

    monkeypatch.setattr(cli, "striction_predicates", not_timelike)
    config = write_config(tmp_path, "c.json", dict(NON_UNIT_EXPLICIT, output={"report_path": "r.json"}))
    assert main(["analyze", "--config", config, "--output-dir", str(tmp_path)]) == 0
    report = validate_report(tmp_path / "r.json", schema)
    assert report["striction_predicates"] is None
    assert report["warnings"] == ["striction tangent is not timelike; predicates skipped"]


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


def test_analyze_writes_the_mesh_that_mesh_writes(tmp_path, schema):
    payload = dict(
        NON_UNIT_EXPLICIT, output={"report_path": "r.json", "mesh_path": "m.obj", "v_samples": 5}
    )
    config = write_config(tmp_path, "c.json", payload)
    for command in ("analyze", "mesh"):
        assert main([command, "--config", config, "--output-dir", str(tmp_path / command)]) == 0
    validate_report(tmp_path / "analyze" / "r.json", schema)
    mesh = (tmp_path / "mesh" / "m.obj").read_bytes()
    assert mesh.count(b"\nv ") + 1 == 11 * 5
    assert (tmp_path / "analyze" / "m.obj").read_bytes() == mesh


def count_angle_work(monkeypatch, cfg):
    """Counters of evaluations of the configured angle (not of its derivative)
    and of transversal rulings built, each build checked once by its norm."""
    counts = {"evaluations": 0, "builds": 0}
    angle, evaluate, lorentz_dot = cfg.transversal_spec.angle, ex.evaluate, transversal.lorentz_dot

    def counted_evaluate(expr, s):
        counts["evaluations"] += expr is angle
        return evaluate(expr, s)

    def counted_lorentz_dot(x, y):
        counts["builds"] += 1
        return lorentz_dot(x, y)

    monkeypatch.setattr(ex, "evaluate", counted_evaluate)
    monkeypatch.setattr(transversal, "lorentz_dot", counted_lorentz_dot)
    return counts


@pytest.mark.parametrize(
    "theta,evaluations,builds",
    [
        # the base is not developable: the corollaries stop before the angle
        ("1", 1, 1),
        # a developable base: the corollaries build their own analysis, once
        ("0", 2, 2),
    ],
)
def test_transversal_builds_the_ruling_once_for_report_and_mesh(
    tmp_path, monkeypatch, theta, evaluations, builds
):
    payload = dict(load_demo("beta_transversal"), theta=theta)
    payload["output"] = dict(payload["output"], mesh_path="m.obj")
    cfg = parse_config(write_config(tmp_path, "c.json", payload))
    counts = count_angle_work(monkeypatch, cfg)
    assert cli.run("transversal", cfg, str(tmp_path)) == 0
    assert (tmp_path / "m.obj").exists()
    assert counts == {"evaluations": evaluations, "builds": builds}


def test_transversal_mesh_evaluates_the_angle_but_not_its_derivative(tmp_path, monkeypatch):
    # 0.7 + 0.1 sqrt(s) has no finite derivative at s = 0; the mesh needs none.
    # A guard: the mesh path has never evaluated the derivative.
    payload = dict(
        load_demo("beta_transversal"),
        transversal={"kind": "beta", "angle": "0.7+0.1*sqrt(s)"},
        output={"mesh_path": "m.obj"},
    )
    config = write_config(tmp_path, "c.json", payload)
    assert main(["mesh", "--config", config, "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "m.obj").exists()
    cfg = parse_config(config)
    counts = count_angle_work(monkeypatch, cfg)
    monkeypatch.setattr(ex, "differentiate", lambda expr: pytest.fail("the mesh differentiated the angle"))
    assert cli.run("mesh", cfg, str(tmp_path / "again")) == 0
    assert counts == {"evaluations": 1, "builds": 1}


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


@pytest.mark.parametrize("angle", [355.0, 356.0])
def test_verify_skips_a_tuning_angle_whose_sinh_squared_overflows(tmp_path, schema, angle):
    # sinh(356) ** 2 is past the float range: the alpha tuning skips as at 355
    suite = {"k1_values": [1.0], "k2_values": [0.5], "theta_values": [0.0], "angle": angle}
    result = run_cli(tmp_path, "verify", dict(MINIMAL_INTRINSIC, suite=suite, output={"report_path": "v.json"}))
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    report = validate_report(tmp_path / "out" / "v.json", schema)
    alpha = [case for suite in report["suites"] for case in suite["cases"] if case["check"] == "developability.alpha"]
    assert [case["note"].split("; ")[0] for case in alpha] == ["forward skipped: tuning angle outside tanh range"]


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


@pytest.mark.parametrize(
    "command,payload",
    [
        ("analyze", MINIMAL_INTRINSIC),
        ("synthesize", NON_UNIT_EXPLICIT),
        ("verify", NON_UNIT_EXPLICIT),
    ],
    ids=["analyze", "synthesize", "verify"],
)
def test_commands_reject_the_other_mode(tmp_path, capsys, command, payload):
    path = write_config(tmp_path, "c.json", dict(payload, output={"report_path": "r.json"}))
    assert main([command, "--config", path, "--output-dir", str(tmp_path)]) == 2
    assert f"{command} requires mode" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize(
    "command,config",
    [("synthesize", "hyperbolic_synthesize"), ("transversal", "beta_transversal"), ("mesh", "hyperbolic_mesh")],
)
def test_tolerance_flag_on_a_command_that_reads_none_exits_2(tmp_path, capsys, command, config):
    config = os.path.join(CONFIG_DIR, f"{config}.json")
    assert main([command, "--config", config, "--output-dir", str(tmp_path), "--tolerance", "1e-2"]) == 2
    assert f"--tolerance: {command} reads no tolerance" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    # a (3, 4) grid has 12 vertex rows and 6 faces: chunks 11, 12 and 13 fall
    # just below, at and just above the vertex table's length, 5 to 7 split it
    + [((3, 4), chunk) for chunk in (5, 6, 7, 11, 12, 13)]
    # faces go in blocks of 2 * OBJ_CHUNK_ROWS rows, and a (5, 5) grid has 16
    # faces: one block of two rows short, exactly one block, two rows over;
    # the 4096 faces of (65, 65) fill one block at chunk 2048
    + [((5, 5), chunk) for chunk in (7, 8, 9)]
    + [((65, 65), 2048)],
)
def test_export_obj_matches_per_vertex_writer(tmp_path, monkeypatch, shape, chunk):
    # (64, 64) has 4096 vertex rows and (65, 65) 4096 faces
    if chunk is not None:
        monkeypatch.setattr(cli, "OBJ_CHUNK_ROWS", chunk)
    grid = obj_grid(*shape, seed=sum(shape) + (chunk or 0))
    cli.export_obj(grid, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(grid).encode("utf-8")


def grid_of(values, nv=2):
    """The values, cycled, as an (ns, nv, 3) vertex grid with ns >= 2."""
    values = np.asarray(values, dtype=float).reshape(-1)
    rows = max(2, -(-values.size // (3 * nv)))
    return np.resize(values, (rows, nv, 3))


def ulps_around(centre, count):
    """Every double within ``count`` ulps of ``centre``, centre included."""
    below, above = [centre], [centre]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


# the digit kernel's edges: decimal exponents settled exactly, ties rounded
# to even, the 1e-4 and 1e16 ends of its range, and values it leaves to %.
# The doubles just below each power of ten are the only ones whose 17 digits
# could round up to 10**17; these show that none in the range does.
OBJ_EDGE_VALUES = {
    "powers-of-ten": both_signs([x for j in range(-6, 19) for x in ulps_around(10.0**j, 5)]),
    "halfway-ties": both_signs(
        (np.random.default_rng(17).integers(2 * 10**15, 44 * 10**14, 3000) * 2 + 1) / 4
    ),
    "halfway-ties-scaled": both_signs(
        (np.random.default_rng(18).integers(2 * 10**15, 44 * 10**14, 3000) * 2 + 1) / 4 * 1e-13
    ),
    "range-ends": both_signs(ulps_around(1e-4, 5) + ulps_around(1e16, 5)),
    "zeros-subnormals-huge": [
        0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2250738585072009e-308,
        2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    ],
}


@pytest.mark.parametrize("name", sorted(OBJ_EDGE_VALUES))
def test_export_obj_edge_values_match_per_vertex_writer(tmp_path, name):
    grid = grid_of(OBJ_EDGE_VALUES[name])
    cli.export_obj(grid, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(grid).encode("utf-8")


@pytest.mark.parametrize(
    "fallback_rows",
    [(0,), (3,), (0, 1, 2, 3), (0, 4, 8), (3, 7, 11), (5, 6), tuple(range(12))],
    ids=["first", "last", "whole-block", "every-first", "every-last", "across-blocks", "all"],
)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_export_obj_fallback_rows_keep_their_place(tmp_path, monkeypatch, fallback_rows, column):
    # a (3, 4) grid in blocks of 4 rows; the fallback rows hold a tiny or a huge coordinate
    monkeypatch.setattr(cli, "OBJ_CHUNK_ROWS", 4)
    grid = obj_grid(3, 4, seed=column)
    grid[(np.abs(grid) < 1e-4) | (np.abs(grid) >= 1e16)] = -2.0
    rows = grid.reshape(-1, 3)
    for k, row in enumerate(fallback_rows):
        rows[row, column] = (3e-5, -2e17, 5e-324, -1e16, 9.999999999999999e-05)[k % 5]
    assert cli._vertex_text(rows, cli._vertex_tables())[1].tolist() == sorted(fallback_rows)
    cli.export_obj(grid, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == reference_obj_text(grid).encode("utf-8")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
def test_vertex_kernel_writes_the_percent_format(inside, anywhere, negative):
    # in its range the kernel itself writes the line; any finite value gets the same bytes
    x = -inside if negative else inside
    text, fallback, _ = cli._vertex_text(np.array([[x, -x, x]]), cli._vertex_tables())
    assert len(fallback) == 0
    assert bytes(text) == b"v %.17g %.17g %.17g\n" % (x, -x, x)
    row = np.array([[x, anywhere, -anywhere]])
    assert b"".join(cli._vertex_lines(row)) == b"v %.17g %.17g %.17g\n" % (x, anywhere, -anywhere)


@pytest.mark.parametrize("zeros", [(0.0,), (-0.0,), (0.0, -0.0), (-0.0, -0.0, 0.0)])
@pytest.mark.parametrize("start", [0, 1, 2])
def test_vertex_kernel_writes_signed_zeros(zeros, start):
    # "0" and "-0" are fixed strings: a row holding them stays off the % fallback
    row = np.array([1.5, -2.25e-3, 7e15])
    for k, zero in enumerate(zeros):
        row[(start + k) % 3] = zero
    text, fallback, _ = cli._vertex_text(row[None, :], cli._vertex_tables())
    assert len(fallback) == 0
    assert bytes(text) == b"v %.17g %.17g %.17g\n" % tuple(row.tolist())


def digit_boundaries():
    """Every index at a change of digit count from 1 to 10**7, and its neighbours."""
    return sorted({1, 2} | {10**k + d for k in range(1, 8) for d in (-1, 0, 1)})


def test_face_text_writes_the_percent_format_at_every_digit_boundary():
    # indices 1 .. 10**7 + 1 (MAX_MESH_VERTICES = 10**7), each in every corner of a face
    index = np.array(digit_boundaries())
    faces = np.stack([np.roll(index, k) for k in (0, 5, 11, 17)], axis=1)
    expected = b"".join(b"f %d %d %d %d\n" % tuple(row) for row in faces.tolist())
    assert bytes(cli._face_text(faces, cli._face_tables())) == expected
    assert bytes(cli._face_text(faces[:1], cli._face_tables())) == expected[: expected.index(b"\n") + 1]


def test_export_obj_rejects_more_than_the_face_renderer_can_index(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_MESH_VERTICES", 11)
    with pytest.raises(ValueError, match="MAX_MESH_VERTICES"):
        cli.export_obj(obj_grid(3, 4, seed=0), str(tmp_path / "m.obj"))
    assert not (tmp_path / "m.obj").exists()


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


def reference_report(value, name="value"):
    """The bytes and warnings of the report ``{name: value}`` as the list-walking reference and json write it."""
    warnings = []
    body = {name: reference_sanitize(value, warnings, name), "warnings": warnings}
    return (json.dumps(body, indent=2, allow_nan=False) + "\n").encode(), warnings


@pytest.mark.parametrize("name", sorted(SANITIZE_CASES))
def test_sanitize_matches_list_walk(name, tmp_path):
    # export_report nulls each non-finite value with the reference's warning, in its order
    report = {name: SANITIZE_CASES[name]}
    cli.export_report(report, str(tmp_path / "r.json"))
    assert ((tmp_path / "r.json").read_bytes(), report["warnings"]) == reference_report(SANITIZE_CASES[name], name)


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


class Tag(str, enum.Enum):
    """A str-subclass enum, as a report's family and branch values are; two hold text the C encoder writes between values."""

    PLAIN = "alpha"
    SEPARATED = "a, b"
    BRACKETED = '"[c]", {d}'


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), finite_floats, st.text(), st.sampled_from(list(Tag))
)
numbers = st.one_of(finite_floats, st.integers(), st.booleans(), st.none())
json_values = st.recursive(
    json_scalars
    | st.lists(numbers, max_size=6)
    | st.lists(st.lists(finite_floats, min_size=1, max_size=3), max_size=4)
    | st.lists(numbers | st.sampled_from(list(Tag)), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.one_of(st.text(), st.booleans(), st.none(), st.integers(), finite_floats), inner, max_size=4),
    max_leaves=24,
)


def written_report(value):
    """The bytes ``export_report`` writes for the report ``{"value": value}``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "r.json")
        cli.export_report({"value": value}, path)
        with open(path, "rb") as fh:
            return fh.read()


def dumped_report(value) -> bytes:
    return (json.dumps({"value": value, "warnings": []}, indent=2, allow_nan=False) + "\n").encode()


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(json_values)
def test_report_writer_matches_json_dumps(value):
    # nested containers, empty ones, number lists holding bools and nulls, rows of
    # numbers, non-ASCII text, enum values, and keys json turns into strings
    assert written_report(value) == dumped_report(value)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(json_values, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 2))
def test_report_writer_rejects_non_finite_keys_as_json_dumps_does(value, bad, depth):
    # a non-finite value is replaced by null with a warning; a non-finite key is not
    for _ in range(depth):
        value = [1.0, {"k": value}]
    value = {bad: value}
    with pytest.raises(ValueError):
        dumped_report(value)
    with pytest.raises(ValueError):
        written_report(value)


array_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)
any_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
numpy_values = st.recursive(
    hnp.arrays(float, array_shapes, elements=finite_floats)
    | hnp.arrays(float, array_shapes, elements=any_floats)
    | hnp.arrays(bool, array_shapes)
    | hnp.arrays(np.int64, array_shapes)
    | any_floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(numpy_values)
def test_report_writer_matches_json_dumps_on_numpy_values(value):
    # arrays of floats with NaN and inf, bools and ints, empty and (n, 0) arrays and
    # numpy scalars, nested in dicts and lists: the reference's bytes, warnings included
    assert written_report(value) == reference_report(value)[0]


def test_report_writer_keys_and_values_json_turns_into_text():
    value = {True: [1.5, None, False, 2], 1.5: {}, None: [], 7: [0, Tag.SEPARATED], "é\u2028": [[0.1, -0.0], [1e16]]}
    assert written_report(value) == dumped_report(value)
    assert written_report(value).splitlines()[2] == b'    "true": ['
    for bad in ({(1, 2): 0}, [1.0, object()], {"k": [object()]}):
        with pytest.raises(TypeError):
            written_report(bad)


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
    """Run the CLI in a fresh interpreter so stderr holds everything it prints.

    ``payload`` is the config, or the bytes of its file.
    """
    if isinstance(payload, bytes):
        (tmp_path / "c.json").write_bytes(payload)
        config = str(tmp_path / "c.json")
    else:
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


OVERFLOWING_ANGLE = dict(
    MINIMAL_INTRINSIC,
    step=0.01,
    transversal={"kind": "alpha", "angle": "800", "branch": "timelike"},
    output={"report_path": "r.json", "mesh_path": "m.obj"},
)


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
        # cosh(800) overflows: the ruling's norm check fails, not a later step
        ("transversal", OVERFLOWING_ANGLE, "ruling norm does not match"),
        ("mesh", OVERFLOWING_ANGLE, "ruling norm does not match"),
    ],
    ids=[
        "synthesize-frame-overflow",
        "mesh-frame-overflow",
        "mesh-v-range-overflow",
        "synthesize-mesh-v-range-overflow",
        "transversal-angle-overflow",
        "mesh-transversal-angle-overflow",
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
    "curvatures,step",
    [(dict(k2="500"), 0.01), (dict(k1="50"), 0.1)],
    ids=["k2-500-step-0.01", "k1-50-step-0.1"],
)
def test_steps_too_coarse_for_the_curvatures_exit_1(tmp_path, curvatures, step):
    # max(|k1|, |k2|) * step = 5: Gauss-Legendre maps stay bounded there and
    # would return a finite, wrong frame, so the step bound names the step
    payload = dict(MINIMAL_INTRINSIC, step=step, output={"report_path": "r.json"}, **curvatures)
    result = run_cli(tmp_path, "synthesize", payload)
    assert result.returncode == 1
    assert f"step {step:.3g} is too coarse for the curvatures" in result.stderr
    assert "Traceback" not in result.stderr
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
    "text",
    [
        b'{"mode": "intrinsic", "k1": "\xff"}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"mode": "intrinsic", "step": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf-8", "nested-200000-deep", "5000-digit-integer"],
)
def test_config_bytes_json_cannot_load_exit_2(tmp_path, text):
    # each raised out of json.load (UnicodeDecodeError, RecursionError, and
    # ValueError past Python's 4300-digit limit) and exited 1 with a traceback
    result = run_cli(tmp_path, "synthesize", text)
    assert result.returncode == 2
    assert "config error" in result.stderr and repr(str(tmp_path / "c.json")) in result.stderr
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
