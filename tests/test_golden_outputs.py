"""Golden outputs: the CLI writes the same bytes for a fixed set of inputs.

Each case runs ``minkruled.cli.main`` on one config and compares the sha256
of every file the run writes with a recorded digest, so "the reports and
meshes did not change" is checked rather than claimed.  A change that alters
output bytes on purpose records the new digests here and says why in
CHANGES.md.  The digests depend on the float results of the installed numpy
and math library; a platform that rounds transcendental functions
differently needs them re-recorded.
"""

import hashlib
import json
import math
import os

import pytest

from exact_surface import analyze_config
from minkruled.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def demo(name, **overrides):
    with open(os.path.join(CONFIG_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.update(overrides)
    return payload


def syn1_explicit_config(tau):
    """The closed-form surface of ``syn1_explicit`` in test_ruled.py as a config."""
    ct, st = math.cosh(tau), math.sinh(tau)
    return {
        "mode": "explicit",
        "f": [f"{ct!r}*sinh(s)", f"{ct!r}*(cosh(s) - 1)", f"{-st!r}*s"],
        "q": ["cosh(s)", "sinh(s)", "0"],
        "u_range": [0.0, 1.0],
        "samples": 51,
        "output": {"report_path": "syn1_report.json"},
    }


SMALL_VERIFY = {
    "mode": "intrinsic",
    "k1": "1",
    "k2": "0",
    "theta": "1",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "suite": {
        "k1_values": [1.0],
        "k2_values": [0.0, 2.0],
        "theta_values": [0.0, 0.5493061443340549],
        "step": 0.002,
    },
    "output": {"report_path": "verify.json"},
}

# k1 crosses zero on a grid node, so drall.closed_form holds one NaN that the
# report writes as null with a warning
ZERO_K1_SYNTHESIZE = {
    "mode": "intrinsic",
    "k1": "s - 0.5",
    "k2": "0.3",
    "theta": "0.5",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "output": {"report_path": "zero_k1_report.json"},
}

# the alpha family on its spacelike branch over a varying k1; the base is not
# developable, so the corollary checks are skipped with a warning
ALPHA_SPACELIKE_TRANSVERSAL = {
    "mode": "intrinsic",
    "k1": "1 + 0.5*s",
    "k2": "0.5",
    "theta": "0.5",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "transversal": {"kind": "alpha", "angle": "1 + 0.2*s", "branch": "spacelike"},
    "output": {"report_path": "alpha_report.json"},
}

# the gamma family on its timelike branch over a developable base (theta = 0),
# so the report carries the corollary checks and the printed-sign warning
GAMMA_TIMELIKE_TRANSVERSAL = {
    "mode": "intrinsic",
    "k1": "1",
    "k2": "0.5",
    "theta": "0",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "transversal": {"kind": "gamma", "angle": "0.4 + 0.3*s", "branch": "timelike"},
    "output": {"report_path": "gamma_report.json"},
}

# k1 and k2 through zero and negative: the suites pass, skip (unsatisfiable
# ratios, no tuning angle and no base drall at k1 = 0) and error (a vanishing
# closed-form denominator)
MIXED_VERIFY = {
    "mode": "intrinsic",
    "k1": "1",
    "k2": "0",
    "theta": "1",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "suite": {
        "k1_values": [0.0, -1.0, 0.5],
        "k2_values": [-0.5, 0.0, 1.0],
        "theta_values": [0.0, 0.3],
        "step": 0.005,
    },
    "output": {"report_path": "mixed_verify.json"},
}

# a repeated k2 and a step that leaves 3 frames: every case of every suite
# errors, the striction base surface included ("need at least 7 frames")
COARSE_VERIFY = {
    "mode": "intrinsic",
    "k1": "1",
    "k2": "0",
    "theta": "1",
    "s_range": [0.0, 1.0],
    "step": 0.001,
    "suite": {
        "k1_values": [1.0],
        "k2_values": [0.5, 0.5],
        "theta_values": [0.5],
        "step": 0.4,
    },
    "output": {"report_path": "coarse_verify.json"},
}

# the benchmark's T1 base, whose striction speed is not constant: each samples
# row sits at one arc-length node, and the mesh stays evenly spaced in u
T1_ANALYZE = {
    "mode": "explicit",
    "f": ["0.94*s", "0", "0.78*s"],
    "q": ["cosh(0.76*s)", "sinh(0.76*s)", "0"],
    "u_range": [0.0, 1.0],
    "samples": 101,
    "output": {"report_path": "t1_report.json", "mesh_path": "t1.obj", "v_range": [-1.0, 1.0], "v_samples": 11},
}

# (case id, command, config, {output file: sha256})
CASES = [
    (
        "helicoid_analyze",
        "analyze",
        demo("helicoid_analyze"),
        {"helicoid_report.json": "99414019677f8db1aa26baee7ca6fa603029202697286d2c67aaea84161e58b7"},
    ),
    (
        "hyperbolic_synthesize",
        "synthesize",
        demo("hyperbolic_synthesize"),
        {"synthesis_report.json": "88305bd6aed4d4194622f6ea9df26c4ab0fbba17565677e3e5ee70d1b661f485"},
    ),
    (
        "beta_transversal",
        "transversal",
        demo("beta_transversal"),
        {"beta_report.json": "1fa199f8ce39d595ac98d69372b5529876f5372236fda204181256cd803cf288"},
    ),
    (
        "hyperbolic_mesh",
        "mesh",
        demo("hyperbolic_mesh"),
        {"surface.obj": "9de0356d52243f197775ad965d2e29c0bcc765f20ff3ad792070621b5b0ed443"},
    ),
    (
        "hyperbolic_synthesize_with_mesh",
        "synthesize",
        demo("hyperbolic_mesh"),
        {
            "report.json": "094e0ce4184f2d9a3ebceb3bcc2680ae6eb9210b972e391464fb6b2f33b5f706",
            "surface.obj": "9de0356d52243f197775ad965d2e29c0bcc765f20ff3ad792070621b5b0ed443",
        },
    ),
    (
        "beta_transversal_with_mesh",
        "transversal",
        demo(
            "beta_transversal",
            output={"report_path": "beta_report.json", "mesh_path": "beta.obj"},
        ),
        {
            "beta_report.json": "96348c897d1cb09938eb894857de7b577c60648eea39ee7365a7c49ba4d0d570",
            "beta.obj": "e01b97213076089fd35b82ffcd81986deff9cbb936981a422e08c29a6f08aba7",
        },
    ),
    (
        "syn1_explicit_analyze",
        "analyze",
        syn1_explicit_config(1.0),
        {"syn1_report.json": "a614bb86c1dad38b5bef36eb9246eeb8b239930e4b173811d6642eca99f3b4e4"},
    ),
    (
        "small_verify",
        "verify",
        SMALL_VERIFY,
        {"verify.json": "e8c2df237b91a55dc53a9b148d1a61c2319c56d1c1c3abbfbb4a45e29325329f"},
    ),
    (
        # the default suites: every family on the full 27-triple grid
        "verify_default",
        "verify",
        demo("verify_default"),
        {"verify_report.json": "6bbf225757eb5c6d7c3f863269383e97d23b5d2e42cf8d94f1c58bed74e38e48"},
    ),
    (
        "alpha_spacelike_transversal",
        "transversal",
        ALPHA_SPACELIKE_TRANSVERSAL,
        {"alpha_report.json": "4b6cef451fc86859884e20ce7b289d63f4cdfcf5512082198762aa25f5eb2d0b"},
    ),
    (
        "gamma_timelike_transversal",
        "transversal",
        GAMMA_TIMELIKE_TRANSVERSAL,
        {"gamma_report.json": "a3d720eb5c163633c837d12fa3756b3d1c2a6e219d700df2b9eb820ba4b2af25"},
    ),
    (
        "helicoid_mesh",
        "mesh",
        demo(
            "helicoid_analyze",
            output={"mesh_path": "helicoid.obj", "v_range": [-2.0, 2.0], "v_samples": 11},
        ),
        {"helicoid.obj": "ea5bd09152b136ab128d5ea878564b805e78c6ab1b98bc648d858c8b630d0b59"},
    ),
    (
        "zero_k1_synthesize",
        "synthesize",
        ZERO_K1_SYNTHESIZE,
        {"zero_k1_report.json": "e051734bb166f569e07928c115851718f84a85f462215089ec0305172ed9422d"},
    ),
    (
        # the exact surface with tanh(theta) = k2/k1, where the k1 > 0 gauge
        # reverses a and h and the striction curve is a line of curvature
        "exact_line_of_curvature_analyze",
        "analyze",
        analyze_config(2.0, 1.0, math.atanh(0.5)),
        {"exact_report.json": "5a0e866a4b8d496e1cce20b1baa70abbfa12a1dcfec64ea1a45fcd7bd6d31e33"},
    ),
    (
        "mixed_verify",
        "verify",
        MIXED_VERIFY,
        {"mixed_verify.json": "f4c1883b7a208e6727d69c8203803fc037aea5c694c58482f50de745a893e252"},
    ),
    (
        "coarse_verify",
        "verify",
        COARSE_VERIFY,
        {"coarse_verify.json": "48fd5087da27e431760b47a82a64b1929060da1e9f559090e411919aa43ac443"},
    ),
    (
        "t1_analyze_with_mesh",
        "analyze",
        T1_ANALYZE,
        {
            "t1.obj": "86afb8d5cccf72725a09fb2e38a9c7f862bd8bd6c1bcb6c148849a8d8d8f3254",
            "t1_report.json": "0906dc694fcb004ee0164a88ffc8456e5fb9ddc41110f3b73f264085165081ff",
        },
    ),
]


def _digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize(
    "command,payload,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_golden_output(tmp_path, command, payload, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config), "--output-dir", str(out_dir)]) == 0
    assert _digests(out_dir) == expected
