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
        {"synthesis_report.json": "4a400265bced06583fc72b4c6d3458ca16aa05296fac96ca4f8b2eb3d8e20535"},
    ),
    (
        "beta_transversal",
        "transversal",
        demo("beta_transversal"),
        {"beta_report.json": "db84094c39c4f622862018611f4769b427bd3b7e899b9bbb39521ce318323046"},
    ),
    (
        "hyperbolic_mesh",
        "mesh",
        demo("hyperbolic_mesh"),
        {"surface.obj": "1fa047e58cf58eac67e4437d54e7919ba653aa12b6df48608494a7c053a0f3ec"},
    ),
    (
        "hyperbolic_synthesize_with_mesh",
        "synthesize",
        demo("hyperbolic_mesh"),
        {
            "report.json": "3593f48f0497e3df07027273194137380934117677bffd2e322e58ee273d4c75",
            "surface.obj": "1fa047e58cf58eac67e4437d54e7919ba653aa12b6df48608494a7c053a0f3ec",
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
            "beta_report.json": "f88695ba6b2a356c2ddabee4f57364b60fb0f7e21278923739e1e821e7980fab",
            "beta.obj": "9f0960a207b94df8e23c06550705d578fd13736bc4a9e00170c430acdd414bbb",
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
        {"verify.json": "6e35d7f01679d9459feab70f9d1cef34a48eea0c99b9390083fbf4a4fe8cc422"},
    ),
    (
        # the default suites: every family on the full 27-triple grid
        "verify_default",
        "verify",
        demo("verify_default"),
        {"verify_report.json": "3af295796c6b5a6ca3afe873272f13d26ddce2b3eb8d9d42479f2c4cd10171c3"},
    ),
    (
        "alpha_spacelike_transversal",
        "transversal",
        ALPHA_SPACELIKE_TRANSVERSAL,
        {"alpha_report.json": "36de9ecfd93fef81abc8eec4ce3a779b5dcb0f6f17b5499c6b422196fbd711c7"},
    ),
    (
        "gamma_timelike_transversal",
        "transversal",
        GAMMA_TIMELIKE_TRANSVERSAL,
        {"gamma_report.json": "4b627d404fc02d24855339c5b2617b304a622888e0179be9fa0dce7b4ca8f079"},
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
        {"zero_k1_report.json": "c16791b995b19bc1776f11fd000694a1657e182c7f099ac480ed58976daf7e49"},
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
        {"mixed_verify.json": "336905660dd9df640df629c9b6bd9a7f068707455d4ff18809c6cb87e3ddf7a7"},
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
