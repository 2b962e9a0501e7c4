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
        {"synthesis_report.json": "6f21f4428a74f5ae095094ccafea01abdf79e07e30202740458e9c0772d21d69"},
    ),
    (
        "beta_transversal",
        "transversal",
        demo("beta_transversal"),
        {"beta_report.json": "69de37c966039cb534791cc1374ab45a81264dc88f07f94b3fe63d26bd9c6664"},
    ),
    (
        "hyperbolic_mesh",
        "mesh",
        demo("hyperbolic_mesh"),
        {"surface.obj": "8d81e9c2512677bb9ff27068bd5153431fd760c89f85b184ba81d7110a493fe9"},
    ),
    (
        "hyperbolic_synthesize_with_mesh",
        "synthesize",
        demo("hyperbolic_mesh"),
        {
            "report.json": "dc7ed7394843b362e32ad51d4db7b5d7a9a75fead045a8cf21f857aced2b3fcc",
            "surface.obj": "8d81e9c2512677bb9ff27068bd5153431fd760c89f85b184ba81d7110a493fe9",
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
            "beta_report.json": "a24910f2dfdaec85eddc46498833e623346dfd1705b47a8c8638936fb6c41108",
            "beta.obj": "f69ad4ee6a1a5da21ee4a63ba36acdfef8bb828ce12f4715e8a629c69359b5f6",
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
        {"verify.json": "f1e55bd602a1a86ac07a1086ab1fc87b24b9b2f2f63eca337dbfc6a7caa05a4b"},
    ),
    (
        # the default suites: every family on the full 27-triple grid
        "verify_default",
        "verify",
        demo("verify_default"),
        {"verify_report.json": "887b6399c94dd8f41e234db0ce5b4fb94eaf905d0ef49cfd82a4c99d1a7ea5b4"},
    ),
    (
        "alpha_spacelike_transversal",
        "transversal",
        ALPHA_SPACELIKE_TRANSVERSAL,
        {"alpha_report.json": "5152d3acd7c4022d1c1dd4d89d82344e44e63b69838c4eb01d0738b031df28c9"},
    ),
    (
        "gamma_timelike_transversal",
        "transversal",
        GAMMA_TIMELIKE_TRANSVERSAL,
        {"gamma_report.json": "aa6f17c45194e9f5ee87d0bfd7cf37f8f9a644873a7af9e7392a82a3a8369b49"},
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
        {"zero_k1_report.json": "328ff42a5c29435d4351e5b1a64df693b03676d258e367d658e2b80f7f92e48f"},
    ),
    (
        # the exact surface with tanh(theta) = k2/k1, where the k1 > 0 gauge
        # reverses a and h and the striction curve is a line of curvature
        "exact_line_of_curvature_analyze",
        "analyze",
        analyze_config(2.0, 1.0, math.atanh(0.5)),
        {"exact_report.json": "5a0e866a4b8d496e1cce20b1baa70abbfa12a1dcfec64ea1a45fcd7bd6d31e33"},
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
