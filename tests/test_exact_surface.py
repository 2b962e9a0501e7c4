"""The exact constant-(k1, k2, theta) surface checks synthesis and the explicit frame.

Cases cover sigma = k1^2 - k2^2 > 0, < 0 and = 0, each with theta = 0 and
theta != 0.  Every case has k2 != 0, and the explicit frame of each needs
the k1 > 0 gauge sign to reverse a and h.
"""

import json
import math

import numpy as np
import pytest

from exact_surface import analyze_config, exact_surface
from minkruled import expressions as ex
from minkruled.cli import main
from minkruled.ruled import ExplicitSurface, frame_consistency, sample_frames
from minkruled.synthesis import from_constants, synthesize_surface

CASES = [
    pytest.param(2.0, 1.0, 0.0, id="sigma>0-theta=0"),
    pytest.param(2.0, 1.0, math.atanh(0.5), id="sigma>0-line-of-curvature"),
    pytest.param(1.0, 2.0, 0.0, id="sigma<0-theta=0"),
    pytest.param(1.0, 2.0, 0.4, id="sigma<0-theta=0.4"),
    pytest.param(1.0, 1.0, 0.0, id="sigma=0-theta=0"),
    pytest.param(1.0, 1.0, 0.3, id="sigma=0-theta=0.3"),
]


def exact_values(k1, k2, theta, s):
    """The exact c, q, h and a at arc lengths ``s``, each of shape (n, 3)."""
    return {
        name: np.stack(list(ex.run(ex.compile([ex.parse(t) for t in triple]), s)), axis=-1)
        for name, triple in exact_surface(k1, k2, theta).items()
    }


@pytest.mark.parametrize("k1,k2,theta", CASES)
def test_synthesis_matches_exact_surface(k1, k2, theta):
    surf = synthesize_surface(from_constants(k1, k2, theta, (0.0, 1.0), 1e-3))
    exact = exact_values(k1, k2, theta, surf.s)
    for name in ("c", "q", "h", "a"):
        assert np.max(np.abs(getattr(surf, name) - exact[name])) <= 1e-8, name


@pytest.mark.parametrize("k1,k2,theta", CASES)
def test_explicit_frame_recovers_exact_data(k1, k2, theta):
    triples = exact_surface(k1, k2, theta)
    surface = ExplicitSurface.from_strings(triples["c"], triples["q"], (0.0, 1.0))
    track = sample_frames(surface, 11)
    assert np.max(np.abs(track.k1 - k1)) <= 1e-10
    assert np.max(np.abs(track.k2 - k2)) <= 1e-10
    assert np.max(np.abs(track.theta - theta)) <= 1e-10
    # the striction curve has unit speed, so arc length and u coincide
    exact = exact_values(k1, k2, theta, track.s)
    for name in ("c", "q", "h", "a"):
        assert np.max(np.abs(getattr(track, name) - exact[name])) <= 1e-10, name
    assert frame_consistency(surface, 0.5)["k2"] <= 1e-10


def test_analyze_finds_the_line_of_curvature(tmp_path):
    # tanh(theta) = k2/k1: the striction curve is a line of curvature
    config = tmp_path / "config.json"
    config.write_text(json.dumps(analyze_config(2.0, 1.0, math.atanh(0.5))))
    assert main(["analyze", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "exact_report.json").read_text())
    assert np.max(np.abs(np.array(report["samples"]["k2"]) - 1.0)) <= 1e-10
    locus = report["striction_predicates"]["line_of_curvature"]
    assert locus["geometric_pass"] and locus["curvature_pass"] and locus["agree"] is True
