"""Finite-difference stencils, adaptive quadrature, arc-length placement."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from minkruled import expressions as ex
from minkruled.numerics import (
    adaptive_simpson,
    central_diff1,
    central_diff2,
    uniform_arclength_nodes,
)


def test_central_diff_exact_on_cubics():
    h = 0.1
    x = np.arange(11) * h
    y = x**3 - 2 * x
    dy, sl = central_diff1(y, h)
    assert np.allclose(dy, 3 * x[sl] ** 2 - 2, atol=1e-12)
    d2y, _ = central_diff2(y, h)
    assert np.allclose(d2y, 6 * x[sl], atol=1e-11)


def test_central_diff_fourth_order():
    errors = []
    for n in (40, 80):
        h = 2.0 / n
        x = np.arange(n + 1) * h
        dy, sl = central_diff1(np.sin(x), h)
        errors.append(np.max(np.abs(dy - np.cos(x[sl]))))
    order = math.log2(errors[0] / errors[1])
    assert 3.7 <= order <= 4.3


def test_central_diff_vector_samples():
    h = 0.05
    x = np.arange(21) * h
    y = np.stack([np.cos(x), np.sin(x), x], axis=-1)
    dy, sl = central_diff1(y, h)
    expected = np.stack([-np.sin(x[sl]), np.cos(x[sl]), np.ones_like(x[sl])], axis=-1)
    assert np.max(np.abs(dy - expected)) < 1e-6  # O(h^4) at h = 0.05


def test_central_diff_needs_five_samples():
    with pytest.raises(ValueError):
        central_diff1(np.zeros(4), 0.1)


def test_adaptive_simpson():
    assert adaptive_simpson(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0) == pytest.approx(
        math.pi, abs=1e-10
    )
    assert adaptive_simpson(np.cosh, 0.0, 2.0) == pytest.approx(math.sinh(2.0), abs=1e-10)
    assert adaptive_simpson(np.exp, 1.0, 1.0) == 0.0


def test_uniform_arclength_nodes():
    # speed cosh(u) integrates to arc length sinh(u)
    u, s = uniform_arclength_nodes(np.cosh, 0.0, 2.0, 33)
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(math.sinh(2.0), abs=1e-9)
    assert np.allclose(np.diff(s), s[-1] / 32, atol=1e-12)
    assert np.max(np.abs(np.sinh(u) - s)) < 1e-9
    assert u[0] == 0.0 and u[-1] == 2.0


def reference_simpson(fn, a, b, tol=1e-10, max_depth=40):
    """The depth-first scalar recursion the batched quadrature must match bit for bit."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        half = 0.5 * eps
        return recurse(x0, x1, f0, flm, f1, left, half, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, half, depth + 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def assert_matches_reference(fn, a, b, **kw):
    batched = adaptive_simpson(fn, np.asarray(a, dtype=float), np.asarray(b, dtype=float), **kw)
    expected = [reference_simpson(fn, float(x), float(y), **kw) for x, y in zip(a, b)]
    assert batched.tolist() == expected


# speed trees of the benchmark's T1 (timelike striction) and H3 (helicoid-like) bases
SPEED_SURFACES = {
    "T1": (("0.8*s", "0", "0.7*s"), ("cosh(0.75*s)", "sinh(0.75*s)", "0"), (0.0, 1.0)),
    "H3": (
        ("0", "0", "1.3*s"),
        ("cosh(0.7*s+0.2*s^2)", "sinh(0.7*s+0.2*s^2)", "0"),
        (0.0, 1.05),
    ),
}


@pytest.mark.parametrize("name", sorted(SPEED_SURFACES))
def test_batched_simpson_bit_exact_on_speed_trees(name):
    from minkruled.ruled import ExplicitSurface

    f, q, (u0, u1) = SPEED_SURFACES[name]
    speed = ExplicitSurface.from_strings(f, q, (u0, u1))._d.speed
    u = np.linspace(u0, u1, 801)
    assert_matches_reference(lambda x: ex.evaluate(speed, x), u[:-1], u[1:])


def test_batched_simpson_bit_exact_edge_cases():
    kink = lambda x: np.abs(x - 0.3137)  # noqa: E731
    a = np.array([0.0, 0.3, 1.0, 0.5, -0.2])
    b = np.array([1.0, 0.31, 0.0, 0.5, 0.3137])  # forward, short, reversed, empty, kink at end
    assert_matches_reference(kink, a, b)
    assert_matches_reference(kink, a, b, tol=1e-14)  # deep levels
    assert_matches_reference(kink, a, b, tol=1e-14, max_depth=3)  # depth cap reached
    # smooth integrands whose deltas sit near the halving thresholds
    assert_matches_reference(np.sqrt, np.array([0.0, 0.1]), np.array([1.0, 2.0]), tol=1e-12)
    wave = lambda x: np.sin(20.0 * x)  # noqa: E731
    assert_matches_reference(wave, np.array([0.0, 1.0]), np.array([3.0, 0.0]))
    assert adaptive_simpson(kink, 0.2, 0.2) == 0.0
    assert isinstance(adaptive_simpson(kink, 0.0, 1.0), float)
    assert adaptive_simpson(kink, np.empty(0), np.empty(0)).shape == (0,)


def test_uniform_arclength_nodes_batches_speed_calls():
    calls = []

    def speed(x):
        calls.append(np.shape(x))
        return np.cosh(x)

    uniform_arclength_nodes(speed, 0.0, 2.0, 101)
    assert 0 < len(calls) <= 100
    u, s = uniform_arclength_nodes(speed, 0.0, 2.0, 2)  # no interior node to polish
    assert u.tolist() == [0.0, 2.0] and s[0] == 0.0


def test_uniform_arclength_nodes_overflowing_arc_length_raises():
    # every segment integral is finite, but their running sum overflows
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
        uniform_arclength_nodes(lambda u: np.full_like(u, 2e307), 0.0, 100.0, 11)


def run_memory_capped(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter whose address space is capped at 2 GiB.

    Quadrature that splits every interval at every level doubles its arrays
    per level; under the cap that ends in ``MemoryError`` (a nonzero exit)
    instead of taking the machine's memory.
    """
    code = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code + body],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "body",
    [
        # a NaN integrand
        """
        import numpy as np
        from minkruled.numerics import adaptive_simpson
        adaptive_simpson(lambda u: np.full_like(u, np.nan), 0.0, 1.0)
        """,
        # finite values whose Simpson sum f0 + 4 f1 + f2 overflows
        """
        import numpy as np
        from minkruled.numerics import adaptive_simpson
        with np.errstate(over="ignore", invalid="ignore"):
            adaptive_simpson(lambda u: np.full_like(u, 1e308), 0.0, 1.0)
        """,
        # a speed that overflows inside the range
        """
        import numpy as np
        from minkruled.numerics import uniform_arclength_nodes
        with np.errstate(over="ignore", invalid="ignore"):
            uniform_arclength_nodes(lambda u: np.exp(800 * u), 0.0, 1.0, 11)
        """,
    ],
    ids=["nan", "overflowing-sum", "overflowing-speed"],
)
def test_non_finite_quadrature_raises(body):
    proc = run_memory_capped(
        "try:\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
        + "except ValueError as err:\n    print('ValueError:', err)\n"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("ValueError:"), proc.stdout
