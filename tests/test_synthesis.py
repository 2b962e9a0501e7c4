"""Frame integration and surface synthesis from intrinsic data."""

import math

import numpy as np
import pytest

from minkruled import expressions as ex
from minkruled.errors import NonTimelikeStrictionError
from minkruled.frame import canonical_frame
from minkruled.lorentz import frame_check, lorentz_dot
from minkruled.numerics import central_diff1
from minkruled.ruled import recover_frame_data, sampled_ruled_invariants
from minkruled.synthesis import (
    IntrinsicData,
    from_constants,
    integrate_frame,
    synthesize_surface,
    to_explicit_grid,
)


def hyperbolic_frame(s):
    """Closed-form frame for k1 = 1, k2 = 0 from the canonical start."""
    q = np.stack([np.cosh(s), np.sinh(s), np.zeros_like(s)], axis=-1)
    h = np.stack([np.sinh(s), np.cosh(s), np.zeros_like(s)], axis=-1)
    a = np.tile([0.0, 0.0, -1.0], (len(s), 1))
    return q, h, a


def striction_closed_form(s, tau):
    """Closed-form striction curve for k1 = 1, k2 = 0, theta = tau."""
    return np.stack(
        [
            np.cosh(tau) * np.sinh(s),
            np.cosh(tau) * (np.cosh(s) - 1.0),
            -np.sinh(tau) * s,
        ],
        axis=-1,
    )


def test_hyperbolic_closed_form():
    s, q, h, a = integrate_frame(from_constants(1.0, 0.0, 0.0, (0.0, 1.0), 1e-3))
    qe, he, ae = hyperbolic_frame(s)
    assert np.max(np.abs(q - qe)) < 1e-12
    assert np.max(np.abs(h - he)) < 1e-12
    assert np.max(np.abs(a - ae)) < 1e-12
    assert q[-1][0] == pytest.approx(1.5430806348152437, abs=1e-8)
    assert q[-1][1] == pytest.approx(1.1752011936438014, abs=1e-8)


def test_rotation_closed_form():
    # k1 = 0, k2 = 1: the (h, a) pair rotates, q stays fixed
    s, q, h, a = integrate_frame(from_constants(0.0, 1.0, 0.0, (0.0, math.pi / 2), 1e-3))
    q0, h0, a0 = canonical_frame()
    assert np.max(np.abs(q - q0)) < 1e-12
    he = np.cos(s)[:, None] * h0 + np.sin(s)[:, None] * a0
    ae = -np.sin(s)[:, None] * h0 + np.cos(s)[:, None] * a0
    assert np.max(np.abs(h - he)) < 1e-8
    assert np.max(np.abs(a - ae)) < 1e-8
    assert np.max(np.abs(h[-1] - a0)) < 1e-8


def test_zero_curvatures_constant_frame():
    s, q, h, a = integrate_frame(from_constants(0.0, 0.0, 0.0, (0.0, 2.0), 1e-2))
    q0, h0, a0 = canonical_frame()
    for arr, ref in ((q, q0), (h, h0), (a, a0)):
        assert np.max(np.abs(arr - ref)) == 0.0


def test_striction_curve_closed_form():
    surf = synthesize_surface(from_constants(1.0, 0.0, 1.0, (0.0, 1.0), 1e-3))
    expected = striction_closed_form(surf.s, 1.0)
    assert np.max(np.abs(surf.c - expected)) < 1e-7
    assert surf.c[-1] == pytest.approx(
        [
            math.cosh(1) * math.sinh(1),
            math.cosh(1) * (math.cosh(1) - 1.0),
            -math.sinh(1),
        ],
        abs=1e-7,
    )


def test_tangent_surface_tau_zero():
    surf = synthesize_surface(from_constants(1.0, 0.0, 0.0, (0.0, 1.0), 1e-3))
    expected = np.stack(
        [np.sinh(surf.s), np.cosh(surf.s) - 1.0, np.zeros_like(surf.s)], axis=-1
    )
    assert np.max(np.abs(surf.c - expected)) < 1e-9
    oracle = sampled_ruled_invariants(surf.c, surf.q, surf.step)
    assert np.all(oracle.valid)
    assert np.max(np.abs(oracle.drall)) < 1e-9


def test_striction_tangent_unit_timelike():
    surf = synthesize_surface(
        IntrinsicData(
            k1=ex.parse("1 + 0.5*sin(s)"),
            k2=ex.parse("0.3*s"),
            theta=ex.parse("0.5*cos(s)"),
            s_range=(0.0, 1.0),
            step=1e-3,
        )
    )
    cdot, sl = central_diff1(surf.c, surf.step)
    assert np.max(np.abs(lorentz_dot(cdot, cdot) + 1.0)) < 1e-9


def test_frame_invariants_along_integration():
    # frame components grow like exp(2.3 s) here; [0, 2] keeps the
    # quadratic-form cancellation comfortably below the 1e-9 bound
    surf = synthesize_surface(from_constants(2.0, 1.0, 0.7, (0.0, 2.0), 1e-3))
    assert np.max(np.abs(lorentz_dot(surf.q, surf.q) + 1.0)) <= 1e-9
    assert np.max(np.abs(lorentz_dot(surf.h, surf.h) - 1.0)) <= 1e-9
    assert np.max(np.abs(lorentz_dot(surf.a, surf.a) - 1.0)) <= 1e-9
    for x, y in ((surf.q, surf.h), (surf.q, surf.a), (surf.h, surf.a)):
        assert np.max(np.abs(lorentz_dot(x, y))) <= 1e-9
    dets = np.linalg.det(np.stack([surf.q, surf.h, surf.a], axis=1))
    assert np.max(np.abs(dets + 1.0)) <= 1e-9


def test_frame_check_round_trip_with_integrator():
    surf = synthesize_surface(from_constants(1.5, 0.5, 0.3, (0.0, 2.0), 1e-3))
    for i in (0, len(surf) // 2, len(surf) - 1):
        f = surf[i]
        report = frame_check(f.q, f.h, f.a, f.epsilon)
        assert report.canonical


def test_convergence_order_fourth():
    closed_q = lambda s: np.stack([np.cosh(s), np.sinh(s), np.zeros_like(s)], axis=-1)
    errors = []
    for step in (0.02, 0.01):
        s, q, h, a = integrate_frame(from_constants(1.0, 0.0, 0.0, (0.0, 5.0), step))
        errors.append(np.max(np.abs(q - closed_q(s))))
    order = math.log2(errors[0] / errors[1])
    assert 3.7 <= order <= 4.3


def test_initial_frame_validation():
    with pytest.raises(ValueError):
        IntrinsicData(
            k1=ex.const(1.0),
            k2=ex.const(0.0),
            theta=ex.const(0.0),
            initial_frame=(
                np.array([1.0, 0.0, 0.0]),
                np.array([0.0, 1.0, 0.0]),
                np.array([0.0, 0.0, 1.0]),  # det = +1, non-canonical
            ),
        )


def test_positive_epsilon_frames_integrate_but_do_not_synthesize():
    data = IntrinsicData(
        k1=ex.const(1.0),
        k2=ex.const(0.5),
        theta=ex.const(0.0),
        epsilon=1,
        initial_frame=(
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, -1.0]),
            np.array([1.0, 0.0, 0.0]),
        ),
        s_range=(0.0, 1.0),
        step=1e-3,
    )
    s, q, h, a = integrate_frame(data)
    assert np.max(np.abs(lorentz_dot(q, q) - 1.0)) <= 1e-9
    assert np.max(np.abs(lorentz_dot(a, a) + 1.0)) <= 1e-9
    with pytest.raises(NonTimelikeStrictionError):
        synthesize_surface(data)


def test_to_explicit_grid():
    surf = synthesize_surface(from_constants(1.0, 0.0, 1.0, (0.0, 1.0), 1e-2))
    grid = to_explicit_grid(surf, (-1.0, 1.0), 5)
    assert grid.shape == (len(surf), 5, 3)
    assert np.array_equal(grid[:, 2, :], surf.c)  # v = 0 column
    v = np.linspace(-1, 1, 5)
    assert np.allclose(grid, surf.c[:, None, :] + v[None, :, None] * surf.q[:, None, :])


def test_grid_reanalysis_recovers_drall():
    surf = synthesize_surface(from_constants(1.0, 0.0, 1.0, (0.0, 1.0), 1e-3))
    oracle = sampled_ruled_invariants(surf.c, surf.q, surf.step)
    assert np.all(oracle.valid)
    expected = -math.sinh(1.0) / 1.0
    assert np.max(np.abs(oracle.drall - expected)) < 1e-6


def test_round_trip_variable_data():
    data = IntrinsicData(
        k1=ex.parse("1 + 0.3*sin(s)"),
        k2=ex.parse("0.5 + 0.2*s"),
        theta=ex.parse("0.4 + 0.1*cos(s)"),
        s_range=(0.0, 1.0),
        step=1e-3,
    )
    surf = synthesize_surface(data)
    rec = recover_frame_data(surf.s, surf.c, surf.q)
    sl = rec["slice"]
    assert np.max(np.abs(rec["k1"] - surf.k1[sl])) < 1e-6
    assert np.max(np.abs(rec["k2"] - surf.k2[sl])) < 1e-6
    assert np.max(np.abs(rec["theta"] - surf.theta[sl])) < 1e-6


def test_step_divides_range_evenly():
    data = from_constants(1.0, 0.0, 0.0, (0.0, 1.0), 0.3)
    assert data.n_steps == 3
    assert data.actual_step == pytest.approx(1.0 / 3.0)
    surf = synthesize_surface(data)
    assert len(surf) == 4
    assert surf.s[-1] == pytest.approx(1.0)
