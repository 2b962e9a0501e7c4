"""Frame integration and surface synthesis from intrinsic data."""

import math
import warnings

import numpy as np
import pytest

from minkruled import expressions as ex
from minkruled import synthesis
from minkruled.errors import FrameDegenerateError, NonTimelikeStrictionError
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


# ---------------------------------------------------------------------------
# the frame-only kernel plus the array curve pass against one joint RK4
# ---------------------------------------------------------------------------


def reference_joint_rk4(data):
    """Frame and striction curve integrated together in one scalar RK4 loop.

    This is the combined kernel the library ran before the curve moved into a
    separate array pass, kept here as the reference: tables are plain lists
    and every operation is a Python float operation.  Returns
    ``(frames, curve)`` of shapes (n+1, 3, 3) and (n+1, 3).
    """
    n, dt, eps = data.n_steps, data.actual_step, data.epsilon
    s0 = data.s_range[0]
    s_nodes = s0 + dt * np.arange(n + 1)
    s_half = s0 + dt * (np.arange(n) + 0.5)

    def table(expr, grid):
        return np.asarray(ex.evaluate(expr, grid), dtype=float).tolist()

    k1n, k2n, k1h, k2h = (
        table(e, g) for e, g in ((data.k1, s_nodes), (data.k2, s_nodes), (data.k1, s_half), (data.k2, s_half))
    )
    thn = np.asarray(ex.evaluate(data.theta, s_nodes), dtype=float)
    thh = np.asarray(ex.evaluate(data.theta, s_half), dtype=float)
    chn, shn = np.cosh(thn).tolist(), np.sinh(thn).tolist()
    chh, shh = np.cosh(thh).tolist(), np.sinh(thh).tolist()

    (qx, qy, qz), (hx, hy, hz), (ax, ay, az) = (
        (float(v[0]), float(v[1]), float(v[2])) for v in data.initial_frame
    )
    cx = cy = cz = 0.0
    rows_q, rows_h, rows_a, rows_c = [(qx, qy, qz)], [(hx, hy, hz)], [(ax, ay, az)], [(cx, cy, cz)]
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(n):
        k1_0, k2_0 = k1n[i], k2n[i]
        k1_m, k2_m = k1h[i], k2h[i]
        k1_1, k2_1 = k1n[i + 1], k2n[i + 1]

        m = -eps * k1_0
        e2 = eps * k2_0
        dqx1 = k1_0 * hx; dqy1 = k1_0 * hy; dqz1 = k1_0 * hz
        dhx1 = m * qx + k2_0 * ax; dhy1 = m * qy + k2_0 * ay; dhz1 = m * qz + k2_0 * az
        dax1 = e2 * hx; day1 = e2 * hy; daz1 = e2 * hz

        qx2 = qx + half * dqx1; qy2 = qy + half * dqy1; qz2 = qz + half * dqz1
        hx2 = hx + half * dhx1; hy2 = hy + half * dhy1; hz2 = hz + half * dhz1
        ax2 = ax + half * dax1; ay2 = ay + half * day1; az2 = az + half * daz1
        m = -eps * k1_m
        e2 = eps * k2_m
        dqx2 = k1_m * hx2; dqy2 = k1_m * hy2; dqz2 = k1_m * hz2
        dhx2 = m * qx2 + k2_m * ax2; dhy2 = m * qy2 + k2_m * ay2; dhz2 = m * qz2 + k2_m * az2
        dax2 = e2 * hx2; day2 = e2 * hy2; daz2 = e2 * hz2

        qx3 = qx + half * dqx2; qy3 = qy + half * dqy2; qz3 = qz + half * dqz2
        hx3 = hx + half * dhx2; hy3 = hy + half * dhy2; hz3 = hz + half * dhz2
        ax3 = ax + half * dax2; ay3 = ay + half * day2; az3 = az + half * daz2
        dqx3 = k1_m * hx3; dqy3 = k1_m * hy3; dqz3 = k1_m * hz3
        dhx3 = m * qx3 + k2_m * ax3; dhy3 = m * qy3 + k2_m * ay3; dhz3 = m * qz3 + k2_m * az3
        dax3 = e2 * hx3; day3 = e2 * hy3; daz3 = e2 * hz3

        qx4 = qx + dt * dqx3; qy4 = qy + dt * dqy3; qz4 = qz + dt * dqz3
        hx4 = hx + dt * dhx3; hy4 = hy + dt * dhy3; hz4 = hz + dt * dhz3
        ax4 = ax + dt * dax3; ay4 = ay + dt * day3; az4 = az + dt * daz3
        m = -eps * k1_1
        e2 = eps * k2_1
        dqx4 = k1_1 * hx4; dqy4 = k1_1 * hy4; dqz4 = k1_1 * hz4
        dhx4 = m * qx4 + k2_1 * ax4; dhy4 = m * qy4 + k2_1 * ay4; dhz4 = m * qz4 + k2_1 * az4
        dax4 = e2 * hx4; day4 = e2 * hy4; daz4 = e2 * hz4

        ch0, sh0 = chn[i], shn[i]
        chm, shm = chh[i], shh[i]
        ch1, sh1 = chn[i + 1], shn[i + 1]
        dcx1 = ch0 * qx + sh0 * ax; dcy1 = ch0 * qy + sh0 * ay; dcz1 = ch0 * qz + sh0 * az
        dcx2 = chm * qx2 + shm * ax2; dcy2 = chm * qy2 + shm * ay2; dcz2 = chm * qz2 + shm * az2
        dcx3 = chm * qx3 + shm * ax3; dcy3 = chm * qy3 + shm * ay3; dcz3 = chm * qz3 + shm * az3
        dcx4 = ch1 * qx4 + sh1 * ax4; dcy4 = ch1 * qy4 + sh1 * ay4; dcz4 = ch1 * qz4 + sh1 * az4
        cx += sixth * (dcx1 + 2.0 * (dcx2 + dcx3) + dcx4)
        cy += sixth * (dcy1 + 2.0 * (dcy2 + dcy3) + dcy4)
        cz += sixth * (dcz1 + 2.0 * (dcz2 + dcz3) + dcz4)

        qx += sixth * (dqx1 + 2.0 * (dqx2 + dqx3) + dqx4)
        qy += sixth * (dqy1 + 2.0 * (dqy2 + dqy3) + dqy4)
        qz += sixth * (dqz1 + 2.0 * (dqz2 + dqz3) + dqz4)
        hx += sixth * (dhx1 + 2.0 * (dhx2 + dhx3) + dhx4)
        hy += sixth * (dhy1 + 2.0 * (dhy2 + dhy3) + dhy4)
        hz += sixth * (dhz1 + 2.0 * (dhz2 + dhz3) + dhz4)
        ax += sixth * (dax1 + 2.0 * (dax2 + dax3) + dax4)
        ay += sixth * (day1 + 2.0 * (day2 + day3) + day4)
        az += sixth * (daz1 + 2.0 * (daz2 + daz3) + daz4)

        qq = -qx * qx + qy * qy + qz * qz
        inv = 1.0 / math.sqrt(abs(qq))
        qx *= inv; qy *= inv; qz *= inv
        coef = (-hx * qx + hy * qy + hz * qz) * eps
        hx -= coef * qx; hy -= coef * qy; hz -= coef * qz
        hh = -hx * hx + hy * hy + hz * hz
        inv = 1.0 / math.sqrt(hh)
        hx *= inv; hy *= inv; hz *= inv
        coef = (-ax * qx + ay * qy + az * qz) * eps
        ax -= coef * qx; ay -= coef * qy; az -= coef * qz
        coef = -ax * hx + ay * hy + az * hz
        ax -= coef * hx; ay -= coef * hy; az -= coef * hz
        aa = -ax * ax + ay * ay + az * az
        inv = 1.0 / math.sqrt(abs(aa))
        ax *= inv; ay *= inv; az *= inv

        rows_q.append((qx, qy, qz))
        rows_h.append((hx, hy, hz))
        rows_a.append((ax, ay, az))
        rows_c.append((cx, cy, cz))

    frames = np.stack([np.array(rows_q), np.array(rows_h), np.array(rows_a)], axis=1)
    return frames, np.array(rows_c)


def boosted_frame():
    """The canonical frame under a boost in (x, y) and a rotation in (y, z)."""
    b, r = 0.6, 0.9
    boost = np.array([[math.cosh(b), math.sinh(b), 0.0], [math.sinh(b), math.cosh(b), 0.0], [0.0, 0.0, 1.0]])
    rot = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(r), -math.sin(r)], [0.0, math.sin(r), math.cos(r)]])
    return tuple(rot @ boost @ v for v in canonical_frame())


SPLIT_CASES = {
    "constant": dict(k1="1", k2="0", theta="1", s_range=(0.0, 1.0), step=1e-3),
    "constant-twisted": dict(k1="2", k2="1", theta="0.7", s_range=(0.0, 2.0), step=1e-3),
    "varying": dict(k1="1 + 0.3*sin(2*s)", k2="0.5*cos(s)", theta="0.2 + 0.4*s", s_range=(0.0, 3.0), step=1e-3),
    "negative-theta": dict(k1="0.8", k2="s", theta="-0.5*sin(s)", s_range=(-1.0, 1.5), step=2e-3),
    "boosted-start": dict(
        k1="1 + 0.2*s", k2="0.4", theta="0.3*cos(s)", s_range=(0.0, 1.0), step=1e-3,
        initial_frame=boosted_frame(),
    ),
}


def assert_same_bits(x, y):
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()  # exact, including the sign of zero


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_kernel_matches_joint_rk4(name):
    case = dict(SPLIT_CASES[name])
    data = IntrinsicData(
        k1=ex.parse(case.pop("k1")), k2=ex.parse(case.pop("k2")), theta=ex.parse(case.pop("theta")), **case
    )
    frames, curve = reference_joint_rk4(data)
    surf = synthesize_surface(data)
    assert_same_bits(surf.c, curve)
    assert_same_bits(surf.q, frames[:, 0, :])
    assert_same_bits(surf.h, frames[:, 1, :])
    assert_same_bits(surf.a, frames[:, 2, :])
    s, q, h, a = integrate_frame(data)
    assert_same_bits(s, surf.s)
    for x, y in ((q, surf.q), (h, surf.h), (a, surf.a)):
        assert_same_bits(x, y)


def test_surface_arrays_do_not_alias_the_grid():
    # k2 and theta equal to the bare variable must still be arrays of their own
    data = IntrinsicData(k1=ex.const(1.0), k2=ex.parse("s"), theta=ex.parse("s"), step=0.1)
    surf = synthesize_surface(data)
    arrays = [surf.s, surf.c, surf.q, surf.h, surf.a, surf.k1, surf.k2, surf.theta]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)
    grid = np.linspace(0.0, 1.0, 5)
    assert ex.evaluate(ex.parse("s"), grid) is not grid


@pytest.mark.parametrize(
    "k1,theta,stage",
    [("1e200", "0.5", "frame integration"), ("1", "800", "striction curve")],
    ids=["frame-overflow", "curve-overflow"],
)
def test_overflow_raises_frame_degenerate(k1, theta, stage):
    data = IntrinsicData(
        k1=ex.parse(k1), k2=ex.parse("0.1"), theta=ex.parse(theta), s_range=(0.0, 1.0), step=0.01
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(FrameDegenerateError, match=stage):
            synthesize_surface(data)
        if stage == "frame integration":
            with pytest.raises(FrameDegenerateError, match=stage):
                integrate_frame(data)
        else:
            assert np.isfinite(integrate_frame(data)[1]).all()


SURFACE_FIELDS = ("s", "c", "q", "h", "a", "k1", "k2", "theta")
SHARED_THETAS = ("0", "1", "-0.5", "0.2 + 0.4*s", "-0.5*sin(s)")


def counted_rk4(monkeypatch):
    calls = []
    original = synthesis._rk4_core

    def counted(n, *args):
        calls.append(n)
        return original(n, *args)

    monkeypatch.setattr(synthesis, "_rk4_core", counted)
    return calls


def with_theta(case, theta):
    case = dict(case)
    return IntrinsicData(
        k1=ex.parse(case.pop("k1")), k2=ex.parse(case.pop("k2")), theta=ex.parse(theta),
        **{k: v for k, v in case.items() if k != "theta"},
    )


@pytest.mark.parametrize("name", ["varying", "boosted-start"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_shared_frames_match_fresh_synthesis(monkeypatch, name, order):
    datas = [with_theta(SPLIT_CASES[name], theta) for theta in SHARED_THETAS]
    fresh = [synthesize_surface(data) for data in datas]
    calls = counted_rk4(monkeypatch)
    frames = {}
    shared = {i: synthesize_surface(datas[i], frames) for i in range(len(datas))[::order]}
    # one frame integration serves every theta
    assert len(calls) == 1 and len(frames) == 1
    for i, surf in shared.items():
        for field in SURFACE_FIELDS:
            assert_same_bits(getattr(surf, field), getattr(fresh[i], field))


def test_shared_frames_never_reuse_another_frame(monkeypatch):
    base = dict(k1="1 + 0.2*s", k2="0.4", theta="0.3", s_range=(0.0, 1.0), step=1e-2)
    variants = [
        dict(base, k1="1.2 + 0.2*s"),
        dict(base, k2="0.5"),
        dict(base, step=5e-3),
        dict(base, s_range=(0.0, 1.5)),
        dict(base, s_range=(-0.5, 1.0)),
        dict(base, initial_frame=boosted_frame()),
    ]
    calls = counted_rk4(monkeypatch)
    frames = {}
    synthesize_surface(with_theta(base, "0.3"), frames)
    for i, case in enumerate(variants, start=2):
        data = with_theta(case, "0.3")
        before = len(calls)
        surf = synthesize_surface(data, frames)
        assert len(calls) == before + 1 and len(frames) == i
        fresh = synthesize_surface(data)
        for field in SURFACE_FIELDS:
            assert_same_bits(getattr(surf, field), getattr(fresh, field))
    # an equal initial frame in new arrays, and a new theta, reuse the entry
    synthesize_surface(with_theta(dict(base, initial_frame=canonical_frame()), "s"), frames)
    synthesize_surface(with_theta(dict(variants[-1], initial_frame=boosted_frame()), "-1"), frames)
    assert len(frames) == len(variants) + 1
    assert len(calls) == 2 * len(variants) + 1  # the fresh syntheses above
