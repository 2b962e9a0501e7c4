"""Build ruled surfaces from intrinsic data (k1, k2, theta).

The moving frame obeys, with respect to striction arc length s and
epsilon = <q, q>:

    dq/ds =            k1 h
    dh/ds = -eps k1 q         + k2 a
    da/ds =         eps k2 h

and for epsilon = -1 the striction tangent is

    dc/ds = cosh(theta) q + sinh(theta) a,

which is automatically unit timelike.  One fixed-step RK4 kernel integrates
the frame alone, with a Lorentzian Gram-Schmidt re-projection after every
step, so orthonormality residuals stay near roundoff over long ranges.
theta enters only dc/ds, so the striction curve is built afterwards in one
numpy pass over the stored frames, with the bits of a joint integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import FrameDegenerateError, NonTimelikeStrictionError, WorkLimitError
from .frame import SampledSurface, canonical_frame
from .lorentz import Vec3, frame_check

# a synthesized surface peaks near 0.75 KB of memory per RK4 step, so about
# 0.75 GB at this many steps
MAX_STEPS = 1_000_000
# an OBJ mesh peaks near 90 B of memory and writes about 93 B of file per
# vertex, so about 0.9 GB of each at this many vertices
MAX_MESH_VERTICES = 10_000_000


@dataclass(frozen=True)
class IntrinsicData:
    """Curvature functions and integration setup for one surface.

    ``step`` is a target; the actual step divides the range evenly.
    ValueError unless ``epsilon`` is -1 or 1 (not a bool), ``step`` lies in
    (0, inf), ``s_range`` is finite and increasing, and the initial frame
    (the default one included) is orthonormal for the chosen signature
    with h = a*q and det(q, h, a) = -1; WorkLimitError, a ValueError, where
    the range over the step exceeds MAX_STEPS.
    """

    k1: ex.Expr
    k2: ex.Expr
    theta: ex.Expr
    epsilon: int = -1
    s_range: tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3
    initial_frame: tuple[Vec3, Vec3, Vec3] = field(default_factory=canonical_frame)

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be a positive finite number")
        s0, s1 = self.s_range
        if not (-math.inf < s0 < s1 and s1 - s0 < math.inf):
            raise ValueError("s_range must be finite and increasing")
        if (s1 - s0) / self.step > MAX_STEPS:
            raise WorkLimitError(
                f"s_range over step asks for {(s1 - s0) / self.step:.3g} RK4 steps, "
                f"more than MAX_STEPS = {MAX_STEPS}"
            )
        q0, h0, a0 = self.initial_frame
        report = frame_check(q0, h0, a0, self.epsilon)
        if not report.canonical:
            raise ValueError(
                "initial frame must be orthonormal with h = a*q and det = -1 "
                f"(residual {report.max_residual:.2e}, det {report.det:+.3f})"
            )

    @property
    def n_steps(self) -> int:
        s0, s1 = self.s_range
        return max(1, int(round((s1 - s0) / self.step)))

    @property
    def actual_step(self) -> float:
        s0, s1 = self.s_range
        return (s1 - s0) / self.n_steps


def from_constants(
    k1: float,
    k2: float,
    theta,
    s_range: tuple[float, float] = (0.0, 1.0),
    step: float = 1e-3,
    epsilon: int = -1,
) -> IntrinsicData:
    """Convenience constructor; ``theta`` may be a float or an expression."""
    theta_expr = theta if isinstance(theta, ex.Expr) else ex.const(theta)
    return IntrinsicData(
        k1=ex.const(k1),
        k2=ex.const(k2),
        theta=theta_expr,
        epsilon=epsilon,
        s_range=s_range,
        step=step,
    )


def _rk4_core(n, dt, eps, k1n, k2n, k1h, k2h, frame0):
    """Unrolled scalar RK4 of the frame with per-step Lorentzian Gram-Schmidt.

    Tables are plain lists (node values, length n+1; half-step values,
    length n).  Scalar float arithmetic keeps the sequential loop an order
    of magnitude faster than small-array numpy.  Returns the frames as
    three float arrays (q, h, a) of shape (n+1, 3).
    """
    (qx, qy, qz), (hx, hy, hz), (ax, ay, az) = (
        (float(v[0]), float(v[1]), float(v[2])) for v in frame0
    )
    rows_q = [(qx, qy, qz)]
    rows_h = [(hx, hy, hz)]
    rows_a = [(ax, ay, az)]
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

        qx += sixth * (dqx1 + 2.0 * (dqx2 + dqx3) + dqx4)
        qy += sixth * (dqy1 + 2.0 * (dqy2 + dqy3) + dqy4)
        qz += sixth * (dqz1 + 2.0 * (dqz2 + dqz3) + dqz4)
        hx += sixth * (dhx1 + 2.0 * (dhx2 + dhx3) + dhx4)
        hy += sixth * (dhy1 + 2.0 * (dhy2 + dhy3) + dhy4)
        hz += sixth * (dhz1 + 2.0 * (dhz2 + dhz3) + dhz4)
        ax += sixth * (dax1 + 2.0 * (dax2 + dax3) + dax4)
        ay += sixth * (day1 + 2.0 * (day2 + day3) + day4)
        az += sixth * (daz1 + 2.0 * (daz2 + daz3) + daz4)

        # Lorentzian Gram-Schmidt with signatures (eps, +1, -eps)
        qq = -qx * qx + qy * qy + qz * qz
        if eps * qq <= 0.0:
            raise FrameDegenerateError("ruling vector became null during re-projection")
        inv = 1.0 / math.sqrt(abs(qq))
        qx *= inv; qy *= inv; qz *= inv
        coef = (-hx * qx + hy * qy + hz * qz) * eps
        hx -= coef * qx; hy -= coef * qy; hz -= coef * qz
        hh = -hx * hx + hy * hy + hz * hz
        if hh <= 0.0:
            raise FrameDegenerateError("central normal became null during re-projection")
        inv = 1.0 / math.sqrt(hh)
        hx *= inv; hy *= inv; hz *= inv
        coef = (-ax * qx + ay * qy + az * qz) * eps
        ax -= coef * qx; ay -= coef * qy; az -= coef * qz
        coef = -ax * hx + ay * hy + az * hz
        ax -= coef * hx; ay -= coef * hy; az -= coef * hz
        aa = -ax * ax + ay * ay + az * az
        if -eps * aa <= 0.0:
            raise FrameDegenerateError("central tangent became null during re-projection")
        inv = 1.0 / math.sqrt(abs(aa))
        ax *= inv; ay *= inv; az *= inv

        rows_q.append((qx, qy, qz))
        rows_h.append((hx, hy, hz))
        rows_a.append((ax, ay, az))

    return np.array(rows_q), np.array(rows_h), np.array(rows_a)


def _striction_curve(frames, dt, eps, k1n, k2n, k1h, k2h, thn, thh):
    """Striction curve with c(s0) = 0 from the stored ``_rk4_core`` frames (q, h, a).

    The RK4 stages of c for every step are recomputed from the frame at its
    start node, with the kernel's operations in the kernel's order, and the
    increments are summed in step order, so c has the bits of integrating it
    inside the frame loop.  Tables as in ``_integrate_frames``.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    k1n, k2n, k1h, k2h = (t[:, None] for t in (k1n, k2n, k1h, k2h))
    chn, shn, chh, shh = (f(t)[:, None] for t in (thn, thh) for f in (np.cosh, np.sinh))

    def deriv(k1, k2, q, h, a):
        return k1 * h, (-eps * k1) * q + k2 * a, (eps * k2) * h

    # each stage's (q_j, h_j, a_j) replaces the last one's, so few (n, 3)
    # temporaries are alive at once
    q, h, a = (x[:-1] for x in frames)
    dq, dh, da = deriv(k1n[:-1], k2n[:-1], q, h, a)
    dc1 = chn[:-1] * q + shn[:-1] * a
    qj, hj, aj = q + half * dq, h + half * dh, a + half * da
    dq, dh, da = deriv(k1h, k2h, qj, hj, aj)
    dc2 = chh * qj + shh * aj
    qj, hj, aj = q + half * dq, h + half * dh, a + half * da
    dq, _, da = deriv(k1h, k2h, qj, hj, aj)
    dc3 = chh * qj + shh * aj
    dc4 = chn[1:] * (q + dt * dq) + shn[1:] * (a + dt * da)
    inc = sixth * (dc1 + 2.0 * (dc2 + dc3) + dc4)
    # a leading zero row makes c[1] = 0.0 + inc[0], as in a running sum
    return np.cumsum(np.concatenate([np.zeros((1, 3)), inc]), axis=0)


def _integrate_frames(data: IntrinsicData):
    """Returns ``(s, s_half, tables, frames)`` for the RK4 grid of ``data``.

    ``s`` and ``s_half`` are the n+1 node and n half-step arc lengths,
    ``tables`` the arrays ``(k1n, k2n, k1h, k2h)`` of k1 and k2 on them, and
    ``frames`` the ``(q, h, a)`` output of ``_rk4_core``.  Raises
    FrameDegenerateError if a frame is not finite (the step is too coarse
    for the curvatures).
    """
    n, dt, s0 = data.n_steps, data.actual_step, data.s_range[0]
    s = s0 + dt * np.arange(n + 1)
    s_half = s0 + dt * (np.arange(n) + 0.5)
    tables = tuple(
        np.asarray(ex.evaluate(expr, grid), dtype=float)
        for expr, grid in ((data.k1, s), (data.k2, s), (data.k1, s_half), (data.k2, s_half))
    )
    frames = _rk4_core(n, dt, data.epsilon, *(t.tolist() for t in tables), data.initial_frame)
    if not all(np.isfinite(x).all() for x in frames):
        raise FrameDegenerateError("frame integration overflowed to non-finite values")
    return s, s_half, tables, frames


def integrate_frame(data: IntrinsicData):
    """Integrate the frame equations; returns ``(s, Q, H, A)`` arrays.

    ``s`` has shape (n+1,); Q, H, A have shape (n+1, 3).  The frame is
    re-orthonormalized after every step, so residuals stay below ~1e-12
    for the ranges used here.
    """
    s, _, _, (q, h, a) = _integrate_frames(data)
    return s, q, h, a


def synthesize_surface(data: IntrinsicData, frames=None) -> SampledSurface:
    """Integrate the frame, then build the striction curve from it.

    The RK4 kernel integrates the frame alone; ``_striction_curve`` computes
    c from the stored frames and the theta tables in one array pass.  A
    caller-owned ``frames`` dict, keyed by every input but theta, shares one
    integration (arrays included) across theta.  Only epsilon = -1 admits
    the hyperbolic striction tangent used here; c starts at the origin.
    Overflowing frames or curves raise FrameDegenerateError.
    """
    if data.epsilon != -1:
        raise NonTimelikeStrictionError(
            "surface synthesis requires epsilon = -1 (timelike ruling)"
        )
    frames = {} if frames is None else frames
    key = (ex.structure(data.k1), ex.structure(data.k2), data.epsilon, tuple(data.s_range),
           data.step, np.asarray(data.initial_frame, dtype=float).tobytes())
    if key not in frames:
        frames[key] = _integrate_frames(data)
    s, s_half, tables, (q, h, a) = frames[key]
    thn = np.asarray(ex.evaluate(data.theta, s), dtype=float)
    thh = np.asarray(ex.evaluate(data.theta, s_half), dtype=float)
    with np.errstate(all="ignore"):
        c = _striction_curve((q, h, a), data.actual_step, data.epsilon, *tables, thn, thh)
    if not np.isfinite(c).all():
        raise FrameDegenerateError("striction curve overflowed to non-finite values")
    return SampledSurface(
        s=s, c=c, q=q, h=h, a=a,
        k1=tables[0], k2=tables[1], theta=thn, epsilon=data.epsilon,
    )


def _ruled_grid(base: np.ndarray, ruling: np.ndarray, v_range, nv: int) -> np.ndarray:
    """Tensor grid base(s_i) + v_j ruling(s_i), shape (n_s, nv, 3); WorkLimitError past
    MAX_MESH_VERTICES vertices, ValueError (no numpy warning) where a vertex is not finite."""
    if nv < 2:
        raise ValueError("need at least two v samples")
    if len(base) * nv > MAX_MESH_VERTICES:
        raise WorkLimitError(
            f"a {len(base)} x {nv} mesh has more than MAX_MESH_VERTICES = {MAX_MESH_VERTICES} vertices"
        )
    with np.errstate(all="ignore"):
        v = np.linspace(v_range[0], v_range[1], nv)
        grid = base[:, None, :] + v[None, :, None] * ruling[:, None, :]
    if not np.isfinite(grid).all():
        raise ValueError("mesh grid holds non-finite vertices")
    return grid


def to_explicit_grid(surf: SampledSurface, v_range: tuple[float, float], nv: int) -> np.ndarray:
    """Tensor grid r(s_i, v_j) = c(s_i) + v_j q(s_i), shape (n_s, nv, 3)."""
    return _ruled_grid(surf.c, surf.q, v_range, nv)
