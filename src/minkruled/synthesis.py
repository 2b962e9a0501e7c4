"""Build ruled surfaces from intrinsic data (k1, k2, theta).

The moving frame obeys, with respect to striction arc length s and
epsilon = <q, q>:

    dq/ds =            k1 h
    dh/ds = -eps k1 q         + k2 a
    da/ds =         eps k2 h

and for epsilon = -1 the striction tangent is

    dc/ds = cosh(theta) q + sinh(theta) a,

which is automatically unit timelike.  Integration is classical fixed-step
RK4 with a Lorentzian Gram-Schmidt re-projection of the frame after every
step, so orthonormality residuals stay near roundoff over long ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import FrameDegenerateError, NonTimelikeStrictionError
from .frame import SampledSurface, canonical_frame
from .lorentz import DEFAULT_TOLERANCES, Tolerances, Vec3, frame_check


@dataclass(frozen=True)
class IntrinsicData:
    """Curvature functions and integration setup for one surface.

    ``step`` is a target; the actual step divides the range evenly.
    The initial frame must be orthonormal for the chosen signature with
    h = a*q and det(q, h, a) = -1.
    """

    k1: ex.Expr
    k2: ex.Expr
    theta: ex.Expr
    epsilon: int = -1
    s_range: tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3
    initial_frame: tuple[Vec3, Vec3, Vec3] = field(default_factory=canonical_frame)

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise ValueError("epsilon must be -1 or +1")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.s_range[1] > self.s_range[0]:
            raise ValueError("s_range must be increasing")
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


def _eval_on(expr: ex.Expr, grid: np.ndarray) -> list:
    out = ex.evaluate(expr, grid)
    return np.asarray(out, dtype=float).tolist()


def _rk4_core(n, dt, eps, k1n, k2n, k1h, k2h, chn, shn, chh, shh, frame0, with_curve):
    """Unrolled scalar RK4 with per-step Lorentzian Gram-Schmidt.

    Tables are plain lists (node values, length n+1; half-step values,
    length n).  Scalar float arithmetic keeps the sequential loop an order
    of magnitude faster than small-array numpy.  Returns (frames, curve)
    float arrays of shapes (n+1, 3, 3) and (n+1, 3).
    """
    (qx, qy, qz), (hx, hy, hz), (ax, ay, az) = (
        (float(v[0]), float(v[1]), float(v[2])) for v in frame0
    )
    cx = cy = cz = 0.0
    rows_q = [(qx, qy, qz)]
    rows_h = [(hx, hy, hz)]
    rows_a = [(ax, ay, az)]
    rows_c = [(cx, cy, cz)]
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

        if with_curve:
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
        rows_c.append((cx, cy, cz))

    frames = np.stack(
        [np.array(rows_q), np.array(rows_h), np.array(rows_a)], axis=1
    )
    return frames, np.array(rows_c)


def _integrate(data: IntrinsicData, with_curve: bool):
    """One RK4 run on the grid of ``data``.

    Returns ``(s, k1, k2, theta, frames, curve)``: node arc lengths, the
    node values of k1 and k2 as lists, and the ``_rk4_core`` output.  theta
    (node values) and the striction curve are computed only with
    ``with_curve``; otherwise theta is None and the curve stays at 0.
    """
    s0, _ = data.s_range
    n = data.n_steps
    dt = data.actual_step
    s_nodes = s0 + dt * np.arange(n + 1)
    s_half = s0 + dt * (np.arange(n) + 0.5)
    k1n = _eval_on(data.k1, s_nodes)
    k2n = _eval_on(data.k2, s_nodes)
    thn = None
    trig = (None, None, None, None)
    if with_curve:
        thn = np.asarray(ex.evaluate(data.theta, s_nodes), dtype=float)
        thh = np.asarray(ex.evaluate(data.theta, s_half), dtype=float)
        trig = (
            np.cosh(thn).tolist(), np.sinh(thn).tolist(),
            np.cosh(thh).tolist(), np.sinh(thh).tolist(),
        )
    frames, curve = _rk4_core(
        n,
        dt,
        data.epsilon,
        k1n,
        k2n,
        _eval_on(data.k1, s_half),
        _eval_on(data.k2, s_half),
        *trig,
        data.initial_frame,
        with_curve=with_curve,
    )
    return s_nodes, k1n, k2n, thn, frames, curve


def integrate_frame(data: IntrinsicData):
    """Integrate the frame equations; returns ``(s, Q, H, A)`` arrays.

    ``s`` has shape (n+1,); Q, H, A have shape (n+1, 3).  The frame is
    re-orthonormalized after every step, so residuals stay below ~1e-12
    for the ranges used here.
    """
    s, _, _, _, frames, _ = _integrate(data, with_curve=False)
    return s, frames[:, 0, :], frames[:, 1, :], frames[:, 2, :]


def synthesize_surface(data: IntrinsicData, tol: Tolerances = DEFAULT_TOLERANCES) -> SampledSurface:
    """Integrate frame and striction curve together on one RK4 grid.

    Only the timelike-ruling signature (epsilon = -1) admits the hyperbolic
    striction tangent used here; c starts at the origin.
    """
    if data.epsilon != -1:
        raise NonTimelikeStrictionError(
            "surface synthesis requires epsilon = -1 (timelike ruling)"
        )
    s, k1n, k2n, thn, frames, curve = _integrate(data, with_curve=True)
    return SampledSurface(
        s=s,
        c=curve,
        q=frames[:, 0, :],
        h=frames[:, 1, :],
        a=frames[:, 2, :],
        k1=np.asarray(k1n, dtype=float),
        k2=np.asarray(k2n, dtype=float),
        theta=thn,
        epsilon=data.epsilon,
        data=data,
    )


def to_explicit_grid(surf: SampledSurface, v_range: tuple[float, float], nv: int) -> np.ndarray:
    """Tensor grid r(s_i, v_j) = c(s_i) + v_j q(s_i), shape (n_s, nv, 3)."""
    if nv < 2:
        raise ValueError("need at least two v samples")
    v = np.linspace(v_range[0], v_range[1], nv)
    return surf.c[:, None, :] + v[None, :, None] * surf.q[:, None, :]
