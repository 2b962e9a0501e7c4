"""Build ruled surfaces from intrinsic data (k1, k2, theta).

The moving frame obeys, with respect to striction arc length s and
epsilon = <q, q>:

    dq/ds =            k1 h
    dh/ds = -eps k1 q         + k2 a
    da/ds =         eps k2 h

and for epsilon = -1 the striction tangent is

    dc/ds = cosh(theta) q + sinh(theta) a,

which is automatically unit timelike.  The frame ODE is linear, so one
fixed-step RK4 step is a 3x3 matrix acting on the stacked rows (q, h, a),
built for every step at once from the curvature tables.  The maps are
applied in blocks of BLOCK steps: one scalar loop carries the frame from
block start to block start by each block's product and re-projects it there
with a Lorentzian Gram-Schmidt, then all blocks step from their starts
together.  theta enters only dc/ds, and the RK4 increment of c is linear in
the frame too, so the striction curve is one cumulative sum afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import FrameDegenerateError, NonTimelikeStrictionError, WorkLimitError
from .frame import SampledSurface, canonical_frame
from .lorentz import Vec3, frame_check, lorentz_dot

# a synthesized surface peaks near 0.66 KB of memory per RK4 step (tracemalloc,
# 10^5 steps), so about 0.66 GB at this many steps
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


# RK4 steps between two re-projections of the frame
BLOCK = 32


def _coefficients(eps, k1, k2):
    """The matrices A with (q, h, a)' = A (q, h, a), shape (len(k1), 3, 3)."""
    a = np.zeros((len(k1), 3, 3))
    a[:, 0, 1], a[:, 1, 0], a[:, 1, 2], a[:, 2, 1] = k1, -eps * k1, k2, eps * k2
    return a


def _step_maps(dt, eps, k1n, k2n, k1h, k2h):
    """One RK4 step of the linear frame ODE as a matrix, for every step at once.

    Returns ``(maps, basis)``: ``maps[i]`` takes the stacked frame rows
    (q, h, a) from node i to node i+1, and ``basis[i]`` holds rows 0 and 2
    of the stage maps S2 + S3 and S4, which carry node i's frame to the
    stage frames that the striction tangent cosh(theta) q + sinh(theta) a
    reads, shape (n, 4, 3).
    """
    eye = np.eye(3)
    am = _coefficients(eps, k1h, k2h)
    maps = _coefficients(eps, k1n[:-1], k2n[:-1])  # A0, summed into M below
    s2 = eye + (0.5 * dt) * maps
    k = am @ s2
    maps += 2.0 * k
    s3 = eye + (0.5 * dt) * k
    k = am @ s3
    maps += 2.0 * k
    s4 = eye + dt * k
    maps += _coefficients(eps, k1n[1:], k2n[1:]) @ s4
    maps *= dt / 6.0
    maps += eye
    s2 += s3
    return maps, np.concatenate([s2[:, ::2], s4[:, ::2]], axis=1)


def _reproject(frame, eps):
    """Lorentzian Gram-Schmidt of ``(q, h, a)`` with signatures (eps, +1, -eps)."""
    (qx, qy, qz), (hx, hy, hz), (ax, ay, az) = frame
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
    return (qx, qy, qz), (hx, hy, hz), (ax * inv, ay * inv, az * inv)


def _propagate(maps, frame0, eps):
    """Frames Y_0, Y_1, ... with Y_{i+1} = maps[i] Y_i, shape (len(maps), 3, 3).

    ``len(maps)`` is a whole number of blocks of BLOCK steps.  The products
    of each block's maps carry the frame from one block start to the next,
    where it is re-projected; within all blocks at once, the maps are then
    applied one step after another from the block starts.
    """
    maps = maps.reshape(-1, BLOCK, 3, 3)
    carry = maps[:, 0]
    for j in range(1, BLOCK):
        carry = maps[:, j] @ carry
    y = np.empty_like(maps)
    y[0, 0] = frame0
    for b in range(1, len(y)):
        y[b, 0] = _reproject((carry[b - 1] @ y[b - 1, 0]).tolist(), eps)
    for j in range(BLOCK - 1):
        np.matmul(maps[:, j], y[:, j], out=y[:, j + 1])
    return y.reshape(-1, 3, 3)


def _integrate_frames(data: IntrinsicData):
    """Returns ``(s, s_half, (k1, k2), (q, h, a), basis)`` for the RK4 grid of ``data``.

    ``s`` and ``s_half`` are the n+1 node and n half-step arc lengths, ``k1``
    and ``k2`` the curvatures on the nodes, and ``basis`` the ``_step_maps``
    rows the striction curve needs.  The tables are padded with zeros to
    whole blocks; the padded steps reach no returned row.  Raises
    FrameDegenerateError if a frame is not finite (the step is too coarse
    for the curvatures) or not of its causal character.
    """
    n, dt, eps, s0 = data.n_steps, data.actual_step, data.epsilon, data.s_range[0]
    s = s0 + dt * np.arange(n + 1)
    s_half = s0 + dt * (np.arange(n) + 0.5)
    tables = [
        np.asarray(ex.evaluate(expr, grid), dtype=float)
        for expr, grid in ((data.k1, s), (data.k2, s), (data.k1, s_half), (data.k2, s_half))
    ]
    pad = BLOCK - n % BLOCK
    with np.errstate(all="ignore"):
        maps, basis = _step_maps(dt, eps, *(np.concatenate([t, np.zeros(pad)]) for t in tables))
        y = _propagate(maps, data.initial_frame, eps)[: n + 1]
        if not np.isfinite(y).all():
            raise FrameDegenerateError("frame integration overflowed to non-finite values")
        q, h, a = (np.ascontiguousarray(y[:, i]) for i in range(3))
        for name, v, sign in (("ruling vector", q, eps), ("central normal", h, 1), ("central tangent", a, -eps)):
            if not (sign * lorentz_dot(v, v) > 0.0).all():
                raise FrameDegenerateError(f"{name} became null during integration")
    return s, s_half, tuple(tables[:2]), (q, h, a), basis[:n]


def integrate_frame(data: IntrinsicData):
    """Integrate the frame equations; returns ``(s, Q, H, A)`` arrays.

    ``s`` has shape (n+1,); Q, H, A have shape (n+1, 3).  The frame is
    re-orthonormalized at the start of every block of BLOCK steps; within a
    block it drifts from orthonormality by RK4's error over those steps.
    """
    s, _, _, (q, h, a), _ = _integrate_frames(data)
    return s, q, h, a


def synthesize_surface(data: IntrinsicData, frames=None) -> SampledSurface:
    """Integrate the frame, then build the striction curve from it.

    The RK4 increment of c over step i is w_i . (q_i, h_i, a_i), with w_i
    from the theta tables and the cached stage maps, so c is one cumulative
    sum.  A caller-owned ``frames`` dict, keyed by every input but theta,
    shares one integration (arrays included) across theta.  Only epsilon =
    -1 admits the hyperbolic striction tangent used here; c starts at the
    origin.  Overflowing frames or curves raise FrameDegenerateError.
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
    s, s_half, (k1, k2), (q, h, a), basis = frames[key]
    thn = np.asarray(ex.evaluate(data.theta, s), dtype=float)
    thh = np.asarray(ex.evaluate(data.theta, s_half), dtype=float)
    with np.errstate(all="ignore"):
        ch, sh = np.cosh(thn), np.sinh(thn)
        weights = np.stack([2.0 * np.cosh(thh), 2.0 * np.sinh(thh), ch[1:], sh[1:]], axis=-1)
        w = (weights[:, None, :] @ basis)[:, 0]
        w[:, 0] += ch[:-1]
        w[:, 2] += sh[:-1]
        inc = (data.actual_step / 6.0) * (w[:, :1] * q[:-1] + w[:, 1:2] * h[:-1] + w[:, 2:] * a[:-1])
        # a leading zero row makes c[1] = 0.0 + inc[0], as in a running sum
        c = np.cumsum(np.concatenate([np.zeros((1, 3)), inc]), axis=0)
    if not np.isfinite(c).all():
        raise FrameDegenerateError("striction curve overflowed to non-finite values")
    return SampledSurface(
        s=s, c=c, q=q, h=h, a=a,
        k1=k1, k2=k2, theta=thn, epsilon=data.epsilon,
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
