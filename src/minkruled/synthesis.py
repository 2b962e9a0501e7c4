"""Build ruled surfaces from intrinsic data (k1, k2, theta).

The moving frame obeys, with respect to striction arc length s and
epsilon = <q, q>:

    dq/ds =            k1 h
    dh/ds = -eps k1 q         + k2 a
    da/ds =         eps k2 h

and for epsilon = -1 the striction tangent is

    dc/ds = cosh(theta) q + sinh(theta) a,

which is automatically unit timelike.  The frame ODE is linear, so one step
of the 2-stage Gauss-Legendre method (the implicit 4th-order Runge-Kutta
method with stages at s_n + (1/2 -+ sqrt(3)/6) dt) is a 3x3 matrix acting
on the stacked rows (q, h, a), built for every step at once from the
curvature tables.  The method keeps every quadratic invariant of an ODE
(Cooper, IMA J. Numer. Anal. 7, 1987), the frame's Lorentz Gram matrix
among them, so the frame needs no re-projection.  The maps are applied in
blocks of BLOCK steps: one loop carries the frame from block start to block
start by each block's product, then all blocks step from their starts
together.  theta enters only dc/ds, and the Gauss-Legendre increment of c is
linear in the frame too, so the striction curve is one cumulative sum
afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import FrameDegenerateError, NonTimelikeStrictionError, WorkLimitError
from .frame import SampledSurface, canonical_frame
from .lorentz import Vec3, frame_check, lorentz_dot

# a synthesized surface peaks near 0.86 KB of memory per step (tracemalloc,
# 10^5 steps), so about 0.86 GB at this many steps
MAX_STEPS = 1_000_000
# an OBJ mesh peaks near 90 B of memory and writes about 93 B of file per
# vertex, so about 0.9 GB of each at this many vertices
MAX_MESH_VERTICES = 10_000_000
# the default initial frame, shared read-only: canonical_frame() is canonical
# for epsilon = -1, so IntrinsicData checks it only for epsilon = +1
_DEFAULT_FRAME = canonical_frame()
for _v in _DEFAULT_FRAME:
    _v.flags.writeable = False


@dataclass(frozen=True)
class IntrinsicData:
    """Curvature functions and integration setup for one surface.

    ``step`` is a target; the actual step divides the range evenly.
    ValueError unless ``epsilon`` is -1 or 1 (not a bool), ``step`` lies in
    (0, inf), ``s_range`` is finite and increasing, and the initial frame
    is orthonormal for the chosen signature with h = a*q and det(q, h, a) =
    -1 (checked unless it is the default frame with epsilon = -1);
    WorkLimitError, a ValueError, where the range over the step exceeds
    MAX_STEPS.
    """

    k1: ex.Expr
    k2: ex.Expr
    theta: ex.Expr
    epsilon: int = -1
    s_range: tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3
    initial_frame: tuple[Vec3, Vec3, Vec3] = _DEFAULT_FRAME

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
                f"s_range over step asks for {(s1 - s0) / self.step:.3g} steps, "
                f"more than MAX_STEPS = {MAX_STEPS}"
            )
        if self.initial_frame is _DEFAULT_FRAME and self.epsilon == -1:
            return
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
    k1: float, k2: float, theta, s_range: tuple[float, float] = (0.0, 1.0), step: float = 1e-3
) -> IntrinsicData:
    """Convenience constructor for epsilon = -1; ``theta`` may be a float or an expression."""
    theta = theta if isinstance(theta, ex.Expr) else ex.const(theta)
    return IntrinsicData(ex.const(k1), ex.const(k2), theta, s_range=s_range, step=step)


# steps per block of _propagate; a speed constant only
BLOCK = 32
# the 2-stage Gauss-Legendre method: its nodes as fractions of a step, and the
# off-diagonal entries of its Butcher matrix, whose diagonal entries are 1/4
_R = math.sqrt(3.0) / 6.0
GAUSS_NODES = (0.5 - _R, 0.5 + _R)
A12, A21 = 0.25 - _R, 0.25 + _R
# the largest max(|k1|, |k2|) * dt a step may take.  Gauss-Legendre maps stay
# bounded at any step (the method is A-stable), so a step too coarse for the
# curvatures would return a finite, wrong frame; at the bound one step's
# growth or turn is still within 0.5% of the exact flow's.
STEP_BOUND = 1.25


def _coefficients(eps, k1, k2):
    """The matrices A with (q, h, a)' = A (q, h, a), shape (len(k1), 3, 3)."""
    a = np.zeros((len(k1), 3, 3))
    a[:, 0, 1], a[:, 1, 0], a[:, 1, 2], a[:, 2, 1] = k1, -eps * k1, k2, eps * k2
    return a


def _inverse(m):
    """Inverses of a stack of 3x3 matrices: the adjugate, whose columns are
    cross products of rows, over the determinant."""
    r0, r1, r2 = m[:, 0], m[:, 1], m[:, 2]
    adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
    return adj / (r0 * adj[:, :, 0]).sum(axis=-1)[:, None, None]


def _step_maps(dt, eps, k1a, k2a, k1b, k2b):
    """One Gauss-Legendre step of the linear frame ODE as a matrix, for every step at once.

    ``k1a``, ``k2a`` and ``k1b``, ``k2b`` are the curvatures at each step's
    first and second Gauss point, where the frame-ODE matrices are A1 and
    A2.  The stage maps Z1 and Z2 carry the frame Y at a step's start to its
    stage frames Z_i Y and solve Z_i = I + dt sum_j a_ij A_j Z_j; the step map
    is M = I + dt/2 (A1 Z1 + A2 Z2).  The 6x6 stage system, written in K_i =
    dt A_i Z_i, is solved by block elimination through two ``_inverse`` calls.
    Returns ``(maps, basis)``: ``maps[i]`` takes the stacked frame rows (q, h,
    a) from node i to node i+1, and ``basis[i]`` holds rows 0 and 2 of Z1 and
    Z2, which carry node i's frame to the stage frames that the striction
    tangent cosh(theta) q + sinh(theta) a reads, shape (n, 4, 3).
    """
    eye = np.eye(3)
    b1, b2 = _coefficients(eps, dt * k1a, dt * k2a), _coefficients(eps, dt * k1b, dt * k2b)
    # with B_i = dt A_i and G = (I - B1/4)^-1 B1: K1 = G (I + a12 K2), and
    # (I - B2/4 - a12 a21 B2 G) K2 = B2 (I + a21 G)
    g = _inverse(eye - 0.25 * b1) @ b1
    b2g = b2 @ g
    k2 = _inverse(eye - 0.25 * b2 - (A12 * A21) * b2g) @ (b2 + A21 * b2g)
    k1 = g + A12 * (g @ k2)
    z1, z2 = eye + 0.25 * k1 + A12 * k2, eye + A21 * k1 + 0.25 * k2
    return eye + 0.5 * (k1 + k2), np.concatenate([z1[:, ::2], z2[:, ::2]], axis=1)


def _propagate(maps, frame0):
    """Frames Y_0, Y_1, ... with Y_{i+1} = maps[i] Y_i, shape (len(maps), 3, 3).

    ``len(maps)`` is a whole number of blocks of BLOCK steps.  The products
    of each block's maps carry the frame from one block start to the next;
    within all blocks at once, the maps are then applied one step after
    another from the block starts.
    """
    maps = maps.reshape(-1, BLOCK, 3, 3)
    carry = maps[:, 0]
    for j in range(1, BLOCK):
        carry = maps[:, j] @ carry
    y = np.empty(maps.shape)
    y[0, 0] = frame0
    for b in range(1, len(y)):
        y[b, 0] = carry[b - 1] @ y[b - 1, 0]
    for j in range(BLOCK - 1):
        np.matmul(maps[:, j], y[:, j], out=y[:, j + 1])
    return y.reshape(-1, 3, 3)


def _integrate_frames(data: IntrinsicData):
    """Returns ``(grid, (k1, k2), (q, h, a), basis)`` for the Gauss-Legendre grid of ``data``.

    ``grid`` joins the n+1 nodes, the n first and the n second Gauss points,
    in that order; ``k1`` and ``k2`` are the curvatures on the nodes, and
    ``basis`` the ``_step_maps`` rows the striction curve needs.  Constant
    curvatures give every step the same map, built once and broadcast; else
    the tables are padded with zeros to whole blocks, and the padded steps
    reach no returned row.  Raises FrameDegenerateError if a frame is not
    finite, if max(|k1|, |k2|) * dt exceeds STEP_BOUND (the step is too
    coarse for the curvatures), or if a frame vector is not of its causal
    character.
    """
    n, dt, eps, s0 = data.n_steps, data.actual_step, data.epsilon, data.s_range[0]
    steps = np.arange(n)
    grid = s0 + dt * np.concatenate([np.arange(n + 1), steps + GAUSS_NODES[0], steps + GAUSS_NODES[1]])
    k1, k2 = (np.asarray(ex.evaluate(e, grid), dtype=float) for e in (data.k1, data.k2))
    size = (n // BLOCK + 1) * BLOCK
    if isinstance(data.k1, ex.Num) and isinstance(data.k2, ex.Num):
        tables = [t[i : i + 1] for i in (n + 1, 2 * n + 1) for t in (k1, k2)]
    else:
        tables = [np.concatenate([t[i : i + n], np.zeros(size - n)]) for i in (n + 1, 2 * n + 1) for t in (k1, k2)]
    with np.errstate(all="ignore"):
        maps, basis = _step_maps(dt, eps, *tables)
        y = _propagate(np.broadcast_to(maps, (size, 3, 3)), data.initial_frame)[: n + 1]
        if not np.isfinite(y).all():
            raise FrameDegenerateError("frame integration overflowed to non-finite values")
        kdt = dt * max(np.max(np.abs(k1)), np.max(np.abs(k2)))
        if kdt > STEP_BOUND:
            raise FrameDegenerateError(
                f"step {dt:.3g} is too coarse for the curvatures: max(|k1|, |k2|) * step = {kdt:.3g} "
                f"exceeds {STEP_BOUND}"
            )
        q, h, a = (np.ascontiguousarray(y[:, i]) for i in range(3))
        for name, v, sign in (("ruling vector", q, eps), ("central normal", h, 1), ("central tangent", a, -eps)):
            if not (sign * lorentz_dot(v, v) > 0.0).all():
                raise FrameDegenerateError(f"{name} became null during integration")
    return grid, (k1[: n + 1], k2[: n + 1]), (q, h, a), np.broadcast_to(basis, (size, 4, 3))[:n]


def integrate_frame(data: IntrinsicData):
    """Integrate the frame equations; returns ``(s, Q, H, A)`` arrays.

    ``s`` has shape (n+1,); Q, H, A have shape (n+1, 3).  The Gauss-Legendre
    steps keep the frame's Lorentz Gram matrix exactly, so it drifts from
    orthonormality by rounding alone, with no re-projection.
    """
    grid, _, (q, h, a), _ = _integrate_frames(data)
    return grid[: len(q)], q, h, a


def synthesize_surface(data: IntrinsicData, frames=None) -> SampledSurface:
    """Integrate the frame, then build the striction curve from it.

    The Gauss-Legendre increment of c over step i is dt/2 times the striction
    tangent summed over the two stage frames, w_i . (q_i, h_i, a_i), with w_i
    from theta at the Gauss points and the cached stage-map rows, so c is one
    cumulative sum.  A caller-owned ``frames`` dict, keyed by every input but
    theta, shares one integration (arrays included) across theta.  Only
    epsilon = -1 admits the hyperbolic striction tangent used here; c starts
    at the origin.  Overflowing frames or curves, and a step too coarse for
    the curvatures, raise FrameDegenerateError.
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
    grid, (k1, k2), (q, h, a), basis = frames[key]
    n = len(q) - 1
    theta = np.asarray(ex.evaluate(data.theta, grid), dtype=float)
    with np.errstate(all="ignore"):
        ch, sh = np.cosh(theta[n + 1 :]), np.sinh(theta[n + 1 :])
        w = (np.stack([ch[:n], sh[:n], ch[n:], sh[n:]], axis=-1)[:, None, :] @ basis)[:, 0]
        inc = (0.5 * data.actual_step) * (w[:, :1] * q[:-1] + w[:, 1:2] * h[:-1] + w[:, 2:] * a[:-1])
        # a leading zero row makes c[1] = 0.0 + inc[0], as in a running sum
        c = np.cumsum(np.concatenate([np.zeros((1, 3)), inc]), axis=0)
    if not np.isfinite(c).all():
        raise FrameDegenerateError("striction curve overflowed to non-finite values")
    return SampledSurface(
        s=grid[: n + 1], c=c, q=q, h=h, a=a,
        k1=k1, k2=k2, theta=theta[: n + 1], epsilon=data.epsilon,
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
