"""Lorentzian vector algebra on coordinate triples, signature (-, +, +).

Vectors are plain numpy arrays of shape ``(..., 3)``; every operation
broadcasts over leading axes.  The inner product is

    <x, y> = -x1*y1 + x2*y2 + x3*y3

and the vector product is the Lorentzian one,

    x * y = (x2*y3 - x3*y2,  x1*y3 - x3*y1,  x2*y1 - x1*y2),

which satisfies <x*y, x> = <x*y, y> = 0 and <x*y, z> = -det(z, x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpanError, NullInputError, OppositeOrientationError

Vec3 = np.ndarray


def vec3(x1: float, x2: float, x3: float) -> Vec3:
    """Build a coordinate triple, rejecting non-finite components."""
    v = np.array([x1, x2, x3], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library.

    causal_eps   threshold on <v,v> (unit scale) below which v counts as null
    general_eps  default comparison bound (developability, conoid tests, ...)

    Each must lie in (0, inf); ValueError otherwise.
    """

    causal_eps: float = 1e-10
    general_eps: float = 1e-8

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.causal_eps, self.general_eps)):
            raise ValueError("tolerances must be positive finite numbers")


DEFAULT_TOLERANCES = Tolerances()

# bound on frame_check's orthonormality, h = a*q and det = -1 residuals
FRAME_EPS = 1e-8


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


class AngleKind(Enum):
    HYPERBOLIC = "hyperbolic"
    CENTRAL = "central"
    SPACELIKE = "spacelike"
    LORENTZIAN_TIMELIKE = "lorentzian_timelike"


@dataclass(frozen=True)
class AngleResult:
    """Angle between two non-null vectors.

    ``theta`` is the nonnegative hyperbolic/circular parameter; for the
    mixed (spacelike, timelike) case ``signed_theta`` keeps the sign of the
    inner product, and for the central case the sign of <x, y>.
    """

    kind: AngleKind
    theta: float
    signed_theta: float


def lorentz_dot(x: Vec3, y: Vec3):
    """Inner product -x1*y1 + x2*y2 + x3*y3, broadcasting over (..., 3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def lorentz_cross(x: Vec3, y: Vec3):
    """Lorentzian vector product, componentwise as documented above."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.stack(
        [
            x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1],
            x[..., 0] * y[..., 2] - x[..., 2] * y[..., 0],
            x[..., 1] * y[..., 0] - x[..., 0] * y[..., 1],
        ],
        axis=-1,
    )


def norm_and_character(v: Vec3, tol: Tolerances = DEFAULT_TOLERANCES):
    """Norm and causal class of a single vector.

    The zero vector is spacelike by convention.  Non-unit vectors are
    classified after scaling by their Euclidean magnitude, so the causal
    threshold ``tol.causal_eps`` always applies at unit scale.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("norm_and_character expects a single 3-vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    scale = float(np.linalg.norm(v))
    if scale == 0.0:
        return 0.0, CausalCharacter.SPACELIKE
    unit_vv = float(lorentz_dot(v / scale, v / scale))
    norm = math.sqrt(abs(unit_vv)) * scale
    if abs(unit_vv) <= tol.causal_eps:
        return norm, CausalCharacter.NULL
    if unit_vv > 0.0:
        return norm, CausalCharacter.SPACELIKE
    return norm, CausalCharacter.TIMELIKE


def lorentz_angle(x: Vec3, y: Vec3, tol: Tolerances = DEFAULT_TOLERANCES) -> AngleResult:
    """Angle between two non-null vectors, dispatched on causal characters.

    both timelike (same time orientation)   cosh(theta) = -<x,y>/(|x||y|)
    both spacelike, timelike span           cosh(theta) = |<x,y>|/(|x||y|)
    both spacelike, spacelike span          cos(theta)  = <x,y>/(|x||y|)
    mixed                                   sinh(theta) = |<x,y>|/(|x||y|)

    Raises NullInputError for null or zero vectors, OppositeOrientationError
    for timelike vectors in opposite time cones, and DegenerateSpanError for
    spacelike vectors whose span degenerates (parallel or null plane).
    """
    nx, cx = norm_and_character(x, tol)
    ny, cy = norm_and_character(y, tol)
    if cx is CausalCharacter.NULL or nx == 0.0 or cy is CausalCharacter.NULL or ny == 0.0:
        raise NullInputError("angles are defined for non-null, nonzero vectors only")
    xy = float(lorentz_dot(x, y))
    ratio = xy / (nx * ny)

    if cx is CausalCharacter.TIMELIKE and cy is CausalCharacter.TIMELIKE:
        if float(np.asarray(x)[0]) * float(np.asarray(y)[0]) < 0.0:
            raise OppositeOrientationError("timelike vectors have opposite time orientation")
        theta = math.acosh(max(1.0, -ratio))
        return AngleResult(AngleKind.HYPERBOLIC, theta, theta)

    if cx is CausalCharacter.SPACELIKE and cy is CausalCharacter.SPACELIKE:
        # Gram determinant <x,x><y,y> - <x,y>^2: negative iff the span is timelike.
        gram = (nx * ny) ** 2 - xy * xy
        if abs(gram) <= tol.causal_eps * (nx * ny) ** 2:
            raise DegenerateSpanError("spacelike pair spans a degenerate plane")
        if gram < 0.0:
            theta = math.acosh(max(1.0, abs(ratio)))
            return AngleResult(AngleKind.CENTRAL, theta, math.copysign(theta, ratio))
        theta = math.acos(min(1.0, max(-1.0, ratio)))
        return AngleResult(AngleKind.SPACELIKE, theta, theta)

    theta = math.asinh(abs(ratio))
    return AngleResult(AngleKind.LORENTZIAN_TIMELIKE, theta, math.asinh(ratio))


@dataclass(frozen=True)
class FrameReport:
    """Validation report for a candidate frame {q, h, a} with <q,q> = epsilon."""

    epsilon: int
    residuals: dict
    orthonormal: bool
    det: float
    h_is_cross: bool
    canonical: bool

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))  # NaN-propagating


def frame_check(q: Vec3, h: Vec3, a: Vec3, epsilon: int) -> FrameReport:
    """Check signature, orthogonality and orientation of a ruled-surface frame.

    Expects <q,q> = epsilon, <h,h> = 1, <a,a> = -epsilon and vanishing mixed
    products, each within FRAME_EPS.  The canonical orientation of this
    library is h = a*q, which forces det(q, h, a) = -1; frames with det = +1
    are reported as orthonormal but non-canonical.  A non-finite or
    overflowing frame is reported as non-canonical, without numpy warnings.
    """
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be -1 or +1")
    q = np.asarray(q, dtype=float)
    h = np.asarray(h, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        residuals = {
            "qq": abs(float(lorentz_dot(q, q)) - epsilon),
            "hh": abs(float(lorentz_dot(h, h)) - 1.0),
            "aa": abs(float(lorentz_dot(a, a)) + epsilon),
            "qh": abs(float(lorentz_dot(q, h))),
            "qa": abs(float(lorentz_dot(q, a))),
            "ha": abs(float(lorentz_dot(h, a))),
        }
        det = float(np.linalg.det(np.stack([q, h, a])))
        cross_residual = float(np.max(np.abs(h - lorentz_cross(a, q))))
    orthonormal = all(r <= FRAME_EPS for r in residuals.values())
    h_is_cross = cross_residual <= FRAME_EPS
    canonical = orthonormal and h_is_cross and abs(det + 1.0) <= FRAME_EPS
    return FrameReport(
        epsilon=epsilon,
        residuals=residuals,
        orthonormal=orthonormal,
        det=det,
        h_is_cross=h_is_cross,
        canonical=canonical,
    )
