"""Analysis of explicitly parametrized ruled surfaces r(u, v) = f(u) + v q(u).

The base curve and ruling are symbolic expression triples in the variable
``s`` (read as the surface parameter u).  All derivatives entering the
invariants below are exact symbolic derivatives; the drall (distribution
parameter), striction curve, unit normal, asymptotic normal and the moving
frame along the striction curve follow the standard Lorentzian formulas:

    d   = det(f', q, q') / <q', q'>
    v0  = -<q', f'> / <q', q'>          (strictional distance)
    m   = ((f' + v q') * q) / sqrt(<f',q>^2 - <q,q><f'+vq', f'+vq'>)
    a   = (q' * q) / |q'|               (asymptotic normal direction)

with ``*`` the Lorentzian cross product.  The frame orientation is fixed so
that the first curvature k1 = |dq/ds| is positive, which pins the sign of
``a`` (and hence h = a*q) left free by the limiting-direction definition.

A finite-difference twin of the striction/drall formulas operates on
sampled curves (``sampled_ruled_invariants``); it is the generic oracle
used to cross-check every closed form in the rest of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expressions as ex
from .errors import (
    CylindricalRulingError,
    DegenerateNormalError,
    EvalDomainError,
    NonTimelikeStrictionError,
    NullDerivativeError,
    WorkLimitError,
)
from .frame import SampledSurface
from .lorentz import (
    DEFAULT_TOLERANCES,
    CausalCharacter,
    Tolerances,
    Vec3,
    lorentz_cross,
    lorentz_dot,
)
from .numerics import adaptive_simpson, central_diff1, central_diff2, uniform_arclength_nodes

CYLINDRICAL_EPS = 1e-8  # Euclidean |q'| below this counts as a constant ruling
# an explicit analysis peaks near 0.9 KB of memory per sample (the helicoid
# demo), so about 0.9 GB at this many samples
MAX_SAMPLES = 1_000_000

ExprTriple = tuple[ex.Expr, ex.Expr, ex.Expr]


def _dot_expr(x: ExprTriple, y: ExprTriple) -> ex.Expr:
    return ex.add(
        ex.neg(ex.mul(x[0], y[0])),
        ex.add(ex.mul(x[1], y[1]), ex.mul(x[2], y[2])),
    )


def _cross_expr(x: ExprTriple, y: ExprTriple) -> ExprTriple:
    return (
        ex.sub(ex.mul(x[1], y[2]), ex.mul(x[2], y[1])),
        ex.sub(ex.mul(x[0], y[2]), ex.mul(x[2], y[0])),
        ex.sub(ex.mul(x[1], y[0]), ex.mul(x[0], y[1])),
    )


def _scale_expr(c: ex.Expr, x: ExprTriple) -> ExprTriple:
    return (ex.mul(c, x[0]), ex.mul(c, x[1]), ex.mul(c, x[2]))


def _add_expr(x: ExprTriple, y: ExprTriple) -> ExprTriple:
    return (ex.add(x[0], y[0]), ex.add(x[1], y[1]), ex.add(x[2], y[2]))


def _diff_triple(x: ExprTriple, memo: dict) -> ExprTriple:
    return tuple(ex.differentiate(c, memo) for c in x)


@dataclass(eq=False)
class ExplicitSurface:
    """Ruled surface from expression triples for base curve and ruling.

    With ``normalize_q`` the ruling is rescaled to unit Lorentzian norm
    symbolically before any analysis; otherwise |<q,q>| must already be 1
    on the sampled range.  ValueError unless ``u_range`` is finite and
    increasing.
    """

    f: ExprTriple
    q: ExprTriple
    u_range: tuple[float, float]
    normalize_q: bool = False

    def __post_init__(self):
        u0, u1 = self.u_range
        if not (-math.inf < u0 < u1 and u1 - u0 < math.inf):
            raise ValueError("u_range must be finite and increasing")
        self.f = tuple(self.f)
        self.q = tuple(self.q)

    @classmethod
    def from_strings(cls, f, q, u_range, normalize_q=False) -> "ExplicitSurface":
        return cls(
            f=tuple(ex.parse(t) for t in f),
            q=tuple(ex.parse(t) for t in q),
            u_range=tuple(u_range),
            normalize_q=normalize_q,
        )

    @cached_property
    def _d(self):
        return _Derived(self)


class _Derived:
    """Symbolic derivatives and frame expressions, built once per surface."""

    def __init__(self, surf: ExplicitSurface):
        self._programs = {}  # field names -> their compiled program, built on first use
        memo = {}  # one for the surface: a subtree that fields share is derived once
        if surf.normalize_q:
            qq = _dot_expr(surf.q, surf.q)
            inv = ex.div(ex.const(1.0), ex.call("sqrt", ex.call("abs", qq)))
            self.q = _scale_expr(inv, surf.q)
        else:
            self.q = surf.q
            self._check_unit(surf)
        self.f = surf.f
        self.fdot = _diff_triple(self.f, memo)
        self.qdot = _diff_triple(self.q, memo)
        self.qdqd = _dot_expr(self.qdot, self.qdot)
        v0 = ex.neg(ex.div(_dot_expr(self.qdot, self.fdot), self.qdqd))
        self.v0 = v0
        self.c = _add_expr(self.f, _scale_expr(v0, self.q))
        self.cdot = _diff_triple(self.c, memo)
        self.speed = ex.call("sqrt", ex.call("abs", _dot_expr(self.cdot, self.cdot)))
        inv_qd = ex.div(ex.const(1.0), ex.call("sqrt", ex.call("abs", self.qdqd)))
        self.a_raw = _scale_expr(inv_qd, _cross_expr(self.qdot, self.q))
        self.h_raw = _cross_expr(self.a_raw, self.q)
        self.adot_raw = _diff_triple(self.a_raw, memo)
        self.hdot_raw = _diff_triple(self.h_raw, memo)
        self.t = _scale_expr(ex.div(ex.const(1.0), self.speed), self.cdot)
        self.tdot = _diff_triple(self.t, memo)

    def fields(self, u, *names):
        """The named fields at ``u``, lazily in order: (..., 3) per triple, ``u``'s shape
        per scalar.  One program per list of names evaluates them all in one walk."""
        if names not in self._programs:
            fields = [getattr(self, name) for name in names]
            roots = [e for f in fields for e in (f if isinstance(f, tuple) else (f,))]
            self._programs[names] = ex.compile(roots)
        values = ex.run(self._programs[names], u)
        for name in names:
            field = getattr(self, name)
            is_triple = isinstance(field, tuple)
            yield np.stack([next(values) for _ in field], -1) if is_triple else next(values)

    @staticmethod
    def _check_unit(surf: ExplicitSurface, tol: Tolerances = DEFAULT_TOLERANCES):
        u = np.linspace(surf.u_range[0], surf.u_range[1], 33)
        qq = ex.evaluate(_dot_expr(surf.q, surf.q), u)
        if np.max(np.abs(np.abs(qq) - 1.0)) > max(tol.general_eps, 1e-6):
            raise ValueError(
                "ruling is not unit on the range; set normalize_q=True "
                f"(max | |<q,q>| - 1 | = {np.max(np.abs(np.abs(qq) - 1.0)):.3e})"
            )


# ---------------------------------------------------------------------------
# pointwise invariants
# ---------------------------------------------------------------------------


def _check_samples(samples: int):
    if samples > MAX_SAMPLES:
        raise WorkLimitError(f"{samples} samples are more than MAX_SAMPLES = {MAX_SAMPLES}")


def sample_grid(surface: ExplicitSurface, samples: int) -> np.ndarray:
    """``samples`` values of u evenly spaced over ``u_range``; WorkLimitError
    past MAX_SAMPLES."""
    _check_samples(samples)
    return np.linspace(surface.u_range[0], surface.u_range[1], samples)


def surface_point(surface: ExplicitSurface, u: float, v: float) -> Vec3:
    """r(u, v) = f(u) + v q(u) (with the normalized ruling if requested)."""
    f, q = surface._d.fields(u, "f", "q")
    return f + v * q


def _square_sum(v: np.ndarray) -> np.ndarray:
    """``np.sum(v * v, axis=-1)`` of (..., 3) rows, added column by column in the same
    order, so with the same bits: numpy reduces a length-3 axis about 4x slower."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return x * x + y * y + z * z


def _unit_square(v: np.ndarray):
    """Euclidean norm of each row of ``v`` and <v, v> at unit Euclidean scale (NaN at 0)."""
    scale = np.linalg.norm(v, axis=-1)
    with np.errstate(all="ignore"):
        unit = v / scale[..., None]
    return scale, lorentz_dot(unit, unit)


def _ruling_derivative_checked(qdot: np.ndarray, u: np.ndarray, tol: Tolerances):
    """``qdot``, q' at 1-d ``u`` as an (n, 3) array; raises at the first point
    where it vanishes (cylindrical) or is null at unit scale.

    The one q' degeneracy rule of every explicit-surface function.
    """
    scale, unit_square = _unit_square(qdot)
    cylindrical = scale <= CYLINDRICAL_EPS
    null = ~cylindrical & (np.abs(unit_square) <= tol.causal_eps)
    if np.any(cylindrical | null):
        i = int(np.argmax(cylindrical | null))
        if cylindrical[i]:
            raise CylindricalRulingError(f"ruling derivative vanishes at u = {float(u[i])}")
        raise NullDerivativeError(f"ruling derivative is null at u = {float(u[i])}")
    return qdot


def distribution_parameter(surface: ExplicitSurface, u, tol: Tolerances = DEFAULT_TOLERANCES):
    """Drall d = det(f', q, q') / <q', q'> at a scalar or an array of parameters.

    An array ``u`` gives an array; the checks run over the whole array and
    an error names the first failing parameter.
    """
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    fields = surface._d.fields(uu, "qdot", "fdot", "q")
    qdot = _ruling_derivative_checked(next(fields), uu, tol)
    drall = _drall(*fields, qdot)
    return float(drall[0]) if np.ndim(u) == 0 else drall


def _drall(fdot, q, qdot):
    return np.linalg.det(np.stack([fdot, q, qdot], axis=1)) / lorentz_dot(qdot, qdot)


def unit_normal(
    surface: ExplicitSurface, u: float, v: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> Vec3:
    """Unit (spacelike) surface normal at (u, v)."""
    fdot, qdot, q = surface._d.fields(u, "fdot", "qdot", "q")
    ru = fdot + v * qdot
    radicand = float(lorentz_dot(fdot, q)) ** 2 - float(lorentz_dot(q, q)) * float(
        lorentz_dot(ru, ru)
    )
    scale = max(1.0, float(np.dot(ru, ru)))
    if radicand <= tol.general_eps * scale:
        raise DegenerateNormalError(
            f"normal radicand {radicand:.3e} is not positive at (u, v) = ({u}, {v})"
        )
    return lorentz_cross(ru, q) / math.sqrt(radicand)


def asymptotic_normal(
    surface: ExplicitSurface, u: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> Vec3:
    """Limiting normal direction a = (q' * q)/|q'| along the ruling at u.

    This is the frame's ungauged ``a``: the k1 > 0 gauge of the moving frame
    may reverse it.
    """
    uu = np.atleast_1d(float(u))
    fields = surface._d.fields(uu, "qdot", "a_raw")
    _ruling_derivative_checked(next(fields), uu, tol)
    return next(fields)[0]


def normal_limit_agreement(
    surface: ExplicitSurface, u: float, v_mag: float = 1e4
) -> dict:
    """Compare the unit normal at v = +/- v_mag against the asymptotic normal.

    Returns the deviation of m from +a at both ends and the sign of v whose
    limit matches +a.  (The limiting direction flips with the sign of v, so
    exactly one of the two matches.)
    """
    a = asymptotic_normal(surface, u)
    out = {}
    for label, v in (("+v", v_mag), ("-v", -v_mag)):
        m = unit_normal(surface, u, v)
        out[label] = float(np.max(np.abs(m - a)))
    out["matching_sign"] = 1 if out["+v"] <= out["-v"] else -1
    return out


def striction(surface: ExplicitSurface, u, tol: Tolerances = DEFAULT_TOLERANCES):
    """Strictional distance v0 and striction point c(u) = f(u) + v0 q(u).

    Scalar ``u`` gives ``(float, (3,) array)``; an array gives arrays of
    shapes ``(n,)`` and ``(n, 3)``, checked as in ``distribution_parameter``.
    """
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    fields = surface._d.fields(uu, "qdot", "fdot", "f", "q")
    qdot = _ruling_derivative_checked(next(fields), uu, tol)
    v0 = -lorentz_dot(qdot, next(fields)) / lorentz_dot(qdot, qdot)
    point = next(fields) + v0[:, None] * next(fields)
    if np.ndim(u) == 0:
        return float(v0[0]), point[0]
    return v0, point


def _speed(surface: ExplicitSurface, u: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Striction speed |c'| at 1-d ``u``.  The speed divides by <q', q'>, so where q'
    vanishes or is null the error names that degeneracy, not the division."""
    try:
        return next(surface._d.fields(u, "speed"))
    except EvalDomainError:
        _ruling_derivative_checked(next(surface._d.fields(u, "qdot")), u, tol)
        raise


def arc_length(surface: ExplicitSurface, u: float, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Striction-curve arc length from the start of the range to u."""
    return adaptive_simpson(lambda x: _speed(surface, x, tol), surface.u_range[0], u)


# ---------------------------------------------------------------------------
# moving frame along the striction curve
# ---------------------------------------------------------------------------


def _curvatures(qdot: np.ndarray, q: np.ndarray, fields, tol: Tolerances):
    """speed, ungauged h, gauge sign, epsilon, k1 and k2 from checked q' and q, reading
    speed, h_raw and adot_raw from ``fields``: only what k1, k2 need.

    The gauge sign makes k1 = <q', sign h>/speed positive; it multiplies a
    and h alike, so k2 = epsilon <a', h>/speed does not depend on it.
    """
    qq = lorentz_dot(q, q)
    if not (np.all(qq < 0.0) or np.all(qq > 0.0)):
        raise ValueError("ruling changes causal character on the range")
    epsilon = -1 if qq[0] < 0.0 else 1

    speed, h = next(fields), next(fields)
    k1_raw = lorentz_dot(qdot, h) / speed
    k2 = epsilon * lorentz_dot(next(fields), h) / speed
    return speed, h, np.where(k1_raw < 0.0, -1.0, 1.0), epsilon, np.abs(k1_raw), k2


# every field of a frame, in the order of its checks: q' is checked before q is read, and
# q's causal character before any other field
_FRAME_FIELDS = (
    "qdot", "q", "speed", "h_raw", "adot_raw", "a_raw", "hdot_raw", "c", "cdot", "tdot"
)


def _frames_at(surface: ExplicitSurface, u, s_labels, tol: Tolerances) -> SampledSurface:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    fields = surface._d.fields(u, *_FRAME_FIELDS)
    qdot = _ruling_derivative_checked(next(fields), u, tol)
    q = next(fields)
    speed, h, sign, epsilon, k1, k2 = _curvatures(qdot, q, fields, tol)
    a, hdot, c, cdot, tdot = fields
    h, a, hdot = sign[:, None] * np.array([h, a, hdot])

    cc = lorentz_dot(cdot, cdot)
    cc_unit = cc / np.maximum(1e-300, np.sum(cdot * cdot, axis=-1))
    t = cdot / speed[..., None]
    sinh_theta = -epsilon * lorentz_dot(t, a)
    cosh_theta = epsilon * lorentz_dot(t, q)

    theta = np.full(u.shape[0], np.nan)
    timelike = (cc_unit < -tol.causal_eps) & (cosh_theta > 0.0)
    # math.asinh, not np.arcsinh: the two differ in the last ulp
    theta[timelike] = [math.asinh(x) for x in sinh_theta[timelike].tolist()]
    return SampledSurface(
        s=np.atleast_1d(np.asarray(s_labels, dtype=float)),
        c=c,
        q=q,
        h=h,
        a=a,
        k1=k1,
        k2=k2,
        theta=theta,
        epsilon=epsilon,
        c2=tdot / speed[..., None],
        hprime=hdot / speed[..., None],
        u=u,
    )


def frenet_frame_at(
    surface: ExplicitSurface, u: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> SampledSurface:
    """Frame, curvatures and angle at one parameter value (a one-row view).

    ``theta`` is NaN when the striction tangent is not timelike (then the
    hyperbolic angle of the frame decomposition does not exist); all other
    fields are still filled.
    """
    s = arc_length(surface, u, tol=tol)
    return _frames_at(surface, [u], [s], tol)[0]


def frame_consistency(surface: ExplicitSurface, u: float, tol: Tolerances = DEFAULT_TOLERANCES):
    """Residuals between curvature extractions from dq/ds, da/ds and dh/ds."""
    sample = _frames_at(surface, [u], [0.0], tol)[0]
    k1_h = -float(lorentz_dot(sample.hprime, sample.q))
    k2_h = -sample.epsilon * float(lorentz_dot(sample.hprime, sample.a))
    return {"k1": abs(sample.k1 - k1_h), "k2": abs(sample.k2 - k2_h)}


def sample_frames(
    surface: ExplicitSurface, n: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> SampledSurface:
    """Frames at n points equally spaced in striction arc length, with the u of
    each point in ``u``; WorkLimitError past MAX_SAMPLES."""
    _check_samples(n)
    u_nodes, s_nodes = uniform_arclength_nodes(
        lambda u: _speed(surface, u, tol), surface.u_range[0], surface.u_range[1], n
    )
    return _frames_at(surface, u_nodes, s_nodes, tol)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceClassification:
    """Coarse classification flags; None means the test could not be run."""

    ruling_character: CausalCharacter
    developable: bool | None
    conoid: bool | None
    cylindrical: bool | None
    max_abs_drall: float | None


def classify(
    surface: ExplicitSurface, samples: int = 201, tol: Tolerances = DEFAULT_TOLERANCES
) -> SurfaceClassification:
    """Evaluate ruling character and developable/conoid/cylindrical flags."""
    u = sample_grid(surface, samples)
    fields = surface._d.fields(u, "q", "qdot", "fdot", "speed", "h_raw", "adot_raw")
    q = next(fields)
    scale, vv = _unit_square(q)  # norm_and_character's rules, on every row at once
    kinds = np.where((scale == 0.0) | (vv > tol.causal_eps), "spacelike", "timelike")
    characters = set(np.where(np.abs(vv) <= tol.causal_eps, "null", kinds).tolist())
    if len(characters) != 1:
        raise ValueError("ruling changes causal character on the range")
    ruling_character = CausalCharacter(characters.pop())

    qdot = next(fields)
    cylindrical = bool(np.max(np.linalg.norm(qdot, axis=-1)) <= CYLINDRICAL_EPS)

    developable = True if cylindrical else None  # constant tangent plane along each ruling
    max_abs_drall = None
    conoid = None
    if not cylindrical:
        try:
            _ruling_derivative_checked(qdot, u, tol)
            max_abs_drall = float(np.max(np.abs(_drall(next(fields), q, qdot))))
            developable = max_abs_drall <= tol.general_eps
            k1, k2 = _curvatures(qdot, q, fields, tol)[-2:]
            conoid = bool(
                np.min(np.abs(k1)) > tol.general_eps and np.max(np.abs(k2)) <= tol.general_eps
            )
        except (CylindricalRulingError, NullDerivativeError, ValueError):
            pass

    return SurfaceClassification(
        ruling_character=ruling_character,
        developable=developable,
        conoid=conoid,
        cylindrical=cylindrical,
        max_abs_drall=max_abs_drall,
    )


# ---------------------------------------------------------------------------
# striction-curve predicates (asymptotic / geodesic / line of curvature)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateResult:
    """Both characterizations of one striction-curve property.

    The geometric side tests the defining property of the curve on the
    surface; the curvature side tests the equivalent condition on
    (k1, k2, theta).  ``agree`` is None when the curvature condition is
    unsatisfiable (|ratio| >= 1 cannot equal a tanh).
    """

    name: str
    geometric_residual: float
    geometric_pass: bool
    curvature_residual: float | None
    curvature_pass: bool | None
    satisfiable: bool
    agree: bool | None


@dataclass(frozen=True)
class PredicateReport:
    asymptotic: PredicateResult
    geodesic: PredicateResult
    line_of_curvature: PredicateResult
    tol: float
    n_samples: int

    def results(self) -> list[PredicateResult]:
        return [self.asymptotic, self.geodesic, self.line_of_curvature]


def verdicts_agree(holds_a: bool, res_a: float, holds_b: bool, res_b: float, tol: float) -> bool:
    """Do two readings of one property agree, with a 10x margin when both fail?"""
    if holds_a and holds_b:
        return True
    if (not holds_a) and (not holds_b):
        return bool(res_a >= 10.0 * tol and res_b >= 10.0 * tol)
    return False


def striction_predicates(frames: SampledSurface, tol: float = 1e-6) -> PredicateReport:
    """Test asymptotic / geodesic / line-of-curvature along the striction curve.

    The track ``frames`` must be uniformly spaced in arc length with a
    timelike striction tangent: NonTimelikeStrictionError where theta is
    NaN or the stencil's <c', c'> is not negative on an interior sample.
    Second derivatives use the track's symbolic ``c2``/``hprime`` when it
    carries them, otherwise 4th-order central differences; either way
    residuals are evaluated on the interior samples the stencil supports.
    """
    if len(frames) < 7:
        raise ValueError("need at least 7 frames")
    if np.any(np.isnan(frames.theta)):
        raise NonTimelikeStrictionError("striction tangent must be timelike for predicates")
    s, c, h, k1, k2, theta = frames.s, frames.c, frames.h, frames.k1, frames.k2, frames.theta
    step = float(s[1] - s[0])
    if np.max(np.abs(np.diff(s) - step)) > 1e-9 * (1.0 + abs(step)):
        raise ValueError("frames must be uniformly spaced in arc length")

    cprime, sl = central_diff1(c, step)
    cc = lorentz_dot(cprime, cprime)
    if not np.all(cc < 0.0):  # theta can be finite where the stencil's tangent is not timelike
        raise NonTimelikeStrictionError("stencil striction tangent is not timelike on the interior")
    c2 = frames.c2[sl] if frames.c2 is not None else central_diff2(c, step)[0]
    hprime = frames.hprime[sl] if frames.hprime is not None else central_diff1(h, step)[0]
    theta_prime, _ = central_diff1(theta, step)

    h_i, k1_i, k2_i, theta_i = h[sl], k1[sl], k2[sl], theta[sl]
    tanh_theta = np.tanh(theta_i)

    geo_asym = float(np.max(np.abs(lorentz_dot(h_i, c2))))
    proj = lorentz_dot(c2, h_i)[..., None] * h_i
    geo_geod = float(np.max(np.sqrt(_square_sum(c2 - proj))))
    coeff = lorentz_dot(hprime, cprime) / cc
    geo_locus = float(np.max(np.sqrt(_square_sum(hprime - coeff[..., None] * cprime))))

    def curvature_side(num, den):
        if np.min(np.abs(den)) <= 1e-300 or np.max(np.abs(num / den)) >= 1.0:
            return None, None, False
        res = float(np.max(np.abs(tanh_theta - num / den)))
        return res, res <= tol, True

    asym_res, asym_pass, asym_sat = curvature_side(k1_i, k2_i)
    locus_res, locus_pass, locus_sat = curvature_side(k2_i, k1_i)
    geod_res = float(np.max(np.abs(theta_prime)))
    geod_pass = geod_res <= tol

    results = {}
    for name, geo, cur_res, cur_pass, sat in (
        ("asymptotic", geo_asym, asym_res, asym_pass, asym_sat),
        ("geodesic", geo_geod, geod_res, geod_pass, True),
        ("line_of_curvature", geo_locus, locus_res, locus_pass, locus_sat),
    ):
        geo_pass = geo <= tol
        results[name] = PredicateResult(
            name=name,
            geometric_residual=geo,
            geometric_pass=geo_pass,
            curvature_residual=cur_res,
            curvature_pass=cur_pass,
            satisfiable=sat,
            agree=(
                None if cur_pass is None
                else verdicts_agree(geo_pass, geo, cur_pass, cur_res, tol)
            ),
        )
    return PredicateReport(**results, tol=tol, n_samples=len(frames))


# ---------------------------------------------------------------------------
# finite-difference oracle for sampled ruled surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledInvariants:
    """Strictional distance and drall of a sampled ruled surface.

    Values live on the interior slice ``sl`` of the input grid.  Samples
    where the ruling derivative degenerates (cylindrical or null) are
    masked out in ``valid`` and carry NaN; consumers must check the mask.
    ``valid`` and ``sl`` are computed at construction; ``v0`` and ``drall``
    are computed on first read from the differenced curves kept here, so a
    reader of one half (verify's coincidence cases read only ``v0``, its
    developability and corollary cases only ``drall``) never pays for the
    other.
    """

    valid: np.ndarray
    sl: slice
    _fdot: np.ndarray = field(repr=False)
    _q: np.ndarray = field(repr=False)
    _qdot: np.ndarray = field(repr=False)
    _qdqd: np.ndarray = field(repr=False)

    @cached_property
    def v0(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.where(self.valid, -lorentz_dot(self._qdot, self._fdot) / self._qdqd, np.nan)

    @cached_property
    def drall(self) -> np.ndarray:
        det = np.einsum("ij,ij->i", self._fdot, np.cross(self._q, self._qdot))
        with np.errstate(all="ignore"):
            return np.where(self.valid, det / self._qdqd, np.nan)


def sampled_ruled_invariants(base: np.ndarray, ruling: np.ndarray, step: float) -> SampledInvariants:
    """Apply the generic v0/drall formulas to a sampled base curve and ruling.

    Both invariants are parametrization independent, so any regular sample
    parameter works; derivatives are 4th-order central differences.
    """
    fdot, sl = central_diff1(base, step)
    qdot, _ = central_diff1(ruling, step)
    q = np.asarray(ruling, dtype=float)[sl]
    qdqd = lorentz_dot(qdot, qdot)
    euclid = _square_sum(qdot)
    valid = (np.sqrt(euclid) > CYLINDRICAL_EPS) & (
        np.abs(qdqd) > 1e-10 * np.maximum(1.0, euclid)
    )
    return SampledInvariants(valid, sl, fdot, q, qdot, qdqd)


def recover_frame_data(s: np.ndarray, striction_curve: np.ndarray, ruling: np.ndarray) -> SampledSurface:
    """Finite-difference twin of ``frenet_frame_at`` for sampled surfaces.

    ``striction_curve`` must already be the striction curve sampled at arc
    length ``s`` (uniform) with a unit non-null ruling.  Returns the
    interior rows the two difference stencils leave as a ``SampledSurface``
    whose h, a, k1, k2 and theta are computed purely from the samples;
    ``theta`` is NaN where the striction tangent is not timelike.  The frame
    orientation follows the k1 > 0 gauge of the symbolic path.
    """
    s = np.asarray(s, dtype=float)
    striction_curve = np.asarray(striction_curve, dtype=float)
    ruling = np.asarray(ruling, dtype=float)
    step = float(s[1] - s[0])
    cdot, sl = central_diff1(striction_curve, step)
    qdot, _ = central_diff1(ruling, step)
    q = ruling[sl]
    qq = lorentz_dot(q, q)
    if not (np.all(qq < 0.0) or np.all(qq > 0.0)):
        raise ValueError("ruling changes causal character on the range")
    epsilon = -1 if qq[0] < 0.0 else 1
    qdqd = lorentz_dot(qdot, qdot)
    if np.min(np.abs(qdqd)) <= 1e-12:
        raise NullDerivativeError("ruling derivative is null or zero on the range")
    a = lorentz_cross(qdot, q) / np.sqrt(np.abs(qdqd))[..., None]
    h = lorentz_cross(a, q)
    k1_raw = lorentz_dot(qdot, h)
    flip = np.where(k1_raw < 0.0, -1.0, 1.0)
    a = flip[..., None] * a
    h = flip[..., None] * h
    k1 = np.abs(k1_raw)
    # second interior pass for the derivative of the recovered a
    adot, sl2 = central_diff1(a, step)
    k2 = epsilon * lorentz_dot(adot, h[sl2])
    cc = lorentz_dot(cdot, cdot)
    with np.errstate(all="ignore"):
        t = cdot / np.sqrt(np.abs(cc))[..., None]
        theta = np.where(cc < 0.0, np.arcsinh(-epsilon * lorentz_dot(t, a)), np.nan)
    outer = slice(sl.start + sl2.start, sl.start + sl2.start + k2.shape[0])
    return SampledSurface(
        s[outer], striction_curve[outer], ruling[outer], h[sl2], a[sl2], k1[sl2], k2, theta[sl2], epsilon
    )
