"""Transversal surface families of a synthesized timelike ruled surface.

A transversal surface shares the base surface's striction curve c(s) and
tilts the ruling into one of the frame planes:

    alpha family   q_a = mu(angle) q + eta(angle) h      (plane {q, h})
    beta family    q_b = cos(angle) h + sin(angle) a     (plane {h, a})
    gamma family   q_g = mu(angle) q + eta(angle) a      (plane {q, a})

where (mu, eta) = (cosh, sinh) when the new ruling is timelike and
(sinh, cosh) when spacelike, so <q_T, q_T> = eta^2 - mu^2 = l = +/-1
(always +1 for beta).  Non-trivial rulings require mu, eta != 0 (alpha,
gamma) or angle away from multiples of pi/2 (beta).

For each family the strictional distance and drall of the transversal
surface have closed forms in (k1, k2, theta, angle, angle').  ``analyze``
gives them on the whole sample grid, each computed on first read:

  * ``v_closed``, ``d_closed``  derived here from v0 = -<c', q_T'>/<q_T', q_T'>
                                and d = det(c', q_T, q_T')/<q_T', q_T'> using
                                the frame equations; these match the direct
                                sampled oracle.
  * ``v_printed``               the commonly stated textbook form: v_closed
                                for alpha; for beta and gamma the same
                                quotient with the two terms of its
                                coincidence factor swapped, so -v_closed;
                                analyses flag the discrepancy instead of
                                silently picking a side.
  * ``d_via_base``              d_T rewritten through the base drall
                                d = -sinh(theta)/k1.

The ground truth is always the generic formula applied to the explicitly
constructed transversal parametrization (the finite-difference oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import expressions as ex
from .errors import (
    BaseNotDevelopableError,
    DegenerateDenominatorError,
    TrivialRulingError,
)
from .lorentz import lorentz_dot
from .numerics import check_stencil_samples
from .ruled import SampledInvariants, sampled_ruled_invariants, verdicts_agree
from .synthesis import SampledSurface, _ruled_grid

TRIVIAL_EPS = 1e-9
DENOM_EPS = 1e-10


class Family(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"


class Branch(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"


@dataclass(frozen=True)
class TransversalSpec:
    """Family tag, angle function and (for alpha/gamma) causal branch."""

    family: Family
    angle: ex.Expr
    branch: Branch | None = None

    def __post_init__(self):
        if self.family is Family.BETA:
            if self.branch is not None:
                raise ValueError("beta family takes no causal branch")
        elif self.branch is None:
            raise ValueError(f"{self.family.value} family requires a causal branch")


def drall_law(k1, theta):
    """Base drall d = -sinh(theta)/k1 of a synthesized surface; NaN where |k1| <= DENOM_EPS."""
    with np.errstate(all="ignore"):
        return np.where(np.abs(k1) > DENOM_EPS, -np.sinh(theta) / k1, np.nan)


def _mu_eta(spec: TransversalSpec, angle):
    """The ruling's weights: q_T = mu q + eta h (alpha), mu h + eta a (beta), mu q + eta a (gamma)."""
    if spec.family is Family.BETA:
        return np.cos(angle), np.sin(angle)
    if spec.branch is Branch.TIMELIKE:
        return np.cosh(angle), np.sinh(angle)
    return np.sinh(angle), np.cosh(angle)


def _ell(spec: TransversalSpec) -> int:
    if spec.family is Family.BETA:
        return 1
    return -1 if spec.branch is Branch.TIMELIKE else 1


@dataclass(frozen=True)
class Coefficients:
    """Pointwise scalar data entering every closed form, and the ruling.

    ``mu`` and ``eta`` are the ruling's weights, ``_mu_eta`` of the angle;
    ``q_t`` is the ruling itself on the sample grid and ``ell`` its norm.
    """

    k1: np.ndarray
    k2: np.ndarray
    theta: np.ndarray
    angle: np.ndarray
    angle_d: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    q_t: np.ndarray
    ell: int


def _ruling(surf: SampledSurface, spec: TransversalSpec, angle: np.ndarray):
    """``(mu, eta, q_t)`` of the angle evaluated on ``surf.s``.

    TrivialRulingError where mu or eta vanishes; ValueError where
    <q_T, q_T> misses the branch's norm ``_ell(spec)`` by more than 1e-8
    of mu^2 + eta^2 (the scale of its rounding error, 1 for beta) or is not
    finite (an angle too large for cosh), with numpy's warnings silenced.
    """
    if spec.family is Family.BETA:
        first, second = surf.h, surf.a
    else:
        first, second = surf.q, surf.h if spec.family is Family.ALPHA else surf.a
    with np.errstate(all="ignore"):
        mu, eta = _mu_eta(spec, angle)
        q_t = mu[:, None] * first + eta[:, None] * second
        norm = lorentz_dot(q_t, q_t)
        matches = np.abs(norm - _ell(spec)) <= 1e-8 * (mu**2 + eta**2)
    if np.any(np.abs(mu) <= TRIVIAL_EPS) or np.any(np.abs(eta) <= TRIVIAL_EPS):
        what = "beta angle hits a multiple of pi/2" if spec.family is Family.BETA else "mu or eta vanishes"
        raise TrivialRulingError(f"{what} on the range")
    mismatch = "ruling norm does not match its causal branch label"
    if not np.all(np.isfinite(norm)):
        raise ValueError(f"{mismatch}: norm is not finite (angle too large for cosh)")
    if not np.all(matches):
        raise ValueError(mismatch)
    return mu, eta, q_t


def coefficients(surf: SampledSurface, spec: TransversalSpec) -> Coefficients:
    """The surface's k1, k2 and theta with the angle, its derivative and the ruling on ``surf.s``."""
    angle = np.asarray(ex.evaluate(spec.angle, surf.s), dtype=float)
    angle_d = np.asarray(ex.evaluate(ex.differentiate(spec.angle), surf.s), dtype=float)
    return Coefficients(surf.k1, surf.k2, surf.theta, angle, angle_d, *_ruling(surf, spec, angle), _ell(spec))


def ruling_samples(surf: SampledSurface, spec: TransversalSpec) -> tuple[np.ndarray, int]:
    """Transversal ruling on the whole grid and its norm, from the angle alone (never its derivative)."""
    angle = np.asarray(ex.evaluate(spec.angle, surf.s), dtype=float)
    return _ruling(surf, spec, angle)[2], _ell(spec)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _denominator(spec, co: Coefficients):
    """Common denominator <q_T', q_T'> and the magnitudes of its two terms."""
    ell = _ell(spec)
    if spec.family is Family.ALPHA:
        t1 = co.eta**2 * co.k2**2
        t2 = ell * (co.angle_d + co.k1) ** 2
    elif spec.family is Family.BETA:
        t1 = (co.angle_d + co.k2) ** 2
        t2 = co.k1**2 * co.mu**2
    else:
        t1 = (co.mu * co.k1 - co.eta * co.k2) ** 2
        t2 = ell * co.angle_d**2
    return t1 - t2, np.abs(t1) + np.abs(t2)


def _closed_factors(spec, co: Coefficients):
    """Each family's closed-form factors, written once.

    v_T = pre * (lead - lag) / den and d_T = numerator / den: the coincidence
    factor lead - lag vanishes exactly where the transversal striction curve
    meets the base one, ``numerator`` where the transversal is developable.
    Returns (pre, lead, lag, numerator, den, den_scale).
    """
    den, scale = _denominator(spec, co)
    ch, sh = np.cosh(co.theta), np.sinh(co.theta)
    with np.errstate(all="ignore"):
        if spec.family is Family.ALPHA:
            pre, lead, lag = co.eta, ch * (co.angle_d + co.k1), sh * co.k2
            numerator = _ell(spec) * (co.angle_d + co.k1) * sh - co.eta**2 * co.k2 * ch
        elif spec.family is Family.BETA:
            pre, lead, lag = co.mu, co.k1 * ch, (co.angle_d + co.k2) * sh
            numerator = co.k1 * co.mu**2 * sh - (co.angle_d + co.k2) * ch
        else:
            pre, lead, lag = co.angle_d, co.eta * ch, co.mu * sh
            numerator = (lead - lag) * (co.mu * co.k1 - co.eta * co.k2)
    return pre, lead, lag, numerator, den, scale


def _via_base_values(spec, co: Coefficients, den):
    """Base-drall form of d_T over the denominator ``den`` (NaN where k1 vanishes)."""
    ch = np.cosh(co.theta)
    ell = _ell(spec)
    d_base = drall_law(co.k1, co.theta)
    with np.errstate(all="ignore"):
        if spec.family is Family.ALPHA:
            num = -(ell * d_base * co.k1 * (co.angle_d + co.k1) + co.eta**2 * co.k2 * ch)
        elif spec.family is Family.BETA:
            num = -(d_base * co.k1**2 * co.mu**2 + (co.angle_d + co.k2) * ch)
        else:
            num = (co.eta * ch + co.k1 * d_base * co.mu) * (co.mu * co.k1 - co.eta * co.k2)
        return num / den


# ---------------------------------------------------------------------------
# whole-surface analysis with the sampled oracle
# ---------------------------------------------------------------------------


@dataclass
class TransversalAnalysis:
    """Closed forms evaluated on the base grid plus the sampled oracle.

    Oracle values live on the interior slice ``sl``; ``rel_v``/``rel_d``
    are the worst relative deviations between closed form and oracle, and
    ``suspect`` marks closed forms that disagree with the oracle beyond
    1e-4 relative.  ``printed_sign_flip`` reports that the commonly printed
    strictional distance matches the oracle only after a sign change.
    ``coefficients`` holds the pointwise data the closed forms were built
    from and ``factors`` their ``_closed_factors``.

    ``analyze`` builds the fields up to ``oracle`` and raises every error.
    ``v_closed``, ``d_closed``, ``v_printed``, ``d_via_base``, ``rel_v``,
    ``rel_d``, ``suspect`` and ``printed_sign_flip`` are computed on first
    read, as are the oracle's ``v0`` and ``drall``: verify reads only
    ``v_closed`` and ``v0`` (coincidence) or ``d_closed`` and ``drall``
    (developability, corollaries); the transversal report reads every field.
    """

    spec: TransversalSpec
    coefficients: Coefficients
    factors: tuple
    s: np.ndarray
    q_t: np.ndarray
    ell: int
    oracle: SampledInvariants

    @property
    def sl(self) -> slice:
        return self.oracle.sl

    @cached_property
    def v_closed(self) -> np.ndarray:
        pre, lead, lag, _, den, _ = self.factors
        with np.errstate(all="ignore"):
            return pre * (lead - lag) / den

    @cached_property
    def d_closed(self) -> np.ndarray:
        numerator, den = self.factors[3:5]
        with np.errstate(all="ignore"):
            return numerator / den

    @cached_property
    def v_printed(self) -> np.ndarray:
        """v_closed for alpha; the printed beta and gamma forms subtract the same two terms the other way."""
        if self.spec.family is Family.ALPHA:
            return self.v_closed
        pre, lead, lag, _, den, _ = self.factors
        with np.errstate(all="ignore"):
            return pre * (lag - lead) / den

    @cached_property
    def d_via_base(self) -> np.ndarray:
        return _via_base_values(self.spec, self.coefficients, self.factors[4])

    @cached_property
    def rel_v(self) -> float:
        return _relative_gap(self.v_closed[self.sl], self.oracle.v0, self.oracle.valid)

    @cached_property
    def rel_d(self) -> float:
        return _relative_gap(self.d_closed[self.sl], self.oracle.drall, self.oracle.valid)

    @cached_property
    def suspect(self) -> bool:
        return bool(max(self.rel_v, self.rel_d) > 1e-4)

    @cached_property
    def printed_sign_flip(self) -> bool:
        rel_v_printed = _relative_gap(self.v_printed[self.sl], self.oracle.v0, self.oracle.valid)
        return bool(rel_v_printed > 1e-4 and self.rel_v <= 1e-4)


def _oracle_abs(values: np.ndarray, valid: np.ndarray, reduce=np.max, empty=math.nan) -> float:
    """``reduce`` of |values| over the oracle's valid samples; ``empty`` if none is valid."""
    return float(reduce(np.abs(values[valid]))) if np.any(valid) else empty


def _relative_gap(closed: np.ndarray, oracle: np.ndarray, valid: np.ndarray) -> float:
    if not np.any(valid):
        return math.nan
    gap = np.abs(closed - oracle)[valid]
    scale = 1.0 + np.maximum(np.abs(closed), np.abs(oracle))[valid]
    return float(np.max(gap / scale))


def analyze(surf: SampledSurface, spec: TransversalSpec) -> TransversalAnalysis:
    """Check the closed forms' denominator and build the oracle; the closed
    forms and their agreement with the oracle are computed on first read.

    ValueError first where the grid is too short for the oracle's stencil,
    whatever else the ruling or the closed forms would report.
    """
    check_stencil_samples(len(surf.s))
    return _analyze(surf, spec, coefficients(surf, spec))


def _analyze(surf: SampledSurface, spec: TransversalSpec, co: Coefficients) -> TransversalAnalysis:
    """``analyze`` from the ``coefficients(surf, spec)`` the caller already holds."""
    factors = _closed_factors(spec, co)
    den, scale = factors[4:]
    if np.any(np.abs(den) <= DENOM_EPS * np.maximum(1.0, scale)):
        raise DegenerateDenominatorError("closed-form denominator vanishes on the range")
    oracle = sampled_ruled_invariants(surf.c, co.q_t, surf.step)
    return TransversalAnalysis(spec, co, factors, surf.s, co.q_t, co.ell, oracle)


def to_explicit(surf: SampledSurface, q_t: np.ndarray, v_range: tuple[float, float], nv: int) -> np.ndarray:
    """r_T(s_i, v_j) = c(s_i) + v_j q_T(s_i), shape (n_s, nv, 3), for the ruling ``q_t`` on the grid."""
    return _ruled_grid(surf.c, q_t, v_range, nv)


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Residuals and verdict flags for one theorem-style condition."""

    kind: str
    family: str
    residuals: dict
    flags: dict
    notes: list


def coincidence_condition(
    analysis: TransversalAnalysis, tol: float = 1e-7
) -> ConditionReport:
    """Does the transversal striction curve coincide with the base one (v_T = 0)?

    Reads an ``analyze(surf, spec)`` result: reports the analytic residual
    whose vanishing is equivalent to v_T = 0 together with the direct
    max |v_T| (closed form and sampled oracle).
    """
    spec, co = analysis.spec, analysis.coefficients
    pre, lead, lag = analysis.factors[:3]
    residuals = {}
    flags = {}
    res = np.abs(lead - lag)
    if spec.family is Family.GAMMA:
        residuals["angle_derivative"] = float(np.max(np.abs(co.angle_d)))
        residuals["angle_condition"] = float(np.max(res))
        flags["angle_constant"] = residuals["angle_derivative"] <= tol
        res = np.abs(pre) * res
    condition = float(np.max(res))
    max_v = float(np.max(np.abs(analysis.v_closed)))
    max_v_oracle = _oracle_abs(analysis.oracle.v0, analysis.oracle.valid)
    residuals.update(
        {
            "condition": condition,
            "max_abs_v_closed": max_v,
            "max_abs_v_oracle": max_v_oracle,
        }
    )
    holds = condition <= tol
    coincides = max_v <= tol
    flags.update(
        {
            "condition_holds": holds,
            "coincides_closed": coincides,
            "coincides_oracle": bool(max_v_oracle <= tol),
            "agree": verdicts_agree(holds, condition, coincides, max_v, tol),
        }
    )
    return ConditionReport("coincidence", spec.family.value, residuals, flags, [])


def developability_condition(
    analysis: TransversalAnalysis, tol: float = 1e-6
) -> ConditionReport:
    """Is the transversal surface developable (d_T = 0)?

    Reads an ``analyze(surf, spec)`` result.  Three independent readings are
    reported: the numerator of the closed-form drall, the commonly stated
    angle condition evaluated verbatim, and the direct sampled oracle.
    Disagreements are flagged; the oracle wins.
    """
    spec, co = analysis.spec, analysis.coefficients
    numerator = analysis.factors[3]
    tanh_theta = np.tanh(co.theta)
    with np.errstate(all="ignore"):
        if spec.family is Family.ALPHA:
            stated = np.abs(tanh_theta - _ell(spec) * (co.angle_d + co.k1) / (co.mu**2 * co.k2))
        elif spec.family is Family.BETA:
            stated = np.abs(tanh_theta - (co.angle_d + co.k2) / (co.k1 * co.mu**2))
        else:
            first = np.abs(tanh_theta - co.eta / co.mu)
            second = np.abs(co.k1 / np.where(co.k2 == 0.0, np.nan, co.k2) - co.eta / co.mu)
            stated = np.fmin(first, np.where(np.isnan(second), np.inf, second))
    stated = np.where(np.isfinite(stated), stated, np.inf)
    num_res = float(np.max(np.abs(numerator)))
    stated_res = float(np.max(stated))
    oracle_res = _oracle_abs(analysis.oracle.drall, analysis.oracle.valid)
    num_holds = num_res <= tol
    stated_holds = stated_res <= tol
    oracle_holds = bool(oracle_res <= tol)
    flags = {
        "numerator_vanishes": num_holds,
        "stated_condition_holds": stated_holds,
        "oracle_developable": oracle_holds,
        "numerator_matches_oracle": verdicts_agree(num_holds, num_res, oracle_holds, oracle_res, tol),
        "stated_matches_oracle": verdicts_agree(stated_holds, stated_res, oracle_holds, oracle_res, tol),
    }
    notes = []
    if flags["numerator_matches_oracle"] and not flags["stated_matches_oracle"]:
        notes.append(
            "stated developability condition disagrees with the drall numerator "
            "and the direct oracle; trust the oracle"
        )
    return ConditionReport(
        "developability",
        spec.family.value,
        {
            "numerator": num_res,
            "stated_condition": stated_res,
            "oracle_drall": oracle_res,
            "closed_drall": float(np.max(np.abs(analysis.d_closed))),
        },
        flags,
        notes,
    )


def corollary_checks(
    surf: SampledSurface, spec: TransversalSpec, tol: float = 1e-6
) -> ConditionReport:
    """Developability of the transversal over a developable base surface.

    Requires the base drall -sinh(theta)/k1 to vanish within tolerance
    (theta = 0 in synthesis).  The family conditions are then: k2 = 0
    (alpha), angle' = -k2 (beta), mu k1 = eta k2 (gamma); each is compared
    against the transversal drall oracle in both directions.  The base is
    checked before the angle is evaluated.
    """
    d_base = drall_law(surf.k1, surf.theta)
    if np.any(np.isnan(d_base)):
        raise DegenerateDenominatorError("base drall undefined where k1 = 0")
    base_drall = float(np.max(np.abs(d_base)))
    if base_drall > tol:
        raise BaseNotDevelopableError(
            f"base surface is not developable (max |d| = {base_drall:.3e})"
        )
    co = coefficients(surf, spec)
    if spec.family is Family.ALPHA:
        condition = float(np.max(np.abs(co.k2)))
    elif spec.family is Family.BETA:
        condition = float(np.max(np.abs(co.angle_d + co.k2)))
    else:
        condition = float(np.max(np.abs(co.mu * co.k1 - co.eta * co.k2)))
    holds = condition <= tol
    notes = []

    # a vanishing gamma condition with constant angle freezes the ruling:
    # the transversal is a cylinder, developable with no drall to sample
    q_t_step = float(np.max(np.linalg.norm(np.diff(co.q_t, axis=0), axis=-1))) / surf.step
    cylindrical = q_t_step <= 1e-6
    if cylindrical:
        notes.append("transversal ruling is constant (cylinder); developable by definition")
        oracle_res, closed_res, developable = 0.0, 0.0, True
    else:
        analysis = _analyze(surf, spec, co)
        oracle_res = _oracle_abs(analysis.oracle.drall, analysis.oracle.valid)
        closed_res = float(np.max(np.abs(analysis.d_closed)))
        developable = bool(oracle_res <= tol)
    return ConditionReport(
        "corollary",
        spec.family.value,
        {
            "base_drall": base_drall,
            "condition": condition,
            "oracle_drall": oracle_res,
            "closed_drall": closed_res,
        },
        {
            "condition_holds": holds,
            "transversal_developable": developable,
            "cylindrical": cylindrical,
            "equivalent": verdicts_agree(holds, condition, developable, oracle_res, tol),
        },
        notes,
    )


# ---------------------------------------------------------------------------
# angle fitting for coincidence-tuned instances (constant coefficients)
# ---------------------------------------------------------------------------


def linear_angle(intercept: float, slope: float) -> ex.Expr:
    """The expression intercept + slope * s."""
    return ex.add(ex.const(intercept), ex.mul(ex.const(slope), ex.VAR))


def coincidence_slope(k1: float, k2: float, theta: float, family: Family) -> float:
    """Angle slope keeping the transversal striction curve on the base one.

    For constant (k1, k2, theta) the coincidence factor vanishes on every
    angle of this constant slope: alpha tanh(theta) k2 - k1, beta
    k1/tanh(theta) - k2, gamma 0 (any constant angle).  ValueError for beta
    where |tanh(theta)| < 1e-12: there no angle coincides unless k1 = 0, and
    then every angle does.
    """
    t = math.tanh(theta)
    if family is Family.ALPHA:
        return t * k2 - k1
    if family is Family.BETA:
        if abs(t) < 1e-12:
            raise ValueError("beta coincidence needs a nonzero theta")
        return k1 / t - k2
    return 0.0
