"""Batch verification of the striction, coincidence and developability laws.

Each suite sweeps a grid of constant curvature data (k1, k2, theta),
synthesizes the base surface, and tests both directions of every
if-and-only-if statement:

  forward    construct an instance satisfying the condition and require the
             geometric property to hold within tolerance;
  backward   violate the condition by a margin (0.1 on the relevant
             quantity) and require the property to fail with residual at
             least 10x tolerance.

Unsatisfiable conditions (a tanh can never reach a ratio >= 1 in magnitude)
are recorded as skips, never failures.  Every residual in a report is
finite or the case is marked errored with a reason; two runs with the same
configuration produce identical reports.

Every surface a suite builds has the constant k1 and k2 of one grid pair,
so ``run_all`` runs the suites one (k1, k2) block at a time and drops the
block's surfaces when it ends: each distinct surface is synthesized once
per run, and only one block's surfaces are held at a time.  The block's
dict also keeps each distinct striction-predicate report and each distinct
developability report, never the analyses behind them: the tuned theta of
an asymptotic, line-of-curvature, alpha or beta row does not depend on the
row's theta, so the theta rows of a block share those instances.  On the
default suite, 144 surfaces take 50 frame integrations, 65 predicate
reports (96 requests), 66 developability reports (126) and 210 analyses.
An analysis computes its fields on first read, and the suites read only
``v_closed`` and the oracle's ``v0`` (coincidence) or ``d_closed`` and
``drall`` (developability, corollaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .errors import DegenerateDenominatorError, ExprError, GeometryError
from .numerics import central_diff1
from .ruled import striction_predicates
from .synthesis import IntrinsicData, SampledSurface, from_constants, synthesize_surface
from .transversal import (
    Branch,
    Family,
    TransversalSpec,
    _oracle_abs,
    analyze,
    coincidence_slope,
    corollary_checks,
    developability_condition,
    linear_angle,
)

ANGLE_MARGIN = 0.1  # size of the condition violation in backward cases


@dataclass(frozen=True)
class SuiteConfig:
    """Grids and tolerances for the verification suites.

    ValueError unless every value grid is a non-empty tuple of finite
    numbers, ``angle`` (the constant transversal angle of the cases that
    do not tune one) is finite, ``families`` holds at least one ``Family`` and
    none twice, ``tolerance`` lies in (0, inf) and ``step`` and ``s_range``
    pass ``IntrinsicData``'s rules: step in (0, inf), range finite and
    increasing.
    """

    k1_values: tuple = (0.5, 1.0, 2.0)
    k2_values: tuple = (0.0, 0.5, 1.0)
    theta_values: tuple = (0.0, 0.5, 1.0)
    angle: float = 0.5
    families: tuple = (Family.ALPHA, Family.BETA, Family.GAMMA)
    tolerance: float = 1e-6
    s_range: tuple = (0.0, 1.0)
    step: float = 1e-3

    def __post_init__(self):
        grids = (self.k1_values, self.k2_values, self.theta_values)
        if not all(grid and all(map(math.isfinite, grid)) for grid in grids):
            raise ValueError("value grids must be non-empty and finite")
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")
        families = self.families
        if not (families and all(isinstance(f, Family) for f in families) and len(set(families)) == len(families)):
            raise ValueError("families must name at least one family, each once")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be a positive finite number")
        # every suite surface is an IntrinsicData with this step and s_range
        zero = ex.const(0.0)
        IntrinsicData(zero, zero, zero, s_range=self.s_range, step=self.step)

    @property
    def coincidence_tolerance(self) -> float:
        return self.tolerance / 10.0

    def grid(self):
        return [
            (k1, k2, th)
            for k1 in self.k1_values
            for k2 in self.k2_values
            for th in self.theta_values
        ]

    def to_dict(self) -> dict:
        return {
            "k1_values": list(self.k1_values),
            "k2_values": list(self.k2_values),
            "theta_values": list(self.theta_values),
            "angle": self.angle,
            "families": [f.value for f in self.families],
            "tolerance": self.tolerance,
            "s_range": list(self.s_range),
            "step": self.step,
        }


@dataclass
class CaseRecord:
    suite: str
    check: str
    family: str | None
    params: dict
    residuals: dict
    verdict: str  # pass | fail | skip | error
    note: str = ""

    def to_dict(self) -> dict:
        residuals = {}
        for key, value in self.residuals.items():
            if value is None or (isinstance(value, float) and not math.isfinite(value)):
                residuals[key] = None
            else:
                residuals[key] = float(value)
        return {
            "suite": self.suite,
            "check": self.check,
            "family": self.family,
            "params": self.params,
            "residuals": residuals,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass
class SuiteReport:
    suite: str
    config: dict
    cases: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for case in self.cases:
            counts[case.verdict] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "summary": self.summary,
            "warnings": list(self.warnings),
            "cases": [case.to_dict() for case in self.cases],
        }


def _once(surfaces: dict, key, make):
    """``surfaces[key]``, kept from ``make()`` on first request; a ``make``
    that raises keeps nothing, so each request meets the error anew."""
    if key not in surfaces:
        surfaces[key] = make()
    return surfaces[key]


def _key(cfg: SuiteConfig, k1, k2, theta, s_range=None) -> tuple:
    """The raw (k1, k2, theta, s_range) a surface and its reports are kept under."""
    return (k1, k2, theta, tuple(s_range or cfg.s_range))


def _surface(cfg: SuiteConfig, surfaces: dict, k1, k2, theta, s_range=None) -> SampledSurface:
    """The surface kept in ``surfaces`` under its ``_key``, synthesized on
    first request; its "frames" entry shares frames across theta."""
    key = _key(cfg, k1, k2, theta, s_range)

    def make():
        data = from_constants(k1, k2, theta, s_range=key[3], step=cfg.step)
        return synthesize_surface(data, surfaces.setdefault("frames", {}))

    return _once(surfaces, key, make)


def _capped_range(cfg: SuiteConfig, angle0: float, slope: float, lo: float, hi: float):
    """Largest [s0, s0+L] on which angle0 + slope*s stays inside (lo, hi)."""
    s0, s1 = cfg.s_range
    length = s1 - s0
    if slope > 0.0:
        length = min(length, (hi - angle0) / slope)
    elif slope < 0.0:
        length = min(length, (lo - angle0) / slope)
    length = max(length, 50.0 * cfg.step)
    return (s0, s0 + length)


def _fd_slope_residual(surf: SampledSurface, angle: ex.Expr, target: float) -> float:
    values = np.asarray(ex.evaluate(angle, surf.s), dtype=float)
    slope, _ = central_diff1(values, surf.step)
    return float(np.max(np.abs(slope - target)))


def _run_rows(name: str, cfg: SuiteConfig, surfaces, case, rows) -> SuiteReport:
    """One record per row ``(check, family, (k1, k2, theta))``, in row order.

    ``case(cfg, surfaces, family or check, k1, k2, theta, residuals, notes)``
    fills the record's residuals and notes and returns whether the case
    passed, or None for a skip; a GeometryError, ExprError or ValueError
    makes the record an error whose last note is the message.  Every
    surface synthesized is kept in ``surfaces`` (a new dict unless the
    caller, such as ``run_all``, passes one) and reused on the next request
    for the same data.
    """
    report = SuiteReport(name, cfg.to_dict())
    surfaces = {} if surfaces is None else surfaces
    for check, family, (k1, k2, th) in rows:
        residuals: dict = {}
        notes: list = []
        try:
            ok = case(cfg, surfaces, family or check, k1, k2, th, residuals, notes)
            verdict = "skip" if ok is None else "pass" if ok else "fail"
        except (GeometryError, ExprError, ValueError) as exc:
            verdict = "error"
            notes.append(str(exc))
        params = {"k1": k1, "k2": k2, "theta": th}
        report.cases.append(
            CaseRecord(
                name, check, family and family.value, params, residuals, verdict, "; ".join(notes)
            )
        )
    return report


def _family_suite(name: str, cfg: SuiteConfig, surfaces, case) -> SuiteReport:
    """``_run_rows`` over every triple of one family in turn."""
    rows = [(f"{name}.{family.value}", family, t) for family in cfg.families for t in cfg.grid()]
    return _run_rows(name, cfg, surfaces, case, rows)


# ---------------------------------------------------------------------------
# striction-curve suite
# ---------------------------------------------------------------------------

_PREDICATES = ("asymptotic", "geodesic", "line_of_curvature")


def _predicates(cfg, surfaces, k1, k2, theta):
    """The surface's PredicateReport, computed once per block: the three rows
    of a grid triple share it, and the theta rows of a (k1, k2) block share
    the tuned and violated asymptotic and curvature instances."""

    def make():
        return striction_predicates(_surface(cfg, surfaces, k1, k2, theta).frames(), cfg.tolerance)

    return _once(surfaces, ("predicates", _key(cfg, k1, k2, theta)), make)


def _striction_case(cfg, surfaces, name, k1, k2, th, residuals, notes):
    """The grid surface's two characterizations of ``name`` must agree; then
    a tuned instance must have the property and a violated one must not."""
    tol = cfg.tolerance
    result = getattr(_predicates(cfg, surfaces, k1, k2, th), name)
    residuals["grid_geometric"] = result.geometric_residual
    residuals["grid_curvature"] = result.curvature_residual
    if not result.satisfiable:
        notes.append("curvature condition unsatisfiable (ratio outside tanh range)")
        return None
    if name == "geodesic":  # forward: the grid surface itself has constant theta
        forward = result.geometric_residual
        violated = _predicates(cfg, surfaces, k1, k2, linear_angle(th, ANGLE_MARGIN)).geodesic
    else:
        num, den = (k1, k2) if name == "asymptotic" else (k2, k1)
        theta_star = math.atanh(num / den)
        forward = getattr(_predicates(cfg, surfaces, k1, k2, theta_star), name).geometric_residual
        violated = getattr(_predicates(cfg, surfaces, k1, k2, theta_star + ANGLE_MARGIN), name)
    residuals["forward_geometric"] = forward
    residuals["backward_geometric"] = violated.geometric_residual
    residuals["backward_curvature"] = violated.curvature_residual
    ok = result.agree is True and forward <= tol and violated.geometric_residual >= 10.0 * tol
    if violated.curvature_residual is not None:
        ok = ok and violated.curvature_residual >= 10.0 * tol
    return ok


def run_striction_suite(cfg: SuiteConfig = SuiteConfig(), surfaces=None) -> SuiteReport:
    """Asymptotic / geodesic / line-of-curvature laws on the (k1,k2,theta) grid.

    One record per grid triple and predicate.  Each record carries the
    agreement verdict of the two characterizations on the grid surface plus
    targeted forward (condition tuned) and backward (condition violated by
    0.1) instances where the condition is satisfiable.  ``surfaces`` as in
    ``_run_rows``.
    """
    rows = [(name, None, t) for t in cfg.grid() for name in _PREDICATES]
    return _run_rows("striction", cfg, surfaces, _striction_case, rows)


# ---------------------------------------------------------------------------
# coincidence suite
# ---------------------------------------------------------------------------

_ALPHA_ANGLE0 = 1.5  # keeps sinh(angle) bounded away from zero on capped ranges
_BETA_ANGLE0 = 0.7  # mid (0, pi/2); capped ranges stay inside (0.1, pi/2 - 0.1)
_BETA_BOUNDS = (0.1, math.pi / 2.0 - 0.1)
# beta coincidence reads tanh(theta) (angle' + k2) = k1: at theta = 0 it fails
# for every angle when k1 != 0 and holds for every angle when k1 = 0
_BETA_DEGENERATE = "coincidence holds for every angle at theta = 0, k1 = 0"


def _coincidence_instance(cfg, family, k1, k2, th, surfaces, margin=0.0):
    """(surface, spec) with a linear angle whose slope exceeds the coincidence
    slope by ``margin``, and an empty reason: at margin 0 the transversal
    striction curve coincides with the base one.  (None, reason) where no
    coincident instance exists."""
    if family is Family.ALPHA and k2 == 0.0 and not margin:
        return None, "coincidence needs k2 != 0 (ruling derivative degenerates)"
    try:
        slope = coincidence_slope(k1, k2, th, family) + margin
    except ValueError:  # beta at theta = 0: no slope coincides, so any violates
        if not margin:
            unattainable = "coincidence unattainable for theta = 0 (k1 != 0)"
            return None, _BETA_DEGENERATE if k1 == 0.0 else unattainable
        slope = 0.0
    if family is Family.ALPHA:
        angle0, rng = _ALPHA_ANGLE0, _capped_range(cfg, _ALPHA_ANGLE0, slope, 0.25, math.inf)
    elif family is Family.BETA:
        angle0, rng = _BETA_ANGLE0, _capped_range(cfg, _BETA_ANGLE0, slope, *_BETA_BOUNDS)
    else:  # every constant angle coincides; a violated one starts off theta
        angle0, rng = (th + 0.2 if margin else cfg.angle), cfg.s_range
    branch = None if family is Family.BETA else Branch.TIMELIKE
    spec = TransversalSpec(family, linear_angle(angle0, slope), branch)
    return (_surface(cfg, surfaces, k1, k2, th, s_range=rng), spec), ""


def _specialization_residuals(family, k1, k2, th, tuned, reason, residuals, notes) -> bool:
    """Constant-angle / parameter-identity specializations of coincidence;
    ``tuned`` is the coincident instance, or None for the ``reason`` given."""
    ok = True
    # asymptotic striction (tanh theta = k1/k2) forces a constant angle, except
    # for beta at k1 = 0, where theta = 0 leaves every angle coincident
    if abs(k2) > 0.0 and abs(k1 / k2) < 1.0 and (k1 != 0.0 or family is not Family.BETA):
        theta_star = math.atanh(k1 / k2)
        if family is Family.GAMMA:
            mu, eta = math.cosh(theta_star), math.sinh(theta_star)
            slope = abs(eta / mu - k1 / k2)  # identity residual, not a slope
        else:
            slope = coincidence_slope(k1, k2, theta_star, family)
        residuals["asymptotic_spec"] = abs(slope)
        ok = ok and abs(slope) <= 1e-6
    # geodesic striction (constant theta): the tuned angle has the coincidence slope
    if tuned is not None:
        surf, spec = tuned
        if family is not Family.GAMMA:
            res = _fd_slope_residual(surf, spec.angle, coincidence_slope(k1, k2, th, family))
        elif abs(th) < 1e-12:
            res = None
        else:
            x = math.tanh(th)
            gamma = math.atanh(x)  # gamma = theta, timelike branch
            res = abs(math.sinh(gamma) - x * math.cosh(gamma))
        if res is not None:
            residuals["geodesic_spec"] = res
            ok = ok and res <= 1e-7 * max(1.0, abs(k1) + abs(k2))
    elif reason:
        notes.append(f"geodesic specialization skipped: {reason}")
    # line-of-curvature striction (tanh theta = k2/k1)
    if abs(k1) > 0.0 and abs(k2 / k1) < 1.0 and k2 != 0.0:
        theta_star = math.atanh(k2 / k1)
        if family is Family.GAMMA:  # gamma = theta_star
            res = abs(math.tanh(theta_star) - k2 / k1)
        else:
            expected = (k2**2 - k1**2) / k1 if family is Family.ALPHA else (k1**2 - k2**2) / k2
            res = abs(coincidence_slope(k1, k2, theta_star, family) - expected)
        residuals["curvature_line_spec"] = res
        ok = ok and res <= 1e-7 * max(1.0, k1 + k1**2)
    return ok


def _coincidence_case(cfg, surfaces, family, k1, k2, th, residuals, notes):
    """Forward tuned and backward violated instances, then the specializations."""
    ctol = cfg.coincidence_tolerance
    tuned, reason = _coincidence_instance(cfg, family, k1, k2, th, surfaces)
    ok = True
    if tuned is not None:
        analysis = analyze(*tuned)
        oracle = analysis.oracle
        residuals["forward_max_v_closed"] = float(np.max(np.abs(analysis.v_closed)))
        residuals["forward_max_v_oracle"] = _oracle_abs(oracle.v0, oracle.valid, np.max, math.inf)
        ok = (
            residuals["forward_max_v_closed"] <= ctol
            and residuals["forward_max_v_oracle"] <= ctol
        )
    else:
        notes.append(f"forward skipped: {reason}")
    if reason == _BETA_DEGENERATE:  # no instance violates the condition
        notes.append(f"backward skipped: {reason}")
    else:
        violated, _ = _coincidence_instance(cfg, family, k1, k2, th, surfaces, ANGLE_MARGIN)
        analysis = analyze(*violated)
        oracle = analysis.oracle
        residuals["backward_min_v_closed"] = float(np.min(np.abs(analysis.v_closed)))
        residuals["backward_min_v_oracle"] = _oracle_abs(oracle.v0, oracle.valid, np.min, math.inf)
        ok = ok and residuals["backward_min_v_closed"] >= 10.0 * ctol
        ok = ok and residuals["backward_min_v_oracle"] >= 10.0 * ctol
    ok = _specialization_residuals(family, k1, k2, th, tuned, reason, residuals, notes) and ok
    if tuned is None and len(residuals) <= 2:
        return None
    return ok


def run_coincidence_suite(cfg: SuiteConfig = SuiteConfig(), surfaces=None) -> SuiteReport:
    """Coincidence of the transversal striction curve with the base one.

    One record per (family, grid triple): forward tuned instance (max |v_T|
    small), backward margin-violated instance (min |v_T| bounded away), and
    the applicable specialization identities.  ``surfaces`` as in
    ``_run_rows``.
    """
    return _family_suite("coincidence", cfg, surfaces, _coincidence_case)


# ---------------------------------------------------------------------------
# developability suite
# ---------------------------------------------------------------------------


_DISCREPANCY = "stated-condition discrepancy (documented)"


def _tuned_developable(cfg, family, k1, k2, th):
    """(theta, spec) making the transversal drall vanish, or None + reason."""
    angle0 = cfg.angle
    if family in (Family.ALPHA, Family.BETA) and k1 == 0.0:
        return None, "k1 = 0 leaves no tuning angle"
    if family is Family.ALPHA:
        # constant angle; theta solves the drall numerator
        try:
            value = -math.sinh(angle0) ** 2 * k2 / k1
        except OverflowError:  # sinh(angle0) ** 2 past the float range
            value = math.inf
        if abs(value) >= 1.0:
            return None, "tuning angle outside tanh range"
        return (math.atanh(value), TransversalSpec(family, ex.const(angle0), Branch.TIMELIKE)), ""
    if family is Family.BETA:
        value = k2 / (k1 * math.cos(angle0) ** 2)
        if abs(value) >= 1.0:
            return None, "tuning angle outside tanh range"
        return (math.atanh(value), TransversalSpec(family, ex.const(angle0))), ""
    # gamma: a constant angle equal to theta zeroes the angle factor of the
    # drall numerator without degenerating the denominator (which needs
    # mu k1 != eta k2).  The other factor, mu k1 = eta k2 with a constant
    # angle, makes the transversal cylindrical and is handled separately.
    if th == 0.0:
        return None, "angle = theta = 0 is a trivial ruling"
    if k2 != 0.0 and abs(math.tanh(th) - k1 / k2) < 1e-3:
        return None, "angle factor and cylindrical factor coincide"
    return (th, TransversalSpec(family, ex.const(th), Branch.TIMELIKE)), ""


def _developability(cfg, surfaces, k1, k2, theta, spec: TransversalSpec):
    """The developability report of ``spec`` on the surface, computed once per
    block: the tuned theta does not depend on the row's theta, so the theta
    rows of an alpha or beta (k1, k2) block share their two instances.  Only
    the report is kept, never the analysis behind it."""
    key = ("developability", _key(cfg, k1, k2, theta), spec.family, spec.branch, ex.structure(spec.angle))

    def make():
        return developability_condition(analyze(_surface(cfg, surfaces, k1, k2, theta), spec), cfg.tolerance)

    return _once(surfaces, key, make)


def _developability_case(cfg, surfaces, family, k1, k2, th, residuals, notes):
    """Tuned and theta-shifted instances, then the theta = 0 corollaries."""
    tol = cfg.tolerance
    ok = True
    tuned, reason = _tuned_developable(cfg, family, k1, k2, th)
    if tuned is None:
        notes.append(f"forward skipped: {reason}")
    else:
        theta_t, spec = tuned
        cond = _developability(cfg, surfaces, k1, k2, theta_t, spec)
        residuals["forward_numerator"] = cond.residuals["numerator"]
        residuals["forward_oracle"] = cond.residuals["oracle_drall"]
        residuals["forward_stated"] = cond.residuals["stated_condition"]
        ok = cond.flags["numerator_vanishes"] and cond.flags["oracle_developable"]
        if cond.notes:
            notes.append(_DISCREPANCY)
        # backward: shift theta off the tuned value
        cond_b = _developability(cfg, surfaces, k1, k2, theta_t + ANGLE_MARGIN, spec)
        residuals["backward_numerator"] = cond_b.residuals["numerator"]
        residuals["backward_oracle"] = cond_b.residuals["oracle_drall"]
        ok = ok and residuals["backward_numerator"] >= 10.0 * tol
        ok = ok and residuals["backward_oracle"] >= 10.0 * tol
    if th == 0.0:
        ok = _corollary_case(cfg, family, k1, k2, residuals, notes, surfaces) and ok
    return ok if residuals else None


def run_developability_suite(cfg: SuiteConfig = SuiteConfig(), surfaces=None) -> SuiteReport:
    """Developability of transversal surfaces: closed form vs oracle vs
    the stated angle conditions, plus the developable-base corollaries.

    One record per (family, grid triple).  On tuned instances the alpha
    family's stated condition is expected to disagree with the (verified)
    drall numerator; that is recorded as a documented discrepancy warning,
    not a failure.  ``surfaces`` as in ``_run_rows``.
    """
    report = _family_suite("developability", cfg, surfaces, _developability_case)
    if any(_DISCREPANCY in case.note for case in report.cases):
        report.warnings.append(
            "alpha developability: the stated angle condition does not match the "
            "drall numerator; the direct oracle confirms the numerator form"
        )
    return report


def _corollary_case(cfg, family, k1, k2, residuals, notes, surfaces) -> bool:
    """Developable-base (theta = 0) corollaries, forward or contrapositive."""

    def holds(key, surf, spec):
        try:
            cond = corollary_checks(surf, spec, cfg.tolerance)
        except DegenerateDenominatorError as err:  # no base drall to test (k1 = 0)
            notes.append(f"{key} skipped: {err}")
            return True
        residuals[key] = cond.residuals["oracle_drall"]
        return cond.flags["equivalent"]

    if family is Family.BETA:
        ok = True
        for key, slope in (("corollary_forward", -k2), ("corollary_backward", -k2 + ANGLE_MARGIN)):
            rng = _capped_range(cfg, _BETA_ANGLE0, slope, *_BETA_BOUNDS)
            surf = _surface(cfg, surfaces, k1, k2, 0.0, s_range=rng)
            ok = holds(key, surf, TransversalSpec(family, linear_angle(_BETA_ANGLE0, slope))) and ok
        return ok
    surf = _surface(cfg, surfaces, k1, k2, 0.0)
    constant = TransversalSpec(family, ex.const(cfg.angle), Branch.TIMELIKE)
    if family is Family.ALPHA:
        return holds("corollary_forward" if k2 == 0.0 else "corollary_backward", surf, constant)
    ok = True
    if k2 != 0.0 and abs(k1 / k2) < 1.0:
        spec = TransversalSpec(family, ex.const(math.atanh(k1 / k2)), Branch.TIMELIKE)
        ok = holds("corollary_forward", surf, spec)
    elif k2 != 0.0 and abs(k2 / k1) < 1.0:
        spec = TransversalSpec(family, ex.const(math.atanh(k2 / k1)), Branch.SPACELIKE)
        ok = holds("corollary_forward", surf, spec)
    else:
        notes.append("gamma corollary forward skipped: ratio outside both branches")
    return holds("corollary_backward", surf, constant) and ok


def run_all(cfg: SuiteConfig = SuiteConfig()) -> dict:
    """Run the three suites one (k1, k2) block at a time, each block with one
    surface dict, which also shares each frame integration across theta;
    returns a JSON-ready combined report in full-grid order.
    """
    suites = (run_striction_suite, run_coincidence_suite, run_developability_suite)
    blocks = []
    for k1 in cfg.k1_values:
        for k2 in cfg.k2_values:
            block, surfaces = replace(cfg, k1_values=(k1,), k2_values=(k2,)), {}
            blocks.append([suite(block, surfaces) for suite in suites])
    reports = []
    for i, name in enumerate(("striction", "coincidence", "developability")):
        parts = [block[i] for block in blocks]
        warnings = dict.fromkeys(w for part in parts for w in part.warnings)
        report = SuiteReport(name, cfg.to_dict(), warnings=list(warnings))
        # a block report lists its cases in one equal run per family (striction:
        # one run); the full grid lists run r of every block before run r + 1
        runs = len(cfg.families) if i else 1
        for r in range(runs):
            for part in parts:
                size = len(part.cases) // runs
                report.cases.extend(part.cases[r * size:(r + 1) * size])
        reports.append(report)
    combined = {
        "suites": [r.to_dict() for r in reports],
        "warnings": [w for r in reports for w in r.warnings],
        "summary": {
            key: sum(r.summary[key] for r in reports)
            for key in ("pass", "fail", "skip", "error")
        },
    }
    return combined
