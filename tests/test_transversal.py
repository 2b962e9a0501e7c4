"""Transversal families: rulings, closed forms vs sampled oracle, conditions."""

import math
import warnings

import numpy as np
import pytest

from minkruled import expressions as ex
from minkruled import transversal
from minkruled.errors import (
    BaseNotDevelopableError,
    DegenerateDenominatorError,
    TrivialRulingError,
)
from minkruled.lorentz import lorentz_dot
from minkruled.numerics import central_diff1
from minkruled.ruled import CYLINDRICAL_EPS, sampled_ruled_invariants
from minkruled.synthesis import IntrinsicData, from_constants, synthesize_surface
from minkruled.transversal import (
    Branch,
    Family,
    TransversalSpec,
    analyze,
    coincidence_condition,
    coincidence_slope,
    corollary_checks,
    developability_condition,
    drall_law,
    linear_angle,
    ruling_samples,
    to_explicit,
)


def surf_const(k1, k2, theta, s_range=(0.0, 1.0), step=1e-3):
    return synthesize_surface(from_constants(k1, k2, theta, s_range, step))


def spec_for(family, angle, branch=None):
    return TransversalSpec(Family(family), ex.parse(angle) if isinstance(angle, str) else angle,
                           Branch(branch) if branch else None)


def test_spec_branch_rules():
    with pytest.raises(ValueError, match="beta"):
        TransversalSpec(Family.BETA, ex.parse("pi/4"), Branch.TIMELIKE)
    for family in (Family.ALPHA, Family.GAMMA):
        with pytest.raises(ValueError, match=family.value):
            TransversalSpec(family, ex.parse("1"))


def test_drall_law_guards_vanishing_k1():
    k1 = np.array([0.0, 1e-11, -1e-10, 2.0])
    d = drall_law(k1, np.full(4, 0.5))
    assert np.isnan(d[:3]).all()
    assert d[3] == pytest.approx(-math.sinh(0.5) / 2.0, rel=1e-15)


def at(analysis, s):
    """Grid index of the sample nearest to arc length ``s``."""
    return int(np.argmin(np.abs(analysis.s - s)))


# ---------------------------------------------------------------------------
# rulings
# ---------------------------------------------------------------------------


def test_ruling_samples_alpha_timelike():
    surf = surf_const(1.0, 0.0, 0.0)
    q_t, ell = ruling_samples(surf, spec_for("alpha", "1", "timelike"))
    assert np.allclose(q_t[0], [math.cosh(1), math.sinh(1), 0.0], atol=1e-12)
    assert ell == -1
    assert lorentz_dot(q_t[0], q_t[0]) == pytest.approx(-1.0, abs=1e-12)


def test_ruling_samples_beta():
    surf = surf_const(1.0, 0.0, 0.0)
    q_t, ell = ruling_samples(surf, spec_for("beta", "pi/4"))
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(q_t[0], [0.0, r, -r], atol=1e-12)
    assert ell == 1


def test_ruling_samples_trivial():
    surf = surf_const(1.0, 0.0, 0.0)
    with pytest.raises(TrivialRulingError):
        ruling_samples(surf, spec_for("alpha", "0", "timelike"))
    with pytest.raises(TrivialRulingError):
        ruling_samples(surf, spec_for("beta", "pi/2"))
    with pytest.raises(TrivialRulingError):
        ruling_samples(surf, spec_for("beta", "0"))


@pytest.mark.parametrize("family, branch", [("alpha", "timelike"), ("gamma", "spacelike")])
def test_ruling_whose_norm_overflows_names_the_angle(family, branch):
    # cosh(800) is past the float range, so <q_T, q_T> is not finite
    surf = surf_const(1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match=r"norm is not finite \(angle too large for cosh\)"):
        ruling_samples(surf, spec_for(family, "800", branch))


def test_ruling_plane_containment_and_norm():
    surf = surf_const(1.2, 0.4, 0.6)
    cases = [
        (spec_for("alpha", "0.8", "timelike"), "a", -1),
        (spec_for("alpha", "0.8", "spacelike"), "a", 1),
        (spec_for("beta", "0.9"), "q", 1),
        (spec_for("gamma", "0.8", "timelike"), "h", -1),
        (spec_for("gamma", "0.8", "spacelike"), "h", 1),
    ]
    for spec, orthogonal_to, ell_expected in cases:
        q_t, ell = ruling_samples(surf, spec)
        assert ell == ell_expected
        other = getattr(surf, orthogonal_to)
        assert np.max(np.abs(lorentz_dot(q_t, other))) <= 1e-10
        assert np.max(np.abs(lorentz_dot(q_t, q_t) - ell)) <= 1e-10


# ---------------------------------------------------------------------------
# closed forms against hand values and the sampled oracle
# ---------------------------------------------------------------------------


def test_alpha_strictional_distance_value():
    # k1=1, k2=0, theta=0, constant angle 1, timelike branch: v = sinh(1)
    surf = surf_const(1.0, 0.0, 0.0)
    spec = spec_for("alpha", "1", "timelike")
    analysis = analyze(surf, spec)
    assert analysis.v_closed[at(analysis, 0.5)] == pytest.approx(math.sinh(1.0), abs=1e-12)
    assert analysis.rel_v <= 1e-10
    assert np.max(np.abs(analysis.oracle.v0[analysis.oracle.valid] - math.sinh(1.0))) <= 1e-9
    assert not analysis.printed_sign_flip  # alpha printed form matches the quotient


def test_beta_strictional_distance_sign():
    # k1=1, k2=0, theta=1, angle pi/4: the defining quotient gives
    # -sqrt(2) cosh(1); the commonly printed form carries the opposite sign
    surf = surf_const(1.0, 0.0, 1.0)
    spec = spec_for("beta", "pi/4")
    expected = -math.sqrt(2.0) * math.cosh(1.0)
    analysis = analyze(surf, spec)
    i = at(analysis, 0.3)
    assert analysis.v_closed[i] == pytest.approx(expected, abs=1e-12)
    assert analysis.v_printed[i] == pytest.approx(-expected, abs=1e-12)
    assert analysis.rel_v <= 1e-10
    assert analysis.printed_sign_flip
    assert not analysis.suspect
    # direct hand oracle at one sample: v = -<c', q_b'>/<q_b', q_b'> with
    # q_b(s) = (sqrt2/2)(sinh s, cosh s, -1) on this closed-form surface
    s = 0.4
    r = math.sqrt(2.0) / 2.0
    qdot = np.array([r * math.cosh(s), r * math.sinh(s), 0.0])
    cdot = np.array(
        [math.cosh(1) * math.cosh(s), math.cosh(1) * math.sinh(s), -math.sinh(1)]
    )
    v_hand = -float(lorentz_dot(cdot, qdot)) / float(lorentz_dot(qdot, qdot))
    assert v_hand == pytest.approx(expected, abs=1e-12)


def test_beta_distribution_value():
    surf = surf_const(1.0, 0.0, 1.0)
    spec = spec_for("beta", "pi/4")
    analysis = analyze(surf, spec)
    assert analysis.d_closed[at(analysis, 0.2)] == pytest.approx(-math.sinh(1.0), abs=1e-12)
    assert analysis.rel_d <= 1e-10


def test_gamma_distribution_value():
    # k1=1, k2=0, theta=0, gamma=1 constant, spacelike branch: d = coth(1)
    surf = surf_const(1.0, 0.0, 0.0)
    spec = spec_for("gamma", "1", "spacelike")
    analysis = analyze(surf, spec)
    assert analysis.d_closed[at(analysis, 0.7)] == pytest.approx(
        math.cosh(1.0) / math.sinh(1.0), abs=1e-12
    )
    assert analysis.rel_d <= 1e-10


def test_gamma_strictional_distance_constant_angle_is_zero():
    surf = surf_const(1.0, 0.5, 0.6)
    spec = spec_for("gamma", "0.9", "timelike")
    analysis = analyze(surf, spec)
    assert np.all(analysis.v_closed == 0.0)
    assert np.max(np.abs(analysis.oracle.v0[analysis.oracle.valid])) <= 1e-9


def test_gamma_varying_angle_sign():
    # non-constant gamma: the defining quotient and the printed form differ by sign
    surf = surf_const(1.0, 0.0, 0.5)
    spec = spec_for("gamma", "0.7 + 0.3*s", "timelike")
    analysis = analyze(surf, spec)
    assert analysis.rel_v <= 1e-8
    assert analysis.printed_sign_flip
    i = at(analysis, 0.5)
    assert analysis.v_closed[i] == pytest.approx(-analysis.v_printed[i], rel=1e-12)


def test_closed_vs_oracle_constant_instances_all_families():
    cases = [
        (spec_for("alpha", "1.2", "timelike"), (1.0, 0.5, 0.4)),
        (spec_for("alpha", "0.8", "spacelike"), (0.8, 1.0, 0.6)),
        (spec_for("beta", "0.6"), (1.0, 0.5, 0.8)),
        (spec_for("beta", "1.1"), (2.0, 1.0, 0.3)),
        (spec_for("gamma", "0.5 + 0.2*s", "timelike"), (1.0, 0.5, 0.7)),
        (spec_for("gamma", "1.0 + 0.1*s", "spacelike"), (1.5, 0.5, 0.2)),
    ]
    for spec, (k1, k2, th) in cases:
        analysis = analyze(surf_const(k1, k2, th), spec)
        assert analysis.rel_v <= 1e-5, (spec.family, k1, k2, th, analysis.rel_v)
        assert analysis.rel_d <= 1e-5, (spec.family, k1, k2, th, analysis.rel_d)
        assert not analysis.suspect


@pytest.mark.parametrize(
    "family,branch", [("alpha", "timelike"), ("alpha", "spacelike"), ("beta", None), ("gamma", "spacelike")]
)
def test_analysis_and_its_conditions_compute_each_array_once(monkeypatch, family, branch):
    # q_T is built from the analysis' angle and both conditions read its closed factors
    spec = spec_for(family, "0.7+0.02*s", branch)
    surf = surf_const(1.3, 0.2, 0.5)
    evaluated, evaluate = [], ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, s: evaluated.append(e) or evaluate(e, s))
    factors, closed_factors = [], transversal._closed_factors
    monkeypatch.setattr(transversal, "_closed_factors", lambda *a: factors.append(a) or closed_factors(*a))
    analysis = analyze(surf, spec)
    coincidence_condition(analysis)
    developability_condition(analysis)
    assert sum(e is spec.angle for e in evaluated) == 1
    assert len(evaluated) == 2  # the angle and its derivative
    assert len(factors) == 1


def test_degenerate_denominator():
    # alpha with angle' = -k1 and k2 = 0 freezes the transversal ruling; the
    # angle 2 - s stays away from 0 (a trivial ruling) on the whole range
    surf = surf_const(1.0, 0.0, 0.5)
    spec = spec_for("alpha", linear_angle(2.0, -1.0), "timelike")
    with pytest.raises(DegenerateDenominatorError):
        analyze(surf, spec)


# ---------------------------------------------------------------------------
# fields computed on first read
# ---------------------------------------------------------------------------

EVERY_BRANCH = [("alpha", "timelike"), ("alpha", "spacelike"), ("beta", None), ("gamma", "timelike"),
                ("gamma", "spacelike")]
LAZY_FIELDS = ("v_closed", "d_closed", "v_printed", "d_via_base", "rel_v", "rel_d", "suspect",
               "printed_sign_flip")


@pytest.fixture(scope="module")
def varying_surface():
    k1, k2, theta = (ex.parse(text) for text in ("1 + 0.3*sin(2*s)", "0.5*cos(s)", "0.2 + 0.4*s"))
    return synthesize_surface(IntrinsicData(k1, k2, theta))


def eager_fields(surf, spec):
    """Every lazy field of ``analyze(surf, spec)`` and its oracle by the formulas the
    analysis computed eagerly before its fields were read on demand, in their order."""
    co = transversal.coefficients(surf, spec)
    pre, lead, lag, numerator, den, _ = transversal._closed_factors(spec, co)
    with np.errstate(all="ignore"):
        v, d = pre * (lead - lag) / den, numerator / den
        v_printed = v if spec.family is Family.ALPHA else pre * (lag - lead) / den
    fdot, sl = central_diff1(surf.c, surf.step)
    qdot, _ = central_diff1(co.q_t, surf.step)
    q = co.q_t[sl]
    qdqd = lorentz_dot(qdot, qdot)
    euclid = np.sum(qdot * qdot, axis=-1)
    valid = (np.sqrt(euclid) > CYLINDRICAL_EPS) & (np.abs(qdqd) > 1e-10 * np.maximum(1.0, euclid))
    det = np.einsum("ij,ij->i", fdot, np.cross(q, qdot))
    with np.errstate(all="ignore"):
        v0 = np.where(valid, -lorentz_dot(qdot, fdot) / qdqd, np.nan)
        drall = np.where(valid, det / qdqd, np.nan)

    def gap(closed, oracle):
        scale = 1.0 + np.maximum(np.abs(closed), np.abs(oracle))[valid]
        return float(np.max(np.abs(closed - oracle)[valid] / scale))

    rel_v, rel_d = gap(v[sl], v0), gap(d[sl], drall)
    return {
        "v_closed": v,
        "d_closed": d,
        "v_printed": v_printed,
        "d_via_base": transversal._via_base_values(spec, co, den),
        "rel_v": rel_v,
        "rel_d": rel_d,
        "suspect": bool(max(rel_v, rel_d) > 1e-4),
        "printed_sign_flip": bool(gap(v_printed[sl], v0) > 1e-4 and rel_v <= 1e-4),
        "oracle.valid": valid,
        "oracle.sl": sl,
        "oracle.v0": v0,
        "oracle.drall": drall,
    }


def same_bits(x, y) -> bool:
    if isinstance(y, (bool, slice)):
        return type(x) is type(y) and x == y
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("family,branch", EVERY_BRANCH)
def test_lazy_fields_equal_the_eager_formulas_bit_for_bit(varying_surface, family, branch):
    spec = spec_for(family, "0.7 + 0.1*s", branch)
    expected = eager_fields(varying_surface, spec)
    analysis = analyze(varying_surface, spec)
    for name in expected:
        owner, _, attr = name.rpartition(".")
        value = getattr(analysis.oracle if owner else analysis, attr)
        assert same_bits(value, expected[name]), name
    assert analysis.printed_sign_flip is (family != "alpha")  # the surface tells the forms apart


def test_analyze_raises_every_error_before_a_field_is_read():
    surf = surf_const(1.0, 0.0, 0.5)
    with pytest.raises(DegenerateDenominatorError, match="denominator vanishes"):
        analyze(surf, spec_for("alpha", linear_angle(2.0, -1.0), "timelike"))
    with pytest.raises(ValueError, match="at least 5 samples"):
        analyze(surf_const(1.0, 0.5, 0.5, s_range=(0.0, 0.003)), spec_for("beta", "0.6"))
    with pytest.raises(ValueError, match="ruling norm does not match its causal branch label"):
        analyze(surf, spec_for("gamma", "800", "spacelike"))


@pytest.mark.parametrize("family,branch", EVERY_BRANCH)
def test_reading_lazy_fields_warns_nothing(varying_surface, family, branch):
    analysis = analyze(varying_surface, spec_for(family, "0.7 + 0.1*s", branch))
    # a constant ruling: every oracle sample is masked, so both halves divide 0 by 0
    cylinder = sampled_ruled_invariants(varying_surface.c, np.tile([1.0, 0.0, 0.0], (len(varying_surface), 1)),
                                        varying_surface.step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in LAZY_FIELDS:
            getattr(analysis, name)
        for oracle in (analysis.oracle, cylinder):
            oracle.v0, oracle.drall
    assert not cylinder.valid.any() and np.isnan(cylinder.v0).all() and np.isnan(cylinder.drall).all()


# ---------------------------------------------------------------------------
# drall identities through the base surface
# ---------------------------------------------------------------------------


def relation_at(surf, spec, s):
    """Both sides of the drall identity at arc length ``s``: (direct, via base drall)."""
    analysis = analyze(surf, spec)
    i = at(analysis, s)
    return analysis.d_closed[i], analysis.d_via_base[i]


def test_relation_via_base_drall_beta():
    surf = surf_const(1.0, 0.0, 1.0)
    lhs, rhs = relation_at(surf, spec_for("beta", "pi/4"), 0.5)
    assert lhs == pytest.approx(-math.sinh(1.0), abs=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_relation_via_base_drall_alpha():
    surf = surf_const(1.0, 0.0, 0.0)
    lhs, rhs = relation_at(surf, spec_for("alpha", "1", "timelike"), 0.5)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_relation_via_base_drall_gamma_developable_base():
    surf = surf_const(1.0, 0.0, 0.0)
    spec = spec_for("gamma", "1", "spacelike")
    lhs, rhs = relation_at(surf, spec, 0.25)
    assert lhs == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_relation_identity_on_grid():
    for family, angle, branch in (
        ("alpha", "0.9", "timelike"),
        ("beta", "0.6", None),
        ("gamma", "0.4 + 0.2*s", "timelike"),
    ):
        analysis = analyze(surf_const(1.2, 0.7, 0.5), spec_for(family, angle, branch))
        lhs, rhs = analysis.d_closed, analysis.d_via_base
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * (1.0 + np.abs(lhs)))


# ---------------------------------------------------------------------------
# coincidence
# ---------------------------------------------------------------------------


def test_coincidence_alpha_tuned():
    # tanh(theta) = (angle' + k1)/k2 with constant angle: 0.5 = 1/2
    surf = surf_const(1.0, 2.0, math.atanh(0.5))
    report = coincidence_condition(analyze(surf, spec_for("alpha", "1", "timelike")))
    assert report.flags["condition_holds"]
    assert report.residuals["max_abs_v_closed"] <= 1e-8
    assert report.residuals["max_abs_v_oracle"] <= 1e-8
    assert report.flags["agree"]


def test_coincidence_beta_tuned():
    # tanh(theta) = k1/(angle' + k2): 0.5 = 1/2
    surf = surf_const(1.0, 2.0, math.atanh(0.5))
    report = coincidence_condition(analyze(surf, spec_for("beta", "0.7")))
    assert report.flags["condition_holds"]
    assert report.residuals["max_abs_v_closed"] <= 1e-8


def test_coincidence_gamma_constant_angle():
    for theta in (0.0, 0.5, 1.0):
        surf = surf_const(1.0, 0.5, theta)
        report = coincidence_condition(analyze(surf, spec_for("gamma", "0.8", "timelike")))
        assert report.flags["condition_holds"]
        assert report.flags["angle_constant"]
        assert report.residuals["max_abs_v_closed"] == 0.0


def test_coincidence_violated():
    surf = surf_const(1.0, 2.0, math.atanh(0.5))
    spec = spec_for("alpha", linear_angle(1.0, 0.1), "timelike")
    report = coincidence_condition(analyze(surf, spec))
    assert not report.flags["condition_holds"]
    assert not report.flags["coincides_closed"]
    assert report.flags["agree"]
    assert report.residuals["max_abs_v_closed"] >= 1e-3


@pytest.mark.parametrize(
    "family,k1,k2,theta,branch,angle0",
    [
        ("alpha", 1.0, 2.0, 0.3, "timelike", 1.5),
        ("alpha", 0.5, -1.0, -0.4, "spacelike", 1.0),
        ("beta", 1.0, 2.0, 0.3, None, 0.7),
        ("beta", -0.5, 0.4, 0.8, None, 0.9),
        ("gamma", 1.0, 0.5, 0.3, "timelike", 0.8),
        ("gamma", 2.0, 1.0, 0.6, "spacelike", 0.5),
    ],
)
def test_coincidence_slope_keeps_the_striction_curve(family, k1, k2, theta, branch, angle0):
    # closed-form laws: alpha tanh(theta) k2 - k1, beta k1/tanh(theta) - k2, gamma 0
    t = math.tanh(theta)
    expected = {"alpha": t * k2 - k1, "beta": k1 / t - k2, "gamma": 0.0}[family]
    slope = coincidence_slope(k1, k2, theta, Family(family))
    assert slope == expected
    # and the linear angle of that slope makes v_T vanish against the oracle
    surf = surf_const(k1, k2, theta, s_range=(0.0, 0.2))
    report = coincidence_condition(analyze(surf, spec_for(family, linear_angle(angle0, slope), branch)))
    assert report.flags["condition_holds"] and report.flags["coincides_oracle"]
    assert report.residuals["max_abs_v_closed"] <= 1e-12


def test_coincidence_slope_beta_needs_nonzero_theta():
    with pytest.raises(ValueError, match="nonzero theta"):
        coincidence_slope(1.0, 2.0, 0.0, Family.BETA)
    with pytest.raises(ValueError, match="nonzero theta"):
        coincidence_slope(0.0, 2.0, 1e-13, Family.BETA)
    assert coincidence_slope(1.0, 2.0, 0.0, Family.ALPHA) == -1.0
    assert coincidence_slope(1.0, 2.0, 0.0, Family.GAMMA) == 0.0


# ---------------------------------------------------------------------------
# developability
# ---------------------------------------------------------------------------


def test_developability_beta_consistent():
    # beta = 0.6 const, tanh(theta*) = k2/(k1 cos^2 b)
    k1, k2, b = 1.0, 0.5, 0.6
    theta = math.atanh(k2 / (k1 * math.cos(b) ** 2))
    surf = surf_const(k1, k2, theta)
    report = developability_condition(analyze(surf, spec_for("beta", repr(b))))
    assert report.flags["numerator_vanishes"]
    assert report.flags["stated_condition_holds"]
    assert report.flags["oracle_developable"]
    assert report.flags["numerator_matches_oracle"]
    assert report.flags["stated_matches_oracle"]
    assert not report.notes


def test_developability_gamma_disjunction():
    # angle factor route: gamma = theta constant
    surf = surf_const(1.0, 0.5, 0.8)
    report = developability_condition(analyze(surf, spec_for("gamma", "0.8", "timelike")))
    assert report.flags["numerator_vanishes"]
    assert report.flags["stated_condition_holds"]
    assert report.flags["oracle_developable"]


def test_developability_alpha_stated_condition_discrepant():
    # tuned so the drall numerator vanishes: tanh(theta) = -sinh(a)^2 k2/k1
    k1, k2, a = 1.0, 0.5, 1.0
    theta = math.atanh(-math.sinh(a) ** 2 * k2 / k1)
    surf = surf_const(k1, k2, theta)
    report = developability_condition(analyze(surf, spec_for("alpha", repr(a), "timelike")))
    assert report.flags["numerator_vanishes"]
    assert report.flags["oracle_developable"]
    assert report.flags["numerator_matches_oracle"]
    # the stated angle condition is a different equation; flagged, not failed
    assert not report.flags["stated_condition_holds"]
    assert not report.flags["stated_matches_oracle"]
    assert report.notes


def test_developability_violated():
    surf = surf_const(1.0, 0.5, 0.9)
    report = developability_condition(analyze(surf, spec_for("beta", "0.6")))
    assert not report.flags["oracle_developable"]
    assert report.flags["numerator_matches_oracle"]


# ---------------------------------------------------------------------------
# corollaries over developable bases
# ---------------------------------------------------------------------------


def test_corollary_base_must_be_developable():
    surf = surf_const(1.0, 0.5, 1.0)
    with pytest.raises(BaseNotDevelopableError):
        corollary_checks(surf, spec_for("alpha", "1", "timelike"))


def test_corollary_alpha():
    # conoid base (k2 = 0): every admissible alpha transversal is developable
    surf = surf_const(1.0, 0.0, 0.0)
    report = corollary_checks(surf, spec_for("alpha", "0.5", "timelike"))
    assert report.flags["condition_holds"]
    assert report.flags["transversal_developable"]
    assert report.flags["equivalent"]
    # contrapositive: k2 != 0 gives a non-developable alpha transversal
    surf = surf_const(1.0, 0.5, 0.0)
    report = corollary_checks(surf, spec_for("alpha", "0.5", "timelike"))
    assert not report.flags["condition_holds"]
    assert not report.flags["transversal_developable"]
    assert report.flags["equivalent"]
    assert report.residuals["oracle_drall"] >= 1e-3


def test_corollary_beta():
    # angle' = -k2 keeps the beta transversal developable
    surf = surf_const(1.0, 1.0, 0.0)
    report = corollary_checks(surf, spec_for("beta", "-0.2 - s"))
    assert report.flags["condition_holds"]
    assert report.flags["transversal_developable"]
    assert report.flags["equivalent"]
    report = corollary_checks(surf, spec_for("beta", "-0.2 - 0.5*s"))
    assert not report.flags["condition_holds"]
    assert not report.flags["transversal_developable"]
    assert report.flags["equivalent"]


def test_corollary_gamma():
    # mu k1 = eta k2 with constant angle freezes the ruling: cylinder
    surf = surf_const(1.0, 2.0, 0.0)
    spec = spec_for("gamma", repr(math.atanh(0.5)), "timelike")  # tanh g = k1/k2
    report = corollary_checks(surf, spec)
    assert report.flags["condition_holds"]
    assert report.flags["cylindrical"]
    assert report.flags["transversal_developable"]
    assert report.flags["equivalent"]
    cylinder = report
    # contrapositive: ratio mismatch leaves a nonzero drall
    surf = surf_const(1.0, 1.0, 0.0)
    report = corollary_checks(surf, spec_for("gamma", "1", "timelike"))
    assert not report.flags["cylindrical"]
    assert list(report.residuals) == list(cylinder.residuals)
    assert list(report.flags) == list(cylinder.flags)
    assert not report.flags["condition_holds"]
    assert not report.flags["transversal_developable"]
    assert report.flags["equivalent"]
    assert report.residuals["oracle_drall"] >= 1e-3


# ---------------------------------------------------------------------------
# explicit export
# ---------------------------------------------------------------------------


def test_to_explicit_grid():
    surf = surf_const(1.0, 0.0, 1.0, step=1e-2)
    spec = spec_for("beta", "pi/4")
    q_t, _ = ruling_samples(surf, spec)
    grid = to_explicit(surf, q_t, (-1.0, 1.0), 5)
    assert grid.shape == (len(surf), 5, 3)
    assert np.array_equal(grid[:, 2, :], surf.c)
    assert np.allclose(grid[:, 4, :], surf.c + q_t, rtol=0.0, atol=1e-15)


def test_per_sample_accessor():
    surf = surf_const(1.0, 0.0, 1.0)
    analysis = analyze(surf, spec_for("beta", "pi/4"))
    # boundary samples carry no oracle (the stencil needs interior points)
    sl = analysis.sl
    assert sl.start > 0
    assert len(analysis.oracle.v0) == len(analysis.oracle.drall) == len(surf) - 2 * sl.start
    i = len(surf) // 2
    j = i - sl.start
    assert analysis.ell == 1
    assert analysis.oracle.valid[j]
    assert analysis.v_closed[i] == pytest.approx(-math.sqrt(2.0) * math.cosh(1.0), abs=1e-12)
    assert analysis.oracle.v0[j] == pytest.approx(analysis.v_closed[i], abs=1e-9)
    assert analysis.oracle.drall[j] == pytest.approx(-math.sinh(1.0), abs=1e-9)
    q_t = analysis.q_t[i]
    assert np.max(np.abs(lorentz_dot(q_t, q_t) - 1.0)) <= 1e-10
