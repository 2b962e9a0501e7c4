"""Explicit ruled surfaces: invariants, moving frame, classification, predicates."""

import math

import numpy as np
import pytest

from minkruled import expressions as ex
from minkruled import ruled as ruled_module
from minkruled.errors import (
    CylindricalRulingError,
    DegenerateNormalError,
    NullDerivativeError,
    WorkLimitError,
)
from minkruled.lorentz import (
    DEFAULT_TOLERANCES,
    CausalCharacter,
    frame_check,
    lorentz_dot,
    norm_and_character,
)
from minkruled.ruled import (
    MAX_SAMPLES,
    ExplicitSurface,
    SurfaceClassification,
    arc_length,
    asymptotic_normal,
    classify,
    distribution_parameter,
    frame_consistency,
    frenet_frame_at,
    normal_limit_agreement,
    sample_frames,
    sample_grid,
    striction,
    striction_predicates,
    surface_point,
    unit_normal,
)
from minkruled.synthesis import from_constants, synthesize_surface


@pytest.fixture(scope="module")
def helicoid():
    """Timelike ruled surface with unit timelike ruling and spacelike striction."""
    return ExplicitSurface.from_strings(("0", "0", "s"), ("cosh(s)", "sinh(s)", "0"), (0.0, 1.0))


def syn1_explicit(tau: float) -> ExplicitSurface:
    """Closed-form surface generated by k1 = 1, k2 = 0, theta = tau."""
    ct, st = math.cosh(tau), math.sinh(tau)
    return ExplicitSurface.from_strings(
        (f"{ct!r}*sinh(s)", f"{ct!r}*(cosh(s) - 1)", f"{-st!r}*s"),
        ("cosh(s)", "sinh(s)", "0"),
        (0.0, 1.0),
    )


def test_surface_point(helicoid):
    assert np.allclose(surface_point(helicoid, 0.0, 2.0), [2.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(surface_point(helicoid, 0.7, 0.0), [0.0, 0.0, 0.7], atol=1e-15)
    assert np.allclose(
        surface_point(helicoid, 1.0, 1.0),
        [math.cosh(1), math.sinh(1), 1.0],
        atol=1e-15,
    )


def test_distribution_parameter_helicoid(helicoid):
    for u in np.linspace(0.0, 1.0, 7):
        assert distribution_parameter(helicoid, float(u)) == pytest.approx(1.0, abs=1e-12)


def test_distribution_parameter_cylinder():
    cylinder = ExplicitSurface.from_strings(("0", "0", "s"), ("1", "0", "0"), (0.0, 1.0))
    with pytest.raises(CylindricalRulingError):
        distribution_parameter(cylinder, 0.5)



@pytest.mark.parametrize(
    "surface",
    [
        syn1_explicit(0.7),
        ExplicitSurface.from_strings(
            ("0.8*s", "0", "0.7*s"), ("cosh(0.75*s)", "sinh(0.75*s)", "0"), (0.0, 1.0)
        ),
    ],
)
def test_array_drall_and_striction_equal_pointwise(surface):
    u = np.linspace(0.0, 1.0, 101)
    drall = distribution_parameter(surface, u)
    v0, points = striction(surface, u)
    assert drall.shape == v0.shape == (101,) and points.shape == (101, 3)
    assert drall.tolist() == [distribution_parameter(surface, float(x)) for x in u]
    pointwise = [striction(surface, float(x)) for x in u]
    assert v0.tolist() == [p[0] for p in pointwise]
    assert points.tolist() == [p[1].tolist() for p in pointwise]


def test_array_drall_raises_at_first_degenerate_sample():
    # q' = 2s (sinh s^2, cosh s^2, 0) vanishes at s = 0 only
    pinched = ExplicitSurface.from_strings(
        ("0", "0", "s"), ("cosh(s^2)", "sinh(s^2)", "0"), (0.0, 1.0)
    )
    with pytest.raises(CylindricalRulingError, match="u = 0.0"):
        distribution_parameter(pinched, np.array([0.5, 0.0, 0.2]))
    with pytest.raises(CylindricalRulingError):
        striction(pinched, np.array([0.5, 0.0]))
    # q = (s, s, 1) is unit spacelike with the null derivative (1, 1, 0)
    null = ExplicitSurface.from_strings(("0", "0", "s"), ("s", "s", "1"), (0.0, 1.0))
    for u in (0.25, np.array([0.25, 0.5])):
        with pytest.raises(NullDerivativeError, match="u = 0.25"):
            distribution_parameter(null, u)
        with pytest.raises(NullDerivativeError):
            striction(null, u)


def test_sample_frames_names_a_degenerate_ruling_derivative():
    # the striction speed divides by <q', q'>, so the arc-length quadrature meets
    # the degeneracy first; it is named as distribution_parameter names it
    pinched = ExplicitSurface.from_strings(
        ("0", "0", "s"), ("cosh((s-0.3)^2)", "sinh((s-0.3)^2)", "0"), (0.0, 1.0)
    )
    with pytest.raises(CylindricalRulingError, match="u = 0.3"):
        sample_frames(pinched, 21)
    null = ExplicitSurface.from_strings(("0", "0", "s"), ("s", "s", "1"), (0.0, 1.0))
    with pytest.raises(NullDerivativeError, match="u = 0.0"):
        sample_frames(null, 21)


def test_arc_length_and_frenet_frame_name_a_degenerate_ruling_derivative():
    # both integrate the striction speed, which divides by <q', q'>: the quadrature
    # meets q' = 0 at u = 0.3 (and the null q' at u = 0) before any q' check would
    pinched = ExplicitSurface.from_strings(
        ("0", "0", "s"), ("cosh((s-0.3)^2)", "sinh((s-0.3)^2)", "0"), (0.0, 1.0)
    )
    for call in (lambda: frenet_frame_at(pinched, 0.3), lambda: arc_length(pinched, 0.6)):
        with pytest.raises(CylindricalRulingError, match=r"^ruling derivative vanishes at u = 0\.3$"):
            call()
    null = ExplicitSurface.from_strings(("0", "0", "s"), ("s", "s", "1"), (0.0, 1.0))
    for call in (lambda: frenet_frame_at(null, 0.5), lambda: arc_length(null, 0.5)):
        with pytest.raises(NullDerivativeError, match=r"^ruling derivative is null at u = 0\.0$"):
            call()


def test_small_spacelike_ruling_derivative_is_not_null():
    # q' = 1e-6 (sinh, cosh, 0) is spacelike at unit scale though <q', q'> = 1e-12;
    # the frame, the conoid test and the drall apply the same unit-scale rule
    surface = ExplicitSurface.from_strings(
        ("s", "0", "s/2"), ("cosh(1e-6*s)", "sinh(1e-6*s)", "0"), (0.0, 1.0)
    )
    assert len(sample_frames(surface, 21)) == 21
    assert isinstance(classify(surface, 21).conoid, bool)
    assert np.all(np.isfinite(distribution_parameter(surface, np.linspace(0.0, 1.0, 21))))


def test_unit_normal(helicoid):
    assert np.allclose(unit_normal(helicoid, 0.0, 0.0), [0.0, -1.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(5)
    d = helicoid._d
    for _ in range(100):
        u = float(rng.uniform(0.0, 1.0))
        v = float(rng.uniform(-2.0, 2.0))
        m = unit_normal(helicoid, u, v)
        fdot, qdot, rv = d.fields(u, "fdot", "qdot", "q")
        ru = fdot + v * qdot
        assert abs(lorentz_dot(m, ru)) <= 1e-10 * (1 + np.linalg.norm(ru))
        assert abs(lorentz_dot(m, rv)) <= 1e-10
        assert abs(lorentz_dot(m, m) - 1.0) <= 1e-10


def test_unit_normal_degenerate():
    # spacelike surface: both tangent directions spacelike spanning a
    # spacelike plane, so the normal radicand is negative
    spacelike = ExplicitSurface.from_strings(
        ("0", "s", "0"), ("0", "sin(s)", "cos(s)"), (-0.5, 0.5)
    )
    with pytest.raises(DegenerateNormalError):
        unit_normal(spacelike, 0.0, 0.0)


def test_asymptotic_normal(helicoid):
    a = asymptotic_normal(helicoid, 0.0)
    assert np.allclose(a, [0.0, 0.0, 1.0], atol=1e-15)
    for u in (0.0, 0.4, 1.0):
        a = asymptotic_normal(helicoid, u)
        q, qdot = helicoid._d.fields(u, "q", "qdot")
        assert abs(lorentz_dot(a, q)) <= 1e-10
        assert abs(lorentz_dot(a, qdot)) <= 1e-10


def test_normal_limit_agreement(helicoid):
    out = normal_limit_agreement(helicoid, 0.3, v_mag=1e4)
    assert min(out["+v"], out["-v"]) <= 1e-3
    assert out["matching_sign"] in (1, -1)
    # for this surface the +v limit matches the formula direction
    assert out["matching_sign"] == 1


def test_striction(helicoid):
    v0, point = striction(helicoid, 0.7)
    assert v0 == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(point, [0.0, 0.0, 0.7], atol=1e-15)


def test_striction_shifted_base():
    surf = ExplicitSurface.from_strings(("s", "0", "0"), ("cosh(s)", "sinh(s)", "0"), (0.0, 1.0))
    u = 0.6
    v0, point = striction(surf, u)
    assert v0 == pytest.approx(math.sinh(u), abs=1e-12)
    assert np.allclose(
        point,
        [u + math.sinh(u) * math.cosh(u), math.sinh(u) ** 2, 0.0],
        atol=1e-12,
    )


def test_striction_invariant_under_base_shift_along_ruling():
    base = ExplicitSurface.from_strings(("s", "0", "0"), ("cosh(s)", "sinh(s)", "0"), (0.0, 1.0))
    shifted = ExplicitSurface.from_strings(
        ("s + 3*cosh(s)", "3*sinh(s)", "0"), ("cosh(s)", "sinh(s)", "0"), (0.0, 1.0)
    )
    for u in (0.1, 0.5, 0.9):
        _, p1 = striction(base, u)
        _, p2 = striction(shifted, u)
        assert np.allclose(p1, p2, atol=1e-9)


def test_frenet_frame_helicoid(helicoid):
    f = frenet_frame_at(helicoid, 0.5)
    assert math.isnan(f.theta)  # striction tangent (0, 0, 1) is spacelike
    assert f.epsilon == -1
    assert f.k1 == pytest.approx(1.0, abs=1e-12)
    assert f.k2 == pytest.approx(0.0, abs=1e-12)
    assert frame_check(f.q, f.h, f.a, f.epsilon).canonical


def test_frenet_frame_recovers_synthesis_data():
    surface = syn1_explicit(1.0)
    f = frenet_frame_at(surface, 0.0)
    assert np.allclose(f.q, [1.0, 0.0, 0.0], atol=1e-6)
    assert np.allclose(f.h, [0.0, 1.0, 0.0], atol=1e-6)
    assert np.allclose(f.a, [0.0, 0.0, -1.0], atol=1e-6)
    assert f.k1 == pytest.approx(1.0, abs=1e-6)
    assert f.k2 == pytest.approx(0.0, abs=1e-6)
    assert f.theta == pytest.approx(1.0, abs=1e-6)
    # same data recovered away from the start
    g = frenet_frame_at(surface, 0.5)
    assert g.k1 == pytest.approx(1.0, abs=1e-6)
    assert g.theta == pytest.approx(1.0, abs=1e-6)
    assert g.s == pytest.approx(0.5, abs=1e-9)  # unit-speed striction curve


def test_frame_consistency_cross_extraction():
    surface = syn1_explicit(0.7)
    for u in (0.1, 0.5, 0.9):
        res = frame_consistency(surface, u)
        assert res["k1"] <= 1e-6
        assert res["k2"] <= 1e-6


def test_classify_helicoid(helicoid):
    cls = classify(helicoid, samples=101)
    assert cls.ruling_character is CausalCharacter.TIMELIKE
    assert cls.developable is False
    assert cls.cylindrical is False
    assert cls.conoid is True  # k1 = 1, k2 = 0
    assert cls.max_abs_drall == pytest.approx(1.0, abs=1e-9)


def test_classify_cylinder():
    cylinder = ExplicitSurface.from_strings(("0", "0", "s"), ("1", "0", "0"), (0.0, 1.0))
    cls = classify(cylinder, samples=33)
    assert cls.cylindrical is True
    assert cls.developable is True


def test_classify_tangent_type_developable():
    cls = classify(syn1_explicit(0.0), samples=101)
    assert cls.developable is True
    assert cls.conoid is True


def _classification(character, developable, conoid, cylindrical, max_abs_drall):
    return SurfaceClassification(
        CausalCharacter[character], developable, conoid, cylindrical, max_abs_drall
    )


# (f, q, u_range, classification): the helicoid demo, the benchmark's T1 and H3
# bases, a conoid with constant k1 = 0.516 and k2 = 0, a cylinder, and a
# twisted ruling with k2 != 0; classifications as the full frame path gave them
CLASSIFY_SURFACES = {
    "helicoid": (
        ("0", "0", "s"),
        ("cosh(s)", "sinh(s)", "0"),
        (0.0, 1.0),
        _classification("TIMELIKE", False, True, False, 1.0000000000000004),
    ),
    "T1": (
        ("0.8*s", "0", "0.7*s"),
        ("cosh(0.75*s)", "sinh(0.75*s)", "0"),
        (0.0, 1.0),
        _classification("TIMELIKE", False, True, False, 0.9333333333333336),
    ),
    "H3": (
        ("0", "0", "1.3*s"),
        ("cosh(0.7*s+0.2*s^2)", "sinh(0.7*s+0.2*s^2)", "0"),
        (0.0, 1.05),
        _classification("TIMELIKE", False, True, False, 1.8571428571428572),
    ),
    "conoid": (
        ("2*sinh(s)", "2*(cosh(s) - 1)", "0.5*s"),
        ("cosh(s)", "sinh(s)", "0"),
        (0.0, 1.0),
        _classification("TIMELIKE", False, True, False, 0.5000000000000002),
    ),
    "cylinder": (
        ("0", "0", "s"),
        ("1", "0", "0"),
        (0.0, 1.0),
        _classification("TIMELIKE", True, None, True, None),
    ),
    "twisted": (
        ("s", "0", "0.3*s"),
        ("cosh(s)", "sinh(s)*cos(s)", "sinh(s)*sin(s)"),
        (0.2, 1.0),
        _classification("TIMELIKE", False, False, False, 0.45584177460901665),
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_SURFACES))
def test_classify_reads_only_what_the_conoid_test_needs(monkeypatch, name):
    f, q, u_range, expected = CLASSIFY_SURFACES[name]
    surface = ExplicitSurface.from_strings(f, q, u_range)
    d = surface._d
    unread = {id(e) for e in (*d.tdot, *d.hdot_raw)}
    seen, curvatures = [], []
    original_compile, original_evaluate = ex.compile, ex.evaluate
    original_curvatures = ruled_module._curvatures

    def compile(roots, *args):
        seen.extend(roots)
        return original_compile(roots, *args)

    def evaluate(e, s):
        seen.append(e)
        return original_evaluate(e, s)

    monkeypatch.setattr(ex, "compile", compile)
    monkeypatch.setattr(ex, "evaluate", evaluate)
    monkeypatch.setattr(
        ruled_module, "_curvatures", lambda *a: curvatures.append(original_curvatures(*a)) or curvatures[-1]
    )
    cls = classify(surface, samples=101)
    monkeypatch.undo()
    assert seen and not [e for e in seen if id(e) in unread]
    assert cls == expected
    if expected.conoid is not None:
        # the curvatures the conoid test reads have the bits of the full frames
        u = np.linspace(u_range[0], u_range[1], 101)
        track = ruled_module._frames_at(surface, u, np.zeros_like(u), DEFAULT_TOLERANCES)
        k1, k2 = curvatures[0][-2:]
        assert k1.tolist() == track.k1.tolist() and k2.tolist() == track.k2.tolist()


# rulings of other characters, normalized: a unit timelike ruling near cosh 12 is null at
# unit Euclidean scale, and one that starts at cosh 11 becomes null on the range
CHARACTER_SURFACES = {
    "spacelike": (("0", "0", "s"), ("sinh(s)", "cosh(s)", "0"), (0.0, 1.0)),
    "null": (("s", "0", "0"), ("cosh(s+12)", "sinh(s+12)", "0"), (0.0, 1.0)),
    "changing": (("s", "0", "0"), ("cosh(s+11)", "sinh(s+11)", "0"), (0.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_SURFACES) + sorted(CHARACTER_SURFACES))
def test_classify_ruling_character_is_norm_and_character_of_every_sample(name):
    f, q, u_range = {**CLASSIFY_SURFACES, **CHARACTER_SURFACES}[name][:3]
    surface = ExplicitSurface.from_strings(f, q, u_range, normalize_q=name in CHARACTER_SURFACES)
    rows = next(surface._d.fields(sample_grid(surface, 101), "q"))
    expected = {norm_and_character(row)[1] for row in rows}
    assert (len(expected) == 2) == (name == "changing")
    if name == "changing":
        with pytest.raises(ValueError, match="changes causal character"):
            classify(surface, samples=101)
    else:
        assert {classify(surface, samples=101).ruling_character} == expected
    assert name != "null" or expected == {CausalCharacter.NULL}


def test_normalize_q_flag():
    scaled = ExplicitSurface.from_strings(
        ("0", "0", "s"), ("2*cosh(s)", "2*sinh(s)", "0"), (0.0, 1.0), normalize_q=True
    )
    assert distribution_parameter(scaled, 0.3) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        ExplicitSurface.from_strings(
            ("0", "0", "s"), ("2*cosh(s)", "2*sinh(s)", "0"), (0.0, 1.0)
        )._d  # unnormalized non-unit ruling is rejected


def test_reparametrization_invariance():
    base = ExplicitSurface.from_strings(("s", "0", "0"), ("cosh(s)", "sinh(s)", "0"), (0.0, 1.0))
    half = ExplicitSurface.from_strings(
        ("2*s", "0", "0"), ("cosh(2*s)", "sinh(2*s)", "0"), (0.0, 0.5)
    )
    for u in (0.1, 0.3, 0.45):
        assert distribution_parameter(half, u) == pytest.approx(
            distribution_parameter(base, 2 * u), abs=1e-8
        )
        _, p1 = striction(half, u)
        _, p2 = striction(base, 2 * u)
        assert np.allclose(p1, p2, atol=1e-8)


def test_predicates_geodesic_constant_theta():
    surf = synthesize_surface(from_constants(1.0, 0.5, 0.8, (0.0, 1.0), 1e-3))
    report = striction_predicates(surf.frames(), 1e-6)
    geo = report.geodesic
    assert geo.geometric_pass and geo.curvature_pass and geo.agree


def test_predicates_asymptotic():
    theta = math.atanh(0.5)  # tanh(theta) = k1/k2 = 1/2
    surf = synthesize_surface(from_constants(1.0, 2.0, theta, (0.0, 1.0), 1e-3))
    report = striction_predicates(surf.frames(), 1e-6)
    asym = report.asymptotic
    assert asym.satisfiable and asym.geometric_pass and asym.curvature_pass and asym.agree
    # spec of the geometric side: <h, c''> = k1 cosh(theta) - k2 sinh(theta) = 0
    assert asym.geometric_residual <= 1e-8


def test_predicates_line_of_curvature():
    theta = math.atanh(0.5)  # tanh(theta) = k2/k1 = 1/2
    surf = synthesize_surface(from_constants(2.0, 1.0, theta, (0.0, 1.0), 1e-3))
    report = striction_predicates(surf.frames(), 1e-6)
    locus = report.line_of_curvature
    assert locus.satisfiable and locus.geometric_pass and locus.curvature_pass and locus.agree


def test_predicates_unsatisfiable_recorded():
    surf = synthesize_surface(from_constants(1.0, 0.5, 0.3, (0.0, 1.0), 1e-3))
    report = striction_predicates(surf.frames(), 1e-6)
    assert not report.asymptotic.satisfiable  # |k1/k2| = 2 outside tanh range
    assert report.asymptotic.agree is None


def test_predicates_symbolic_path():
    frames = sample_frames(syn1_explicit(1.0), 201)
    assert all(f.c2 is not None and f.hprime is not None for f in frames)
    report = striction_predicates(frames, 1e-6)
    assert report.geodesic.geometric_pass and report.geodesic.curvature_pass
    # theta = 1 with k2 = 0: asymptotic condition unsatisfiable, recorded so
    assert not report.asymptotic.satisfiable


def test_sample_frames_uniform_arclength():
    frames = sample_frames(syn1_explicit(0.7), 51)
    s = np.array([f.s for f in frames])
    assert np.allclose(np.diff(s), s[-1] / 50, atol=1e-9)


def test_sample_count_is_capped(helicoid):
    u = sample_grid(helicoid, 5)
    assert u.tolist() == np.linspace(0.0, 1.0, 5).tolist()
    for call in (sample_grid, classify, sample_frames):
        with pytest.raises(WorkLimitError, match="MAX_SAMPLES"):
            call(helicoid, MAX_SAMPLES + 1)
