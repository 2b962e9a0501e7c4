"""Verification suites: completeness, determinism, pass/skip semantics."""

import json
import math

import pytest

from minkruled import expressions as ex
from minkruled import synthesis, verify
from minkruled.lorentz import Tolerances
from minkruled.ruled import ExplicitSurface
from minkruled.synthesis import IntrinsicData
from minkruled.transversal import Family
from minkruled.verify import (
    SuiteConfig,
    run_all,
    run_coincidence_suite,
    run_developability_suite,
    run_striction_suite,
)

SMALL = SuiteConfig(
    k1_values=(1.0,),
    k2_values=(0.0, 2.0),
    theta_values=(0.0, math.atanh(0.5)),
    step=2e-3,
)


def test_striction_suite_small():
    report = run_striction_suite(SMALL)
    # one record per grid triple and predicate
    assert len(report.cases) == 4 * 3
    assert report.summary["fail"] == 0
    assert report.summary["error"] == 0
    by_key = {
        (c.check, c.params["k1"], c.params["k2"], c.params["theta"]): c
        for c in report.cases
    }
    # tanh(theta) = k1/k2 = 1/2: asymptotic passes both directions
    case = by_key[("asymptotic", 1.0, 2.0, math.atanh(0.5))]
    assert case.verdict == "pass"
    assert case.residuals["forward_geometric"] <= 1e-6
    assert case.residuals["backward_geometric"] >= 1e-5
    # k2 = 0 makes the asymptotic condition unsatisfiable: recorded as skip
    case = by_key[("asymptotic", 1.0, 0.0, 0.0)]
    assert case.verdict == "skip"
    # constant theta: geodesic passes everywhere
    for (name, *_), case in by_key.items():
        if name == "geodesic":
            assert case.verdict == "pass"


def test_striction_suite_unsatisfiable_ratio():
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.3,), step=2e-3)
    report = run_striction_suite(cfg)
    asym = [c for c in report.cases if c.check == "asymptotic"][0]
    assert asym.verdict == "skip"  # k1/k2 = 2 outside the tanh range


def test_striction_base_surface_error_gives_one_error_per_predicate():
    # a step of 0.4 leaves 3 frames, too few for the grid surface's predicates
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.5,), step=0.4)
    report = run_striction_suite(cfg)
    assert [c.check for c in report.cases] == ["asymptotic", "geodesic", "line_of_curvature"]
    for case in report.cases:
        assert case.verdict == "error"
        assert case.family is None
        assert case.params == {"k1": 1.0, "k2": 0.5, "theta": 0.5}
        assert case.residuals == {}
        assert case.note == "need at least 7 frames"


def test_striction_stencil_tangent_not_timelike_is_an_error_not_a_pass():
    # at theta = 30 the stencil's <c', c'>, -1 in exact arithmetic, changes sign
    # along the curve; dividing by it read an inf residual as a line-of-curvature pass
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(30.0,))
    report = run_striction_suite(cfg)
    assert [c.verdict for c in report.cases] == ["error"] * 3
    assert {c.note for c in report.cases} == {"stencil striction tangent is not timelike on the interior"}


def test_coincidence_suite_small():
    report = run_coincidence_suite(SMALL)
    assert len(report.cases) == len(SMALL.families) * 4
    assert report.summary["fail"] == 0
    assert report.summary["error"] == 0
    # alpha with k2 = 2, theta = atanh(1/2): tuned instance exists and passes
    case = next(
        c
        for c in report.cases
        if c.family == "alpha"
        and c.params["k2"] == 2.0
        and c.params["theta"] == math.atanh(0.5)
    )
    assert case.verdict == "pass"
    assert case.residuals["forward_max_v_closed"] <= 1e-7
    assert case.residuals["forward_max_v_oracle"] <= 1e-7
    assert case.residuals["backward_min_v_closed"] >= 1e-6


def test_developability_suite_small():
    report = run_developability_suite(SMALL)
    assert len(report.cases) == len(SMALL.families) * 4
    assert report.summary["fail"] == 0
    assert report.summary["error"] == 0
    assert any("stated" in w for w in report.warnings)


def test_full_default_suite_zero_failures():
    combined = run_all(SuiteConfig())
    assert combined["summary"]["fail"] == 0
    assert combined["summary"]["error"] == 0
    assert combined["summary"]["pass"] > 0
    assert len(combined["warnings"]) >= 1


def test_determinism_byte_identical():
    a = json.dumps(run_all(SMALL), sort_keys=False)
    b = json.dumps(run_all(SMALL), sort_keys=False)
    assert a == b


def test_no_silent_nan_in_reports():
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert math.isfinite(node)

    walk(run_all(SMALL))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(k1_values=())
    with pytest.raises(ValueError):
        SuiteConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(step=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(s_range=(1.0, 0.0))
    assert SuiteConfig().coincidence_tolerance == pytest.approx(1e-7)
    assert Family.ALPHA in SuiteConfig().families


@pytest.mark.parametrize("families", [(), (Family.ALPHA, Family.ALPHA), ("alpha",)], ids=["empty", "repeated", "string"])
def test_suite_config_rejects_bad_families(families):
    with pytest.raises(ValueError, match="families"):
        SuiteConfig(families=families)


ONE = ex.const(1.0)
# every step, range end, grid value and tolerance field of the four input
# types, each built with one value replaced
OWNER_FIELDS = {
    "IntrinsicData.step": lambda x: IntrinsicData(ONE, ONE, ONE, step=x),
    "IntrinsicData.s_range.lo": lambda x: IntrinsicData(ONE, ONE, ONE, s_range=(x, 1.0)),
    "IntrinsicData.s_range.hi": lambda x: IntrinsicData(ONE, ONE, ONE, s_range=(0.0, x)),
    "SuiteConfig.step": lambda x: SuiteConfig(step=x),
    "SuiteConfig.s_range.lo": lambda x: SuiteConfig(s_range=(x, 1.0)),
    "SuiteConfig.s_range.hi": lambda x: SuiteConfig(s_range=(0.0, x)),
    "SuiteConfig.tolerance": lambda x: SuiteConfig(tolerance=x),
    **{
        f"SuiteConfig.{grid}": lambda x, grid=grid: SuiteConfig(**{grid: (0.5, x)})
        for grid in ("k1_values", "k2_values", "theta_values", "angle_values")
    },
    **{
        f"Tolerances.{name}": lambda x, name=name: Tolerances(**{name: x})
        for name in ("causal_eps", "frame_eps", "general_eps")
    },
    "ExplicitSurface.u_range.lo": lambda x: ExplicitSurface((ONE,) * 3, (ONE,) * 3, (x, 1.0)),
    "ExplicitSurface.u_range.hi": lambda x: ExplicitSurface((ONE,) * 3, (ONE,) * 3, (0.0, x)),
}
OUT_OF_RANGE = [
    pytest.param(build, value, id=f"{name}={value}")
    for name, build in OWNER_FIELDS.items()
    for value in (math.inf, -math.inf, math.nan)
] + [pytest.param(OWNER_FIELDS["SuiteConfig.tolerance"], -1.0, id="SuiteConfig.tolerance=-1.0")]


@pytest.mark.parametrize("build, value", OUT_OF_RANGE)
def test_owner_types_reject_out_of_range_values(build, value):
    # an infinite suite tolerance failed every backward case and wrote
    # Infinity, which strict JSON cannot hold, into the report's config
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_zero_k1_skips_developable_tuning():
    report = run_all(SuiteConfig(k1_values=(0.0,), k2_values=(0.5,), theta_values=(0.0,)))
    developability = next(r for r in report["suites"] if r["suite"] == "developability")
    notes = {case["family"]: case["note"] for case in developability["cases"]}
    for family in ("alpha", "beta"):
        assert "forward skipped: k1 = 0 leaves no tuning angle" in notes[family]
    # at theta = 0 the base drall -sinh(theta)/k1 is undefined: no corollary to test
    assert [case["verdict"] for case in developability["cases"]] == ["skip"] * 3
    for note in notes.values():
        assert "corollary_backward skipped: base drall undefined where k1 = 0" in note


def test_zero_k1_zero_theta_beta_coincidence_is_skipped_not_failed():
    # at theta = 0, k1 = 0 the beta condition tanh(theta) (angle' + k2) = k1
    # holds for every angle: no violated instance exists to test backward
    report = run_all(SuiteConfig(k1_values=(0.0,), k2_values=(0.5,), theta_values=(0.0,)))
    coincidence = next(r for r in report["suites"] if r["suite"] == "coincidence")
    assert coincidence["summary"]["fail"] == 0
    beta = next(case for case in coincidence["cases"] if case["family"] == "beta")
    assert beta["verdict"] == "skip"
    assert "backward skipped: coincidence holds for every angle" in beta["note"]
    assert "k1 != 0" not in beta["note"]
    assert all(value is not None for value in beta["residuals"].values())

def test_run_all_merges_blocks_into_suite_order():
    # run_all runs one (k1, k2) block at a time; its merged report must equal
    # the three suites run directly over the whole grid
    cfg = SuiteConfig(
        k1_values=(1.0, 2.0),
        k2_values=(0.0, 0.5),
        theta_values=(0.0, 0.5),
        step=2e-3,
    )
    reports = [
        run_striction_suite(cfg),
        run_coincidence_suite(cfg),
        run_developability_suite(cfg),
    ]
    direct = {
        "suites": [r.to_dict() for r in reports],
        "warnings": [w for r in reports for w in r.warnings],
        "summary": {
            key: sum(r.summary[key] for r in reports)
            for key in ("pass", "fail", "skip", "error")
        },
    }
    assert json.dumps(run_all(cfg)) == json.dumps(direct)


def test_run_all_synthesizes_each_surface_once(monkeypatch):
    keys = []
    original = verify.synthesize_surface

    def counted(data, *args, **kwargs):
        keys.append((data.k1, data.k2, data.theta, tuple(data.s_range), data.step))
        return original(data, *args, **kwargs)

    monkeypatch.setattr(verify, "synthesize_surface", counted)
    run_all(SMALL)
    first = len(keys)
    assert first > 0
    assert len(set(keys)) == first
    # no surface outlives the call: a second run builds them all again
    run_all(SMALL)
    assert len(keys) == 2 * first


@pytest.mark.parametrize(
    "suite", [run_striction_suite, run_coincidence_suite, run_developability_suite]
)
def test_standalone_suite_synthesizes_each_surface_once(monkeypatch, suite):
    # a suite called without a dict keeps its own, so a surface that its
    # tuned, violated and specialization instances share is built once
    keys = []
    original = verify.synthesize_surface

    def counted(data, *args, **kwargs):
        keys.append((data.k1, data.k2, data.theta, tuple(data.s_range), data.step))
        return original(data, *args, **kwargs)

    monkeypatch.setattr(verify, "synthesize_surface", counted)
    suite(SMALL)
    assert keys
    assert len(set(keys)) == len(keys)


def test_default_suite_integrates_each_frame_once(monkeypatch):
    # theta is not a frame input: the 144 distinct surfaces of the default
    # suite share 50 frame integrations, and each IntrinsicData is built only
    # for a surface not yet in the block's dict
    calls = {"rk4": 0, "data": 0, "surfaces": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(synthesis, "_rk4_core", counted("rk4", synthesis._rk4_core))
    monkeypatch.setattr(verify, "from_constants", counted("data", verify.from_constants))
    monkeypatch.setattr(verify, "synthesize_surface", counted("surfaces", verify.synthesize_surface))
    run_all(SuiteConfig())
    assert calls == {"rk4": 50, "data": 144, "surfaces": 144}
