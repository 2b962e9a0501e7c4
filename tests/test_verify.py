"""Verification suites: completeness, determinism, pass/skip semantics."""

import json
import math
import tracemalloc

import pytest

from minkruled import expressions as ex
from minkruled import synthesis, transversal, verify
from minkruled.cli import export_report
from minkruled.lorentz import Tolerances
from minkruled.ruled import ExplicitSurface
from minkruled.synthesis import IntrinsicData
from minkruled.transversal import Branch, Family, TransversalSpec, analyze, developability_condition
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


def test_too_few_frames_for_the_oracle_stencil_name_that_cause():
    # the same 3-frame surface: RK4 at dt = 0.5 leaves the unprojected rows' norms
    # off by more than the ruling's 1e-8 check, which ran first and named the wrong cause
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.5,), step=0.4)
    analysed = [
        c
        for report in (run_coincidence_suite(cfg), run_developability_suite(cfg))
        for c in report.cases
        if c.check in ("coincidence.gamma", "developability.alpha", "developability.beta", "developability.gamma")
    ]
    assert len(analysed) == 4
    for case in analysed:
        assert case.verdict == "error"
        assert case.note == "need at least 5 samples for the 4th-order stencil"


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


# Records on a wider grid whose verdicts rest on how closely the synthesized
# frames stay Lorentz-orthonormal where they grow (s up to 3).  A product of
# RK4 step maps with no re-projection turns the four line-of-curvature
# records to fail (forward_geometric 1.1e-6 against the 1e-6 tolerance); the
# three coincidence records errored there while the transversal ruling's
# norm check was an absolute 1e-8 rather than relative to mu^2 + eta^2.  The
# Gauss-Legendre kernel keeps the frame's Gram matrix up to rounding and
# passes them (forward_geometric 6.8e-7), as RK4 with a re-projection did.
EXTENDED_GRID = SuiteConfig(k2_values=(0, 0.5, 1, 2), theta_values=(0, 0.5, 1, 2), s_range=(0, 3))
FRAME_SENSITIVE = [
    ("striction", "line_of_curvature", dict(k1=2.0, k2=1, theta=t)) for t in (0, 0.5, 1, 2)
] + [
    ("coincidence", "coincidence.alpha", dict(k1=0.5, k2=2, theta=2)),
    ("coincidence", "coincidence.gamma", dict(k1=2.0, k2=0, theta=2)),
    ("coincidence", "coincidence.gamma", dict(k1=2.0, k2=0.5, theta=2)),
]


def test_extended_grid_keeps_the_frame_sensitive_verdicts():
    combined = run_all(EXTENDED_GRID)
    cases = [case for suite in combined["suites"] for case in suite["cases"]]
    for suite, check, params in FRAME_SENSITIVE:
        (case,) = [c for c in cases if (c["suite"], c["check"], c["params"]) == (suite, check, params)]
        assert case["verdict"] == "pass", (check, params, case["residuals"], case["note"])


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
        for grid in ("k1_values", "k2_values", "theta_values")
    },
    "SuiteConfig.angle": lambda x: SuiteConfig(angle=x),
    **{
        f"Tolerances.{name}": lambda x, name=name: Tolerances(**{name: x})
        for name in ("causal_eps", "general_eps")
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


def _counting(calls: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_default_suite_integrates_each_frame_once(monkeypatch):
    # theta is not a frame input: the 144 distinct surfaces of the default
    # suite share 50 frame integrations, and each IntrinsicData is built only
    # for a surface not yet in the block's dict
    calls = {"rk4": 0, "data": 0, "surfaces": 0}
    for module, name, key in (
        (synthesis, "_propagate", "rk4"),
        (verify, "from_constants", "data"),
        (verify, "synthesize_surface", "surfaces"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, key, getattr(module, name)))
    run_all(SuiteConfig())
    assert calls == {"rk4": 50, "data": 144, "surfaces": 144}


def test_default_suite_computes_each_report_once(monkeypatch):
    # the theta rows of a (k1, k2) block share the tuned and violated
    # instances whose theta does not depend on the row's: 65 distinct
    # predicate reports (96 requests) and 66 developability reports (126);
    # the 144 coincidence analyses are not kept
    names = ("striction_predicates", "developability_condition", "analyze")
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(verify, name, _counting(calls, name, getattr(verify, name)))
    run_all(SuiteConfig())
    assert calls == {"striction_predicates": 65, "developability_condition": 66, "analyze": 210}


def test_default_suite_computes_only_what_its_records_read(monkeypatch):
    # the records read v_closed and the oracle's v0, or d_closed and its drall:
    # never a relative gap or the base-drall form (738 and 246 calls when every
    # analysis field was eager), and the 594 constant roots of the 780
    # evaluate calls compile no program
    calls = {"_relative_gap": 0, "_via_base_values": 0, "compile": 0}
    for module, name in ((transversal, "_relative_gap"), (transversal, "_via_base_values"), (ex, "compile")):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    run_all(SuiteConfig())
    assert calls == {"_relative_gap": 0, "_via_base_values": 0, "compile": 186}


def test_default_suite_checks_no_default_frame(monkeypatch):
    # every suite surface starts from the default frame with epsilon = -1,
    # which is canonical, so none of the 154 IntrinsicData a suite builds
    # needs a frame_check
    calls = {"frame_check": 0}
    monkeypatch.setattr(synthesis, "frame_check", _counting(calls, "frame_check", synthesis.frame_check))
    run_all(SuiteConfig())
    assert calls == {"frame_check": 0}
    # a frame passed in, or the default one under epsilon = +1, is checked
    zero = ex.const(0.0)
    IntrinsicData(zero, zero, zero, initial_frame=synthesis.canonical_frame())
    with pytest.raises(ValueError, match="initial frame"):
        IntrinsicData(zero, zero, zero, epsilon=1)
    assert calls == {"frame_check": 2}


# The default suite; a (1, 2, 3) verify-grid shape of bench/workloads.py;
# a repeated k2 (as the coarse_verify golden has) with thetas 0.1 apart, so
# that the gamma row at 0.4 analyses its violated instance on the surface
# the row at 0.5 tunes, under another angle; and a suite so coarse that
# every case errors, each with its own record.
SHARING_GRIDS = [
    SuiteConfig(),
    SuiteConfig(k1_values=(2.0,), k2_values=(0.0, 1.0), theta_values=(0.0, 0.5, 1.0)),
    SuiteConfig(k1_values=(1.0,), k2_values=(0.5, 0.5), theta_values=(0.0, 0.4, 0.5)),
    SuiteConfig(k1_values=(1.0,), k2_values=(0.5, 0.5), theta_values=(0.5,), step=0.4),
]


@pytest.mark.parametrize("cfg", SHARING_GRIDS, ids=["default", "sub-grid", "repeated-k2", "coarse"])
def test_shared_reports_write_the_bytes_of_unshared_ones(monkeypatch, tmp_path, cfg):
    export_report(run_all(cfg), tmp_path / "shared.json")
    monkeypatch.setattr(verify, "_once", lambda surfaces, key, make: make())
    export_report(run_all(cfg), tmp_path / "unshared.json")
    assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "unshared.json").read_bytes()


def test_developability_reports_are_kept_per_branch_and_angle():
    # one block dict, one surface: specs that differ only in branch or only
    # in angle each get their own report
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.5,))
    surfaces: dict = {}
    specs = [
        TransversalSpec(Family.GAMMA, ex.const(0.7), Branch.TIMELIKE),
        TransversalSpec(Family.GAMMA, ex.const(0.7), Branch.SPACELIKE),
        TransversalSpec(Family.GAMMA, ex.const(0.8), Branch.TIMELIKE),
    ]
    surf = verify._surface(cfg, {}, 1.0, 0.5, 0.5)
    for spec in specs:
        kept = verify._developability(cfg, surfaces, 1.0, 0.5, 0.5, spec)
        assert kept.residuals == developability_condition(analyze(surf, spec), cfg.tolerance).residuals


def test_default_suite_traced_peak_stays_under_3_mb():
    # a block keeps its surfaces and small reports, never a TransversalAnalysis:
    # 2.48 MB traced at the peak, where keeping the analyses reads over 5 MB
    run_all(SuiteConfig())  # lazy imports and tables are not counted
    tracemalloc.start()
    try:
        run_all(SuiteConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_large_constant_angles_pass_the_ruling_norm_check():
    # |<q_T, q_T> + 1| grows with the frame's rounding times cosh^2(angle):
    # 3.2e-8 at angle 8 on this suite's surface, past an absolute 1e-8 but
    # inside 1e-8 (mu^2 + eta^2)
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.0,), angle=8.0)
    combined = run_all(cfg)
    notes = [case["note"] for suite in combined["suites"] for case in suite["cases"]]
    assert not any("ruling norm does not match" in note for note in notes)
    assert combined["summary"]["error"] == 0


def test_overflowing_constant_angle_names_the_overflow():
    # at theta = 0 the alpha corollary rules with the constant angle 355,
    # whose cosh^2 is near 1e308, so <q_T, q_T> is not finite
    cfg = SuiteConfig(k1_values=(1.0,), k2_values=(0.5,), theta_values=(0.0,), angle=355.0)
    suites = run_all(cfg)["suites"]
    assert all(suite["config"]["angle"] == 355.0 for suite in suites)
    cases = [case for suite in suites for case in suite["cases"]]
    [alpha] = [case for case in cases if case["check"] == "developability.alpha"]
    assert alpha["verdict"] == "error"
    assert alpha["note"].endswith(
        "ruling norm does not match its causal branch label: norm is not finite (angle too large for cosh)"
    )
