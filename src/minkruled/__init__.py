"""Timelike ruled surfaces in Minkowski 3-space.

Lorentzian vector algebra, invariants of explicitly parametrized ruled
surfaces (striction curve, distribution parameter, moving frame), synthesis
of surfaces from intrinsic curvature data, transversal surface families,
and batch verification of the governing identities.
"""

from ._version import __version__
from .errors import (
    BaseNotDevelopableError,
    ConfigError,
    CylindricalRulingError,
    DegenerateDenominatorError,
    DegenerateNormalError,
    DegenerateSpanError,
    EvalDomainError,
    ExprError,
    FrameDegenerateError,
    GeometryError,
    NonTimelikeStrictionError,
    NullDerivativeError,
    NullInputError,
    OppositeOrientationError,
    ParseError,
    TrivialRulingError,
    WorkLimitError,
)
from .expressions import Expr, differentiate, evaluate, parse, to_string
from .frame import canonical_frame
from .lorentz import (
    DEFAULT_TOLERANCES,
    AngleKind,
    AngleResult,
    CausalCharacter,
    FrameReport,
    Tolerances,
    Vec3,
    frame_check,
    lorentz_angle,
    lorentz_cross,
    lorentz_dot,
    norm_and_character,
    vec3,
)
from .ruled import (
    ExplicitSurface,
    PredicateReport,
    PredicateResult,
    SurfaceClassification,
    asymptotic_normal,
    classify,
    distribution_parameter,
    frenet_frame_at,
    recover_frame_data,
    sample_frames,
    sampled_ruled_invariants,
    striction,
    striction_predicates,
    surface_point,
    unit_normal,
)
from .synthesis import (
    IntrinsicData,
    SampledSurface,
    from_constants,
    integrate_frame,
    synthesize_surface,
    to_explicit_grid,
)
from .transversal import (
    Branch,
    ConditionReport,
    Family,
    TransversalAnalysis,
    TransversalSpec,
    analyze,
    coincidence_condition,
    corollary_checks,
    developability_condition,
    to_explicit,
)
from .verify import (
    CaseRecord,
    SuiteConfig,
    SuiteReport,
    run_all,
    run_coincidence_suite,
    run_developability_suite,
    run_striction_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
