"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for geometric and numerical failures."""


class NullInputError(GeometryError):
    """An angle operation received a null (or zero) vector."""


class OppositeOrientationError(GeometryError):
    """Two timelike vectors point into opposite time cones."""


class DegenerateSpanError(GeometryError):
    """Two spacelike vectors span a degenerate (null or collapsed) plane."""


class CylindricalRulingError(GeometryError):
    """The ruling direction is locally constant; striction data is undefined."""


class NullDerivativeError(GeometryError):
    """The ruling derivative is null; Lorentzian normalization fails."""


class DegenerateNormalError(GeometryError):
    """The normal radicand vanishes (singular or non-timelike surface point)."""


class NonTimelikeStrictionError(GeometryError):
    """The striction curve tangent is not timelike where required."""


class FrameDegenerateError(GeometryError):
    """Frame re-orthonormalization hit a null intermediate vector."""


class TrivialRulingError(GeometryError):
    """A transversal ruling collapses onto a frame vector."""


class DegenerateDenominatorError(GeometryError):
    """A closed-form denominator vanishes at the evaluation point."""


class BaseNotDevelopableError(GeometryError):
    """A corollary check requires a developable base surface."""


class ExprError(Exception):
    """Base class for expression parsing/evaluation failures."""


class ParseError(ExprError):
    """Malformed expression text.

    Carries the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of a negative value, 1/0, ...)."""


class WorkLimitError(ValueError):
    """An input asks for more steps, samples or mesh vertices than a documented
    cap allows; the CLI maps it to exit code 2, as a config error."""


class ConfigError(Exception):
    """Invalid run configuration; maps to CLI exit code 2."""
