"""Parser, evaluator and symbolic derivative of scalar expressions."""

import math

import numpy as np
import pytest

from expr_corpus import DERIVATIVE_CORPUS, MALFORMED_CORPUS
from minkruled.errors import EvalDomainError, ParseError
from minkruled.expressions import (
    Num,
    differentiate,
    evaluate,
    parse,
    to_string,
)


def central_fd(expr, s, h=1e-5):
    return (evaluate(expr, s + h) - evaluate(expr, s - h)) / (2.0 * h)


def test_parse_and_eval_basics():
    assert evaluate(parse("cosh(s)"), 0.0) == 1.0
    assert evaluate(parse("s^2 + 3*s"), 2.0) == 10.0
    assert evaluate(parse("tanh(s/2)"), 0.0) == 0.0
    assert evaluate(parse("sinh(1)"), 123.0) == pytest.approx(math.sinh(1.0), abs=1e-15)


def test_parse_error_positions():
    for text, position in MALFORMED_CORPUS:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, f"{text!r}: {err.value}"


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3 * 4"), 0.0) == 14.0
    assert evaluate(parse("2 * 3 ^ 2"), 0.0) == 18.0
    assert evaluate(parse("-2 ^ 2"), 0.0) == -4.0  # ^ binds tighter than unary minus
    assert evaluate(parse("2 ^ -1"), 0.0) == 0.5
    assert evaluate(parse("8 / 4 / 2"), 0.0) == 1.0
    assert evaluate(parse("2 - 3 - 4"), 0.0) == -5.0
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e


def test_whitespace_insensitive():
    assert evaluate(parse("  s ^ 2+ 3 *s "), 2.0) == evaluate(parse("s^2+3*s"), 2.0)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/s"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(s)"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(s)"), -0.5)
    with pytest.raises(EvalDomainError):
        evaluate(parse("atanh(s)"), 1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("acosh(s)"), 0.5)
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(s)"), 1e6)  # overflow surfaces as an error, not inf


def test_power_domain_rules():
    assert evaluate(parse("(0 - 2)^3"), 0.0) == -8.0
    with pytest.raises(EvalDomainError):
        evaluate(parse("(0 - 2)^0.5"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("s^-1"), 0.0)
    with pytest.raises(ParseError):
        parse("s^s")  # exponent must be constant


def test_vectorized_eval():
    expr = parse("sinh(s) * 2")
    grid = np.linspace(-1, 1, 17)
    out = evaluate(expr, grid)
    assert out.shape == grid.shape
    assert np.allclose(out, 2 * np.sinh(grid), atol=1e-15)
    constant = evaluate(parse("3"), grid)
    assert constant.shape == grid.shape and np.all(constant == 3.0)


def test_differentiate_basics():
    assert evaluate(differentiate(parse("s^2")), 3.0) == 6.0
    d_cosh = differentiate(parse("cosh(s)"))
    assert evaluate(d_cosh, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert evaluate(d_cosh, 1.0) == pytest.approx(central_fd(parse("cosh(s)"), 1.0), abs=1e-8)
    assert isinstance(differentiate(parse("5")), Num)
    assert evaluate(differentiate(parse("5")), 17.3) == 0.0


def test_derivative_corpus_against_finite_differences():
    for text, (lo, hi) in DERIVATIVE_CORPUS:
        expr = parse(text)
        deriv = differentiate(expr)
        for s in np.linspace(lo, hi, 50):
            fd = central_fd(expr, float(s))
            value = evaluate(deriv, float(s))
            assert abs(value - fd) <= 1e-6 * (1.0 + abs(fd)), (text, s, value, fd)


def test_print_reparse_round_trip():
    rng = np.random.default_rng(3)
    for text, (lo, hi) in DERIVATIVE_CORPUS:
        for expr in (parse(text), differentiate(parse(text))):
            reparsed = parse(to_string(expr))
            points = rng.uniform(lo, hi, 100)
            for s in points:
                try:
                    expected = evaluate(expr, float(s))
                except EvalDomainError:
                    continue
                assert evaluate(reparsed, float(s)) == pytest.approx(
                    expected, rel=1e-15, abs=1e-15
                )


def test_constant_folding_keeps_values():
    expr = differentiate(parse("3*s + 7"))
    assert isinstance(expr, Num) and expr.value == 3.0
    assert evaluate(differentiate(parse("s*s")), 4.0) == 8.0
