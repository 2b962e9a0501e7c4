"""Parser, evaluator and symbolic derivative of scalar expressions."""

import math

import numpy as np
import pytest

import expr_reference as reference
from expr_corpus import DERIVATIVE_CORPUS, MALFORMED_CORPUS
from minkruled.errors import EvalDomainError, ParseError
from minkruled.expressions import (
    FUNCTIONS,
    MAX_NESTING,
    VAR,
    BinOp,
    Expr,
    Neg,
    Num,
    add,
    call,
    compile,
    differentiate,
    evaluate,
    parse,
    run,
    structure,
    to_string,
)
from minkruled.ruled import _FRAME_FIELDS, ExplicitSurface


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


def distinct_nodes(*roots) -> int:
    """Number of distinct node objects under ``roots``, counted without recursion."""
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack += [getattr(e, k) for k in ("arg", "left", "right") if isinstance(getattr(e, k, None), Expr)]
    return len(seen)


def assert_same_bits(a, b):
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_walker_matches_the_recursive_reference_on_the_corpus():
    memo = {}  # one memo across the corpus, as a surface shares one across its fields
    for text, (lo, hi) in DERIVATIVE_CORPUS:
        expr = parse(text)
        grid = np.linspace(lo, hi, 41)
        deriv = differentiate(expr, memo)
        expected = reference.differentiate(expr)
        assert to_string(deriv) == reference.to_string(expected) == to_string(differentiate(expr))
        assert to_string(expr) == reference.to_string(expr)
        for e, ref in ((expr, expr), (deriv, expected)):
            assert_same_bits(evaluate(e, grid), reference.evaluate(ref, grid))
            assert evaluate(e, lo) == reference.evaluate(ref, lo)


# (f, q) of the benchmark's T1 (timelike striction) and H3 (helicoid-like) families
SURFACES = {
    "T1": (("0.8*s", "0", "0.7*s"), ("cosh(0.75*s)", "sinh(0.75*s)", "0")),
    "H3": (("0", "0", "1.3*s"), ("cosh(0.75*s+0.2*s^2)", "sinh(0.75*s+0.2*s^2)", "0")),
}
# each derivative field of the surface and the field it derives
DERIVED = {"fdot": "f", "qdot": "q", "cdot": "c", "adot_raw": "a_raw", "hdot_raw": "h_raw", "tdot": "t"}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_fields_match_the_recursive_reference(name):
    d = ExplicitSurface.from_strings(*SURFACES[name], (0.0, 1.0))._d
    u = np.linspace(0.0, 1.0, 17)
    for field in ("f", "q", "qdqd", "v0", "c", "speed", "a_raw", "h_raw", "t", *DERIVED):
        value = getattr(d, field)
        for e in value if isinstance(value, tuple) else (value,):
            assert_same_bits(evaluate(e, u), reference.evaluate(e, u))
    for field, base in DERIVED.items():
        for e, of in zip(getattr(d, field), getattr(d, base)):
            expected = reference.differentiate(of)
            assert to_string(e) == reference.to_string(expected)
            assert_same_bits(evaluate(e, u), reference.evaluate(expected, u))
    # the surface's one memo keeps each shared subtree's derivative shared:
    # T1's tdot has 2,725 distinct nodes when each component is derived alone
    assert distinct_nodes(*d.tdot) < 300


# expressions with two domain faults on [0, 1], each a binary node at the top
TWO_FAULTS = ["sqrt(s-5)/log(s-5)", "log(s)/s", "log(s)/(s-s) + 1/s", "sqrt(s-2)^0.5 + log(s-3)",
              "(s-1)^0.5/sqrt(s-2)", "acosh(s) * atanh(s+2)", "1/(s-s) + log(s-3)"]


@pytest.mark.parametrize("text", TWO_FAULTS)
def test_first_domain_error_matches_the_recursive_reference(text):
    expr = parse(text)
    with pytest.raises(EvalDomainError) as expected:
        reference.evaluate(expr, np.array([0.0, 1.0]))
    deep = expr
    for _ in range(5000):  # far past the recursive evaluator's stack
        deep = Neg(deep)
    for e in (expr, deep, BinOp("/", parse("log(s-9)"), deep)):
        with pytest.raises(EvalDomainError) as got:
            evaluate(e, np.array([0.0, 1.0]))
        assert str(got.value) == str(expected.value)


def test_shared_subtree_is_evaluated_and_derived_once(monkeypatch):
    sin_calls = []
    monkeypatch.setitem(FUNCTIONS, "sin", lambda x: sin_calls.append(1) or np.sin(x))
    dag = call("sin", VAR)
    for _ in range(20):  # a tree of 2^20 sin leaves in 41 distinct nodes
        dag = add(dag, dag)
    assert distinct_nodes(dag) == 22
    assert evaluate(dag, 0.5) == 2.0**20 * math.sin(0.5)
    assert len(sin_calls) == 1
    deriv = differentiate(dag)
    assert distinct_nodes(deriv) <= 3 * 22
    assert evaluate(deriv, 0.5) == 2.0**20 * math.cos(0.5)


def test_long_flat_sum_evaluates_prints_and_derives():
    text = "+".join(["0.001*s"] * 3000)
    expr = parse(text)
    assert evaluate(expr, 2.0) == pytest.approx(6.0, rel=1e-12)
    assert structure(parse(to_string(expr))) == structure(expr)  # == would recurse
    assert evaluate(differentiate(expr), 2.0) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize(
    "opening,closing,token",
    [("(", ")", "("), ("-", "", "-"), ("abs(", ")", "("), ("1^", "", "^")],
    ids=["parentheses", "minus-signs", "calls", "exponents"],
)
def test_nesting_past_max_nesting_is_a_parse_error(opening, closing, token):
    assert abs(evaluate(parse(opening * MAX_NESTING + "1" + closing * MAX_NESTING), 0.0)) == 1.0
    with pytest.raises(ParseError, match="MAX_NESTING") as err:
        parse(opening * (MAX_NESTING + 1) + "1" + closing * (MAX_NESTING + 1))
    # the offset of the token that opens level MAX_NESTING + 1
    assert err.value.position == MAX_NESTING * len(opening) + opening.index(token)


def test_long_sum_compares_hashes_and_prints_without_recursion():
    expr = parse("+".join(["0.001*s"] * 3000))
    assert expr == expr and expr != parse(to_string(expr))  # nodes compare by identity
    assert hash(expr) == hash(expr) and {expr: 1}[expr] == 1
    assert repr(expr) == f"BinOp<{to_string(expr)}>"
    assert repr(parse("2*s")) == "BinOp<2.0 * s>"


# (f, q, u_range) of the T1 and H3 analyze jobs the benchmark draws at seed 71
SEED_71 = {
    "T1": (("0.94*s", "0", "0.78*s"), ("cosh(0.76*s)", "sinh(0.76*s)", "0"), (0.0, 0.92)),
    "H3": (("0", "0", "1.20*s"), ("cosh(0.86*s+0.10*s^2)", "sinh(0.86*s+0.10*s^2)", "0"), (0.0, 1.06)),
}
FIELDS = ("f", "q", "qdqd", "v0", "c", "speed", "a_raw", "h_raw", "t", *DERIVED)


@pytest.mark.parametrize("name", sorted(SEED_71))
def test_surface_programs_match_per_root_evaluate(name):
    f, q, u_range = SEED_71[name]
    d = ExplicitSurface.from_strings(f, q, u_range)._d
    for u in (np.linspace(*u_range, 101), 0.37):
        for names in (FIELDS, FIELDS[::-1], _FRAME_FIELDS, ("speed",)):
            values = list(d.fields(u, *names))
            assert len(values) == len(names)
            for field, value in zip(names, values):
                e = getattr(d, field)
                expected = np.stack([evaluate(c, u) for c in e], -1) if isinstance(e, tuple) else evaluate(e, u)
                assert np.shape(value) == np.shape(expected)
                assert_same_bits(value, expected)


def test_one_program_over_the_corpus_matches_per_root_evaluate():
    exprs = [parse(text) for text, _ in DERIVATIVE_CORPUS]
    memo = {}  # the derivatives share subtrees with each other and with the expressions
    roots = exprs + [differentiate(e, memo) for e in exprs]
    program = compile(roots)
    assert sum(node is not None for node, _ in program[0]) == distinct_nodes(*roots)
    grid = np.linspace(0.2, 0.6, 41)  # inside every corpus window
    values = list(run(program, grid))
    assert len(values) == len(roots)
    for value, root in zip(values, roots):
        assert_same_bits(value, evaluate(root, grid))
        assert_same_bits(value, reference.evaluate(root, grid))


@pytest.mark.parametrize("text", TWO_FAULTS)
def test_program_raises_the_first_error_of_root_by_root_evaluation(text):
    e, overflow = parse(text), parse("exp(1000*s)")  # finite checks, but not finite at 1
    grid = np.array([0.0, 1.0])
    for roots in ([e.left, e], [e, e.left], [e.right, e], [e, e.right], [overflow, e], [e, overflow]):
        with pytest.raises(EvalDomainError) as expected:
            for root in roots:
                reference.evaluate(root, grid)
        with pytest.raises(EvalDomainError) as got:
            list(run(compile(roots), grid))
        assert str(got.value) == str(expected.value)


def compiled(e, s):
    """``evaluate`` through a one-root program, as every root was evaluated before
    constants skipped the program."""
    out = next(run(compile([e]), s))
    return float(out) if out.ndim == 0 else out


POINTS = [0.3, 2, np.float64(-1.5), np.array(0.3), np.linspace(-1.0, 1.0, 5), np.ones((2, 3)),
          np.empty(0)]


@pytest.mark.parametrize("value", [0.0, -0.0, 2.5, -1e300])
@pytest.mark.parametrize("s", POINTS, ids=["float", "int", "np-float", "0-d", "1-d", "2-d", "empty"])
def test_constant_root_matches_the_compiled_path(value, s):
    got, want = evaluate(Num(value), s), compiled(Num(value), s)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.base is None  # a fresh array the caller owns


@pytest.mark.parametrize(
    "value,s,message",
    [
        (math.inf, math.nan, "evaluation point must be finite"),
        (1.0, np.array([0.0, math.inf]), "evaluation point must be finite"),
        (math.nan, 0.5, "expression evaluated to a non-finite value"),
        (-math.inf, np.zeros(3), "expression evaluated to a non-finite value"),
    ],
)
def test_constant_root_raises_in_the_compiled_order(value, s, message):
    for path in (evaluate, compiled):
        with pytest.raises(EvalDomainError, match=f"^{message}$"):
            path(Num(value), s)
