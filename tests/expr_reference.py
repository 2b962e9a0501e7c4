"""Reference oracle: the recursive evaluator and differentiator that
``minkruled.expressions`` used before it walked each distinct node once.

Both visit every node of the expression tree, so a subtree shared k times
is evaluated or derived k times; ``test_expressions.py`` checks the
iterative walker against them bit for bit.  They recurse once per tree
level and re-walk shared subtrees, so keep their inputs small.
"""

import numpy as np

from minkruled.errors import EvalDomainError
from minkruled.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    add,
    call,
    const,
    div,
    mul,
    neg,
    powc,
    sub,
)


def _require(ok, message):
    if not ok:
        raise EvalDomainError(message)


def _eval(e, s):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return s
    if isinstance(e, Neg):
        return -_eval(e.arg, s)
    if isinstance(e, BinOp):
        if e.op == "+":
            return _eval(e.left, s) + _eval(e.right, s)
        if e.op == "-":
            return _eval(e.left, s) - _eval(e.right, s)
        if e.op == "*":
            return _eval(e.left, s) * _eval(e.right, s)
        if e.op == "/":
            den = _eval(e.right, s)
            _require(bool(np.all(den != 0.0)), "division by zero")
            return _eval(e.left, s) / den
        if e.op == "^":
            base = _eval(e.left, s)
            c = float(_eval(e.right, 0.0))
            if c.is_integer():
                if c < 0.0:
                    _require(bool(np.all(base != 0.0)), "zero base with negative exponent")
            else:
                _require(bool(np.all(base > 0.0)), "negative base with non-integer exponent")
            return np.power(base, c)
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        x = _eval(e.arg, s)
        if e.func == "log":
            _require(bool(np.all(x > 0.0)), "log of a non-positive value")
        elif e.func == "sqrt":
            _require(bool(np.all(x >= 0.0)), "sqrt of a negative value")
        elif e.func == "atanh":
            _require(bool(np.all(np.abs(x) < 1.0)), "atanh outside (-1, 1)")
        elif e.func == "acosh":
            _require(bool(np.all(x >= 1.0)), "acosh below 1")
        return FUNCTIONS[e.func](x)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e, s):
    """Evaluate at a scalar or array argument; never returns NaN/inf."""
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EvalDomainError("evaluation point must be finite")
    with np.errstate(all="ignore"):
        out = _eval(e, arr)
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("expression evaluated to a non-finite value")
    if arr.ndim == 0:
        return float(out)
    if out.shape != arr.shape:
        out = np.broadcast_to(out, arr.shape).copy()
    elif out is arr:
        out = arr.copy()
    return out


_DERIVATIVES = {
    "sin": lambda u: call("cos", u),
    "cos": lambda u: neg(call("sin", u)),
    "tan": lambda u: div(const(1.0), powc(call("cos", u), const(2.0))),
    "sinh": lambda u: call("cosh", u),
    "cosh": lambda u: call("sinh", u),
    "tanh": lambda u: div(const(1.0), powc(call("cosh", u), const(2.0))),
    "asinh": lambda u: div(const(1.0), call("sqrt", add(const(1.0), powc(u, const(2.0))))),
    "acosh": lambda u: div(const(1.0), call("sqrt", sub(powc(u, const(2.0)), const(1.0)))),
    "atanh": lambda u: div(const(1.0), sub(const(1.0), powc(u, const(2.0)))),
    "exp": lambda u: call("exp", u),
    "log": lambda u: div(const(1.0), u),
    "sqrt": lambda u: div(const(1.0), mul(const(2.0), call("sqrt", u))),
    "abs": lambda u: div(u, call("abs", u)),
}


def differentiate(e):
    """Exact symbolic derivative with light constant folding."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg))
    if isinstance(e, BinOp):
        if e.op == "+":
            return add(differentiate(e.left), differentiate(e.right))
        if e.op == "-":
            return sub(differentiate(e.left), differentiate(e.right))
        if e.op == "*":
            return add(
                mul(differentiate(e.left), e.right),
                mul(e.left, differentiate(e.right)),
            )
        if e.op == "/":
            return div(
                sub(
                    mul(differentiate(e.left), e.right),
                    mul(e.left, differentiate(e.right)),
                ),
                powc(e.right, const(2.0)),
            )
        if e.op == "^":
            c = evaluate(e.right, 0.0)
            return mul(
                mul(const(c), powc(e.left, const(c - 1.0))),
                differentiate(e.left),
            )
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        return mul(_DERIVATIVES[e.func](e.arg), differentiate(e.arg))
    raise TypeError(f"not an expression: {e!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt(e, parent_prec):
    if isinstance(e, Num):
        if e.value < 0.0:
            inner = repr(e.value)
            return f"({inner})" if parent_prec > 1 else inner
        return repr(e.value)
    if isinstance(e, Var):
        return "s"
    if isinstance(e, Neg):
        inner = f"-{_fmt(e.arg, _PRECEDENCE['neg'])}"
        return f"({inner})" if parent_prec > _PRECEDENCE["neg"] else inner
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})"
    prec = _PRECEDENCE[e.op]
    if e.op == "^":
        text = f"{_fmt(e.left, prec + 1)}^{_fmt(e.right, prec)}"
    elif e.op in "-/":
        text = f"{_fmt(e.left, prec)} {e.op} {_fmt(e.right, prec + 1)}"
    else:
        text = f"{_fmt(e.left, prec)} {e.op} {_fmt(e.right, prec)}"
    return f"({text})" if parent_prec > prec else text


def to_string(e):
    """Render to text that reparses to an equivalent expression."""
    return _fmt(e, 0)
