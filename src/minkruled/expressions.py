"""Scalar functions of one variable ``s``: parsing, evaluation, differentiation.

Grammar (standard infix, whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            # right-associative, ^ binds tightest
    atom   := NUMBER | 'pi' | 'e' | 's' | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan sinh cosh tanh asinh acosh atanh exp log sqrt abs.
Exponents must be constant (no ``s``); non-integer exponents require a
positive base.  ``compile(roots)`` walks the union of the roots' DAGs once,
by identity, and ``run(program, s)`` gives each root's array at ``s`` in root
order, computing each distinct node once.  ``evaluate`` is a one-root run:
scalars in, floats out; arrays in, arrays out.  Domain violations and
non-finite values raise EvalDomainError, first where a root-by-root
evaluation would.  Nodes compare and hash by identity, so nothing recurses;
``structure`` is the hashable value of a tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call", "VAR", "const", "add", "sub", "mul", "div",
    "powc", "neg", "call", "parse", "evaluate", "compile", "run", "differentiate", "to_string",
    "contains_var", "structure", "FUNCTIONS",
]

_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Expr:
    """Base class of the immutable expression-tree nodes."""

    def __repr__(self):
        return f"{type(self).__name__}<{to_string(self)}>"


@_node
class Num(Expr):
    value: float


@_node
class Var(Expr):
    pass


@_node
class Neg(Expr):
    arg: Expr


@_node
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@_node
class Call(Expr):
    func: str
    arg: Expr


VAR = Var()

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "asinh": np.arcsinh,
    "acosh": np.arccosh,
    "atanh": np.arctanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest nesting (parentheses, calls, minus signs, ^) ``parse`` accepts; five frames a level
MAX_NESTING = 100


def _walk(roots, done=(), checks=False) -> tuple[list, list]:
    """Each distinct node under ``roots`` once, by identity, as post-order ``(node, operand
    positions)`` steps, divisors before dividends; ``done`` ids are left out with all below
    them.  ``checks`` adds a ``(None, [divisor])`` step between each divisor and dividend.
    Also gives, per root, the number of steps up to its last and its position."""
    steps, seen, ends = [], {}, []
    for root in roots:
        stack = [(root, None)]
        while stack:
            node, ops = stack.pop()
            if ops is None:
                if id(node) in seen or id(node) in done:
                    continue
                if isinstance(node, BinOp):  # operands first, then the node itself
                    ops = (node.right, node.left) if node.op == "/" else (node.left, node.right)
                    check = ((ops[0], False),) if checks and node.op == "/" else ()
                    stack += ((node, ops), (ops[1], None), *check, (ops[0], None))
                    continue
                if isinstance(node, (Neg, Call)):
                    stack += ((node, (node.arg,)), (node.arg, None))
                    continue
                ops = ()  # a leaf is listed at once
            if ops is False:
                steps.append((None, [seen[id(node)]]))
            else:
                seen[id(node)] = len(steps)
                steps.append((node, list(map(seen.get, map(id, ops)))))
        ends.append((len(steps), seen.get(id(root))))
    return steps, ends


def compile(roots, checks=True) -> tuple:
    """Program of ``roots`` on one grid: the ``_walk`` of them all, so each distinct node of
    their union is one step, with each step's use count and each root's end and position."""
    steps, ends = _walk(roots, checks=checks)
    uses = [0] * len(steps)
    for j in [j for _, ops in steps for j in ops] + [at for _, at in ends]:
        uses[j] += 1
    return steps, uses, ends


def _run(program, step, finish, *args):
    """``finish`` of each root's value by ``step(node, *args, *operand values)`` per program
    step, in root order; a root's steps run when its value is asked for."""
    steps, uses, ends = program
    uses = uses.copy()
    values = [None] * len(steps)
    start = 0
    for end, at in ends:
        with np.errstate(all="ignore"):
            for i in range(start, end):
                node, ops = steps[i]
                values[i] = step(node, *args, *map(values.__getitem__, ops))
                for j in ops:
                    uses[j] -= 1
                    if not uses[j]:
                        values[j] = None  # after its last use, so only live values are held
        start = end
        uses[at] -= 1
        yield finish(values[at], *args)
        if not uses[at]:
            values[at] = None


def contains_var(e: Expr) -> bool:
    return any(isinstance(node, Var) for node, _ in _walk([e])[0])


def structure(e: Expr) -> tuple:
    """Flat hashable value of ``e``: per ``_walk`` step, its type, non-node fields, operands."""
    return tuple((type(node), *[v for v in vars(node).values() if not isinstance(v, Expr)], *ops)
                 for node, ops in _walk([e])[0])


# ---------------------------------------------------------------------------
# smart constructors with light constant folding
# ---------------------------------------------------------------------------


def const(x) -> Num:
    return Num(float(x))


def _num(e):
    return e.value if isinstance(e, Num) else None


def neg(e: Expr) -> Expr:
    v = _num(e)
    if v is not None:
        return Num(-v)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def add(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if lv is not None and rv is not None:
        return Num(lv + rv)
    if lv == 0.0:
        return r
    if rv == 0.0:
        return l
    return BinOp("+", l, r)


def sub(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if lv is not None and rv is not None:
        return Num(lv - rv)
    if rv == 0.0:
        return l
    if lv == 0.0:
        return neg(r)
    return BinOp("-", l, r)


def mul(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if lv is not None and rv is not None:
        return Num(lv * rv)
    if lv == 0.0 or rv == 0.0:
        return Num(0.0)
    if lv == 1.0:
        return r
    if rv == 1.0:
        return l
    return BinOp("*", l, r)


def div(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if rv == 1.0:
        return l
    if lv == 0.0 and rv != 0.0 and rv is not None:
        return Num(0.0)
    if lv is not None and rv is not None and rv != 0.0:
        return Num(lv / rv)
    return BinOp("/", l, r)


def powc(base: Expr, exponent: Expr) -> Expr:
    if contains_var(exponent):
        raise ValueError("exponent must be constant")
    ev = evaluate(exponent, 0.0)
    if ev == 0.0:
        return Num(1.0)
    if ev == 1.0:
        return base
    bv = _num(base)
    if bv is not None and (bv > 0.0 or float(ev).is_integer()):
        return Num(float(np.power(bv, ev)))
    return BinOp("^", base, Num(float(ev)))


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expr(self, ops="+-") -> Expr:
        """Terms joined by + and -; with ``ops`` "*/", unaries joined by * and /."""
        e = self.expr("*/") if ops == "+-" else self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.advance()[1]
            e = BinOp(op, e, self.expr("*/") if ops == "+-" else self.unary())
        return e

    def unary(self) -> Expr:
        # each parenthesis, call, minus sign and exponent nests one unary deeper
        if self.depth > MAX_NESTING:  # the error names the token opening the level
            message = f"nesting deeper than MAX_NESTING = {MAX_NESTING}"
            raise ParseError(message, self.tokens[self.i - 1][2])
        self.depth += 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            e = Neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            _, _, expo_pos = self.peek()
            expo = self.unary()
            if contains_var(expo):
                raise ParseError("exponent must be constant", expo_pos)
            return BinOp("^", base, expo)
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value == "s":
                return VAR
            if value in _CONSTANTS:
                nk, nv, _ = self.peek()
                if nk == "op" and nv == "(":
                    raise ParseError(f"unknown function {value!r}", pos)
                return Num(_CONSTANTS[value])
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                raise ParseError(f"unknown function {value!r}", pos)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError("expected expression", pos)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with a character offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _require(ok: bool, message: str):
    if not ok:
        raise EvalDomainError(message)


def _apply(e: Expr, s, x=None, y=None):
    """Value at ``s`` of a checked ``_walk`` step; a None step checks a divisor."""
    if e is None:
        _require(bool(np.all(x != 0.0)), "division by zero")
        return None
    if isinstance(e, BinOp):
        if e.op == "+":
            return x + y
        if e.op == "-":
            return x - y
        if e.op == "*":
            return x * y
        if e.op == "/":
            return y / x
        if e.op == "^":
            c = float(y)  # parse and powc keep s out of exponents: y is its value at 0.0
            if c.is_integer():
                _require(c >= 0.0 or bool(np.all(x != 0.0)), "zero base with negative exponent")
            else:
                _require(bool(np.all(x > 0.0)), "negative base with non-integer exponent")
            return np.power(x, c)
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return s
    if isinstance(e, Neg):
        return -x
    if isinstance(e, Call):
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


def _finish(out, arr):
    """A root's value as an array of ``arr``'s shape; EvalDomainError if not finite."""
    out = np.asarray(out, dtype=float)
    if not np.isfinite(out).all():
        raise EvalDomainError("expression evaluated to a non-finite value")
    if out.shape != arr.shape:
        return np.broadcast_to(out, arr.shape).copy()
    return arr.copy() if out is arr else out  # the bare variable: never the caller's array


def run(program, s):
    """Each root of a ``compile``d program at a scalar or array ``s``, in root order, as an
    array of ``s``'s shape.  A root's steps run when it is asked for, and EvalDomainError is
    raised at the first domain violation or non-finite root, as evaluating the roots one by
    one would raise it."""
    arr = np.asarray(s, dtype=float)
    if not np.isfinite(arr).all():
        raise EvalDomainError("evaluation point must be finite")
    return _run(program, _apply, _finish, arr)


def evaluate(e: Expr, s):
    """A one-root ``run`` at a scalar or array argument, a float for a scalar; never NaN/inf."""
    out = next(run(compile([e]), s))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

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


def _derivative(e: Expr, d) -> Expr:
    """Derivative of node ``e``, given ``d(operand)``, each operand's derivative."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return neg(d(e.arg))
    if isinstance(e, BinOp):
        if e.op == "+":
            return add(d(e.left), d(e.right))
        if e.op == "-":
            return sub(d(e.left), d(e.right))
        if e.op == "*":
            return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
        if e.op == "/":
            top = sub(mul(d(e.left), e.right), mul(e.left, d(e.right)))
            return div(top, powc(e.right, const(2.0)))
        if e.op == "^":
            c = evaluate(e.right, 0.0)
            return mul(mul(const(c), powc(e.left, const(c - 1.0))), d(e.left))
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        return mul(_DERIVATIVES[e.func](e.arg), d(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def differentiate(e: Expr, memo: dict | None = None) -> Expr:
    """Exact symbolic derivative with light constant folding; each distinct node
    once, to one shared derivative, across calls given one ``memo`` dict."""
    memo = {} if memo is None else memo
    for node, _ in _walk([e], done=memo)[0]:
        memo[id(node)] = (node, _derivative(node, lambda op: memo[id(op)][1]))
    return memo[id(e)][1]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _wrap(operand, prec: float) -> str:
    return f"({operand[0]})" if prec > operand[1] else operand[0]


def _format(e: Expr, x=None, y=None) -> tuple:
    """(text, precedence) of node ``e`` from those of its ``_walk`` operands."""
    if isinstance(e, Num):
        return repr(e.value), 1 if e.value < 0.0 else math.inf
    if isinstance(e, Var):
        return "s", math.inf
    if isinstance(e, Neg):
        return f"-{_wrap(x, _PRECEDENCE['neg'])}", _PRECEDENCE["neg"]
    if isinstance(e, Call):
        return f"{e.func}({x[0]})", math.inf
    prec = _PRECEDENCE[e.op]
    if e.op == "/":
        x, y = y, x
    if e.op == "^":  # right-associative; exponent is constant by construction
        return f"{_wrap(x, prec + 1)}^{_wrap(y, prec)}", prec
    right = prec + 1 if e.op in "-/" else prec
    return f"{_wrap(x, prec)} {e.op} {_wrap(y, right)}", prec


def to_string(e: Expr) -> str:
    """Render to text that reparses to an equivalent expression."""
    return next(_run(compile([e], checks=False), _format, lambda text: text))[0]
