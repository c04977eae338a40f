"""Expression language for coefficients and forcing amplitudes.

A small closed-form language over the variables t, x, y with the constant pi,
the operators + - * / ^ (with ^ restricted to constant exponents) and the
functions sin, cos, exp, sqrt, abs.  Problems are specified declaratively in
text files using this grammar (given in the _Parser docstring); parsed trees
are immutable and evaluation is pure, so expressions may be shared freely
across threads.  The box and the horizon an expression is sampled on belong
to its caller (spectral's DomainGeometry and T), not to the expression.

evaluate compiles a tree into nested closures on first use and keeps the
compiled form in a bounded LRU keyed by the tree's value (each node caches
its own hash, so the key costs no tree walk).  The closures apply the same
numpy operations in the same order as a walk of the tree would, with the
domain checks (division by zero, sqrt of a negative, non-finite power or
function values, variables given no value) on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
    "evaluate",
    "to_source",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
DEFAULT_VARIABLES = ("t", "x", "y")


class ExprSyntaxError(ValueError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class ExprDomainError(ArithmeticError):
    """Evaluation failure (sqrt of a negative, division by zero, ...)."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{to_source(subexpr)}'")
        self.subexpr = subexpr


class Expr:
    """Abstract syntax tree node; subclasses are frozen dataclasses.

    Each node caches its hash in its instance dict on first use, so hashing
    a tree (as the caches keyed by value do on every call) costs one lookup
    after the first walk.  The cached hash is no field: == and repr are the
    dataclass ones, and pickling leaves it out (str hashes differ between
    processes).
    """

    __slots__ = ()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _hash_once(cls):
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = field_hash(self)
            return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class Num(Expr):
    value: float


@_hash_once
@dataclass(frozen=True)
class Var(Expr):
    name: str


@_hash_once
@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@_hash_once
@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@_hash_once
@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(source: str):
    """Yields (kind, text, offset); kind in {num, name, op, end}."""
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            yield ("op", c, i)
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", i) from None
            yield ("num", text, i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            yield ("name", source[i:j], i)
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    yield ("end", "", n)


class _Parser:
    """Grammar (left-associative except ^, which is right-associative):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?      -- exponent must be constant
    atom   := NUMBER | "pi" | VAR | FUNC "(" expr ")" | "(" expr ")"
    """

    def __init__(self, source: str):
        self.tokens = list(_tokenize(source))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            if variables_of(exponent):
                raise ExprSyntaxError("exponent of '^' must be a constant", off)
            return BinOp("^", base, exponent)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "pi":
                return Num(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in DEFAULT_VARIABLES:
                return Var(text)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        what = repr(text) if text else "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', got {what}", off)


def parse(source: str) -> Expr:
    """Parse UTF-8 text over the variables t, x, y (DEFAULT_VARIABLES) into
    an Expr; raises ExprSyntaxError with offset."""
    return _Parser(source).parse()


def variables_of(e: Expr) -> set:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables_of(e.child)
    if isinstance(e, BinOp):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Call):
        return variables_of(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation (scalar or numpy-array values per variable)
# ---------------------------------------------------------------------------

_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def _finite(v) -> bool:
    return bool(np.isfinite(v).all()) if isinstance(v, np.ndarray) else math.isfinite(v)


def _build(e: Expr):
    """A closure (t, x, y) -> value of e, applying the numpy operations of the tree.

    Children are evaluated left to right before their parent's domain check,
    so the first failing subexpression in that order is the one named.
    Checks on scalar values use math.isfinite and plain comparisons.
    """
    if isinstance(e, Num):
        # equal trees share one compiled form, and Num(-0.0) == Num(0) ==
        # Num(0.0): + 0.0 gives each equality class one value, 0.0
        value = e.value + 0.0
        return lambda t, x, y: value
    if isinstance(e, Var):

        def missing():
            raise ExprDomainError(f"variable {e.name!r} has no value here", e)

        if e.name == "t":
            return lambda t, x, y: missing() if t is None else t
        if e.name == "x":
            return lambda t, x, y: missing() if x is None else x
        if e.name == "y":
            return lambda t, x, y: missing() if y is None else y
        return lambda t, x, y: missing()
    if isinstance(e, Neg):
        f = _build(e.child)
        return lambda t, x, y: -f(t, x, y)
    if isinstance(e, BinOp):
        f, g = _build(e.left), _build(e.right)
        if e.op == "+":
            return lambda t, x, y: f(t, x, y) + g(t, x, y)
        if e.op == "-":
            return lambda t, x, y: f(t, x, y) - g(t, x, y)
        if e.op == "*":
            return lambda t, x, y: f(t, x, y) * g(t, x, y)
        if e.op == "/":

            def divide(t, x, y):
                a = f(t, x, y)
                b = g(t, x, y)
                if np.any(b == 0.0) if isinstance(b, np.ndarray) else b == 0.0:
                    raise ExprDomainError("division by zero", e)
                return a / b

            return divide
        if e.op == "^":  # constant exponent

            def power(t, x, y):
                a = f(t, x, y)
                b = g(t, x, y)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                        out = np.power(a, b)
                else:
                    # math.pow raises where np.power would warn (a negative
                    # base to a fractional power, zero to a negative one,
                    # overflow), without entering np.errstate.  The value
                    # stays np.power's: its vector loop can differ from libm
                    # by an ulp, and scalars must match arrays bit for bit.
                    try:
                        math.pow(a, b)
                    except (ValueError, OverflowError) as exc:
                        raise ExprDomainError("power produced a non-finite value", e) from exc
                    out = np.power(a, b)
                if not _finite(out):
                    raise ExprDomainError("power produced a non-finite value", e)
                return out

            return power
        raise TypeError(f"unknown operator {e.op!r} in {e!r}")
    if isinstance(e, Call):
        f, fn, sqrt = _build(e.arg), _CALLS[e.fn], e.fn == "sqrt"

        def call(t, x, y):
            arg = f(t, x, y)
            if sqrt and (np.any(arg < 0.0) if isinstance(arg, np.ndarray) else arg < 0.0):
                raise ExprDomainError("sqrt of a negative value", e)
            out = fn(arg)
            if not _finite(out):
                raise ExprDomainError(f"{e.fn} produced a non-finite value", e)
            return out

        return call
    raise TypeError(f"not an expression node: {e!r}")


@lru_cache(maxsize=1024)
def _compiled(e: Expr):
    """The closure of e, built once per distinct tree (keyed by value)."""
    return _build(e)


def evaluate(e: Expr, t=None, x=None, y=None):
    """Evaluate at time t and spatial point (x[, y]); accepts numpy arrays.

    A variable the tree reads but the call does not give raises
    ExprDomainError naming it; there is no default value.  Deterministic
    IEEE double evaluation with no hidden state; repeated calls return
    bit-identical results.  The tree is compiled into closures on its first
    evaluation and the compiled form is cached by value.
    """
    return _compiled(e)(t, x, y)


# ---------------------------------------------------------------------------
# pretty printer (round-trips through parse to an identical tree)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        if e.value < 0.0:  # negative literal prints as a negation
            return f"-{-e.value!r}", _PREC["neg"]
        return repr(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        s, p = _print(e.child)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(e, Call):
        s, _ = _print(e.arg)
        return f"{e.fn}({s})", _PREC["atom"]
    if isinstance(e, BinOp):
        lp = _PREC[e.op]
        ls, lq = _print(e.left)
        rs, rq = _print(e.right)
        if e.op == "^":
            # '^' binds tighter than unary minus and associates right
            if lq < _PREC["atom"]:
                ls = f"({ls})"
            if rq < _PREC["^"]:
                rs = f"({rs})"
        else:
            if lq < lp:
                ls = f"({ls})"
            if rq <= lp:  # left-associative: parenthesize equal-precedence right
                rs = f"({rs})"
        return f"{ls}{e.op}{rs}", lp
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Render the tree as parseable text; parse(to_source(e)) == e."""
    return _print(e)[0]
