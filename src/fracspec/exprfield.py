"""Expression language for coefficients and forcing amplitudes.

A small closed-form language over the variables t, x, y with the constant pi,
the operators + - * / ^ (with ^ restricted to constant exponents) and the
functions sin, cos, exp, sqrt, abs.  Problems are specified declaratively in
text files using this grammar (given in the _Parser docstring); parsed trees
are immutable and evaluation is pure, so expressions may be shared freely
across threads.  The box and the horizon an expression is sampled on belong
to its caller (spectral's DomainGeometry and T), not to the expression.

_compiled turns a tuple of trees into one straight-line Python function of
(t, x, y) that returns the tuple of their values, and keeps it in a bounded
LRU keyed by the trees' values (each node caches its own hash, so the key
costs no tree walk).  Each distinct subtree, across the whole tuple, is
computed once per call, and each intermediate is deleted after its last use.
The code applies the same numpy operations in the same post-order as a walk
of each tree would, with the domain checks (division by zero, sqrt of a
negative, non-finite power or function values, variables given no value) on
every node, so the first failing subexpression named is the walk's.
evaluate is the one-tree case.  No text of a tree reaches the generated
source: constants and nodes go through a reference table, and variable,
operator and function names through fixed tables.
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

# The names the parser accepts (the keys), with what the compiler writes for
# each: a function's numpy ufunc, a variable's name in the generated code.
_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_VARIABLES = {"t": "t", "x": "x", "y": "y"}
FUNCTIONS = tuple(_CALLS)
DEFAULT_VARIABLES = tuple(_VARIABLES)


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

# The compiler's fixed tables are _VARIABLES and _CALLS (top of the module)
# and _ARITHMETIC.  Generated source holds the text of these tables, the
# names of the step functions below, and names the compiler makes up: _v<i>
# for a computed value and _r<i> for an entry of the reference table
# (constants, nodes, numpy functions).  No string or number of a tree
# reaches it.
_ARITHMETIC = {"+": "+", "-": "-", "*": "*"}

# The steps with a domain check.  Each takes the node it evaluates, to name
# it in the error; checks on scalar values use math.isfinite, math.pow and
# plain comparisons.


def _finite(v) -> bool:
    return bool(np.isfinite(v).all()) if isinstance(v, np.ndarray) else math.isfinite(v)


def _variable(v, e: Var) -> None:
    if v is None:
        raise ExprDomainError(f"variable {e.name!r} has no value here", e)


def _divide(a, b, e: BinOp):
    if np.any(b == 0.0) if isinstance(b, np.ndarray) else b == 0.0:
        raise ExprDomainError("division by zero", e)
    return a / b


def _power(a, b, e: BinOp):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(a, b)
    else:
        # math.pow raises where np.power would warn (a negative base to a
        # fractional power, zero to a negative one, overflow), without
        # entering np.errstate.  The value stays np.power's: its vector loop
        # can differ from libm by an ulp, and scalars must match arrays bit
        # for bit.
        try:
            math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError("power produced a non-finite value", e) from exc
        out = np.power(a, b)
    if not _finite(out):
        raise ExprDomainError("power produced a non-finite value", e)
    return out


def _call(fn, a, e: Call):
    if fn is np.sqrt and (np.any(a < 0.0) if isinstance(a, np.ndarray) else a < 0.0):
        raise ExprDomainError("sqrt of a negative value", e)
    out = fn(a)
    if not _finite(out):
        raise ExprDomainError(f"{e.fn} produced a non-finite value", e)
    return out


@lru_cache(maxsize=1024)
def _compiled(exprs: tuple):
    """One straight-line function (t, x, y) -> tuple of the values of exprs.

    The trees are walked in tuple order, each in post-order with children
    left to right, and every distinct subtree (equal by value) becomes one
    line of the function, computed once per call: its numpy operation, and
    its domain check (division by zero, sqrt of a negative, non-finite power
    or function values, a variable given no value).  The first failing
    subexpression in that order, which is a tree walk's, is the one named.
    Each intermediate is deleted after its last use, so an array value lives
    no longer than in a walk of the tree, save a shared subtree's, which
    lives until its last use.

    Constants, nodes and numpy functions go through a reference table;
    variable names, operators and function names through the fixed tables
    above.  An unknown operator raises TypeError and an unknown function
    KeyError here; an unknown variable raises ExprDomainError when its line
    runs.
    """
    namespace = {"_variable": _variable, "_divide": _divide, "_power": _power, "_call": _call}
    names = {}  # distinct subtree -> the name of its value in the code
    lines, reads = [], []  # per line: the temporaries it reads

    def ref(obj) -> str:
        name = f"_r{len(namespace)}"
        namespace[name] = obj
        return name

    def visit(e) -> str:
        if e in names:
            return names[e]
        if isinstance(e, Num):
            # equal trees share one compiled form, and Num(-0.0) == Num(0) ==
            # Num(0.0): + 0.0 gives each equality class one value, 0.0
            names[e] = ref(e.value + 0.0)
            return names[e]
        if isinstance(e, Var):
            # an unknown variable raises, so the None standing for it is never read
            out, args = _VARIABLES.get(e.name, "None"), ()
            line = f"_variable({out}, {ref(e)})"
        else:
            if isinstance(e, Neg):
                args = (visit(e.child),)
                step = "-{}"
            elif isinstance(e, BinOp):
                args = (visit(e.left), visit(e.right))
                if e.op in _ARITHMETIC:
                    step = "{} " + _ARITHMETIC[e.op] + " {}"
                elif e.op == "/":
                    step = "_divide({}, {}, " + ref(e) + ")"
                elif e.op == "^":  # constant exponent
                    step = "_power({}, {}, " + ref(e) + ")"
                else:
                    raise TypeError(f"unknown operator {e.op!r} in {e!r}")
            elif isinstance(e, Call):
                args = (visit(e.arg),)
                step = "_call(" + ref(_CALLS[e.fn]) + ", {}, " + ref(e) + ")"
            else:
                raise TypeError(f"not an expression node: {e!r}")
            out = f"_v{len(lines)}"
            line = f"{out} = " + step.format(*args)
        lines.append(line)
        reads.append([a for a in args if a.startswith("_v")])
        names[e] = out
        return out

    outputs = [visit(e) for e in exprs]
    last = {v: i for i, vs in enumerate(reads) for v in vs}
    body = []
    for i, (line, vs) in enumerate(zip(lines, reads)):
        body.append(line)
        done = [v for v in dict.fromkeys(vs) if last[v] == i and v not in outputs]
        if done:
            body.append("del " + ", ".join(done))
    source = "".join(
        ["def _values(t, x, y):\n"]
        + [f"    {line}\n" for line in body]
        + ["    return (", *(f"{v}, " for v in outputs), ")\n"]
    )
    exec(compile(source, "<exprfield>", "exec"), namespace)
    return namespace["_values"]


def evaluate(e: Expr, t=None, x=None, y=None):
    """Evaluate at time t and spatial point (x[, y]); accepts numpy arrays.

    A variable the tree reads but the call does not give raises
    ExprDomainError naming it; there is no default value.  Deterministic
    IEEE double evaluation with no hidden state; repeated calls return
    bit-identical results.  This is the one-tree case of _compiled: the tree
    becomes straight-line code on its first evaluation, computing each
    distinct subtree once, and the code is cached by the tree's value.
    """
    return _compiled((e,))(t, x, y)[0]


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
