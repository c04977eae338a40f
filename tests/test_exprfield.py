"""Parser and evaluator tests for the coefficient expression language, and
the sampled sup bounds spectral takes of its expressions over [0, T] x box."""

import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.exprfield import (
    _CALLS,
    _VARIABLES,
    DEFAULT_VARIABLES,
    FUNCTIONS,
    _compiled,
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    to_source,
)
from fracspec.spectral import _SUP_SAMPLES, DomainGeometry, _grid, _sup_norm, _sup_samples

from oracles import DomainFault, tree_value


class TestParse:
    def test_precedence(self):
        assert evaluate(parse("2+3*4")) == 14.0

    def test_sin_field(self):
        e = parse("1 + 0.5*sin(pi*x)*t")
        assert evaluate(e, t=1.0, x=0.5) == pytest.approx(1.5, rel=1e-15)

    def test_incomplete_power(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x^")
        assert exc.value.offset == 2

    def test_power_right_assoc_and_constant(self):
        e = parse("x^2^3")
        # right associative: x^(2^3)
        assert evaluate(e, x=2.0) == 256.0
        with pytest.raises(ExprSyntaxError):
            parse("2^x")
        with pytest.raises(ExprSyntaxError):
            parse("t^(x+1)")

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-x^2"), x=3.0) == -9.0
        assert evaluate(parse("2^-1")) == 0.5

    def test_left_associativity(self):
        assert evaluate(parse("8/4/2")) == 1.0
        assert evaluate(parse("8-4-2")) == 2.0

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("2*q")
        assert "unknown identifier" in str(exc.value)
        assert exc.value.offset == 2

    def test_unknown_function_like_name(self):
        with pytest.raises(ExprSyntaxError):
            parse("tan(x)")

    def test_restricted_variables(self):
        # the variables are t, x and y only
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'z'"):
            parse("z")

    def test_offsets_and_messages(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("sin(x")
        assert "expected ')'" in str(exc.value)
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + ")
        assert exc.value.offset == 4

    def test_scientific_numbers(self):
        assert evaluate(parse("1.5e-2")) == 0.015
        assert evaluate(parse(".5")) == 0.5


def test_every_parsed_name_compiles():
    # the parser's names are the compiler's tables: each function it accepts
    # is its numpy ufunc, each variable reads its own argument
    assert FUNCTIONS == tuple(_CALLS) and DEFAULT_VARIABLES == tuple(_VARIABLES)
    for fn in FUNCTIONS:
        assert evaluate(parse(f"{fn}(0.25)")) == _CALLS[fn](0.25)
    for i, v in enumerate(DEFAULT_VARIABLES):
        assert evaluate(parse(v), **{w: float(j) for j, w in enumerate(DEFAULT_VARIABLES)}) == float(i)


class TestEvaluate:
    def test_literal(self):
        assert evaluate(parse("3.5"), t=9.0, x=-2.0) == 3.5

    def test_exp_cos(self):
        assert evaluate(parse("exp(0)*cos(0)")) == 1.0

    def test_power(self):
        assert evaluate(parse("t^0.5"), t=4.0) == 2.0

    def test_pi_constant(self):
        assert evaluate(parse("cos(pi)")) == pytest.approx(-1.0, rel=1e-15)

    def test_division_by_zero(self):
        e = parse("1/(t-1)")
        with pytest.raises(ExprDomainError) as exc:
            evaluate(e, t=1.0)
        assert "division by zero" in str(exc.value)
        assert "t-1" in str(exc.value)

    def test_sqrt_domain(self):
        with pytest.raises(ExprDomainError) as exc:
            evaluate(parse("sqrt(x-2)"), x=1.0)
        assert "sqrt" in str(exc.value)

    def test_array_evaluation_matches_scalar(self):
        e = parse("sin(pi*x)*t + x^2")
        xs = np.linspace(0.0, 1.0, 11)
        arr = evaluate(e, t=0.7, x=xs)
        scal = np.array([evaluate(e, t=0.7, x=float(xi)) for xi in xs])
        assert np.array_equal(arr, scal)

    def test_purity(self):
        e = parse("exp(t)*sin(x)+t/3")
        v1 = evaluate(e, t=0.3, x=0.4)
        v2 = evaluate(e, t=0.3, x=0.4)
        assert v1 == v2


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["t", "x", "y"]).map(Var),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), children).map(
            lambda t: Call(*t)
        ),
        st.tuples(children, st.floats(min_value=0.0, max_value=3.0, allow_nan=False)).map(
            lambda t: BinOp("^", t[0], Num(round(t[1], 2)))
        ),
    )


@given(st.recursive(_leaf, _combine, max_leaves=20))
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(tree):
    assert parse(to_source(tree)) == tree


_trees = st.recursive(_leaf, _combine, max_leaves=20)

# scalar arguments, and arrays broadcasting over (t, x, y) as the open sampling
# grids of spectral do
_ARGS = [
    {"t": 0.3, "x": 0.7, "y": 1.9},
    {"t": 2.0, "x": -1.25, "y": 0.0},
    {
        "t": np.array([0.0, 0.5])[:, None, None],
        "x": np.linspace(-1.0, 2.0, 5)[None, :, None],
        "y": np.linspace(0.0, 1.0, 3)[None, None, :],
    },
    {"t": 0.6, "x": np.linspace(0.05, 0.95, 7)[:, None], "y": np.linspace(0.1, 0.6, 4)[None, :]},
]


@given(_trees, st.sampled_from(range(len(_ARGS))))
@settings(max_examples=300, deadline=None)
def test_compiled_matches_tree_walk(tree, which):
    # the compiled evaluator against tests/oracles.py::tree_value: the same
    # value bit for bit, or a domain error naming the same subexpression.
    # Overflow warnings are silenced for both; a non-finite result still fails.
    args = _ARGS[which]
    with np.errstate(all="ignore"):
        try:
            want = tree_value(tree, **args)
        except DomainFault as fault:
            with pytest.raises(ExprDomainError) as exc:
                evaluate(tree, **args)
            assert exc.value.subexpr == fault.node
            return
        got = evaluate(tree, **args)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@st.composite
def _sharing_tuples(draw):
    """2-3 trees that each contain one shared subtree, the last possibly
    containing the first whole."""
    shared = draw(_trees)
    trees = []
    for _ in range(draw(st.integers(2, 3))):
        other = draw(_trees)
        pair = (shared, other) if draw(st.booleans()) else (other, shared)
        trees.append(BinOp(draw(st.sampled_from(["+", "-", "*", "/"])), *pair))
    if draw(st.booleans()):
        trees[-1] = BinOp("*", trees[0], trees[-1])
    return tuple(trees)


def _tuple_walk(trees, args):
    """Each tree's value by tests/oracles.py::tree_value, in tuple order;
    DomainFault from the first tree that fails."""
    return [tree_value(tree, **args) for tree in trees]


@given(_sharing_tuples())
@settings(max_examples=200, deadline=None)
def test_compiled_tuple_matches_tree_walks(trees):
    # one compiled call over trees sharing subtrees gives each tree's walk
    # value bit for bit, or names the walk's first failing subexpression
    fn = _compiled(trees)
    for args in _ARGS:
        with np.errstate(all="ignore"):
            try:
                want = _tuple_walk(trees, args)
            except DomainFault as fault:
                with pytest.raises(ExprDomainError) as exc:
                    fn(args["t"], args["x"], args["y"])
                assert exc.value.subexpr == fault.node
                continue
            got = fn(args["t"], args["x"], args["y"])
        assert type(got) is tuple and len(got) == len(trees)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()


class TestCompiledTuple:
    @pytest.mark.parametrize(
        "srcs, failing",
        [
            # the first tree that fails is named, though a later one fails too
            (("t + 1", "1/(x - 1) + sqrt(x - 2)", "sqrt(x - 2)"), "1/(x - 1)"),
            (("sqrt(x - 2)*t", "1/(x - 1)"), "sqrt(x - 2)"),
            # a subtree shared with an earlier, passing tree is computed once
            # and the later tree's own failure is named
            (("(x - 1)*t", "t/(x - 1)"), "t/(x - 1)"),
        ],
    )
    def test_first_failure_in_tuple_order(self, srcs, failing):
        trees = tuple(parse(s) for s in srcs)
        with pytest.raises(ExprDomainError) as exc:
            _compiled(trees)(0.5, 1.0, 0.0)
        assert exc.value.subexpr == parse(failing)
        with pytest.raises(DomainFault) as fault:
            _tuple_walk(trees, {"t": 0.5, "x": 1.0, "y": 0.0})
        assert fault.value.node == exc.value.subexpr

    def test_missing_variable_in_a_later_tree(self):
        # y is read only by the second tree, before its failing sqrt
        trees = (parse("x + t"), parse("y*sqrt(x - 2)"))
        with pytest.raises(ExprDomainError, match="variable 'y' has no value here") as exc:
            _compiled(trees)(0.5, 1.0, None)
        assert exc.value.subexpr == Var("y")

    def test_shared_subtree_computed_once(self, monkeypatch):
        # t^2 and sin(3*t + 1) each appear in two trees; the tuple takes one
        # power step per distinct power and one sine, and the values are the
        # one-tree ones
        trees = tuple(parse(s) for s in ("2*t^2 + t^1.5", "t^2*sin(3*t + 1)", "sin(3*t + 1)"))
        fn = _compiled(trees)
        steps = {"_power": 0, "_call": 0}
        for name in steps:

            def counted(*args, step=fn.__globals__[name], name=name):
                steps[name] += 1
                return step(*args)

            monkeypatch.setitem(fn.__globals__, name, counted)
        got = fn(0.37, None, None)
        assert steps == {"_power": 2, "_call": 1}
        assert got == tuple(evaluate(e, t=0.37) for e in trees)

    def test_empty_tuple(self):
        assert _compiled(())(0.5, None, None) == ()


# Hand-built nodes whose strings are Python code with a visible side effect:
# if any of that text reached the generated source and ran, the module named
# _INJECTED would appear in sys.modules.
_INJECTED = "_exprfield_injected"
_PAYLOAD = f"__import__('sys').modules.__setitem__('{_INJECTED}', 1)"


class TestHostileNodes:
    @pytest.mark.parametrize(
        "tree, error",
        [
            (Var(_PAYLOAD), ExprDomainError),
            (BinOp("+", Num(1.0), Var(f"t or {_PAYLOAD}")), ExprDomainError),
            (Var("__import__('os')"), ExprDomainError),
            (BinOp("**", Num(2.0), Num(3.0)), TypeError),
            (BinOp(f"+{_PAYLOAD}+", Num(2.0), Var("t")), TypeError),
            (Call("eval", Num(1.0)), KeyError),
            (Call(f"{_PAYLOAD} or sin", Var("t")), KeyError),
            (Num(_PAYLOAD), TypeError),
            (Neg(_PAYLOAD), TypeError),
        ],
    )
    def test_raises_without_running(self, tree, error):
        with pytest.raises(error):
            evaluate(tree, t=0.5, x=0.25, y=0.75)
        with pytest.raises(error):
            _compiled((parse("t + 1"), tree))(0.5, 0.25, 0.75)
        assert _INJECTED not in sys.modules

    def test_unknown_variable_named(self):
        tree = Var(_PAYLOAD)
        with pytest.raises(ExprDomainError, match="has no value here") as exc:
            evaluate(tree, t=0.5)
        assert exc.value.subexpr == tree


# The closure-based evaluator that the compiler replaced peaked at 34_604_370
# bytes on this tree with x of 2^20 points (Python 3.11, numpy 2.4): four
# arrays of x's size, the 1 MiB bool mask of a finite check and 1362 bytes of
# small objects.  Python versions differ in the small objects, so the bound
# allows 16 KiB of them.
_CLOSURE_WALK_PEAK = 34_604_370


def test_compiled_memory_no_higher_than_closure_walk():
    # 36 nodes; x^2 is shared by two subtrees
    e = parse("1.2 + 0.3*sin(2*t)*cos(pi*x) + 0.1*t*x^2 - exp(-x)*sqrt(1 + x^2)/(2 + t)")
    x = np.linspace(0.0, 1.0, 2**20)
    evaluate(e, t=0.3, x=x[:4])  # compiled outside the trace
    tracemalloc.start()
    try:
        value = evaluate(e, t=0.3, x=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.shape == x.shape
    assert peak <= _CLOSURE_WALK_PEAK + 16384


class TestCompiledForm:
    def test_missing_variable_named(self):
        e = BinOp("+", Num(1.0), Var("z"))
        with pytest.raises(ExprDomainError, match="variable 'z' has no value here") as exc:
            evaluate(e, t=1.0)
        assert exc.value.subexpr == Var("z")
        # a variable of the language that the call does not give has no default
        with pytest.raises(ExprDomainError, match="variable 'x' has no value here") as exc:
            evaluate(parse("x + 1"))
        assert exc.value.subexpr == Var("x")

    @pytest.mark.parametrize(
        "src, args, message, node",
        [
            ("1 + 1/(x - 1)", {"x": np.array([0.0, 1.0])}, "division by zero", "1/(x - 1)"),
            ("2*sqrt(t - x)", {"t": 0.5, "x": 1.0}, "sqrt of a negative value", "sqrt(t - x)"),
            ("x + (t - 1)^0.5", {"t": 0.0, "x": 0.0}, "power produced a non-finite value", "(t - 1)^0.5"),
            ("exp(1000*t)", {"t": 1.0}, "exp produced a non-finite value", "exp(1000*t)"),
            # both operands fail: the left one, evaluated first, is named
            ("sqrt(x - 2)/sqrt(x - 3)", {"x": 1.0}, "sqrt of a negative value", "sqrt(x - 2)"),
            ("1/(x - 1) + 1/(x - 1)^0.5", {"x": np.array([1.0, 0.0])}, "division by zero", "1/(x - 1)"),
        ],
    )
    def test_domain_errors_name_the_subexpression(self, src, args, message, node):
        with np.errstate(over="ignore"):
            with pytest.raises(ExprDomainError, match=message) as exc:
                evaluate(parse(src), **args)
        assert exc.value.subexpr == parse(node)

    @pytest.mark.parametrize("src", ["(t - 2)^0.5", "t^(-1)", "(t + 10)^400"])
    @pytest.mark.parametrize("t", [0.0, np.array([0.0])], ids=["scalar", "array"])
    def test_power_domain_errors(self, src, t):
        # a scalar power takes math.pow's domain check, an array power the
        # finite check of np.power: both name the ^ node and neither warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ExprDomainError, match="power produced a non-finite value") as exc:
                evaluate(parse(src), t=t)
        assert exc.value.subexpr == parse(src)

    def test_equal_trees_share_one_compiled_form(self):
        a, b = parse("sin(pi*x)*t"), parse("sin(pi*x)*t")
        assert a is not b and a == b and hash(a) == hash(b)
        assert evaluate(a, t=0.5, x=0.25) == evaluate(b, t=0.5, x=0.25)

    def test_literal_value_independent_of_compile_order(self):
        # Num(-0.0) == Num(0) == Num(0.0) share a compiled form; each reads 0.0
        for leaf in (Num(-0.0), Num(0), Num(0.0), Num(-0.0)):
            v = evaluate(leaf)
            assert type(v) is float and v == 0.0 and math.copysign(1.0, v) == 1.0
        assert math.copysign(1.0, evaluate(BinOp("*", Num(-0.0), Var("x")), x=1.0)) == 1.0

    def test_hash_cache_is_no_field(self):
        e = parse("1 + x*t")
        h = hash(e)
        assert hash(e) == h == hash(BinOp("+", Num(1.0), BinOp("*", Var("x"), Var("t"))))
        assert repr(e) == "BinOp(op='+', left=Num(value=1.0), right=BinOp(op='*', left=Var(name='x'), right=Var(name='t')))"
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and "_hash" not in copy.__dict__ and hash(copy) == h


class TestSupBound:
    # the sampled sup bounds of spectral's constants, 1.05 times the sampled
    # maximum on _SUP_SAMPLES points per axis of [0, T] x box

    def env(self, lengths=(1.0,), T=1.0):
        return _grid(DomainGeometry(lengths), T, _SUP_SAMPLES)[1]

    def test_constant(self):
        assert _sup_norm([parse("2.5")], self.env()) == pytest.approx(1.05 * 2.5, rel=1e-14)
        assert _sup_norm([parse("-2.5")], self.env()) == pytest.approx(1.05 * 2.5, rel=1e-14)

    def test_sine(self):
        b = _sup_norm([parse("sin(pi*x)")], self.env())
        assert 1.0 <= b <= 1.05

    def test_bilinear_against_dense_oracle(self):
        # brute-force dense sampling oracle at ~10^6 points
        b = _sup_norm([parse("t*x")], self.env())
        t = np.linspace(0.0, 1.0, 1000)
        x = np.linspace(0.0, 1.0, 1000)
        dense = np.max(np.abs(np.outer(t, x)))
        assert 0.95 * dense <= b <= 1.05 * dense + 1e-12

    def test_bound_dominates_assembly_samples(self):
        e = parse("sin(3*x)*exp(t)+0.25*t")
        b = _sup_norm([e], self.env(T=2.0))
        # any grid no finer than the 64-point sampling
        t, x = np.meshgrid(np.linspace(0.0, 2.0, 48), np.linspace(0.0, 1.0, 48), indexing="ij")
        assert b >= np.max(np.abs(evaluate(e, t=t, x=x)))

    @pytest.mark.parametrize(
        "lengths,src",
        [
            ((1.0,), "sin(3*x)*exp(t)+0.25*t"),
            ((1.0,), "2.5"),
            ((1.0,), "t^0.57 + 1"),
            ((1.0, 1.25), "cos(pi*x)*sin(pi*y/1.25)*(1 + 0.3*sin(2*t)) + x*y"),
            ((1.0, 1.25), "-2.5"),
            ((1.0, 1.25), "exp(-t)*cos(t)"),
        ],
    )
    def test_sample_matches_dense_grid(self, lengths, src):
        # sampling on open grids and broadcasting gives bit for bit the values
        # of evaluating on the full meshgrid
        e = parse(src)
        axes = [np.linspace(0.0, 2.0, 64)] + [np.linspace(0.0, L, 64) for L in lengths]
        grids = np.meshgrid(*axes, indexing="ij")
        dense = evaluate(e, **dict(zip(("t", "x", "y"), grids)))
        dense = np.broadcast_to(np.asarray(dense, dtype=float), grids[0].shape)
        got = _sup_samples(e, self.env(lengths, T=2.0))
        assert got.shape == dense.shape
        assert got.tobytes() == np.ascontiguousarray(dense).tobytes()

    def test_vector_bound(self):
        assert _sup_norm([parse("3"), parse("4")], self.env()) == pytest.approx(1.05 * 5.0, rel=1e-13)
        assert _sup_norm([], self.env()) == 0.0

    def test_rejects_wrong_variables(self):
        # y on an interval has no value: no sample reads it as 0
        with pytest.raises(ExprDomainError, match="variable 'y' has no value here") as exc:
            _sup_norm([parse("y")], self.env())
        assert exc.value.subexpr == Var("y")
