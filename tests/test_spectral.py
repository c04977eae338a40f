"""Eigenbasis, assembly, ellipticity and modal-norm tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracspec.exprfield import ExprDomainError, Var, _compiled, evaluate, parse
from fracspec.spectral import (
    DomainGeometry,
    EllipticityError,
    ModalVector,
    assemble,
    build_basis,
    check_ellipticity,
    continuity_constant,
    garding_constants,
    modal_norms,
    poincare_constant,
    project,
    quadrature_grid,
)
from fracspec import spectral
from fracspec.exprfield import _compiled
from fracspec.spectral import _SLOTS, _node_plan, _plan, _Plan, _tabulate, _Tabulation

from oracles import dense_form_2d, simpson

# Both boxes have unequal largest mode indices per axis, (9, 6) and (35, 2) at
# N = 40, so each axis gets its own quadrature size.
BOXES = [(1.0, 0.7), (1.0, 0.05)]

# Every coefficient variable, elliptic on both boxes; b and c scale the drift
# and the reaction.
VARIABLE_COEFFS = {
    "a11": "1 + 0.3*sin(pi*x)*y + 0.2*t",
    "a12": "0.1*x*t + 0.1*y",
    "a22": "2 + 0.5*cos(pi*y)",
    "b1": "{b}*(x - y)",
    "b2": "{b}*t*(1 + y)",
    "c": "{c}*(1 + x*y^2)",
}


def variable_coeffs(b=1, c=1):
    return {k: parse(v.format(b=b, c=c)) for k, v in VARIABLE_COEFFS.items()}


class TestBuildBasis:
    def test_interval_first_eigenvalue(self):
        b = build_basis(DomainGeometry((1.0,)), 1)
        assert b.eigenvalues[0] == pytest.approx(math.pi**2, rel=1e-14)

    def test_interval_scaling(self):
        b = build_basis(DomainGeometry((2.0,)), 3)
        expected = (math.pi / 2.0) ** 2 * np.array([1.0, 4.0, 9.0])
        assert np.allclose(b.eigenvalues, expected, rtol=1e-14)

    def test_square_ordering_with_tie_break(self):
        # brute-force oracle: enumerate pairs, sort by (eigenvalue, pair)
        b = build_basis(DomainGeometry((1.0, 1.0)), 4)
        assert np.allclose(b.eigenvalues / math.pi**2, [2.0, 5.0, 5.0, 8.0], rtol=1e-13)
        assert b.modes[1] == (1, 2) and b.modes[2] == (2, 1)

    def test_eigenvalues_nondecreasing(self):
        for geom in (DomainGeometry((3.0,)), DomainGeometry((1.0, 2.0))):
            b = build_basis(geom, 20)
            assert np.all(np.diff(b.eigenvalues) >= -1e-13)

    def test_caller_eigenvalues_stay_writeable(self):
        # regression: the basis froze the caller's own array instead of a copy
        lam = np.array([1.0, 4.0])
        b = spectral.SpectralBasis(DomainGeometry((1.0,)), 2, (1, 2), lam)
        assert lam.flags.writeable and not b.eigenvalues.flags.writeable
        lam[0] = 7.0
        assert b.eigenvalues[0] == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_basis(DomainGeometry((1.0,)), 0)
        with pytest.raises(ValueError):
            DomainGeometry(())
        with pytest.raises(ValueError):
            DomainGeometry((1.0, -2.0))
        with pytest.raises(ValueError):
            DomainGeometry((math.nan,))
        with pytest.raises(ValueError):
            DomainGeometry((math.inf, 1.0))
        # regressions: "12" was read as the two lengths (1.0, 2.0), True
        # built a one-mode basis, and 2.5 failed inside range with a TypeError
        for lengths in ("12", b"12", "1"):
            with pytest.raises(ValueError, match="lengths must be"):
                DomainGeometry(lengths)
        for N in (True, 2.5):
            with pytest.raises(ValueError, match="mode count N must be a positive integer"):
                build_basis(DomainGeometry((1.0,)), N)


class TestOrthonormality:
    # the assembly quadrature's contraction of a unit field: the Gram matrix
    # int e_i e_j and the stiffness matrix int De_i . De_j of the basis
    def test_interval_n64(self):
        b = build_basis(DomainGeometry((1.5,)), 64)
        tab = _tabulate(b)
        G = tab.contract(np.ones(tab.shape), None, None)
        assert np.max(np.abs(G - np.eye(64))) <= 1e-10
        S = tab.contract(np.ones(tab.shape), 0, 0)
        assert np.max(np.abs(S - np.diag(b.eigenvalues))) <= 1e-7 * b.eigenvalues[-1]

    def test_rectangle_n16(self):
        b = build_basis(DomainGeometry((1.0, 0.7)), 16)
        tab = _tabulate(b)
        G = tab.contract(np.ones(tab.shape), None, None)
        assert np.max(np.abs(G - np.eye(16))) <= 1e-10

    @pytest.mark.parametrize("lengths", BOXES)
    def test_rectangle_stiffness(self, lengths):
        b = build_basis(DomainGeometry(lengths), 40)
        tab = _tabulate(b)
        S = sum(tab.contract(np.ones(tab.shape), a, a) for a in tab.order)
        assert np.max(np.abs(S - np.diag(b.eigenvalues))) <= 1e-10 * b.eigenvalues[-1]


class TestAssemble:
    def test_laplacian_is_diagonal(self):
        b = build_basis(DomainGeometry((1.0,)), 4)
        form = assemble(b, {"a11": parse("1")}, {}, t=0.0)
        assert np.allclose(form.matrix, np.diag(b.eigenvalues), atol=1e-12)
        assert form.matrix[0, 0] == pytest.approx(math.pi**2, rel=1e-13)

    def test_reaction_shift(self):
        b = build_basis(DomainGeometry((1.0,)), 4)
        form = assemble(b, {"a11": parse("1"), "c": parse("1")}, {}, t=0.0)
        assert np.allclose(form.matrix, np.diag(b.eigenvalues + 1.0), atol=1e-12)

    def test_variable_coefficient_against_dense_quadrature(self):
        # A_11 for a11 = 1 + 0.5 sin(pi x) t at t=1 on (0,1); dense Simpson
        # oracle with ~1e6 points against the closed form pi^2 + 2 pi / 3
        b = build_basis(DomainGeometry((1.0,)), 2)
        form = assemble(b, {"a11": parse("1 + 0.5*sin(pi*x)*t")}, {}, t=1.0)
        x = np.linspace(0.0, 1.0, 1_000_001)
        integrand = (1.0 + 0.5 * np.sin(np.pi * x)) * 2.0 * np.pi**2 * np.cos(np.pi * x) ** 2
        oracle = simpson(integrand, 1.0 / 1_000_000)
        assert form.matrix[0, 0] == pytest.approx(oracle, abs=1e-8)
        closed = math.pi**2 + 2.0 * math.pi / 3.0
        assert form.matrix[0, 0] == pytest.approx(closed, rel=1e-12)

    def test_symmetry_without_drift(self):
        b = build_basis(DomainGeometry((1.0,)), 8)
        form = assemble(b, {"a11": parse("1+0.5*sin(pi*x)*t"), "c": parse("t*x")}, {}, t=0.7)
        assert np.max(np.abs(form.matrix - form.matrix.T)) <= 1e-10

    def test_load_vector_truncation(self):
        b = build_basis(DomainGeometry((1.0,)), 3)
        form = assemble(b, {"a11": parse("1")}, {1: parse("t"), 3: parse("2*t"), 7: parse("1")}, t=0.5)
        assert np.allclose(form.load, [0.5, 0.0, 1.0])

    def test_two_dimensional_constant(self):
        b = build_basis(DomainGeometry((1.0, 1.0)), 4)
        form = assemble(b, {"a11": parse("1"), "a22": parse("1")}, {}, t=0.0)
        assert np.allclose(form.matrix, np.diag(b.eigenvalues), atol=1e-9)

    def test_two_dimensional_cross_term_symmetric(self):
        b = build_basis(DomainGeometry((1.0, 1.0)), 6)
        coeffs = {"a11": parse("1"), "a22": parse("1"), "a12": parse("0.2*x*y")}
        form = assemble(b, coeffs, {}, t=0.0)
        assert np.max(np.abs(form.matrix - form.matrix.T)) <= 1e-10

    @pytest.mark.parametrize("a11", ["1+x", "2"])
    def test_two_dimensional_omitted_cross_term(self, a11):
        # an omitted a12 is the zero cross term, in assembly as in
        # check_ellipticity (regression: assembly raised KeyError 'a12')
        b = build_basis(DomainGeometry((1.0, 1.0)), 4)
        coeffs = {"a11": parse(a11), "a22": parse("1")}
        form = assemble(b, coeffs, {}, t=0.0)
        explicit = assemble(b, {**coeffs, "a12": parse("0")}, {}, t=0.0)
        assert np.array_equal(form.matrix, explicit.matrix)

    @pytest.mark.parametrize(
        "lengths, b_scale, c_scale, gauss",
        [(BOXES[0], 10, 300, (60, 60)), (BOXES[1], 50, 5000, (100, 30))],
    )
    def test_two_dimensional_against_dense_oracle(self, lengths, b_scale, c_scale, gauss):
        # drift and reaction scaled to the size of the stiffness term, so the
        # relative check sees each term
        t = 0.6
        coeffs = variable_coeffs(b_scale, c_scale)
        b = build_basis(DomainGeometry(lengths), 40)
        fns = {k: (lambda X, Y, e=e: np.broadcast_to(evaluate(e, t=t, x=X, y=Y), X.shape))
               for k, e in coeffs.items()}
        ref = dense_form_2d(lengths, b.modes, fns, gauss)
        A = assemble(b, coeffs, {}, t).matrix
        assert np.max(np.abs(A - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [1, 2])
    def test_small_n_variable_coefficients(self, N):
        # regression: 4N panels alone (4 at N = 1) gave 3.4e-9 relative at
        # N = 1 and 1.8e-9 at N = 2; the default rule has at least 16 panels
        t = 0.6
        coeffs = variable_coeffs()
        b = build_basis(DomainGeometry(BOXES[0]), N)
        fns = {k: (lambda X, Y, e=e: np.broadcast_to(evaluate(e, t=t, x=X, y=Y), X.shape))
               for k, e in coeffs.items()}
        ref = dense_form_2d(BOXES[0], b.modes, fns, (60, 60))
        A = assemble(b, coeffs, {}, t).matrix
        assert np.linalg.norm(A - ref) <= 1e-11 * np.linalg.norm(ref)
        assert [len(p) for p in _tabulate(b).pts] == [64, 64]  # 16 panels of 4 points

    def test_forcing_in_space_rejected(self):
        # regression: the load of a forcing x was its value at x = 0
        b = build_basis(DomainGeometry((1.0,)), 4)
        with pytest.raises(ExprDomainError, match="variable 'x' has no value here"):
            assemble(b, {"a11": parse("1")}, {1: parse("x")}, t=0.0)

    @pytest.mark.parametrize("key", [0, -1, 1.5, True])
    def test_rejects_forcing_keys_that_are_not_modes(self, key):
        # regression: keys 0 and -1 were dropped, so the load read all zeros;
        # 1.5 failed with numpy's IndexError, and True counted as mode 1
        b = build_basis(DomainGeometry((1.0,)), 4)
        with pytest.raises(ValueError, match=f"forcing mode {key!r} is not an integer"):
            assemble(b, {"a11": parse("1")}, {key: parse("1")}, t=0.0)

    def test_ellipticity_abort(self):
        b = build_basis(DomainGeometry((1.0,)), 4)
        with pytest.raises(EllipticityError):
            assemble(b, {"a11": parse("x - 0.5")}, {}, t=0.0)

    @pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 0.01)])
    def test_two_dimensional_n256_memory(self, lengths):
        # regression: the (16N)^2-point tabulation asked for ~32 GiB at N=256;
        # the per-axis tables need tens of MB
        b = build_basis(DomainGeometry(lengths), 256)
        coeffs = variable_coeffs()
        tracemalloc.start()
        try:
            A = assemble(b, coeffs, {}, t=0.6).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert A.shape == (256, 256) and np.all(np.isfinite(A))


# (row, col) factors per coefficient in A_ij = a(e_j, e_i): an axis index is
# the derivative along it of the test (row) or trial (col) function, None the value
FORM_SLOTS = {
    "a11": [(0, 0)], "a12": [(0, 1), (1, 0)], "a22": [(1, 1)],
    "b1": [(None, 0)], "b2": [(None, 1)], "c": [(None, None)],
}

# separable: every coefficient a sum of g(t) h(x, y); partly: some terms are
# not (sin(3*x*t)); not: no term splits
SPLIT_CASES = {
    "separable-1d": ((1.0,), {
        "a11": "1.2 + 0.3*sin(2*t)*cos(pi*x)",
        "b1": "0.5*t*sin(pi*x) - exp(-t)",
        "c": "0.7 + (1 + t^2)*x*(1 - x)/(2 + t) - x/2",
    }),
    "partly-1d": ((1.0,), {
        "a11": "1.2 + 0.2*sin(3*x*t) + t*cos(pi*x)/(1+t)",
        "b1": "-(t - x)*2",
        "c": "x/(1 + t) - t^2*exp(x*t)",
    }),
    "not-1d": ((1.0,), {"a11": "1.5 + 0.3*sin(x*t)", "b1": "cos(x + t)", "c": "exp(-x*t)"}),
    "separable-2d": ((1.0, 0.7), {
        "a11": "1.2 + 0.3*sin(2*t)*cos(pi*x)*y",
        "a12": "0.1*t*x - 0.05*y",
        "a22": "2 + 0.4*cos(pi*y)*exp(-t)",
        "b1": "t*(x - y)",
        "b2": "(1 + y)/(1 + t)",
        "c": "0.7 + t*x*y^2",
    }),
    "partly-2d": ((1.0, 0.7), {
        "a11": "1.2 + 0.2*sin(3*x*t) + t*cos(pi*x)/(1+t)",
        "a12": "0.1*sin(x*y*t) + 0.05*t",
        "a22": "2 + 0.3*cos(pi*y*t) + t*y",
        "b1": "x - t*y",
        "c": "sqrt(1 + x*t)*y",
    }),
    "not-2d": ((1.0, 0.7), {
        "a11": "1.5 + 0.3*sin(x*t*y)",
        "a12": "0.1*cos(x + t)",
        "a22": "2 + exp(-x*t)",
        "b2": "sin(y - t)",
        "c": "(x + t)^2",
    }),
}


def per_node_reference(basis, coeffs, t):
    """A(t) by sampling each whole coefficient on the assembly grid at t and contracting."""
    tab = _tabulate(basis)
    A = np.zeros((basis.N, basis.N))
    for name, e in coeffs.items():
        C = np.broadcast_to(evaluate(e, t=t, **tab.env), tab.shape)
        for row, col in FORM_SLOTS[name]:
            A += tab.contract(C, row, col)
    return A


def split_case(name, N):
    lengths, srcs = SPLIT_CASES[name]
    return build_basis(DomainGeometry(lengths), N), {k: parse(v) for k, v in srcs.items()}


@pytest.fixture
def contractions(monkeypatch):
    """Counts _Tabulation.contract calls."""
    count = [0]
    contract = _Tabulation.contract

    def counted(self, *args):
        count[0] += 1
        return contract(self, *args)

    monkeypatch.setattr(_Tabulation, "contract", counted)
    return count


class TestHoistedAssembly:
    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    def test_matches_per_node_reference(self, case):
        basis, coeffs = split_case(case, 12)
        for t in (0.0, 0.37, 1.0):
            A = assemble(basis, coeffs, {}, t).matrix
            ref = per_node_reference(basis, coeffs, t)
            assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["separable-1d", "separable-2d"])
    def test_second_node_contracts_nothing(self, case, contractions):
        basis, coeffs = split_case(case, 8)
        assemble(basis, coeffs, {}, 0.2)
        assert contractions[0] > 0
        contractions[0] = 0
        A = assemble(basis, coeffs, {}, 0.9).matrix
        assert contractions[0] == 0
        ref = per_node_reference(basis, coeffs, 0.9)
        assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_only_the_rest_is_contracted_per_node(self, contractions):
        # a11's sin(3*x*t) does not split: one (0, 0) contraction per node
        basis = build_basis(DomainGeometry((1.0,)), 8)
        coeffs = {"a11": parse("1 + 0.2*sin(3*x*t) + t*x"), "c": parse("t*x^2")}
        assemble(basis, coeffs, {}, 0.2)
        contractions[0] = 0
        assemble(basis, coeffs, {}, 0.9)
        assert contractions[0] == 1

    def test_replaced_coefficient_is_not_stale(self):
        basis = build_basis(DomainGeometry((1.0,)), 6)
        coeffs = {"a11": parse("1 + x*t"), "c": parse("t")}
        first = assemble(basis, coeffs, {}, 0.5).matrix
        coeffs["a11"] = parse("2 + x*t")
        second = assemble(basis, coeffs, {}, 0.5).matrix
        ref = per_node_reference(basis, coeffs, 0.5)
        assert np.max(np.abs(second - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(second - first)) > 1.0

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_t_free_factor_domain_error(self, t):
        # sqrt(x - 2) is sampled once, for the plan; it fails at every node
        basis = build_basis(DomainGeometry((1.0,)), 4)
        with pytest.raises(ExprDomainError, match="sqrt of a negative value") as exc:
            assemble(basis, {"a11": parse("1 + t*sqrt(x - 2)")}, {}, t)
        assert exc.value.subexpr == parse("sqrt(x - 2)")

    def test_t_factor_domain_error_at_its_node(self):
        basis = build_basis(DomainGeometry((1.0,)), 4)
        coeffs = {"a11": parse("2 + x*t/(t - 0.5)")}
        A = assemble(basis, coeffs, {}, 0.25).matrix
        ref = per_node_reference(basis, coeffs, 0.25)
        assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))
        with pytest.raises(ExprDomainError, match="division by zero"):
            assemble(basis, coeffs, {}, 0.5)

    def test_ellipticity_error_names_t_and_x(self):
        # 1 - 2x < 0 on (1/2, 1): the minimum sits at the last grid point
        basis = build_basis(DomainGeometry((1.0,)), 4)
        coeffs = {"a11": parse("1 - t*x")}
        assemble(basis, coeffs, {}, 0.5)
        with pytest.raises(EllipticityError, match=r"at t=2\.0, x=\(0\.99"):
            assemble(basis, coeffs, {}, 2.0)


def unstacked_reference(basis, coeffs, forcing, t):
    """(A, f) at t with every expression evaluated on its own: the load mode
    by mode, and A from the plan's K and each t-factor g_j, plus the rest
    terms sampled and contracted, with no compiled tuple."""
    n = basis.N
    f = np.zeros(n)
    for j, e in forcing.items():
        if 1 <= j <= n:
            f[j - 1] = float(evaluate(e, t=t))
    plan = _plan(basis, tuple(coeffs.items()))
    if plan.diagonal is not None:
        return plan.diagonal, f
    g = np.array([float(evaluate(e, t=t)) for e in plan.factors])
    A = (g @ plan.K).reshape(n, n)
    tab = _tabulate(basis)
    for k, e in plan.rest.items():
        R = np.broadcast_to(np.asarray(evaluate(e, t=t, **tab.env), dtype=float), tab.shape)
        for row, col in _SLOTS[k]:
            A += tab.contract(R, row, col)
    return A, f


# horizon1d-shaped data: the forcing shares t^2 and the sines with the
# coefficients' t-factors, and mode 9 lies above N
SHARED_COEFFS = {
    "a11": "1.2 + 0.25*sin(3.5*t + 5.9)*cos(pi*x)",
    "b1": "0.35*sin(3.3*t + 6.1)*sin(pi*x)",
    "c": "0.7 + 0.5*sin(2.5*t + 5.2)*cos(pi*x) + 0.1*sin(x*t)",
}
SHARED_FORCING = {
    1: "(-0.97)*t^1.5 + (-7.9)*t^2",
    2: "(-1.6)*t^2*sin(3.5*t + 5.9) + (-0.36)*t^2*sin(3.3*t + 6.1)",
    5: "t^2*sin(2.5*t + 5.2)",
    9: "t",
}


class TestCompiledAssembly:
    # assemble evaluates a node's forcing and the plan's t-factors in one
    # compiled call and takes each ellipticity field as one product

    @pytest.mark.parametrize("case", ["shared-1d", "partly-2d", "not-2d", "diagonal"])
    def test_bitwise_equal_to_unstacked_reference(self, case):
        if case == "shared-1d":
            basis = build_basis(DomainGeometry((1.0,)), 6)
            coeffs = {k: parse(v) for k, v in SHARED_COEFFS.items()}
        elif case == "diagonal":
            basis = build_basis(DomainGeometry((1.0,)), 6)
            coeffs = {"a11": parse("2"), "c": parse("0.5")}
        else:
            basis, coeffs = split_case(case, 8)
        forcing = {j: parse(v) for j, v in SHARED_FORCING.items()}
        for t in (0.0, 0.37, 1.0, 2.5):
            F = assemble(basis, coeffs, forcing, t)
            A, f = unstacked_reference(basis, coeffs, forcing, t)
            assert F.matrix.tobytes() == A.tobytes()
            assert F.load.tobytes() == f.tobytes()

    def test_non_split_diffusion(self):
        # a11 has no g(t) h(x) term at all: its field is the rest alone, and
        # a node where it turns negative still fails the ellipticity check
        basis = build_basis(DomainGeometry((1.0,)), 6)
        coeffs = {"a11": parse("exp(0.5*sin(x*t))"), "c": parse("t*x")}
        plan = _plan(basis, tuple(coeffs.items()))
        assert len(plan.samples["a11"][0]) == 0 and "a11" in plan.rest
        for t in (0.0, 0.8):
            A = assemble(basis, coeffs, {}, t).matrix
            ref = per_node_reference(basis, coeffs, t)
            assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))
        with pytest.raises(EllipticityError, match=r"at t=12\.0"):
            assemble(basis, {"a11": parse("sin(x*t + 1)")}, {}, 12.0)

    def test_ellipticity_field_matches_unstacked_sum(self):
        # the stacked product g[js] @ H against the per-term Python sum, on
        # a 2-D case with every diffusion coefficient split into several terms
        basis, coeffs = split_case("separable-2d", 8)
        plan = _plan(basis, tuple(coeffs.items()))
        tab = _tabulate(basis)
        g = np.array([float(evaluate(e, t=0.6)) for e in plan.factors])
        for k, (js, H) in plan.samples.items():
            assert len(js) >= 2
            stacked = g[js] @ H
            summed = sum(g[j] * h for j, h in zip(js, H))
            assert np.max(np.abs(stacked - summed)) <= 1e-15 * np.max(np.abs(summed))
            assert H.shape == (len(js), math.prod(tab.shape))

    def test_plan_built_once_for_two_forcings(self, monkeypatch):
        # one plan for both forcings, and one compiled function per distinct
        # forcing: a repeated node reaches neither (one lookup in _node_plan)
        built = [0]
        compiled = [0]

        class Counted(_Plan):
            def __init__(self, *args):
                built[0] += 1
                super().__init__(*args)

        def counted_compiled(exprs):
            compiled[0] += 1
            return _compiled(exprs)

        monkeypatch.setattr(spectral, "_Plan", Counted)
        monkeypatch.setattr(spectral, "_compiled", counted_compiled)
        _plan.cache_clear()
        _node_plan.cache_clear()
        basis = build_basis(DomainGeometry((1.0,)), 6)
        coeffs = {k: parse(v) for k, v in SHARED_COEFFS.items()}
        first = {j: parse(v) for j, v in SHARED_FORCING.items()}
        second = {1: parse("t^3"), 3: parse("exp(-t)")}
        for forcing in (first, second, first):
            for t in (0.2, 0.9):
                F = assemble(basis, coeffs, forcing, t)
                A, f = unstacked_reference(basis, coeffs, forcing, t)
                assert F.matrix.tobytes() == A.tobytes() and F.load.tobytes() == f.tobytes()
        assert built[0] == 1
        assert compiled[0] == 2


@pytest.fixture
def grid_checks(monkeypatch):
    """Counts the nodes whose ellipticity is checked on the quadrature grid."""
    count = [0]
    check = _Plan._check_grid

    def counted(self, *args):
        count[0] += 1
        return check(self, *args)

    monkeypatch.setattr(_Plan, "_check_grid", counted)
    return count


def form_outcome(plan, t, g, bound=True):
    """plan.form's A as bytes, or its EllipticityError text; bound=False
    takes the grid check at every node, as before the per-term bound."""
    if not bound:
        plan._clears_zero = lambda g: False  # shadows the method on this plan
    try:
        return plan.form(t, g).tobytes()
    except EllipticityError as exc:
        return str(exc)
    finally:
        plan.__dict__.pop("_clears_zero", None)


def grid_min_eigenvalue(plan, g):
    """The grid check's computed min eigenvalue over the grid (no rest terms)."""
    g = np.array(g, dtype=float)
    return float(spectral._min_eigenvalue({k: g[js] @ H for k, (js, H) in plan.samples.items()}).min())


TIME_FACTORS = ["1", "t", "sin(2.3*t + 0.4)", "cos(3.1*t)", "t^2", "exp(-t)"]
SPACE_FACTORS = {
    1: ["1", "cos(pi*x)", "sin(pi*x)", "x", "x*x - 0.5"],
    2: ["1", "cos(pi*x)", "sin(pi*y/0.7)", "x - y", "cos(pi*x)*cos(pi*y/0.7)", "sin(pi*x)*sin(pi*y/0.7)"],
}


@st.composite
def split_coefficient(draw, dim, scale, shift=True):
    """A shift in [0, 3] (if shift) plus 1-3 terms amp * g(t) * h(x, y),
    amp of either sign."""
    terms = [f"{draw(st.floats(0.0, 3.0))!r}"] if shift else []
    for _ in range(draw(st.integers(1, 3))):
        amp = draw(st.floats(-scale, scale))
        terms.append(f"({amp!r})*{draw(st.sampled_from(TIME_FACTORS))}*({draw(st.sampled_from(SPACE_FACTORS[dim]))})")
    return " + ".join(terms)


@st.composite
def split_coefficients(draw):
    dim = draw(st.sampled_from([1, 2]))
    srcs = {"a11": draw(split_coefficient(dim, 2.0)), "c": "0.5 + t*x"}
    if dim == 2:
        srcs["a22"] = draw(split_coefficient(dim, 2.0))
        if draw(st.booleans()):
            srcs["a12"] = draw(split_coefficient(dim, 0.5, shift=False))
    return (1.0,) if dim == 1 else (1.0, 0.7), srcs


class TestEllipticityBound:
    # a node's ellipticity is first bounded from the plan's per-term ranges;
    # the grid check runs only where that bound does not clear zero

    @settings(max_examples=150, deadline=None)
    @given(case=split_coefficients(), t=st.floats(0.0, 2.0))
    def test_bound_implies_grid_check(self, case, t):
        lengths, srcs = case
        basis = build_basis(DomainGeometry(lengths), 4)
        plan = _plan(basis, tuple((k, parse(v)) for k, v in srcs.items()))
        assume(plan.diagonal is None)
        g = _compiled(plan.factors)(t, None, None)
        if plan._clears_zero([float(v) for v in g]):
            assert grid_min_eigenvalue(plan, g) > 0.0
        assert form_outcome(plan, t, g) == form_outcome(plan, t, g, bound=False)

    @settings(max_examples=60, deadline=None)
    @given(
        space=st.sampled_from([(dim, h) for dim, hs in SPACE_FACTORS.items() for h in hs[1:]]),
        ulps=st.integers(-3, 3),
    )
    def test_grid_minimum_at_zero(self, space, ulps):
        # a11 = t + h: at t = -min h the field's grid minimum is 0 exactly
        # (t + min h is exact by Sterbenz's lemma), and `ulps` steps of t
        # move it a few ulps either side; the bound cannot clear such a node
        dim, h = space
        srcs = {"a11": f"t + ({h})"} if dim == 1 else {"a11": f"t + ({h})", "a22": f"t + 1 + ({h})"}
        lengths = (1.0,) if dim == 1 else (1.0, 0.7)
        plan = _plan(build_basis(DomainGeometry(lengths), 4), tuple((k, parse(v)) for k, v in srcs.items()))
        (_, hmin, _, _), = plan.ranges["a11"][1:]
        t = -hmin
        for _ in range(abs(ulps)):
            t = np.nextafter(t, math.copysign(math.inf, ulps))
        g = _compiled(plan.factors)(t, None, None)
        assert not plan._clears_zero([float(v) for v in g])
        got = form_outcome(plan, t, g)
        assert got == form_outcome(plan, t, g, bound=False)
        if dim == 1:
            assert grid_min_eigenvalue(plan, g) == t + hmin
            assert isinstance(got, str) == (ulps <= 0)

    def test_cancelling_terms_take_the_grid_check(self, grid_checks):
        # each term's range counts on its own: the bound reads
        # 1 - 1.8 |sin t| < 0 where the field is 1
        basis = build_basis(DomainGeometry((1.0,)), 6)
        coeffs = {"a11": parse("1 + 0.9*cos(pi*x)*sin(t) - 0.9*cos(pi*x)*sin(t)"), "c": parse("x")}
        for t in (0.0, 1.2, 2.0):
            A = assemble(basis, coeffs, {}, t).matrix
            assert A.tobytes() == unstacked_reference(basis, coeffs, {}, t)[0].tobytes()
        assert grid_checks[0] == 2

    @pytest.mark.parametrize("lengths", [(1.0,), (1.0, 0.7)])
    def test_diffusion_rest_takes_the_grid_check(self, lengths, grid_checks):
        basis = build_basis(DomainGeometry(lengths), 6)
        coeffs = {"a11": parse("2 + 0.5*sin(x*t)"), "a22": parse("3"), "a12": parse("0.1*t")}
        coeffs = {k: v for k, v in coeffs.items() if k in spectral._NAMES[len(lengths)]}
        assert _plan(basis, tuple(coeffs.items())).ranges is None
        for t in (0.0, 0.5, 1.0):
            A = assemble(basis, coeffs, {}, t).matrix
            assert A.tobytes() == unstacked_reference(basis, coeffs, {}, t)[0].tobytes()
        assert grid_checks[0] == 3
        with pytest.raises(EllipticityError, match=r"at t=12\.0"):
            assemble(basis, {**coeffs, "a11": parse("sin(x*t + 1)")}, {}, 12.0)

    def test_reaction_rest_keeps_the_bound(self, grid_checks):
        basis, coeffs = split_case("partly-1d", 6)
        coeffs["a11"] = parse("1.2 + t*cos(pi*x)/(1+t)")
        for t in (0.0, 0.5, 1.0):
            A = assemble(basis, coeffs, {}, t).matrix
            assert A.tobytes() == unstacked_reference(basis, coeffs, {}, t)[0].tobytes()
        assert grid_checks[0] == 0

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_huge_fields_keep_the_grid_outcome(self, scale, grid_checks):
        # at a11 = 2e160, a22 = 1e160 the grid check's radicand overflows to
        # inf (numpy warns) and its min eigenvalue reads -inf, so it raises;
        # the bound leaves fields that large to it.  At 1e150 the squares
        # stay finite and the bound clears the node.
        srcs = {"a11": f"{2 * scale!r} + {scale / 1e10!r}*t*cos(pi*x)", "a22": f"{scale!r}"}
        plan = _plan(build_basis(DomainGeometry((1.0, 0.7)), 4), tuple((k, parse(v)) for k, v in srcs.items()))
        t = 0.5
        g = _compiled(plan.factors)(t, None, None)
        with np.errstate(over="ignore"):
            got = form_outcome(plan, t, g)
            assert got == form_outcome(plan, t, g, bound=False)
        assert isinstance(got, str) == (scale > 1e154)
        assert grid_checks[0] == (2 if scale > 1e154 else 1)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_benchmark_shaped_coefficients_skip_the_grid(self, seed, grid_checks):
        # const + amp sin(omega t + phase) times a sin/cos product per axis,
        # amplitudes and constants from the assembly2d workload's bands
        rng = np.random.default_rng(seed)
        L2 = 1.25
        shapes = {"a11": "cos cos", "a12": "sin sin", "a22": "cos cos", "b1": "sin cos", "c": "cos cos"}
        consts = {"a11": (1.15, 1.25), "a22": (1.15, 1.25), "c": (0.7, 0.8)}
        amps = {"a11": (0.2, 0.3), "a12": (0.1, 0.2), "a22": (0.2, 0.3), "b1": (0.3, 0.6), "c": (0.3, 0.5)}
        coeffs = {}
        for k, shape in shapes.items():
            fx, fy = shape.split()
            term = (f"{rng.uniform(*amps[k])}*sin({rng.uniform(2.0, 4.0)}*t + {rng.uniform(0.0, 2 * math.pi)})"
                    f"*{fx}(pi*x)*{fy}(pi*y/{L2})")
            coeffs[k] = parse(f"{rng.uniform(*consts[k])} + {term}" if k in consts else term)
        basis = build_basis(DomainGeometry((1.0, L2)), 24)
        for t in np.linspace(0.0, 1.0, 33).tolist():
            A = assemble(basis, coeffs, {}, t).matrix
            assert A.tobytes() == unstacked_reference(basis, coeffs, {}, t)[0].tobytes()
        assert grid_checks[0] == 0


class TestCheckEllipticity:
    def test_identity(self):
        rep = check_ellipticity({"a11": parse("1")}, DomainGeometry((1.0,)), 1.0, 0.5)
        assert rep.theta_hat == pytest.approx(1.0, rel=1e-14)
        assert rep.passed

    def test_sine_field(self):
        # a11 = 1 + 0.5 sin(pi x) t >= 1 on (0,1) x [0,1]; dense-sampling
        # oracle value is exactly 1 (attained at t = 0 and at the endpoints)
        rep = check_ellipticity(
            {"a11": parse("1 + 0.5*sin(pi*x)*t")}, DomainGeometry((1.0,)), 1.0, 0.5
        )
        assert rep.theta_hat == pytest.approx(1.0, abs=1e-12)
        assert 0.5 <= rep.theta_hat <= 1.0 + 1e-12

    def test_sign_change_fails(self):
        rep = check_ellipticity({"a11": parse("x - 0.5")}, DomainGeometry((1.0,)), 1.0, 0.1)
        assert not rep.passed
        assert rep.theta_hat < 0.0

    def test_two_dimensional_eigmin(self):
        coeffs = {"a11": parse("2"), "a22": parse("1"), "a12": parse("0.5")}
        rep = check_ellipticity(coeffs, DomainGeometry((1.0, 1.0)), 1.0, 0.1)
        expected = 1.5 - math.sqrt(0.25 + 0.25)
        assert rep.theta_hat == pytest.approx(expected, rel=1e-12)


class TestGardingConstants:
    def geom(self):
        return DomainGeometry((1.0,))

    def test_pure_laplacian(self):
        beta, nu = garding_constants({"a11": parse("1")}, self.geom(), theta=1.0, T=1.0)
        assert (beta, nu) == (0.5, 0.0)

    def test_negative_reaction(self):
        beta, nu = garding_constants({"a11": parse("1"), "c": parse("-1")}, self.geom(), 1.0, 1.0)
        assert beta == 0.5
        assert nu == pytest.approx(1.05, rel=1e-13)  # safety factor on ||c||

    def test_drift_formula(self):
        # nu = ||b||^2/(2 theta); the sampled bound carries the 1.05 factor
        beta, nu = garding_constants({"a11": parse("1"), "b1": parse("1")}, self.geom(), 1.0, 1.0)
        assert beta == 0.5
        assert nu == pytest.approx(1.05**2 * 0.5, rel=1e-13)

    def test_non_finite_drift_rejected(self):
        # regression: an infinite drift sample gave nu = inf, where the same
        # sample in c raised
        for name in ("b1", "c"):
            coeffs = {"a11": parse("1"), name: parse("1e200*1e200 + x")}
            with pytest.raises(ExprDomainError, match="not finite"):
                garding_constants(coeffs, self.geom(), 1.0, 1.0)

    def test_huge_drift_finite_nu(self):
        # regression: the drift sup squared its samples, so ||b|| = 1.05e155
        # overflowed to nu = inf, where nu = ||b||^2 / (2 theta) is 5.5e299
        coeffs = {"a11": parse("1"), "b1": parse("1e155")}
        _, nu = garding_constants(coeffs, self.geom(), 1e10, 1.0)
        assert nu == pytest.approx(1.05**2 * 0.5e300, rel=1e-13)
        two = {"a11": parse("1"), "b1": parse("3e200"), "b2": parse("4e200")}
        _, nu = garding_constants(two, DomainGeometry((1.0, 1.0)), 1e100, 1.0)
        assert nu == pytest.approx(1.05**2 * 12.5e300, rel=1e-13)  # ||b|| = 1.05 * 5e200

    def test_overflowing_nu_rejected(self):
        coeffs = {"a11": parse("1"), "b1": parse("1e155")}
        with pytest.raises(OverflowError, match="nu"):
            garding_constants(coeffs, self.geom(), 1.0, 1.0)

    def test_rejects_nonpositive_theta(self):
        for theta in (0.0, -1.0, math.nan):  # a NaN theta gave nu = nan
            with pytest.raises(ValueError):
                garding_constants({"a11": parse("1")}, self.geom(), theta, 1.0)

    def test_garding_inequality_random_vectors(self):
        # v' A v >= beta ||v||_H10^2 - nu ||v||_L2^2 on 100 random vectors
        geom = DomainGeometry((4.0,))
        basis = build_basis(geom, 8)
        coeffs = {
            "a11": parse("1 + 0.3*sin(pi*x/4)*t"),
            "b1": parse("0.2*cos(pi*t)"),
            "c": parse("-0.2 + 0.1*x"),
        }
        rep = check_ellipticity(coeffs, geom, 1.0, 0.5)
        assert rep.passed
        beta, nu = garding_constants(coeffs, geom, rep.theta_hat, 1.0)
        rng = np.random.default_rng(42)
        for t in (0.0, 0.37, 1.0):
            A = assemble(basis, coeffs, {}, t=t).matrix
            for _ in range(34):
                v = rng.standard_normal(8)
                l2, h10, _ = modal_norms(ModalVector(v, basis))
                assert v @ A @ v >= beta * h10**2 - nu * l2**2 - 1e-9

    def test_continuity_constant_random_vectors(self):
        geom = DomainGeometry((4.0,))
        basis = build_basis(geom, 8)
        coeffs = {
            "a11": parse("1 + 0.3*sin(pi*x/4)*t"),
            "b1": parse("0.2*cos(pi*t)"),
            "c": parse("-0.2 + 0.1*x"),
        }
        C2 = continuity_constant(coeffs, geom, basis, 1.0)
        rng = np.random.default_rng(7)
        for t in (0.0, 0.61):
            A = assemble(basis, coeffs, {}, t=t).matrix
            for _ in range(50):
                v = rng.standard_normal(8)
                w = rng.standard_normal(8)
                _, vh, _ = modal_norms(ModalVector(v, basis))
                _, wh, _ = modal_norms(ModalVector(w, basis))
                assert abs(v @ A @ w) <= C2 * vh * wh + 1e-9

    def test_continuity_constant_rejects_another_box(self):
        # regression: sups on (0, 7) with C_Omega of a basis on (0, 1) gave
        # C2 = 8.4 for a11 = 1 + x, where the basis's box gives 2.1
        basis = build_basis(DomainGeometry((1.0,)), 4)
        coeffs = {"a11": parse("1 + x")}
        assert continuity_constant(coeffs, DomainGeometry((1.0,)), basis, 1.0) == pytest.approx(2.1, rel=1e-14)
        with pytest.raises(ValueError, match="not the basis's box"):
            continuity_constant(coeffs, DomainGeometry((7.0,)), basis, 1.0)


class TestCoefficientNames:
    CALLS = {
        "assemble": lambda c, g, b: assemble(b, c, {}, t=0.0),
        "check_ellipticity": lambda c, g, b: check_ellipticity(c, g, 1.0, 0.5),
        "garding_constants": lambda c, g, b: garding_constants(c, g, 1.0, 1.0),
        "continuity_constant": lambda c, g, b: continuity_constant(c, g, b, 1.0),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("lengths, name", [((1.0,), "b2"), ((1.0,), "a22"), ((1.0, 1.0), "a21")])
    def test_rejects_names_the_box_lacks(self, call, lengths, name):
        # regression: on (0, 1), {"a11": 1, "b2": 5} gave nu = 13.78 and
        # C2 = 2.72 although the assembled A is diag(lambda)
        geom = DomainGeometry(lengths)
        coeffs = {f"a{k}{k}": parse("1") for k in range(1, len(lengths) + 1)}
        coeffs[name] = parse("5")
        with pytest.raises(ValueError, match="do not exist"):
            self.CALLS[call](coeffs, geom, build_basis(geom, 4))

    @pytest.mark.parametrize("call", list(CALLS))
    def test_rejects_variables_the_box_lacks(self, call):
        # regression: on (0, 1), assemble and check_ellipticity read y as 0
        # (a forcing y + 1 gave load 1.0), where the sup bounds raised
        geom = DomainGeometry((1.0,))
        coeffs = {"a11": parse("1 + y*y"), "c": parse("y")}
        with pytest.raises(ExprDomainError, match="variable 'y' has no value here") as exc:
            self.CALLS[call](coeffs, geom, build_basis(geom, 4))
        assert exc.value.subexpr == Var("y")


class TestHorizon:
    CALLS = {
        "check_ellipticity": lambda c, g, b, T: check_ellipticity(c, g, T, 0.5),
        "garding_constants": lambda c, g, b, T: garding_constants(c, g, 1.0, T),
        "continuity_constant": lambda c, g, b, T: continuity_constant(c, g, b, T),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_horizon(self, call, T):
        # regression: check_ellipticity sampled t over [-1, 0] at T = -1 and
        # gave theta_hat = nan at T = nan; garding_constants with no drift
        # and no reaction never looked at T
        geom = DomainGeometry((1.0,))
        with pytest.raises(ValueError, match="horizon T must be a positive finite real"):
            self.CALLS[call]({"a11": parse("1 + x*t")}, geom, build_basis(geom, 4), T)


class TestModalNorms:
    def test_single_mode(self):
        basis = build_basis(DomainGeometry((1.0,)), 3)
        v = ModalVector(np.array([1.0, 0.0, 0.0]), basis)
        l2, h10, hm1 = modal_norms(v)
        assert l2 == pytest.approx(1.0)
        assert h10 == pytest.approx(math.pi, rel=1e-14)
        assert hm1 == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_zero(self):
        basis = build_basis(DomainGeometry((1.0,)), 2)
        assert modal_norms(ModalVector(np.zeros(2), basis)) == (0.0, 0.0, 0.0)

    def test_rejects_complex(self):
        # regression: the cast to float dropped the imaginary part with only
        # a ComplexWarning, so 1 + 2j was stored as 1
        basis = build_basis(DomainGeometry((1.0,)), 3)
        with pytest.raises(ValueError, match="real"):
            ModalVector(np.array([1.0 + 2.0j, 0.0, 0.0]), basis)

    def test_two_modes_and_quadrature_crosscheck(self):
        basis = build_basis(DomainGeometry((1.0,)), 2)
        v = ModalVector(np.array([1.0, 1.0]), basis)
        l2, h10, hm1 = modal_norms(v)
        assert l2 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert h10 == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-14)
        assert hm1 == pytest.approx(math.sqrt(1.25) / math.pi, rel=1e-14)
        # cross-check H10 against dense quadrature of |Dv|^2
        x = np.linspace(0.0, 1.0, 200_001)
        dv = math.sqrt(2.0) * (
            math.pi * np.cos(math.pi * x) + 2.0 * math.pi * np.cos(2.0 * math.pi * x)
        )
        assert math.sqrt(simpson(dv**2, x[1] - x[0])) == pytest.approx(h10, rel=1e-10)

    @pytest.mark.parametrize("lengths, N", [((3.0,), 32), ((1.0, 0.7), 40)])
    def test_matches_fsum_reference(self, lengths, N):
        # the three sums, each exactly rounded by math.fsum, over coefficients
        # spanning several decades
        basis = build_basis(DomainGeometry(lengths), N)
        rng = np.random.default_rng(N)
        lam = basis.eigenvalues.tolist()
        for _ in range(20):
            c = rng.standard_normal(N) * 10.0 ** rng.uniform(-6.0, 3.0, N)
            want = (
                math.sqrt(math.fsum(x * x for x in c)),
                math.sqrt(math.fsum(k * x * x for k, x in zip(lam, c))),
                math.sqrt(math.fsum(x * x / k for k, x in zip(lam, c))),
            )
            got = modal_norms(ModalVector(c, basis))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * w

    @staticmethod
    def scaled_fsum_norms(c, lam):
        # each sum exactly rounded by math.fsum over c scaled by a power of
        # two, so no square under- or overflows; the root scaled back
        e = math.frexp(max(abs(x) for x in c))[1]
        u = [math.ldexp(x, -e) for x in c]
        sums = (
            math.fsum(x * x for x in u),
            math.fsum(k * x * x for k, x in zip(lam, u)),
            math.fsum(x * x / k for k, x in zip(lam, u)),
        )
        return tuple(math.ldexp(math.sqrt(s), e) for s in sums)

    @pytest.mark.parametrize("size", [1e-170, 1e170, 1e160, 1e-300, 1e300])
    def test_far_from_unit_size(self, size):
        # regression: at 1e-170 every square underflowed and a nonzero
        # vector read (0, 0, 0); at 1e160 the squares overflowed, a
        # RuntimeWarning (an error under -W error::RuntimeWarning) and inf
        basis = build_basis(DomainGeometry((1.0,)), 3)
        got = modal_norms(ModalVector(np.array([size, 0.0, 0.0]), basis))
        want = (size, size * math.pi, size / math.pi)
        for g, w in zip(got, want):
            assert abs(g - w) <= 4e-16 * w

    @pytest.mark.parametrize("lengths, N", [((3.0,), 32), ((1.0, 0.7), 40)])
    @pytest.mark.parametrize("decade", [-170, 150, 0])
    def test_mixed_magnitudes_against_fsum(self, lengths, N, decade):
        # coefficients over twelve decades around 10^decade, some entries'
        # squares far below (or above) the double range
        basis = build_basis(DomainGeometry(lengths), N)
        rng = np.random.default_rng(N + 1000 + decade)
        lam = basis.eigenvalues.tolist()
        for _ in range(20):
            c = rng.standard_normal(N) * 10.0 ** rng.uniform(decade - 6.0, decade + 6.0, N)
            got = modal_norms(ModalVector(c, basis))
            for g, w in zip(got, self.scaled_fsum_norms(c.tolist(), lam)):
                assert abs(g - w) <= 1e-14 * w

    def test_normal_range_sums_unchanged(self):
        # inside the normal range the three sums are the plain ones, bit for
        # bit: c*c summed by numpy, and the two BLAS dot products
        basis = build_basis(DomainGeometry((1.0, 0.7)), 40)
        lam = basis.eigenvalues
        rng = np.random.default_rng(21)
        for _ in range(50):
            c = rng.standard_normal(40) * 10.0 ** rng.uniform(-100.0, 100.0, 40)
            cc = c * c
            want = (math.sqrt(cc.sum()), math.sqrt(lam @ cc), math.sqrt(cc @ (1.0 / lam)))
            assert modal_norms(ModalVector(c, basis)) == want

    def test_non_finite(self):
        basis = build_basis(DomainGeometry((1.0,)), 3)
        assert modal_norms(ModalVector(np.array([1.0, np.inf, 0.0]), basis)) == (math.inf,) * 3
        assert all(math.isnan(x) for x in modal_norms(ModalVector(np.array([1.0, np.nan, 0.0]), basis)))

    def test_poincare(self):
        basis = build_basis(DomainGeometry((2.0,)), 4)
        assert poincare_constant(basis) == pytest.approx(2.0 / math.pi, rel=1e-14)


class TestProject:
    def test_recovers_basis_function(self):
        basis = build_basis(DomainGeometry((1.0,)), 4)
        x = quadrature_grid(basis)
        u = math.sqrt(2.0) * np.sin(2.0 * math.pi * x)
        c = project(u, basis).coefficients
        assert abs(c[1] - 1.0) <= 1e-10
        assert np.max(np.abs(np.delete(c, 1))) <= 1e-10

    def test_zero(self):
        basis = build_basis(DomainGeometry((1.0,)), 3)
        x = quadrature_grid(basis)
        assert np.all(project(np.zeros_like(x), basis).coefficients == 0.0)

    def test_parabola_fourier_coefficients(self):
        # u = x(1-x): c_k = 4 sqrt(2) / (k pi)^3 for odd k, 0 for even
        basis = build_basis(DomainGeometry((1.0,)), 3)
        x = quadrature_grid(basis)
        c = project(x * (1.0 - x), basis).coefficients
        assert c[0] == pytest.approx(4.0 * math.sqrt(2.0) / math.pi**3, rel=1e-10)
        assert abs(c[1]) <= 1e-12
        assert c[2] == pytest.approx(4.0 * math.sqrt(2.0) / (3.0 * math.pi) ** 3, rel=1e-8)

    @pytest.mark.parametrize("lengths", BOXES)
    def test_two_dimensional_recovers_basis_functions(self, lengths):
        basis = build_basis(DomainGeometry(lengths), 40)
        X, Y = quadrature_grid(basis)
        L1, L2 = lengths
        C = np.array([
            project(2.0 / math.sqrt(L1 * L2) * np.sin(p * math.pi * X / L1) * np.sin(q * math.pi * Y / L2),
                    basis).coefficients
            for p, q in basis.modes
        ])
        assert np.max(np.abs(C - np.eye(40))) <= 1e-10

    def test_rejects_complex(self):
        # regression: the cast to float dropped the imaginary part of the
        # samples with only a ComplexWarning
        basis = build_basis(DomainGeometry((1.0,)), 3)
        x = quadrature_grid(basis)
        with pytest.raises(ValueError, match="real"):
            project(x * (1.0 - x) * (1.0 + 1.0j), basis)

    def test_idempotent(self):
        basis = build_basis(DomainGeometry((1.0,)), 5)
        x = quadrature_grid(basis)
        u = x * (1.0 - x) * np.exp(x)
        c1 = project(u, basis).coefficients
        tab_vals = math.sqrt(2.0) * np.sin(np.arange(1, 6)[:, None] * math.pi * x[None, :])
        u_proj = c1 @ tab_vals
        c2 = project(u_proj, basis).coefficients
        assert np.max(np.abs(c2 - c1)) <= 1e-10
