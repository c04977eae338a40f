"""Eigenbasis, assembly, ellipticity and modal-norm tests."""

import math
import tracemalloc

import numpy as np
import pytest

from fracspec.exprfield import CoefficientField, ExprDomainError, evaluate, parse
from fracspec.spectral import (
    DomainGeometry,
    EllipticityError,
    ModalVector,
    QuadratureRule,
    assemble,
    build_basis,
    check_ellipticity,
    continuity_constant,
    default_quadrature,
    garding_constants,
    gram_matrix,
    modal_norms,
    poincare_constant,
    project,
    quadrature_grid,
    stiffness_gram,
)
from fracspec.spectral import _tabulate, _Tabulation

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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_basis(DomainGeometry((1.0,)), 0)
        with pytest.raises(ValueError):
            DomainGeometry(())
        with pytest.raises(ValueError):
            DomainGeometry((1.0, -2.0))


class TestOrthonormality:
    def test_interval_n64(self):
        b = build_basis(DomainGeometry((1.5,)), 64)
        G = gram_matrix(b)
        assert np.max(np.abs(G - np.eye(64))) <= 1e-10
        S = stiffness_gram(b)
        assert np.max(np.abs(S - np.diag(b.eigenvalues))) <= 1e-7 * b.eigenvalues[-1]

    def test_rectangle_n16(self):
        b = build_basis(DomainGeometry((1.0, 0.7)), 16)
        G = gram_matrix(b)
        assert np.max(np.abs(G - np.eye(16))) <= 1e-10

    @pytest.mark.parametrize("lengths", BOXES)
    def test_rectangle_stiffness(self, lengths):
        b = build_basis(DomainGeometry(lengths), 40)
        S = stiffness_gram(b)
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
        assert form.matrix[0, 0] == pytest.approx(closed, abs=1e-8)
        fine = assemble(b, {"a11": parse("1 + 0.5*sin(pi*x)*t")}, {}, 1.0, QuadratureRule(64, 6))
        assert fine.matrix[0, 0] == pytest.approx(closed, rel=1e-12)

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
        assert default_quadrature(N).panels == 16

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
    tab = _tabulate(basis, None)
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

    def test_fields_and_bare_expressions_agree(self):
        basis, coeffs = split_case("partly-2d", 8)
        fields = {k: CoefficientField(e, (1.0, 0.7), 1.0) for k, e in coeffs.items()}
        assert np.array_equal(assemble(basis, fields, {}, 0.4).matrix, assemble(basis, coeffs, {}, 0.4).matrix)

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

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            garding_constants({"a11": parse("1")}, self.geom(), 0.0, 1.0)

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

    def test_idempotent(self):
        basis = build_basis(DomainGeometry((1.0,)), 5)
        x = quadrature_grid(basis)
        u = x * (1.0 - x) * np.exp(x)
        c1 = project(u, basis).coefficients
        tab_vals = math.sqrt(2.0) * np.sin(np.arange(1, 6)[:, None] * math.pi * x[None, :])
        u_proj = c1 @ tab_vals
        c2 = project(u_proj, basis).coefficients
        assert np.max(np.abs(c2 - c1)) <= 1e-10
