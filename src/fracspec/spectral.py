"""Dirichlet-Laplacian sine eigenbasis on intervals and rectangles.

Supplies the spectral Galerkin ingredients: eigenpairs, composite
Gauss-Legendre quadrature, assembly of the time-dependent form

    a(u, v; t) = int sum_kl a_kl d_l u d_k v + sum_k b_k (d_k u) v + c u v,

modal projections, and the modal L2 / H1_0 / H^-1 norms.  Bases and assembled
forms are immutable; assembly at distinct times is a pure function and may run
concurrently.

Three bounded LRU caches keep what does not depend on t.  _tabulate holds the
per-axis sine tables of a basis on its quadrature grid.  _plan holds, per
(basis, coefficient expressions), each coefficient split into terms
g(t) h(x, y) with every t-free factor h sampled and contracted once (sum
factorisation on the sine basis), the diffusion samples stacked per name,
the range of each diffusion factor h over the grid, the validated
coefficient names and the constant-diagonal case.  Coefficients are keyed by
value, so a dict changed between calls is never served a stale plan, and a
changed forcing reuses the plan.  _node_plan holds, per (basis,
coefficients, forcing), the plan and the compiled tuple of the forcing and
the g(t) (exprfield._compiled, which computes a subtree they share once), so
a node makes one cache lookup.  At each node assemble evaluates that tuple
in one call, sums the contracted matrices, and samples and contracts
whatever does not split.
Ellipticity on the quadrature grid is checked first by a lower bound built
from the g(t) and the plan's ranges; only a node whose bound does not clear
zero by a rounding allowance (or a diffusion coefficient that does not
split) has its fields sampled on the grid, with the same outcome.

A coefficient is an exprfield expression in t, x (and y in 2d); a variable
the box lacks raises where it is read.  The paper's constants (theta,
beta/nu, C2) sample the coefficients over [0, T] x box, T and box as given.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .exprfield import BinOp, ExprDomainError, Neg, Num, _compiled, evaluate, variables_of
from .fraccalc import _EPS, _is_count, _max_norm, _real

__all__ = [
    "DomainGeometry",
    "SpectralBasis",
    "AssembledForm",
    "ModalVector",
    "EllipticityReport",
    "EllipticityError",
    "build_basis",
    "assemble",
    "check_ellipticity",
    "garding_constants",
    "continuity_constant",
    "modal_norms",
    "project",
    "poincare_constant",
]


class EllipticityError(ValueError):
    """Sampled coefficient matrix failed positivity during assembly."""


@dataclass(frozen=True)
class DomainGeometry:
    """Interval (0, L) or rectangle (0, L1) x (0, L2)."""

    lengths: tuple

    def __post_init__(self):
        # a str or bytes would be read as one length a character, and an
        # element that is not a real number (_real: "1", b"2", True) is NaN
        ls = () if isinstance(self.lengths, (str, bytes)) else tuple(map(_real, self.lengths))
        if not (1 <= len(ls) <= 2) or not all(0.0 < L < math.inf for L in ls):
            raise ValueError(f"lengths must be one or two positive finite reals, got {self.lengths}")
        object.__setattr__(self, "lengths", ls)

    @property
    def dim(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """First N Dirichlet-Laplacian eigenpairs, nondecreasing eigenvalues.

    1d: e_k(x) = sqrt(2/L) sin(k pi x / L), lambda_k = (k pi / L)^2.
    2d: tensor products sorted by eigenvalue, ties broken by the
    lexicographic mode pair.
    """

    geometry: DomainGeometry
    N: int
    modes: tuple  # ints (1d) or (p, q) pairs (2d)
    eigenvalues: np.ndarray

    def __post_init__(self):
        # freeze a copy: the caller's array stays writeable
        lam = np.array(self.eigenvalues, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @cached_property
    def _recip_eigenvalues(self) -> np.ndarray:
        """1 / lambda_k, the H^-1 weights of modal_norms, formed once a basis."""
        return 1.0 / self.eigenvalues


def build_basis(geom: DomainGeometry, N: int) -> SpectralBasis:
    """First N eigenpairs of the Dirichlet Laplacian on the box."""
    if not _is_count(N):
        raise ValueError(f"mode count N must be a positive integer, got {N}")
    if geom.dim == 1:
        L = geom.lengths[0]
        modes = tuple(range(1, N + 1))
        lam = np.array([(k * math.pi / L) ** 2 for k in modes])
        return SpectralBasis(geom, N, modes, lam)
    L1, L2 = geom.lengths
    cands = []
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            lam = (p * math.pi / L1) ** 2 + (q * math.pi / L2) ** 2
            cands.append((lam, (p, q)))
    cands.sort(key=lambda c: (c[0], c[1]))
    chosen = cands[:N]
    return SpectralBasis(geom, N, tuple(m for _, m in chosen), np.array([l for l, _ in chosen]))


def _gauss_nodes(k: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the assembly rule on (0, L): composite
    Gauss-Legendre with 4 points per panel and 4k panels, at least 16.

    k is the largest mode index on the axis the rule serves.  The floor keeps
    variable coefficients resolved when few modes are wanted: at 2-D N = 1
    the 4-panel rule reached only ~3e-9 relative accuracy on smooth fields.
    """
    gx, gw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, L, max(4 * k, 16) + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


@dataclass(frozen=True, eq=False)
class ModalVector:
    """Coefficients against the first N basis functions."""

    coefficients: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        c = np.asarray(self.coefficients)
        # a cast to float would drop an imaginary part with only a warning
        if c.dtype.kind == "c":
            raise ValueError("coefficients must be real, got complex values")
        if c.shape != (self.basis.N,):
            raise ValueError(f"expected {self.basis.N} coefficients, got shape {c.shape}")
        c = c.astype(float)  # a copy
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True, eq=False)
class AssembledForm:
    """Form matrix A(t)_ij = a(e_j, e_i; t) and modal load vector f(t)."""

    matrix: np.ndarray
    load: np.ndarray


# (row, col) factors of each coefficient's integrand in A_ij = a(e_j, e_i): an
# axis index k is d_k of the test (row) or trial (col) function, None its value.
_SLOTS = {
    "a11": ((0, 0),),
    "a12": ((0, 1), (1, 0)),
    "a22": ((1, 1),),
    "b1": ((None, 0),),
    "b2": ((None, 1),),
    "c": ((None, None),),
}


# coefficient names that exist on a box of each dimension, in _SLOTS order
_NAMES = {1: ["a11", "b1", "c"], 2: list(_SLOTS)}


def _present(coeffs, dim: int) -> list:
    """Names given in coeffs, in _SLOTS order; a name the box lacks is an error."""
    unknown = sorted(set(coeffs) - set(_NAMES[dim]))
    if unknown:
        raise ValueError(f"coefficients {unknown} do not exist in {dim}d; expected a subset of {_NAMES[dim]}")
    return [k for k in _NAMES[dim] if k in coeffs]


def _diffusion(present: list, dim: int) -> list:
    """The diffusion names among present; a11 (and a22 in 2d) are required."""
    names = [k for k in present if k[0] == "a"]
    if any(f"a{k}{k}" not in names for k in range(1, dim + 1)):
        raise ValueError("diffusion coefficients a11 (and a22 in 2d) are required")
    return names


class _Tabulation:
    """Per-axis sine tables on a tensor Gauss grid, contracted by sum factorisation.

    Axis a tabulates sqrt(2/L) sin(k pi x / L) and its derivative for
    k = 1..k_a only, k_a the largest index of that axis among the basis modes,
    on _gauss_nodes(k_a).  Grid arrays are laid out in contraction order, the
    axis with fewer modes first: the first contraction's (rest, k, P)
    intermediate is then the small one.
    """

    def __init__(self, basis: SpectralBasis):
        geom = basis.geometry
        idx = np.array(basis.modes).reshape(basis.N, geom.dim) - 1
        kmax = idx.max(axis=0) + 1
        self.order = tuple(int(a) for a in np.argsort(kmax, kind="stable"))
        self.pts, self.wts, self.values, self.derivs = [], [], [], []
        for L, k_a in zip(geom.lengths, kmax):
            pts, wts = _gauss_nodes(int(k_a), L)
            k = np.arange(1, k_a + 1, dtype=float)[:, None]
            amp = math.sqrt(2.0 / L)
            self.pts.append(pts)
            self.wts.append(wts)
            self.values.append(amp * np.sin(k * math.pi * pts[None, :] / L))
            self.derivs.append(amp * (k * math.pi / L) * np.cos(k * math.pi * pts[None, :] / L))
        self.shape = tuple(len(self.pts[a]) for a in self.order)
        # grid coordinates as broadcastable arrays for evaluate, keyed x (, y)
        self.env = {
            name: pts.reshape([-1 if a == b else 1 for b in self.order])
            for a, (name, pts) in enumerate(zip(("x", "y"), self.pts))
        }
        # flat positions of c_i and A_ij in the contracted per-axis blocks
        self.flat_vector = np.zeros(basis.N, dtype=np.intp)
        self.flat_matrix = np.zeros((basis.N, basis.N), dtype=np.intp)
        for a in self.order:
            i = idx[:, a]
            self.flat_vector = self.flat_vector * kmax[a] + i
            self.flat_matrix = (self.flat_matrix * kmax[a] + i[:, None]) * kmax[a] + i[None, :]

    def contract(self, C: np.ndarray, *slots) -> np.ndarray:
        """int C F(e_i) for every i, or int C F(e_i) G(e_j) for every i, j.

        C holds samples on the grid in contraction order; each slot (row F,
        then col G) is an axis index for that derivative or None for the value.
        """
        for a in self.order:
            X = C.reshape(len(self.wts[a]), -1).T * self.wts[a]
            F = [self.derivs[a] if s == a else self.values[a] for s in slots]
            C = X @ F[0].T if len(F) == 1 else (F[0] * X[:, None, :]) @ F[1].T
        return C.take(self.flat_vector if len(slots) == 1 else self.flat_matrix)


@lru_cache(maxsize=16)
def _tabulate(basis: SpectralBasis) -> _Tabulation:
    return _Tabulation(basis)


def _sample(e, shape, **env) -> np.ndarray:
    """Values of an expression at the points env, broadcast to shape."""
    return np.broadcast_to(np.asarray(evaluate(e, **env), dtype=float), shape)


def _grid(geom: DomainGeometry, T: float, n: int) -> tuple[list, dict]:
    """n points per axis over [0, T] x box: the axes, and the open (sparse)
    grids keyed t, x (, y) for evaluate.

    An expression is evaluated on its own axes and broadcast, so a factor in
    one variable costs n points.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon T must be a positive finite real, got {T}")
    axes = [np.linspace(0.0, T, n)] + [np.linspace(0.0, L, n) for L in geom.lengths]
    return axes, dict(zip(("t", "x", "y"), np.meshgrid(*axes, indexing="ij", sparse=True)))


# Sup bounds sample this many points per axis of [0, T] x box and inflate
# the maximum against peaks between samples of smooth fields; assembly grids
# no finer than the sampling grid stay below the bound.
_SUP_SAMPLES = 64
_SUP_INFLATION = 1.05


def _sup_samples(e, env: dict) -> np.ndarray:
    """Values of e on the sup grid env (from _grid with _SUP_SAMPLES points)."""
    vals = _sample(e, (_SUP_SAMPLES,) * len(env), **env)
    if not np.all(np.isfinite(vals)):
        raise ExprDomainError("coefficient is not finite on [0, T] x box", e)
    return vals


def _sup_norm(exprs: list, env: dict) -> float:
    """Sampled sup of the Euclidean magnitude of a vector of expressions
    (0.0 for none), inflated: fraccalc._max_norm of the samples, one column
    per expression, so squares that would overflow are scaled first and one
    expression gives its sampled max |e| exactly."""
    if not exprs:
        return 0.0
    samples = np.stack([_sup_samples(e, env) for e in exprs], axis=-1)
    return _SUP_INFLATION * _max_norm(samples.reshape(-1, len(exprs)))


def _min_eigenvalue(avals: dict) -> np.ndarray:
    """Pointwise min eigenvalue of the symmetric (a_kl) from sample arrays.

    1-d when a22 is absent; in 2-d a missing a12 counts as 0.
    """
    if "a22" not in avals:
        return avals["a11"]
    a11, a22 = avals["a11"], avals["a22"]
    half_tr = 0.5 * (a11 + a22)
    rad = np.sqrt(0.25 * (a11 - a22) ** 2 + avals.get("a12", 0.0) ** 2)
    return half_tr - rad


# a product splits into at most this many g(t) h(x, y) terms; larger ones are rest
_MAX_TERMS = 16
_ONE = Num(1.0)


def _times(a, b):
    """a * b, leaving out a factor 1."""
    return b if a == _ONE else a if b == _ONE else BinOp("*", a, b)


def _split(e) -> tuple[list, list]:
    """e as sum_i g_i(t) h_i(x, y) plus the rest: ([(g_i, h_i)], [rest terms]).

    g_i is an expression in t alone and h_i one free of t (either may be
    the constant 1).  The split goes through + and -, through * while both
    sides split without rest into at most _MAX_TERMS products, and through
    / by a divisor in t alone or free of t; any other node in both t and
    space (sin(x*t), say) is rest.
    """
    names = variables_of(e)
    if "t" not in names:
        return [(_ONE, e)], []
    if names == {"t"}:
        return [(e, _ONE)], []
    if isinstance(e, Neg):
        terms, rest = _split(e.child)
        return [(Neg(g), h) for g, h in terms], [Neg(r) for r in rest]
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        right = _split(e.right if e.op == "+" else Neg(e.right))
        left = _split(e.left)
        return left[0] + right[0], left[1] + right[1]
    if isinstance(e, BinOp) and e.op == "*":
        (lt, lr), (rt, rr) = _split(e.left), _split(e.right)
        if not lr and not rr and len(lt) * len(rt) <= _MAX_TERMS:
            return [(_times(g1, g2), _times(h1, h2)) for g1, h1 in lt for g2, h2 in rt], []
    if isinstance(e, BinOp) and e.op == "/" and (divisor := variables_of(e.right)) <= {"t"}:
        terms, rest = _split(e.left)
        d = e.right
        if divisor:
            terms = [(BinOp("/", g, d), h) for g, h in terms]
        else:
            terms = [(g, BinOp("/", h, d)) for g, h in terms]
        return terms, [BinOp("/", r, d) for r in rest]
    return [], [e]


# absolute part of the ellipticity bound's allowance: sqrt of the smallest
# normal double, 2^-511; its reciprocal caps the bound's magnitude so that no
# square in _min_eigenvalue overflows (see _Plan._clears_zero)
_UNDERFLOW = math.sqrt(sys.float_info.min)


class _Plan:
    """The part of assemble that does not depend on t, for one (basis, coeffs).

    Each coefficient is split by _split.  The t-free factors h are sampled
    on the quadrature grid and contracted once; the terms of each distinct
    t-factor g_j (factors[j]) sum into K[j], so A(t) = sum_j g_j(t) K[j] plus
    the rest, which is sampled and contracted at every node.  The sampled h
    of each diffusion name are stacked as the rows of one matrix, so its
    field for the ellipticity check is one product g[js] @ H per node (plus
    its rest).  Constant isotropic diffusion with constant reaction and no
    drift is instead the exact diagonal, with no t-factors.

    For the ellipticity check each diffusion term also keeps (j, min h,
    max h, max |h|) over the same samples (ranges).  At a node,
    sum_j min(g_j min h_j, g_j max h_j) bounds a name's field from below and
    sum_j |g_j| max |h_j| bounds its magnitude, so Gershgorin's
    min(a11, a22) - |a12| (a11 in 1-D) bounds the min eigenvalue at every
    grid point from J numbers (_clears_zero).  A node whose bound clears
    zero by the rounding allowance, with magnitudes below 2^511, skips the
    grid; the others, and every node when a diffusion name has rest terms,
    run the grid check (_check_grid).  Rest terms of b and c do not matter to the bound.
    """

    def __init__(self, basis: SpectralBasis, coeffs: dict):
        dim = basis.geometry.dim
        present = _present(coeffs, dim)
        self.diffusion = _diffusion(present, dim)
        consts = {k: None if variables_of(coeffs[k]) else float(evaluate(coeffs[k]))
                  for k in present if k[0] != "b"}
        diag = {consts[f"a{k}{k}"] for k in range(1, dim + 1)}
        self.diagonal = None
        if (
            not any(k[0] == "b" for k in present)
            and None not in consts.values()
            and consts.get("a12", 0.0) == 0.0
            and len(diag) == 1
        ):
            # constant isotropic diffusion on the orthonormal eigenbasis:
            # A = diag(abar * lambda + c) exactly
            abar = diag.pop()
            if abar <= 0.0:
                raise EllipticityError(f"constant diffusion coefficient {abar} is not positive")
            self.diagonal = np.diag(abar * basis.eigenvalues + consts.get("c", 0.0))
            self.factors = ()
            return

        tab = self.tab = _tabulate(basis)
        self.n = basis.N
        factors = {}  # g_j -> j
        K = []
        samples = {k: [] for k in self.diffusion}  # name -> [(j, h on the grid)]
        self.rest = {}  # name -> sum of its rest terms
        for k in present:
            terms, rest = _split(coeffs[k])
            for g, h in terms:
                H = _sample(h, tab.shape, **tab.env)
                form = sum(tab.contract(H, row, col) for row, col in _SLOTS[k])
                j = factors.setdefault(g, len(K))
                if j == len(K):
                    K.append(form)
                else:
                    K[j] += form
                if k in samples:
                    samples[k].append((j, H))
            if rest:
                self.rest[k] = reduce(lambda a, b: BinOp("+", a, b), rest)
        self.factors = tuple(factors)
        self.K = np.array(K).reshape(len(K), self.n**2)
        # per diffusion name: the indices j of its terms and their h stacked
        # as rows, so its field at a node is one product g[js] @ H
        size = math.prod(tab.shape)
        self.samples = {
            k: (np.array([j for j, _ in terms], dtype=np.intp),
                np.array([H for _, H in terms]).reshape(len(terms), size))
            for k, terms in samples.items()
        }
        # per diffusion name: (j, min h, max h, max |h|) of each term, or
        # None when a diffusion name has rest terms, which no range bounds
        self.ranges = None
        if not any(k in self.rest for k in self.diffusion):
            self.ranges = {k: [] for k in samples}
            for k, terms in samples.items():
                for j, H in terms:
                    lo, hi = float(H.min()), float(H.max())
                    self.ranges[k].append((j, lo, hi, max(-lo, hi)))
            self.widen = 4.0 * (max(map(len, samples.values())) + 2) * _EPS

    def _clears_zero(self, g: list) -> bool:
        """Whether the per-term bound shows that the grid check passes at
        the node with t-factor values g.

        Per diffusion name k, lo_k = sum_j min(g_j min h_j, g_j max h_j)
        bounds the field from below and S_k = sum_j |g_j| max |h_j| bounds
        its magnitude, at every grid point.  Gershgorin's disc gives
        lambda_min >= min(a11, a22) - |a12| for the symmetric 2x2 matrix, so
        B = min(lo_11, lo_22) - S_12 (lo_11 in 1-D) bounds the min
        eigenvalue from below.  The bound passes when
        B > widen S + _UNDERFLOW and S < 1/_UNDERFLOW, with S = sum_k S_k
        and widen = 4 (J + 2) eps, J the most terms of one name: the grid
        check's computed min eigenvalue then exceeds 0 at every point.  With
        u = eps/2 and gamma_J = J u / (1 - J u) (Higham 2002, Accuracy and
        Stability of Numerical Algorithms, ch. 3), the rounding it covers is

        - the bound's own sums: each computed lo_k and S_12 lies within
          gamma_J S_k of its exact value (J products, J - 1 additions, any
          order), and the final min and subtraction add u S;
        - the field product g[js] @ H, a J-term dot product in whatever order
          the BLAS takes: each field lies within gamma_J S_k of its exact
          value, so by Gershgorin the exact min eigenvalue of the computed
          fields is >= B - (2 gamma_J + u) S;
        - _min_eigenvalue's arithmetic: in 2-D the half trace (one
          rounding), the radicand (four), its square root (halving the
          radicand's relative error, plus one) and the difference (one) put
          the computed half_tr - rad within 2 eps (|a11| + |a22| + |a12|)
          <= 2 eps S (1 + gamma_J) of the exact eigenvalue; 1-D returns a11
          as computed.

        Together that is (J + 5/2) eps S to first order, which widen covers
        with a factor above 3 to spare for the rounding of S itself and the
        second-order terms, as max_operator_norm's 4 N^2 eps covers its SVD.
        _UNDERFLOW (2^-511) covers values below the normal range, where
        rounding is absolute, up to 2^-1075 a product or square: the square
        root lifts such an error in the radicand to at most ~2^-536.  At the
        other end, S < 2^511 keeps _min_eigenvalue's squares finite:
        |a11 - a22| and |a12| are at most S to first order, so the radicand
        stays below ~2^1022.  A larger S (a11 = 2e160, say) could overflow
        the radicand to inf, which makes the grid's min eigenvalue -inf and
        fails the check; such nodes take the grid check.  A non-finite g_j or
        h sample makes S inf or NaN, so the bound fails and the grid check
        decides as before.
        """
        if self.ranges is None:
            return False
        low, size = {}, {}
        for k, terms in self.ranges.items():
            lo = s = 0.0
            for j, hmin, hmax, habs in terms:
                gj = g[j]
                lo += min(gj * hmin, gj * hmax)
                s += abs(gj) * habs
            low[k], size[k] = lo, s
        bound = low["a11"] if "a22" not in low else min(low["a11"], low["a22"]) - size.get("a12", 0.0)
        s = sum(size.values())
        return bound > self.widen * s + _UNDERFLOW and s < 1.0 / _UNDERFLOW

    def _check_grid(self, t: float, g: np.ndarray, rest: dict) -> None:
        """Ellipticity on the quadrature grid: the diffusion fields sampled
        (one product g[js] @ H per name, plus its sampled rest) and their
        pointwise min eigenvalue, EllipticityError naming t and x where it is
        not positive."""
        tab = self.tab
        fields = {}
        for k, (js, H) in self.samples.items():
            field = (g[js] @ H).reshape(tab.shape)
            fields[k] = field + rest[k] if k in rest else field
        eig = _min_eigenvalue(fields)
        idx = int(eig.argmin())
        theta_min = float(eig.flat[idx])
        if theta_min <= 0.0:
            loc = tuple(float(np.broadcast_to(p, tab.shape).flat[idx]) for p in tab.env.values())
            raise EllipticityError(
                f"coefficient matrix loses positivity at t={t}, x={loc}: min eigenvalue {theta_min}"
            )

    def form(self, t: float, g: tuple) -> np.ndarray:
        """A(t) from the values g of the t-factors at t, after the
        ellipticity check: the per-term bound, or where it does not clear
        zero the check on the quadrature grid."""
        if self.diagonal is not None:
            return self.diagonal.copy()
        tab = self.tab
        g = np.array(g, dtype=float)
        rest = {k: _sample(e, tab.shape, t=t, **tab.env) for k, e in self.rest.items()}
        if not self._clears_zero(g.tolist()):
            self._check_grid(t, g, rest)
        A = (g @ self.K).reshape(self.n, self.n)
        for k, R in rest.items():
            for row, col in _SLOTS[k]:
                A += tab.contract(R, row, col)
        return A


@lru_cache(maxsize=16)
def _plan(basis: SpectralBasis, coeffs: tuple) -> _Plan:
    return _Plan(basis, dict(coeffs))


@lru_cache(maxsize=16)
def _node_plan(basis: SpectralBasis, coeffs: tuple, forcing: tuple) -> tuple:
    """What assemble needs at every node, one lookup a node: the plan of
    (basis, coeffs), the compiled function of the in-range forcing
    expressions and the plan's t-factors, and the load positions of those
    forcing modes.  assemble has checked the forcing keys."""
    plan = _plan(basis, coeffs)
    live = [(j, e) for j, e in forcing if j <= basis.N]
    values = _compiled(tuple(e for _, e in live) + plan.factors)
    return plan, values, [j - 1 for j, _ in live]


def assemble(basis, coeffs, forcing, t) -> AssembledForm:
    """Form matrix and load at time t.

    coeffs maps "a11" ("a12", "a22" when 2d), optional "b1" ("b2") and "c"
    to expressions in t and the box's variables; only the upper triangle of
    the diffusion matrix is read, so (a_kl) is symmetric by construction.
    forcing maps mode indices (1-based, in eigenvalue order) to expressions
    in t alone; modes above N are truncated, unlisted modes are zero, and a
    key that is not an integer >= 1 (True, 0, 1.5) raises ValueError.  A
    variable the box (or, in the forcing, t alone) lacks raises
    ExprDomainError naming it.

    Constant-coefficient diagonal case (constant a, c; no b) is assembled
    exactly from orthonormality, so single-mode problems decouple exactly.

    What does not depend on t is done once per (basis, coefficient
    expressions) and kept in a small LRU keyed by value, so a coefficient
    replaced in the same dict gets a new plan and a new forcing does not
    (see _Plan): each coefficient is split into terms g(t) h(x, y) and the
    t-free factors h are contracted once.  A second small LRU, keyed by
    value on (basis, coefficients, forcing), holds the plan with the
    compiled function of the forcing and the t-factors (_node_plan), so a
    node makes one cache lookup, and a forcing replaced in the same dict
    gets a new entry.  A call evaluates the in-range forcing expressions and
    then the g(t) in one compiled call, which computes a subtree they share
    (t^2, a sine of t) once; it then sums the contracted matrices, and
    samples and contracts only what does not split (sin(x*t), say).  The diffusion coefficients are checked for
    ellipticity on the quadrature grid at every call: first by a Gershgorin
    lower bound from the t-factors and each term's range over the grid,
    which must clear zero by a rounding allowance; where it does not, or a
    diffusion coefficient does not split, by sampling the fields on the grid
    (_Plan._clears_zero).  Either way a node passes or raises
    EllipticityError as the grid check alone would, and A is the same.
    """
    # at every call, before the lookup: True and 1.0 equal the key 1, so they
    # would find its plan; a plain int takes the fast test
    for j in forcing:
        if not ((type(j) is int and j >= 1) or _is_count(j)):
            raise ValueError(f"forcing mode {j!r} is not an integer >= 1")
    plan, values_at, positions = _node_plan(basis, tuple(coeffs.items()), tuple(forcing.items()))
    values = values_at(t, None, None)
    load = np.zeros(basis.N)
    for i, v in zip(positions, values):
        load[i] = v
    return AssembledForm(plan.form(t, values[len(positions):]), load)


@dataclass(frozen=True)
class EllipticityReport:
    theta_hat: float
    theta_min: float
    passed: bool
    argmin: tuple


_ELLIPTICITY_SAMPLES = 32


def check_ellipticity(coeffs, geom: DomainGeometry, T: float, theta_min: float) -> EllipticityReport:
    """Sampled uniform-ellipticity check.

    Samples (t, x[, y]) on a tensor grid of _ELLIPTICITY_SAMPLES points per
    axis over [0, T] x box, takes the minimum eigenvalue of the symmetric
    coefficient matrix at each sample and passes iff the global minimum is
    >= theta_min.  Asymmetric input is unrepresentable: only the upper
    triangle (a11, a12, a22) exists, a21 is a12 by construction.
    """
    axes, env = _grid(geom, T, _ELLIPTICITY_SAMPLES)
    keys = _diffusion(_present(coeffs, geom.dim), geom.dim)
    m = _min_eigenvalue({k: _sample(coeffs[k], (_ELLIPTICITY_SAMPLES,) * len(axes), **env) for k in keys})
    idx = np.unravel_index(int(np.argmin(m)), m.shape)
    theta_hat = float(m[idx])
    argmin = tuple(float(ax[i]) for ax, i in zip(axes, idx))
    return EllipticityReport(theta_hat, theta_min, theta_hat >= theta_min, argmin)


def poincare_constant(basis: SpectralBasis) -> float:
    """C_Omega = 1/sqrt(lambda_1): ||v||_L2 <= C_Omega ||v||_H10 on the span."""
    return 1.0 / math.sqrt(float(basis.eigenvalues[0]))


def garding_constants(coeffs, geom: DomainGeometry, theta: float, T: float) -> tuple[float, float]:
    """Constructive Garding constants (beta, nu).

    beta = theta/2 and nu = ||b||_inf^2/(2 theta) + ||c||_inf via Young's
    inequality on a(u,u) >= theta||Du||^2 - ||b|| ||Du|| ||u|| - ||c|| ||u||^2,
    with ||b||_inf the sup of the Euclidean magnitude of the drift vector.
    Sup bounds are sampled over [0, T] x geom and carry the 1.05 inflation,
    which only enlarges nu (safe side).  Raises OverflowError if nu exceeds
    the floating range.
    """
    if not theta > 0.0:
        raise ValueError(f"ellipticity constant theta must be positive, got {theta}")
    env = _grid(geom, T, _SUP_SAMPLES)[1]
    bnorm = _sup_norm([coeffs[k] for k in _present(coeffs, geom.dim) if k[0] == "b"], env)
    cnorm = _sup_norm([coeffs["c"]], env) if "c" in coeffs else 0.0
    nu = bnorm * bnorm / (2.0 * theta) + cnorm
    if nu == math.inf:  # ||b||^2 overflowed
        nu = bnorm * (bnorm / (2.0 * theta)) + cnorm
    if not math.isfinite(nu):
        raise OverflowError(f"Garding constant nu = {nu} exceeds the floating range")
    return 0.5 * theta, nu


def continuity_constant(coeffs, geom: DomainGeometry, basis: SpectralBasis, T: float) -> float:
    """C2 with |a(u,v;t)| <= C2 ||u||_H10 ||v||_H10 on the modal space.

    C2 = sum ||a_kl||_inf + C_Omega sum ||b_k||_inf + C_Omega^2 ||c||_inf,
    the off-diagonal a12 counting twice (it appears as a12 and a21): each
    derivative factor of a slot is bounded by the H1_0 norm, each value
    factor by C_Omega times it.  geom must be the basis's box, from which
    C_Omega comes.
    """
    if geom != basis.geometry:
        raise ValueError(f"box {geom.lengths} is not the basis's box {basis.geometry.lengths}")
    env = _grid(geom, T, _SUP_SAMPLES)[1]
    com = poincare_constant(basis)
    total = 0.0
    for key in _present(coeffs, geom.dim):
        mult = sum(com ** pair.count(None) for pair in _SLOTS[key])
        total += mult * _sup_norm([coeffs[key]], env)
    return total


def modal_norms(v: ModalVector) -> tuple[float, float, float]:
    """(L2, H1_0, H^-1) norms of the modal vector.

    L2^2 = sum c_k^2, H1_0^2 = sum lambda_k c_k^2 (gradient seminorm) and
    H^-1^2 = sum c_k^2 / lambda_k, the dual norm induced by the gradient
    inner product, exact on this basis.

    The three sums are formed from c as it stands whenever sum c_k^2 lies
    within (2^-1022, 2^1022) and each sum is a normal double.  Otherwise squares
    would underflow (a nonzero vector at 1e-170 would read 0) or overflow
    (at 1e160), so c is first scaled by the power of two 2^-e that brings its
    largest entry into [1/2, 1), and each norm is scaled back by 2^e; a norm
    beyond the double range is inf.  np.vdot sets off no floating-point
    warning, and it gives the same BLAS dot product as @.
    """
    c, basis = v.coefficients, v.basis
    # _UNDERFLOW = 2^-511: a sum is normal iff its root exceeds it (a
    # correctly rounded sqrt is monotone)
    if _UNDERFLOW < math.sqrt(np.vdot(c, c)) < 1.0 / _UNDERFLOW:
        cc = c * c
        l2 = math.sqrt(cc.sum())
        h1 = math.sqrt(np.vdot(basis.eigenvalues, cc))
        hm1 = math.sqrt(np.vdot(cc, basis._recip_eigenvalues))
        if _UNDERFLOW < l2 and _UNDERFLOW < h1 < math.inf and _UNDERFLOW < hm1 < math.inf:
            return l2, h1, hm1
    top = float(np.abs(c).max())
    if top == 0.0 or not math.isfinite(top):
        return top, top, top
    e = math.frexp(top)[1]
    uu = np.ldexp(c, -e) ** 2
    sums = np.array([uu.sum(), np.vdot(basis.eigenvalues, uu), np.vdot(uu, basis._recip_eigenvalues)])
    with np.errstate(over="ignore"):
        return tuple(np.ldexp(np.sqrt(sums), e).tolist())


def project(values: np.ndarray, basis: SpectralBasis) -> ModalVector:
    """L2 projection onto the modal span from values on the quadrature grid.

    c_i = int u e_i evaluated with the assembly quadrature; idempotent within
    quadrature tolerance.  Values are ordered as quadrature_grid's points.
    """
    # a cast to float would drop an imaginary part with only a warning
    if np.iscomplexobj(values):
        raise ValueError("values must be real, got complex values")
    tab = _tabulate(basis)
    u = np.asarray(values, dtype=float).ravel()
    size = math.prod(len(p) for p in tab.pts)
    if u.size != size:
        raise ValueError(f"expected samples on the quadrature grid ({size} points), got {u.size}")
    u = u.reshape([len(p) for p in tab.pts]).transpose(tab.order)
    return ModalVector(tab.contract(u, None), basis)


def quadrature_grid(basis: SpectralBasis):
    """Points of the assembly quadrature grid (x array, or raveled (X, Y) arrays)."""
    grids = np.meshgrid(*_tabulate(basis).pts, indexing="ij")
    return tuple(g.ravel() for g in grids) if len(grids) > 1 else grids[0]
