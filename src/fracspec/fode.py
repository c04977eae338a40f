"""Solvers for the Galerkin system D^alpha c + A(t) c = f, c(0) = 0.

Three routes with zero initial data (the RL and Caputo forms coincide):

* l1_solve -- the L1 scheme for D^alpha, of order 2 - alpha;
* picard_solve -- the fixed point of the equivalent Volterra equation
  c = I^alpha(f - A c), with I^alpha by product integration against
  piecewise-linear data (the fractional trapezoidal rule, Garrappa 2015,
  Math. Comput. Simul. 110:96), of order 2; an independent discretization,
  verified by one application of the Volterra operator;
* variation_of_constants -- product-integration evaluation of the scalar
  constant-coefficient solution, the oracle for both: its kernel's weights
  come from the kernel's antiderivatives, and they run through the same
  apply as picard_solve's I^alpha (fraccalc._product_integral_values).

The orders hold for smooth solutions; on a uniform grid the t^alpha start of
a solution with f(0) != 0 lowers both.  The two solvers share one implicit
march, _implicit_march, whose steps solve (sigma I + A(t_m)) c_m = f(t_m) +
history in O(N M log^2 M).  When a diagonal A does not depend on t (the
autonomous case, every Mittag-Leffler oracle) the step's resolvent is formed
once per march and a block of nodes is one FFT product with it, with no
Python step per node, wherever that keeps each mode's relative accuracy.
Both return the Galerkin coefficients as a fraccalc.GridSeries, the
library's one time-series type: read-only values of shape (M+1, N), row m
holding c(t_m) and row 0 exactly zero.

Each time kernel (I^alpha, the Mittag-Leffler kernel, the L1 pair) has one
recipe in fraccalc.  A solve is sequential in time; distinct solves share
only fraccalc's read-only cached kernels and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fraccalc import (
    GridSeries,
    TimeGrid,
    _BLOCK_BYTES,
    _EPS,
    _blocks,
    _conv_tail,
    _fft_rows,
    _l1_pair,
    _max_norm,
    _ml_kernel_values,
    _pl_weights,
    _rl_integral_values,
    gamma,
)

__all__ = [
    "FractionalIVP",
    "PicardLog",
    "PicardDivergenceError",
    "SingularStepError",
    "max_operator_norm",
    "picard_solve",
    "picard_apply",
    "l1_solve",
    "variation_of_constants",
]

# _implicit_march solves blocks of at most this many nodes directly; the time
# hardly depends on it between 32 and 256
_LEAF = 64

# A column of a time-constant diagonal leaf takes the FFT product when
# max|rho| max|b| over the leaf is at most this many times the column's scale
# (_implicit_march); the product's rounding is then at most about this many
# times the far history's, relative to the values met so far
_LEAF_GROWTH = 64.0

# max_operator_norm bounds each node through an anchor node, one a group of
# this many nodes (Weyl's inequality plus a Frobenius distance); the anchors
# and the nodes their bound leaves get Gram bounds, not SVDs
_STRIDE = 32

# max_operator_norm's Gram bound squares each node's Gram matrix this many
# times, k = 2^_SQUARINGS = 128: within eps of the node's norm where
# sigma_2/sigma_1 < 0.93 at N = 32, for about a quarter of an SVD's time
_SQUARINGS = 7

# picard_solve returns its solution only if the fixed-point residual is at
# most this much of max(1, ||c||)
_PICARD_TOL = 1e-10


class PicardDivergenceError(RuntimeError):
    """picard_solve's solution failed its fixed-point residual check (or is
    not finite), so it is not returned."""


class SingularStepError(RuntimeError):
    """Implicit step matrix is singular."""

    def __init__(self, message: str, node: int, eigenvalue_estimate: float):
        super().__init__(message)
        self.node = node
        self.eigenvalue_estimate = eigenvalue_estimate


@dataclass(frozen=True, eq=False)
class FractionalIVP:
    """D^alpha c + A(t) c = f(t) on a uniform grid, c(0) = 0.

    A has shape (M+1, N, N) and f has shape (M+1, N), sampled at the nodes.
    Both are held as read-only views, not copies: a float array passed in is
    shared (a broadcast A stays a broadcast), so the caller must not modify it
    while the problem is in use.
    """

    alpha: float
    grid: TimeGrid
    A: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # a cast to float would drop an imaginary part with only a warning
        if np.iscomplexobj(self.A) or np.iscomplexobj(self.f):
            raise ValueError("A and f must be real, got complex values")
        A = np.asarray(self.A, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if f.ndim == 1:
            f = f.reshape(len(f), 1)
        if A.ndim == 1:
            A = A.reshape(len(A), 1, 1)
        if A.ndim != 3 or f.ndim != 2:
            raise ValueError(f"A must have shape (M+1, N, N) and f (M+1, N), got A {A.shape}, f {f.shape}")
        mp1 = self.grid.M + 1
        if A.shape[0] != mp1 or f.shape[0] != mp1:
            raise ValueError("A and f must be sampled at every grid node")
        if A.shape[1] != A.shape[2] or A.shape[1] != f.shape[1]:
            raise ValueError(f"incompatible shapes A {A.shape}, f {f.shape}")
        # min and max propagate NaN and reach +-inf without an (M+1) N^2 mask
        nodes = _distinct_nodes(A)
        if A.size and not all(math.isfinite(x) for x in (nodes.min(), nodes.max(), f.min(), f.max())):
            raise ValueError("A and f must be finite")
        A = A.view()
        f = f.view()
        A.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "f", f)

    @property
    def N(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class PicardLog:
    """Applications of the Volterra operator I^alpha(f - A .) (one: the
    residual check) and the fixed-point residual max_m ||c_m - I^alpha(f - A c)_m||_2."""

    iterations: int
    residual: float


def _distinct_nodes(A: np.ndarray) -> np.ndarray:
    """A, or its first node when A is a broadcast in time (A.strides[0] == 0):
    a reduction over every entry of A then reads one node, not M+1 copies."""
    return A[:1] if A.strides[0] == 0 else A


def _growing_blocks(lo: int, n: int, node_size: int):
    """Slices of nodes lo..n-1 that double, lo:2lo, 2lo:4lo, ... (from lo = 0:
    0:1, 1:2, 2:4, ...), capped at the nodes whose node_size bytes fit
    _BLOCK_BYTES: a scan that stops at a node reads at most twice the nodes
    up to it."""
    cap = max(1, _BLOCK_BYTES // max(1, node_size))
    while lo < n:
        hi = min(lo + min(max(1, lo), cap), n)
        yield slice(lo, hi)
        lo = hi


def _is_diagonal(A: np.ndarray) -> bool:
    """Whether every node of A is diagonal.

    A is finite, so a node is diagonal iff all its nonzeros lie on the
    diagonal; counting them allocates nothing the size of A.  The nodes are
    counted in _growing_blocks, returning at the first block with an
    off-diagonal nonzero.
    """
    nodes = _distinct_nodes(A)
    blocks = (nodes[sl] for sl in _growing_blocks(0, len(nodes), nodes[0].size))
    return all(np.count_nonzero(b) == np.count_nonzero(np.diagonal(b, axis1=1, axis2=2)) for b in blocks)


def max_operator_norm(ivp: FractionalIVP) -> float:
    """max_m ||A(t_m)||_2, the essential-sup bound of the contraction proof.

    Exact, with an SVD at only a few nodes.  Each node gets an upper bound
    on its norm, and numpy's SVD runs only where that bound can still exceed
    the largest norm found, so the result is the max over the same per-node
    SVD values as a full batched SVD and equals it bit for bit.  Two bounds
    serve:

    * the Gram bound ||(A_m^T A_m)^k||_F^(1/(2k)), k = 2^_SQUARINGS
      (_gram_bounds).  With sigma_i the singular values of A_m it equals
      sigma_1 (sum_i (sigma_i/sigma_1)^(4k))^(1/(4k)): at most N^(1/(4k))
      sigma_1 (1.0068 sigma_1 at N = 32), and within eps of sigma_1 once
      (N - 1) (sigma_2/sigma_1)^(4k) < 4k eps, that is sigma_2/sigma_1 <
      0.93 at N = 32, k = 128;
    * Weyl's inequality for singular values and the triangle inequality,
      for any node a:

        ||A_m||_2 <= ||A_a||_2 + ||A_m - A_a||_2 <= ||A_a||_2 + ||A_m - A_a||_F.

    An anchor node sits in the middle of every _STRIDE nodes.  The anchors
    get Gram bounds, and the anchor with the largest is the first SVD.  Every
    other node is bounded through its own group's anchor by Weyl, with the
    anchor's Gram bound for ||A_a||_2; the nodes whose bound still exceeds
    the running max get their own Gram bound.  Those go to the SVD in
    decreasing order of bound, in blocks of 1, 2, 4, ... nodes, until no
    bound left exceeds the running max.  A node bit-identical to its anchor
    (||A_m - A_a||_F = 0) has the anchor's value and never goes to the SVD
    itself.

    Rounding allowance.  A bound is widened by the factor 1 + 4 N^2 eps before
    it is compared with a computed norm.  Take A scaled to its largest entry
    in [1/2, 1) (exact), u = eps/2, gamma_N = N u/(1 - N u) (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, ch. 3), and v the top
    unit eigenvector of A^T A, eigenvalue lambda_1 = sigma_1^2.  The Gram
    product errs by at most gamma_N |A|^T |A| entrywise, so by at most
    gamma_N ||A||_F^2 <= N gamma_N lambda_1 in the 2-norm, and a squaring
    P' = fl(P P) by at most gamma_N |P|^2, so by N gamma_N ||P||_2^2.
    Following v through the 1 + _SQUARINGS products, the relative error of
    P v doubles plus N gamma_N at each, so the last product keeps ||P||_F >=
    ||P v|| >= lambda_1^k (1 - 2k N gamma_N), and its 2k-th root loses at
    most about N gamma_N ~ N^2 u relative.  The rescalings are exact (powers
    of two, their exponents added with np.ldexp); the Frobenius sum, the
    root and the underflow of entries far below the largest add a few u.
    The rest of 4 N^2 eps, over 3 N^2 eps, covers the SVD's backward error,
    a small multiple of N u ||A||_2.  The Weyl bound takes the same factor:
    the Frobenius distance errs by about N^2 u relative.  For N = 1 to 64
    the computed Gram bound has stayed within 6 eps below the SVD value.

    Cost.  On data smooth in t: M/_STRIDE anchor Gram bounds (about a quarter
    of an SVD each at N = 32), one streaming pass over A for the distances,
    the Gram bounds of the one or two hundred nodes near the max and two SVDs
    at N = 32, M = 9216.  The worst case, nodes whose singular values cluster
    (c Q_m with Q_m orthogonal: every Gram bound N^(1/(4k)) above its norm)
    and that vary more between neighbouring nodes than the spread of their
    norms, sends every node to both bounds and to the SVD: 1.3-2 times a
    full batched SVD (N = 8-64, M = 2000).  Gathers are in blocks of
    fraccalc._BLOCK_BYTES, so the extra memory is one block plus O(M)
    doubles, never a copy of A.  A broadcast in time is read at one node
    (_distinct_nodes): its norm is that node's one SVD.
    """
    A = _distinct_nodes(ivp.A)
    n, N = A.shape[0], A.shape[1]
    if N == 0:
        return 0.0
    slack = 1.0 + 4.0 * N * N * _EPS
    # anchors sit mid-group: node m belongs to group m // _STRIDE, and a last
    # group too short to hold its anchor uses the one before
    first = (min(_STRIDE, n) - 1) // 2
    anchors = np.arange(first, n, _STRIDE)
    anchor_bounds = _gram_bounds(A, anchors)
    top = int(anchors[np.argmax(anchor_bounds)])
    best = float(_svd_norms(A, np.array([top]))[0])
    group = np.minimum(np.arange(n) // _STRIDE, len(anchors) - 1)
    dist = _distances(A, first + _STRIDE * group)
    bound = anchor_bounds[group] + dist
    del group
    # a node bit-identical to its anchor (dist 0) has the anchor's value, and
    # the top anchor has its SVD
    settled = dist == 0.0
    del dist
    settled[anchors] = False
    settled[top] = True
    live = np.flatnonzero((bound * slack > best) & ~settled)
    del settled
    own = live[live % _STRIDE != first]  # the anchors have their Gram bounds
    bound[own] = np.minimum(bound[own], _gram_bounds(A, own))
    del own
    live = live[bound[live] * slack > best]
    live = live[np.argsort(-bound[live], kind="stable")]
    cap = max(1, _BLOCK_BYTES // (8 * N * N))
    lo, size = 0, 1
    while lo < len(live) and bound[live[lo]] * slack > best:
        block = live[lo : lo + size]
        block = block[bound[block] * slack > best]
        best = max(best, float(_svd_norms(A, block).max()))
        lo, size = lo + size, min(2 * size, cap)
    return best


def _svd_norms(A: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """||A_m||_2 for each m in nodes, the largest of numpy's singular values
    (the value np.linalg.norm(A_m, 2) takes), gathered block by block."""
    out = np.empty(len(nodes))
    for sl in _blocks(len(nodes), A.shape[1] ** 2):
        out[sl] = np.linalg.svdvals(A[nodes[sl]])[:, 0]
    return out


def _gram_bounds(A: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """||(A_m^T A_m)^k||_F^(1/(2k)) >= ||A_m||_2, k = 2^_SQUARINGS, for each m
    in nodes, up to the rounding max_operator_norm allows for.

    Each node is scaled by a power of two 2^-a so that its largest entry lies
    in [1/2, 1) (2^-a stays a double: a >= -1022, where a subnormal node
    scales to entries >= 2^-52).  Its Gram matrix B is then squared
    _SQUARINGS times.  B and every third square are scaled by the power of
    two 2^-e that brings the largest diagonal entry into [1/2, 1): a Gram
    power is symmetric positive semi-definite, so its largest entry is on the
    diagonal and its largest eigenvalue then lies in [1/2, N), and three
    squarings keep it within [2^-8, N^8].  So nothing overflows, and only
    entries far below the largest can underflow.  The exponents add up
    exactly: the last square C satisfies B^k = 2^E C, and with E = 2k q + r,
    0 <= r < 2k, the bound is 2^(a+q) (2^r ||C||_F)^(1/(2k)), both powers of
    two applied by np.ldexp.  The nodes are gathered block by block, two
    N x N buffers a node within fraccalc._BLOCK_BYTES.
    """
    N = A.shape[1]
    two_k = 2 << _SQUARINGS
    out = np.empty(len(nodes))
    for sl in _blocks(len(nodes), 2 * N * N):
        X = A[nodes[sl]]
        _, a = np.frexp(np.maximum(X.max(axis=(1, 2)), -X.min(axis=(1, 2))))
        a = np.maximum(a, -1022)
        X *= np.ldexp(1.0, -a)[:, None, None]
        G = np.matmul(X.transpose(0, 2, 1), X)
        E = np.zeros(len(X), dtype=np.int64)
        for j in range(_SQUARINGS + 1):
            if j:
                np.matmul(G, G, out=X)
                X, G = G, X
            if j % 3 == 0:
                # G stands for B^(2^j) here, so its factor 2^e stands for
                # 2^(e 2^(_SQUARINGS - j)) in B^k
                _, e = np.frexp(np.diagonal(G, axis1=1, axis2=2).max(axis=1))
                G *= np.ldexp(1.0, -e)[:, None, None]
                E += e * (1 << (_SQUARINGS - j))
        q, r = np.divmod(E, two_k)
        root = np.ldexp(np.sqrt(np.einsum("mij,mij->m", G, G)), r) ** (1.0 / two_k)
        out[sl] = np.ldexp(root, a + q)
        del X, G  # before the next block is gathered
    return out


def _distances(A: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """An upper bound on ||A_m - A_anchor[m]||_F for every m, 0 exactly where
    the two matrices are equal; the differences are formed block by block."""
    N = A.shape[1]
    dist = np.empty(len(A))
    for sl in _blocks(len(A), N * N):
        d = A[anchor[sl]]
        np.subtract(A[sl], d, out=d)
        sq = np.einsum("mij,mij->m", d, d)
        dist[sl] = np.sqrt(sq)
        # a sum below the normal range may have lost squares to underflow:
        # bound those nodes by ||d||_F <= N max|d_ij| instead, which is 0
        # only for an exact copy of the anchor
        tiny = sq < np.finfo(float).tiny  # the smallest normal double
        if tiny.any():
            np.abs(d, out=d)
            dist[sl][tiny] = N * d.max(axis=(1, 2))[tiny]
        del d  # before the next block is gathered
    return dist


def _is_time_constant(A: np.ndarray) -> bool:
    """Whether every node of A equals node 0 exactly.

    A broadcast in time is read at one node (_distinct_nodes).  Otherwise the
    nodes after node 0 are compared with it in _growing_blocks, each block's
    boolean temporary within _BLOCK_BYTES, returning at the first block that
    differs.
    """
    nodes = _distinct_nodes(A)
    blocks = _growing_blocks(1, len(nodes), nodes[0].size)
    return not any(np.not_equal(nodes[sl], nodes[0]).any() for sl in blocks)


def _check_diagonal_steps(sigma: float, diag: np.ndarray, lo: int) -> np.ndarray:
    """The denominators sigma + diag of diagonal steps at nodes lo, lo+1, ...
    (diag one row a node); SingularStepError names the first zero in node
    order and, at its node, the first singular mode's eigenvalue."""
    denom = sigma + diag
    zero = denom == 0.0
    if zero.any():
        j, k = divmod(int(np.argmax(zero)), diag.shape[1])
        raise SingularStepError(
            f"singular implicit step at node {lo + j}: eigenvalue ~ -sigma = {-sigma}",
            node=lo + j,
            eigenvalue_estimate=float(diag[j, k]),
        )
    return denom


def _implicit_march(
    ivp: FractionalIVP, sigma: float, kernel: np.ndarray, far: np.ndarray, volterra: bool
) -> np.ndarray:
    """c with c_0 = 0 and, for m = 1..M,

    (sigma I + A_m) c_m = f_m + hist_m,  hist_m = far_m + sum_{r=1}^{m-1} kernel[r] h_{m-r},

    where h = c, or h = f - A c when volterra.  far (M+1, N) holds any
    history known beforehand and is overwritten.

    The history is split as in Hairer, Lubich & Schlichte (1985, SIAM J. Sci.
    Stat. Comput. 6:532): nodes lo..hi-1 are solved by solving the left half,
    adding its whole contribution to the right half's far history with one FFT
    Toeplitz product (_conv_tail), then solving the right half; blocks of at
    most _LEAF nodes (leaves) are solved with the local sum.  The cost is
    O(N M log^2 M) instead of O(N M^2), and the result is the direct sum's up
    to rounding.  Every column of a diagonal system is transformed alone, so
    decoupled modes stay exactly decoupled (mode-for-mode identical across
    different N).  SingularStepError names the first node whose step matrix
    is singular.

    A leaf takes one step per node: elementwise for a diagonal system, with
    the denominators sigma + diag(A_m) of a whole leaf formed and checked for
    a zero before its first step, and otherwise one np.linalg.solve against
    sigma I + A_m, sigma I formed once per march, with no copy of A.  A step
    reads h_m = sigma c_m - hist_m off the step equation, with no product by
    A.

    A time-constant diagonal A (every node equal to node 0, _is_time_constant;
    d = diag(A_0)) solves a leaf without a Python step per node where that
    is accurate.  Column i of a leaf solves the lower-triangular Toeplitz
    system (sigma + d_i) x_m - e_i sum_{r>=1} kernel[r] x_{m-r} = b_m, with
    e_i = 1 and b = f + far, or in Volterra mode e_i = -d_i, b also carrying
    the leaf's own history of f, and h = f - d c.  Its resolvent rho, the
    first column of the inverse (_LEAF entries a column), and its spectrum
    are formed once per march; the leaf is then one FFT product of b with the
    resolvents' spectra (_fft_rows, one kernel a column), O(N _LEAF log
    _LEAF).  That product's rounding is spread over the leaf: every row's
    error is about u log2(L) max|rho| max|b| (Higham 2002, Accuracy and
    Stability of Numerical Algorithms, ch. 24), whatever the row's own size,
    where a step's error is relative to the values up to its node and the
    far history's to those before the leaf.  A mode that grows within a leaf
    (sigma + d_i < sigma, where rho grows geometrically) or a forcing that
    does would lose the relative accuracy of the leaf's first rows, so a
    column takes the product only where max|rho| max|b| is at most
    _LEAF_GROWTH times the scale max(|c| before the leaf, |rho_0 b_lo|); the
    leaf's other columns take the steps.
    """
    M, N = ivp.grid.M, ivp.N
    f = ivp.f
    diag_only = _is_diagonal(ivp.A)
    c = np.zeros((M + 1, N))
    h = np.zeros((M + 1, N)) if volterra else c
    shift = sigma * np.eye(N)

    def steps(lo: int, hi: int, denom: np.ndarray | None = None) -> None:
        if diag_only and denom is None:
            denom = _check_diagonal_steps(sigma, np.diagonal(ivp.A[lo:hi], axis1=1, axis2=2), lo)
        for m in range(lo, hi):
            # nodes lo..m-1 here, the earlier ones in far
            hist = far[m] + kernel[1 : m - lo + 1] @ h[m - 1 : lo - 1 : -1]
            rhs = f[m] + hist
            if diag_only:
                c[m] = rhs / denom[m - lo]
            else:
                try:
                    c[m] = np.linalg.solve(shift + ivp.A[m], rhs)
                except np.linalg.LinAlgError:
                    eigs = np.linalg.eigvals(ivp.A[m])
                    worst = eigs[np.argmin(np.abs(eigs + sigma))]
                    raise SingularStepError(
                        f"singular implicit step at node {m}: A eigenvalue {worst} ~ -sigma = {-sigma}",
                        node=m,
                        eigenvalue_estimate=float(np.real(worst)),
                    ) from None
            if volterra:
                h[m] = sigma * c[m] - hist

    leaf = steps
    if diag_only and _is_time_constant(ivp.A):
        d = np.diagonal(ivp.A[0]).copy()
        denom = _check_diagonal_steps(sigma, d[None], 1)
        # the resolvent rho, column by column: denom rho_0 = 1 and
        # denom rho_m = e sum_{r=1}^m kernel[r] rho_{m-r}; a mode near -sigma
        # may overflow, and then always takes the steps
        e = -d if volterra else 1.0
        rho = np.empty((min(_LEAF, M), N))
        rho[0] = 1.0 / denom[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, len(rho)):
                rho[m] = e * (kernel[1 : m + 1] @ rho[m - 1 :: -1]) / denom[0]
        tame = np.isfinite(rho).all(axis=0)
        rho[:, ~tame] = 0.0
        reach = np.abs(rho).max(axis=0)
        # L >= n + len(rho) - 1 for every leaf of n <= len(rho) nodes, so no
        # row of a leaf wraps, and one spectrum of each kernel serves all
        L = 1 << (2 * len(rho) - 2).bit_length()
        rho_spec = np.fft.rfft(rho, n=L, axis=0)
        own = np.concatenate([[0.0], kernel[1 : len(rho)]])  # kernel[0] never enters
        own_spec = np.fft.rfft(own, n=L)
        seen = np.zeros(N)  # max |c| per column over the leaves solved

        def leaf(lo: int, hi: int) -> None:
            b = f[lo:hi] + far[lo:hi]
            if volterra:
                b += _fft_rows(own_spec, f[lo:hi], L, 0, hi - lo)
            x = _fft_rows(rho_spec, b, L, 0, hi - lo)
            scale = np.maximum(seen, np.abs(b[0] * rho[0]))
            product = tame & (reach * np.abs(b).max(axis=0) <= _LEAF_GROWTH * scale)
            if product.all():
                c[lo:hi] = x
                if volterra:
                    h[lo:hi] = f[lo:hi] - d * x
            else:
                steps(lo, hi, np.broadcast_to(denom, (hi - lo, N)))
                c[lo:hi, product] = x[:, product]
                if volterra:
                    h[lo:hi, product] = f[lo:hi, product] - d[product] * x[:, product]
            np.maximum(seen, np.abs(c[lo:hi]).max(axis=0), out=seen)

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        far[mid:hi] += _conv_tail(kernel, h[lo:mid], hi - mid)
        solve(mid, hi)

    solve(1, M + 1)
    return c


def picard_apply(ivp: FractionalIVP, c: np.ndarray) -> np.ndarray:
    """One application of the Volterra operator: I^alpha(f - A c)."""
    g = ivp.f - np.einsum("mij,mj->mi", ivp.A, c)
    return _rl_integral_values(g, ivp.alpha, ivp.grid.dt)


def picard_solve(ivp: FractionalIVP) -> tuple[GridSeries, PicardLog]:
    """The fixed point of c = I^alpha(f - A c), with I^alpha by product
    integration: order 2 for smooth solutions, independent of the L1 scheme.

    With g = f - A c, the discrete I^alpha reads c_m = s (a0_m g_0 +
    sum_{r=0}^{m-1} W[r] g_{m-r}), s = dt^alpha / Gamma(alpha+2) and (a0, W)
    from _pl_weights, W[0] = 1.  The fixed point, the limit Picard iteration
    would reach, solves the implicit steps

    (sigma I + A_m) c_m = f_m + a0_m f_0 + sum_{r=1}^{m-1} W[r] g_{m-r},  sigma = 1/s,

    which _implicit_march solves directly for any step size.  The solution,
    a GridSeries of shape (M+1, N), is returned with its PicardLog only if
    its fixed-point residual max_m ||c_m - picard_apply(ivp, c)_m||_2 (the
    overflow-safe fraccalc._max_norm) is <= _PICARD_TOL max(1, ||c||);
    PicardDivergenceError otherwise.  SingularStepError names a node where
    sigma I + A_m is singular.  The residual check costs O(N M log M) (an FFT
    convolution above 2048 nodes), the march O(N M log^2 M).

    Its discrete derivative, the inverse of the product-integration I^alpha
    matrix, has positive off-diagonal entries from alpha = 0.5 on, so the
    paper's basic inequality fails there: at alpha = 0.5, T = 1, M = 64 a unit
    spike at node 1 gives c_3 (Dc)_3 - (D c^2/2)_3 = -0.78.
    """
    alpha = ivp.alpha
    a0, W = _pl_weights(alpha, ivp.grid.M)
    sigma = gamma(alpha + 2.0) / ivp.grid.dt**alpha
    # node 0 enters through a0 alone, with g_0 = f_0 since c_0 = 0
    c = _implicit_march(ivp, sigma, W, a0[:, None] * ivp.f[0], volterra=True)
    residual = _max_norm(c - picard_apply(ivp, c))
    if not residual <= _PICARD_TOL * max(1.0, _max_norm(c)):  # a NaN fails too
        raise PicardDivergenceError(f"fixed-point residual {residual:.4g} exceeds the tolerance")
    return GridSeries(ivp.grid, c), PicardLog(1, residual)


def l1_solve(ivp: FractionalIVP) -> GridSeries:
    """Fully implicit L1 marching: (w0 I + A(t_m)) c_m = f(t_m) + history.

    The L1 scheme has order 2 - alpha for smooth solutions.
    w0 = dt^(-alpha)/Gamma(2-alpha); A and f are taken at the right endpoint.
    The history w0 sum_{j=1}^{m-1} d_j c_{m-j}, d_j = b_{j-1} - b_j with the
    L1 weights b (_l1_pair), is split by _implicit_march in O(N M log^2 M).
    Returns c as a GridSeries of shape (M+1, N).  SingularStepError names a
    node where w0 I + A_m is singular.

    Its discrete derivative meets the paper's basic inequality V'(c_m) (Dc)_m
    >= (D V(c))_m for every convex V with V(0) = 0 (Li & Liu 2019, SIAM J.
    Numer. Anal. 57:2095): the b_j decrease, so every d_j >= 0 and w0 - w0
    sum_{j<m} d_j = w0 b_{m-1} >= 0.
    """
    M = ivp.grid.M
    if M < 2:
        raise ValueError("L1 marching needs at least M=2 steps")
    w0, kernel = _l1_pair(ivp.alpha, M, ivp.grid.dt)
    c = _implicit_march(ivp, w0, kernel, np.zeros((M + 1, ivp.N)), volterra=False)
    return GridSeries(ivp.grid, c)


def variation_of_constants(lam: float, f: GridSeries, alpha: float) -> GridSeries:
    """Scalar constant-coefficient solution by product integration.

    c(t) = int_0^t (t-s)^(alpha-1) E_{alpha,alpha}(-lam (t-s)^alpha) f(t-s) ds
    evaluated with the kernel handled exactly against piecewise-linear f: its
    weights (fraccalc._ml_kernel_values) come from its antiderivative
    u = s^alpha E_{alpha,alpha+1}(-lam s^alpha) and u's antiderivative v =
    s^(alpha+1) E_{alpha,alpha+2}(-lam s^alpha).  Nothing is divided by lam,
    so the weights stay accurate as lam -> 0 and lam = 0 gives the I^alpha
    weights.  Exact (up to the special-function tolerance) for constant f;
    the oracle for both solvers.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 <= lam < math.inf):  # a NaN fails too
        raise ValueError(f"decay rate lam must be a nonnegative finite real, got {lam}")
    if f.values.ndim != 1:
        raise ValueError("variation_of_constants solves scalar problems")
    return GridSeries(f.grid, _ml_kernel_values(f.values, f.grid.dt, alpha, alpha, lam, 1.0))
