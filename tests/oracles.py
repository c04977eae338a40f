"""Independent reference computations shared by the test suite.

These deliberately avoid the code paths under test: the Mittag-Leffler
reference sums the defining series in scaled arbitrary precision (or, past
its reach on the negative axis, inverts the Laplace transform), the
algebraic-tail reference scans each point's whole truncation envelope at
once, the dense
quadrature oracles integrate with plain Simpson sums, the 2-D form oracle
tabulates every basis function on one dense tensor Gauss-Legendre grid, the
L1 and product-integration marches sum the whole history at every node, and
the expression reference walks the tree node by node.
"""

import math
import operator

import mpmath
import numpy as np

from fracspec.fraccalc import _TOL, _blocks, _tail_table


# ml_reference inverts the Laplace transform (ml_laplace_reference) instead of
# summing the series at z < 0, alpha < 1, beta > 0 once |z|^(1/alpha) exceeds
# this.  The series' cost grows with it: ~0.2 s at 400 (the largest the tests
# sum), 1.8 s at 720, 39 s at 1937, and (0.7, 2.0, -1000.0), 19307, starts at
# 8748 digits and ~27,600 terms.  Past 66,000 it is infeasible.
_SERIES_REACH = 500.0


def ml_reference(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) by exact-arithmetic series summation (_ml_series), or
    on the negative axis past the series' reach (_SERIES_REACH) by
    ml_laplace_reference.  The two round to the same double at the seven
    points checked with |z|^(1/alpha) 400-2025 (alpha 0.3-0.9, beta
    0.4-2)."""
    if z < 0.0 and alpha < 1.0 and beta > 0.0 and abs(z) ** (1.0 / alpha) > _SERIES_REACH:
        return ml_laplace_reference(alpha, beta, -z)
    return _ml_series(alpha, beta, z)


def _ml_series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) by exact-arithmetic series summation.

    Precision starts from the cancellation size |z|**(1/alpha) and doubles
    until at least 30 digits survive the cancellation (at alpha = 1 the sum
    can lie as far below the largest term again: E_1(-s) = exp(-s)); every
    term is formed in mpf arithmetic, including the Gamma argument.
    """
    s = abs(z) ** (1.0 / alpha)
    dps = 60 + int(0.45 * s)
    while True:
        if dps > 30_000:
            raise ValueError("reference series infeasible at this argument")
        with mpmath.workdps(dps):
            zz = mpmath.mpf(z)
            aa = mpmath.mpf(alpha)
            bb = mpmath.mpf(beta)
            total = mpmath.mpf(0)
            max_term = mpmath.mpf(0)
            floor = mpmath.mpf(10) ** (-dps + 2)
            power = mpmath.mpf(1)
            k = 0
            while True:
                term = power / mpmath.gamma(aa * k + bb)
                total += term
                if abs(term) > max_term:
                    max_term = abs(term)
                power *= zz
                k += 1
                if k > s / alpha + 10 and abs(term) < floor * max_term:
                    break
            if abs(total) * mpmath.mpf(10) ** (dps - 30) >= max_term:
                return float(total)
        dps *= 2


def ml_laplace_reference(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(-x) for x >= 0 and alpha < 1 by mpmath's Talbot
    inversion, at 30 digits, of the Laplace transform p^(alpha-beta) /
    (p^alpha + x) of t^(beta-1) E_{alpha,beta}(-x t^alpha), taken at t = 1.

    For arguments whose cancellation the series cannot afford, such as
    |z|^(1/alpha) = 1e60 at alpha = 0.05, z = -1000: below alpha = 1 the
    transform has no pole on the principal sheet, so no residue enters.  On
    144 points where both run (alpha 0.05-0.99, beta 2-4, |z|^(1/alpha) up
    to 150) it rounds to the same double as the series (_ml_series).
    """
    with mpmath.workdps(30):
        a, b, xx = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        return float(mpmath.invertlaplace(lambda p: p ** (a - b) / (p**a + xx), 1, method="talbot"))


def algebraic_tail_full_table(a: float, b: float, z):
    """The algebraic tail's truncation rule on the whole envelope table at once.

    -sum_{k>=1} z^{-k} / Gamma(b - a k) at every point of z, each truncated at
    its smallest term; returns (sum, converged) by fraccalc._algebraic_tail's
    rule, with every point's whole (points, n_terms) envelope, running
    minimum and pass test formed before the term loop.  The table of envelope
    and Gamma reciprocals is fraccalc's own (_tail_table), so the two agree
    bit for bit.
    """
    zf = np.asarray(z, dtype=float)
    flat = zf.reshape(-1)
    env, log_r, sign_r = _tail_table(a, b)
    # as Python floats: the term loop below reads one entry at a time
    log_r, sign_r = log_r.tolist(), sign_r.tolist()
    n_terms = len(env)
    ks = np.arange(1.0, n_terms + 1.0)
    out = np.empty(flat.shape)
    converged = np.empty(flat.shape, dtype=bool)
    for sl in _blocks(len(flat), 3 * n_terms):
        zb = flat[sl]
        rows = np.arange(len(zb))
        ln_inv = -np.log(np.abs(zb))
        lenv = env + ks * ln_inv[:, None]
        # truncate at the running minimum of the envelope, scanned until it
        # is decisively passed: 3 above the minimum, 4 or more terms on
        run = np.minimum.accumulate(lenv, axis=1)
        past = (lenv[:, 4:] > run[:, 4:] + 3.0) & (run[:, 4:] == run[:, :-4])
        passed = past.any(axis=1)
        last = np.where(passed, past.argmax(axis=1) + 4, n_terms - 1)
        k_min = np.argmax(lenv == run[rows, last][:, None], axis=1) + 1
        odd_sign = np.where(zb > 0.0, 1.0, -1.0)
        total = np.zeros(zb.shape)
        comp = np.zeros(zb.shape)
        live = np.ones(zb.shape, dtype=bool)
        for k in range(1, int(k_min.max()) + 1):
            live &= k <= k_min
            if not live.any():
                break
            if sign_r[k - 1]:
                lt = log_r[k - 1] + k * ln_inv
                term = np.where(lt > -745.0, np.exp(lt), 0.0) * -sign_r[k - 1]
                if k & 1:
                    term *= odd_sign
                y = term - comp
                t = total + y
                comp = np.where(live, (t - total) - y, comp)
                total = np.where(live, t, total)
            # stop on the sine-free envelope: raw magnitudes dip spuriously near
            # the poles and would truncate the series early
            env_k = np.exp(np.minimum(lenv[:, k - 1], 700.0))
            small = env_k < 1e-4 * _TOL * (np.abs(total) + 1e-300)
            passed |= live & small
            live &= ~small
        out[sl] = total
        converged[sl] = passed
    return out.reshape(zf.shape)[()], converged.reshape(zf.shape)[()]


def simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule; len(values) must be odd."""
    n = len(values) - 1
    assert n % 2 == 0
    return (h / 3.0) * float(
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def dense_quadrature_1d(fn, lo: float, hi: float, n: int = 1_000_000) -> float:
    """Brute-force Simpson quadrature with ~n points."""
    if n % 2 == 1:
        n += 1
    x = np.linspace(lo, hi, n + 1)
    return simpson(fn(x), (hi - lo) / n)


def dense_form_2d(lengths, modes, coeffs, n) -> np.ndarray:
    """A_ij = a(e_j, e_i) on the rectangle by a dense tensor Gauss rule.

    e_(p,q) = (2/sqrt(L1 L2)) sin(p pi x/L1) sin(q pi y/L2); coeffs maps any of
    a11, a12, a22, b1, b2, c to callables f(x, y).  n = (nx, ny) Gauss-Legendre
    points on each whole axis.
    """
    (L1, L2), (nx, ny) = lengths, n
    gx, wx = np.polynomial.legendre.leggauss(nx)
    gy, wy = np.polynomial.legendre.leggauss(ny)
    X, Y = np.meshgrid(0.5 * L1 * (gx + 1.0), 0.5 * L2 * (gy + 1.0), indexing="ij")
    W = np.outer(0.5 * L1 * wx, 0.5 * L2 * wy)
    p = np.array([m[0] for m in modes], dtype=float)[:, None, None] * np.pi / L1
    q = np.array([m[1] for m in modes], dtype=float)[:, None, None] * np.pi / L2
    amp = 2.0 / np.sqrt(L1 * L2)
    e = amp * np.sin(p * X) * np.sin(q * Y)
    ex = amp * p * np.cos(p * X) * np.sin(q * Y)
    ey = amp * q * np.sin(p * X) * np.cos(q * Y)
    terms = {
        "a11": [(ex, ex)], "a12": [(ex, ey), (ey, ex)], "a22": [(ey, ey)],
        "b1": [(e, ex)], "b2": [(e, ey)], "c": [(e, e)],
    }
    A = np.zeros((len(modes), len(modes)))
    for name, fn in coeffs.items():
        cw = fn(X, Y) * W
        for row, col in terms[name]:
            A += np.einsum("ixy,xy,jxy->ij", row, cw, col)
    return A


def l1_march(alpha: float, T: float, A: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The L1 scheme by its definition, O(M^2): c_0 = 0 and, for m = 1..M,

    w0 sum_{j<m} b_j (c_{m-j} - c_{m-j-1}) + A_m c_m = f_m,

    b_j = (j+1)^(1-alpha) - j^(1-alpha), w0 = dt^(-alpha) / Gamma(2-alpha).
    The history is summed over the increments at every node and each step is
    one dense solve.  A is (M+1, N, N), f is (M+1, N).
    """
    M = len(f) - 1
    w0 = (T / M) ** (-alpha) / math.gamma(2.0 - alpha)
    j = np.arange(M, dtype=float)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    c = np.zeros(f.shape)
    dc = np.zeros(f.shape)  # dc[k] = c_{k+1} - c_k
    eye = np.eye(f.shape[1])
    for m in range(1, M + 1):
        older = b[1:m] @ dc[: m - 1][::-1]  # j = 1..m-1 pair with dc[m-1-j]
        rhs = f[m] + w0 * (b[0] * c[m - 1] - older)
        c[m] = np.linalg.solve(w0 * b[0] * eye + A[m], rhs)
        dc[m - 1] = c[m] - c[m - 1]
    return c


def pi_march(alpha: float, T: float, A: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product integration of c = I^alpha(f - A c) by its definition, O(M^2).

    c_m = sum_{j<=m} w_mj g_j with g = f - A c, where w_mj integrates the
    kernel (t_m - s)^(alpha-1) / Gamma(alpha) against the hat function of
    node j.  Each interval a distance q steps below t_m contributes
    int_q^(q+1) u^(alpha-1) (u - q) du to its left node and
    int_q^(q+1) u^(alpha-1) (q + 1 - u) du to its right node (times
    dt^alpha / Gamma(alpha)): 1/(alpha+1) and 1/(alpha (alpha+1)) at q = 0,
    and by 20-point Gauss-Legendre quadrature, accurate to rounding for the
    smooth integrand, at q >= 1.  Each step is one dense solve
    (I + w_mm A_m) c_m = w_mm f_m + sum_{j<m} w_mj g_j.  A is (M+1, N, N),
    f is (M+1, N).
    """
    M = len(f) - 1
    x, wx = np.polynomial.legendre.leggauss(20)
    x, wx = 0.5 * (x + 1.0), 0.5 * wx  # on (0, 1)
    q = np.arange(1, M, dtype=float)[:, None]
    u = q + x
    left = np.concatenate([[1.0 / (alpha + 1.0)], (u ** (alpha - 1.0) * x) @ wx])
    right = np.concatenate([[1.0 / (alpha * (alpha + 1.0))], (u ** (alpha - 1.0) * (1.0 - x)) @ wx])
    scale = (T / M) ** alpha / math.gamma(alpha)
    c = np.zeros(f.shape)
    g = np.zeros(f.shape)
    g[0] = f[0]
    eye = np.eye(f.shape[1])
    for m in range(1, M + 1):
        w = np.zeros(m + 1)
        w[:m] += left[m - 1 :: -1]  # interval k = 0..m-1, q = m-1-k, node k
        w[1:] += right[m - 1 :: -1]  # ... and node k+1
        w *= scale
        c[m] = np.linalg.solve(eye + w[m] * A[m], w[m] * f[m] + w[:m] @ g[:m])
        g[m] = f[m] - A[m] @ c[m]
    return c


class DomainFault(Exception):
    """Raised by tree_value at the first node without a finite value."""

    def __init__(self, node):
        super().__init__(repr(node))
        self.node = node


_TREE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def tree_value(node, t, x, y):
    """Value of an exprfield tree by walking it, children left to right.

    Dispatches on the node's class name and fields alone.  Each node applies
    its numpy operation to its children's values; the first node, in that
    order, that divides by zero, takes sqrt below 0 or gives a power or
    function value that is not finite raises DomainFault(node).
    """
    kind = type(node).__name__
    if kind == "Num":
        return node.value
    if kind == "Var":
        return {"t": t, "x": x, "y": y}[node.name]
    if kind == "Neg":
        return -tree_value(node.child, t, x, y)
    if kind == "Call":
        a = tree_value(node.arg, t, x, y)
        if node.fn == "sqrt" and np.min(a) < 0.0:
            raise DomainFault(node)
        out = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.absolute}[node.fn](a)
    elif kind == "BinOp":
        a = tree_value(node.left, t, x, y)
        b = tree_value(node.right, t, x, y)
        if node.op in _TREE_OPS:
            if node.op == "/" and np.count_nonzero(b) < np.size(b):
                raise DomainFault(node)
            return _TREE_OPS[node.op](a, b)
        with np.errstate(all="ignore"):
            out = np.power(a, b)
    else:
        raise TypeError(kind)
    if not np.all(np.isfinite(out)):
        raise DomainFault(node)
    return out
