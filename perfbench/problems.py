"""Seeded problem generator: exprfield source text plus the numbers behind it.

The seed sets coefficient amplitudes, frequencies and phases, the forcing and
alpha, each drawn from a fixed band.  It never changes N, M or the
Mittag-Leffler branch a workload runs, so cost does not depend on it.  The
program only ever sees `Problem.job()`, the source texts and sizes; the
numbers stay with the benchmark for its references.

PDE problems are manufactured.  The exact modal solution is c*(t) = t^2 v
with v on the first mode, and the forcing f = D^alpha c* + A(t) c* is built from the benchmark's own
quadrature (reference.SineQuadrature), never from fracspec.spectral.  Every
coefficient is const + amp sin(omega t + phase) h(x, y), where h is a
product of sin/cos(pi x / L) per axis.  The sin/cos choice per slot makes
A(t) banded in each mode index, so A(t) v lives on a few modes and the
forcing text stays short.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from perfbench import reference

ALPHA_BAND = (0.500, 0.505)
ALPHA_HI_BAND = (0.96, 0.98)  # keeps the oracle's mpmath branch running
OMEGA_BAND = (2.0, 4.0)

# slot -> (spatial shape per axis, constant band or None, amplitude band)
_SLOTS_1D = {
    "a11": (("cos",), (1.15, 1.25), (0.2, 0.3)),
    "b1": (("sin",), None, (0.3, 0.6)),
    "c": (("cos",), (0.7, 0.8), (0.3, 0.5)),
}
_SLOTS_2D = {
    "a11": (("cos", "cos"), (1.15, 1.25), (0.2, 0.3)),
    "a12": (("sin", "sin"), None, (0.1, 0.2)),
    "a22": (("cos", "cos"), (1.15, 1.25), (0.2, 0.3)),
    "b1": (("sin", "cos"), None, (0.3, 0.6)),
    "c": (("cos", "cos"), (0.7, 0.8), (0.3, 0.5)),
}

WORKLOADS = {
    "assembly2d": {"lengths": (1.0, 1.25), "N": 24, "M": 32},
    "horizon1d": {"lengths": (1.0,), "N": 32, "M": 9216},
    "oracle": {},
}


def _num(x: float) -> str:
    return repr(float(x)) if x >= 0.0 else f"({float(x)!r})"


@dataclass(frozen=True)
class Coefficient:
    """const + amp * sin(omega t + phase) * prod_a shape_a(pi x_a / L_a)."""

    slot: str
    const: float
    amp: float
    omega: float
    phase: float
    shape: tuple

    def g(self, t):
        return np.sin(self.omega * t + self.phase)

    def text(self, lengths) -> str:
        factors = [f"{_num(self.amp)}*sin({_num(self.omega)}*t + {_num(self.phase)})"]
        for kind, var, L in zip(self.shape, ("x", "y"), lengths):
            factors.append(f"{kind}(pi*{var}/{_num(L)})")
        varying = "*".join(factors)
        return f"{_num(self.const)} + {varying}" if self.const else varying


@dataclass(frozen=True, eq=False)
class PDEProblem:
    """D^alpha c + A(t) c = f on the first N sine modes, exact c* = t^2 v, v = v_1 e_1.

    A(t) = K0 + sum_c g_c(t) K[c] in the benchmark's own quadrature.
    """

    workload: str
    seed: int
    lengths: tuple
    N: int
    M: int
    T: float
    alpha: float
    coeffs: tuple
    theta_min: float
    modes: tuple
    v: np.ndarray
    K0: np.ndarray
    K: tuple
    forcing: dict  # 1-based mode -> source text

    def A(self, t: float) -> np.ndarray:
        return self.K0 + sum(c.g(t) * Kc for c, Kc in zip(self.coeffs, self.K))

    def f(self, t: float) -> np.ndarray:
        frac = 2.0 / math.gamma(3.0 - self.alpha) * t ** (2.0 - self.alpha)
        return frac * self.v + t * t * (self.A(t) @ self.v)

    def exact(self, t) -> np.ndarray:
        """c*(t) at each t in the array t, shape (len(t), N)."""
        t = np.asarray(t, dtype=float)
        return (t * t)[:, None] * self.v[None, :]

    def job(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "kind": "pde",
            "lengths": list(self.lengths),
            "N": self.N,
            "M": self.M,
            "T": self.T,
            "alpha": self.alpha,
            "theta_min": self.theta_min,
            "coeffs": {c.slot: c.text(self.lengths) for c in self.coeffs},
            "forcing": {str(k): s for k, s in sorted(self.forcing.items())},
        }


def pde_problem(workload: str, seed: int, lengths, N: int, M: int, T: float = 1.0) -> PDEProblem:
    rng = random.Random(f"{workload}:{seed}")
    lengths = tuple(float(L) for L in lengths)
    alpha = rng.uniform(*ALPHA_BAND)
    slots = _SLOTS_1D if len(lengths) == 1 else _SLOTS_2D
    coeffs = tuple(
        Coefficient(
            slot,
            rng.uniform(*const_band) if const_band else 0.0,
            rng.uniform(*amp_band),
            rng.uniform(*OMEGA_BAND),
            rng.uniform(0.0, 2.0 * math.pi),
            shape,
        )
        for slot, (shape, const_band, amp_band) in slots.items()
    )
    by_slot = {c.slot: c for c in coeffs}
    # |h| <= 1, so these bound the smallest eigenvalue of (a_kl) from below
    if len(lengths) == 1:
        theta_min = by_slot["a11"].const - by_slot["a11"].amp
    else:
        theta_min = min(by_slot[k].const - by_slot[k].amp for k in ("a11", "a22")) - by_slot["a12"].amp

    modes = reference.sine_modes(lengths, N)
    # c* on the first mode only: with several modes the relative error at T
    # depends on how the seed's phases mix them, and spreads ~3x wider
    v = np.zeros(N)
    v[0] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)

    quad = reference.SineQuadrature(lengths, modes)
    ones = quad.shape(())
    K0 = sum((c.const * quad.form_matrix(c.slot, ones) for c in coeffs if c.const), np.zeros((N, N)))
    K = tuple(c.amp * quad.form_matrix(c.slot, quad.shape(c.shape)) for c in coeffs)

    # f(t) = v 2 t^(2-alpha)/Gamma(3-alpha) + t^2 (K0 v + sum_c g_c(t) K_c v)
    columns = [(2.0 / math.gamma(3.0 - alpha) * v, f"t^{_num(2.0 - alpha)}"), (K0 @ v, "t^2")]
    columns += [
        (Kc @ v, f"t^2*sin({_num(c.omega)}*t + {_num(c.phase)})") for c, Kc in zip(coeffs, K)
    ]
    # entries that vanish analytically come out at rounding level (~1e-13
    # relative, the K carry eigenvalues up to lambda_N); leave them out
    cut = 1e-9 * max(float(np.max(np.abs(w))) for w, _ in columns)
    forcing = {}
    for i in range(N):
        terms = [f"{_num(w[i])}*{factor}" for w, factor in columns if abs(w[i]) > cut]
        if terms:
            forcing[i + 1] = " + ".join(terms)
    return PDEProblem(workload, seed, lengths, N, M, T, alpha, coeffs, theta_min, modes, v, K0, K, forcing)


@dataclass(frozen=True)
class OracleProblem:
    """Scalar problems with closed forms, for the Mittag-Leffler verification sweep.

    Coarse part: D^alpha c + lam_k c = amp, lam_k = (k pi)^2, and the Yosida
    kernels k_n * amp.  One alpha_hi > 0.95 case, where fracspec evaluates
    E_alpha on its mpmath branch.  Fine part: I^alpha of amp_i t^p_i and an
    integration-by-parts residual.  The Picard case is the fixed repro
    D^0.5 c + pi^2 c = 1 on T = 1, M = 512; the seed does not touch it.
    """

    seed: int
    alpha: float
    alpha_hi: float
    amp: float
    power_amps: tuple
    ibp_omega: float
    T: float = 1.0
    M: int = 1024
    M_hi: int = 128
    M_fine: int = 16384
    modes: tuple = (1, 2, 3, 4)
    kn_orders: tuple = (10, 100, 1000)
    powers: tuple = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    picard_alpha: float = 0.5
    picard_M: int = 512
    workload: str = "oracle"

    @property
    def lams(self) -> tuple:
        return tuple((k * math.pi) ** 2 for k in self.modes)

    def job(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "kind": "oracle",
            "T": self.T,
            "M": self.M,
            "M_hi": self.M_hi,
            "M_fine": self.M_fine,
            "alpha": self.alpha,
            "alpha_hi": self.alpha_hi,
            "lams": list(self.lams),
            "kn_orders": list(self.kn_orders),
            "forcing": _num(self.amp),
            "powers": [f"{_num(a)}*t^{_num(p)}" for a, p in zip(self.power_amps, self.powers)],
            "ibp_f": f"sin({_num(self.ibp_omega)}*t)",
            "ibp_g": "t^2",
            "picard_alpha": self.picard_alpha,
            "picard_M": self.picard_M,
            "picard_lam": math.pi**2,
            "picard_forcing": "1",
        }


def oracle_problem(seed: int) -> OracleProblem:
    rng = random.Random(f"oracle:{seed}")
    return OracleProblem(
        seed=seed,
        alpha=rng.uniform(*ALPHA_BAND),
        alpha_hi=rng.uniform(*ALPHA_HI_BAND),
        amp=rng.uniform(0.5, 2.0),
        power_amps=tuple(rng.uniform(0.5, 2.0) for _ in range(8)),
        ibp_omega=rng.uniform(*OMEGA_BAND),
    )


def generate(workload: str, seed: int):
    """The problem a workload runs for this seed."""
    if workload == "oracle":
        return oracle_problem(seed)
    sizes = WORKLOADS[workload]
    return pde_problem(workload, seed, sizes["lengths"], sizes["N"], sizes["M"])
