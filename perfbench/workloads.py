"""Closed-loop solves, their checks and the metrics of one benchmark process.

One caller submits solves back to back (a closed loop) for the run's time
budget.  Each solve is timed on its own; its output is hashed outside the
timed region, and the first output is checked against independent
references after the loop.  In a traced run the first half of the budget
runs untraced and the second half traced, so the difference of the two
median solve times is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from perfbench import problems, reference
from perfbench.tracing import Tracer

# Checks that reproduce a documented defect of the program.  They run and
# count in pass_frac like every other check; they do not make `correct` false.
KNOWN_DEFECTS = {
    "picard_vs_closed_form": (
        "ROADMAP item 3: picard_solve stops on the exp(-gamma t)-weighted norm and"
        " returns a wrong trajectory marked converged"
    ),
}

# Limits of the error checks, about ten times the error the scheme makes at
# these sizes, so a wrong answer fails and the scheme's own error passes.
ERROR_LIMITS = {"assembly2d": 1e-3, "horizon1d": 3e-7, "oracle": 1e-4}

TRACE_DIR = ".perfbench_out"


class Checks:
    """Named checks, each a value that must not exceed its limit.

    A check whose computation raises is recorded as failed with the error.
    """

    def __init__(self):
        self.items: list = []  # [name, value, limit, error or None]

    def add(self, name: str, value: float, limit: float):
        self.items.append([name, float(value), float(limit), None])

    def guard(self, name: str, fn, limit: float):
        try:
            value = float(fn())
        except Exception as exc:  # a check that raises counts as failed
            self.items.append([name, math.nan, float(limit), f"{type(exc).__name__}: {exc}"])
            return
        self.add(name, value, limit)

    @staticmethod
    def passed(item) -> bool:
        _, value, limit, error = item
        return error is None and value <= limit  # NaN fails

    def failures(self) -> list:
        return [item[0] for item in self.items if not self.passed(item)]


def _rel(value, ref) -> float:
    return abs(float(value) - ref) / abs(ref)


# ---------------------------------------------------------------------------
# PDE workloads: assemble at every node, L1 solve, operator norm, modal norms
# ---------------------------------------------------------------------------


def solve_pde(ctx: dict, tr: Tracer) -> dict:
    spectral, fode = ctx["spectral"], ctx["fode"]
    basis, coeffs, forcing = ctx["basis"], ctx["coeffs"], ctx["forcing"]
    # tracemalloc traces every Python allocation, a few ms per 1-D assemble
    # call, so the traced run samples peak memory on about 33 nodes.
    stride = max(1, ctx["grid"].M // 32)
    forms = []
    for m, t in enumerate(ctx["grid"].nodes.tolist()):
        with tr.span("spectral.assemble", memory=m % stride == 0):
            forms.append(spectral.assemble(basis, coeffs, forcing, t))
    A = np.stack([F.matrix for F in forms])
    f = np.stack([F.load for F in forms])
    del forms
    with tr.span("fode.ivp"):
        ivp = fode.FractionalIVP(ctx["alpha"], ctx["grid"], A, f)
    with tr.span("fode.l1_solve"):
        traj = fode.l1_solve(ivp)
    with tr.span("fode.max_operator_norm"):
        opnorm = fode.max_operator_norm(ivp)
    with tr.span("spectral.modal_norms"):
        norms = np.array([spectral.modal_norms(spectral.ModalVector(c, basis)) for c in traj.values])
    return {"A": ivp.A, "f": ivp.f, "c": traj.values, "opnorm": opnorm, "norms": norms}


def check_pde(problem, ctx: dict, out: dict, checks: Checks) -> tuple:
    """Checks of one PDE output; returns (err_rel at T, max-over-t error)."""
    fraccalc = ctx["fraccalc"]
    grid, alpha = ctx["grid"], ctx["alpha"]
    A, f, c = out["A"], out["f"], out["c"]
    t = grid.nodes
    M = grid.M
    lam = reference.sine_eigenvalues(problem.lengths, problem.modes)

    checks.add("basis_modes", 0.0 if tuple(ctx["basis"].modes) == problem.modes else 1.0, 0.0)
    checks.add("ellipticity", problem.theta_min - ctx["ellipticity"].theta_hat, 0.0)

    def assemble_vs_dense():
        worst = 0.0
        for m in sorted({0, M // 3, (2 * M) // 3, M}):
            A_ref, f_ref = problem.A(t[m]), problem.f(t[m])
            worst = max(worst, np.linalg.norm(A[m] - A_ref) / np.linalg.norm(A_ref))
            if m:
                worst = max(worst, np.linalg.norm(f[m] - f_ref) / np.linalg.norm(f_ref))
        return worst

    def l1_residual():
        D = fraccalc.caputo_derivative(fraccalc.GridSeries(grid, c), alpha).values
        r = D[1:] + np.einsum("mij,mj->mi", A[1:], c[1:]) - f[1:]
        return np.max(np.abs(r)) / np.max(np.abs(f))

    norms2 = np.linalg.norm(A, 2, axis=(1, 2))

    def garding():
        beta, nu = ctx["garding"]
        lmin = np.linalg.eigvalsh(0.5 * (A + A.transpose(0, 2, 1)))[:, 0].min()
        return (beta * lam[0] - nu) - lmin

    def modal():
        l2 = np.sqrt(np.sum(c * c, axis=1))
        h10 = np.sqrt(np.sum(lam * c * c, axis=1))
        hm1 = np.sqrt(np.sum(c * c / lam, axis=1))
        ours = np.stack([l2, h10, hm1], axis=1)
        return np.max(np.abs(out["norms"] - ours) / np.max(ours, axis=0))

    checks.guard("assemble_vs_dense", assemble_vs_dense, 1e-10)
    checks.guard("l1_residual", l1_residual, 1e-10)
    checks.guard("continuity_bound", lambda: norms2.max() / (ctx["continuity"] * lam[-1]), 1.0)
    checks.guard("garding_bound", garding, 0.0)
    checks.guard("operator_norm", lambda: _rel(out["opnorm"], norms2.max()), 1e-6)
    checks.guard("modal_norms", modal, 1e-12)

    exact = problem.exact(t)
    scale = np.linalg.norm(exact[-1])
    err = np.linalg.norm(c - exact, axis=1) / scale
    checks.add("error_at_T", err[-1], ERROR_LIMITS[problem.workload])
    return float(err[-1]), float(err.max())


# ---------------------------------------------------------------------------
# oracle: the Mittag-Leffler verification sweep
# ---------------------------------------------------------------------------


def solve_oracle(ctx: dict, tr: Tracer) -> dict:
    fode, fraccalc = ctx["fode"], ctx["fraccalc"]
    alpha, grid, forcing = ctx["alpha"], ctx["grid"], ctx["forcing"]
    s = grid.nodes
    out = {"closed": [], "voc": [], "l1": [], "kn": []}
    for lam in ctx["lams"]:
        with tr.span("fraccalc.ml_array"):
            E = fraccalc.ml_array(alpha, -lam * s**alpha)
        tr.count("fraccalc.ml_points", E.size)
        out["closed"].append((1.0 - E) / lam)  # per unit forcing
        with tr.span("fode.variation_of_constants"):
            out["voc"].append(fode.variation_of_constants(lam, forcing, alpha).values)
        with tr.span("fode.ivp"):
            ivp = fode.FractionalIVP(alpha, grid, np.full((grid.M + 1, 1, 1), lam), forcing.values)
        with tr.span("fode.l1_solve"):
            out["l1"].append(fode.l1_solve(ivp).values[:, 0])
    for n in ctx["kn_orders"]:
        with tr.span("fraccalc.convolve_kn"):
            out["kn"].append(fraccalc.convolve(forcing, fraccalc.Kernel.kn(alpha, n)).values)
    with tr.span("fode.variation_of_constants"):
        out["hi"] = fode.variation_of_constants(ctx["lams"][0], ctx["forcing_hi"], ctx["alpha_hi"]).values
    with tr.span("fraccalc.rl_integral"):
        out["rl"] = fraccalc.rl_integral(ctx["powers"], alpha).values
    with tr.span("fraccalc.ibp_residual"):
        out["ibp"] = fraccalc.integration_by_parts_residual(ctx["ibp_f"], ctx["ibp_g"], alpha)
    with tr.span("fode.picard_solve"):
        try:
            traj, log = fode.picard_solve(ctx["picard_ivp"])
        except (fode.PicardDivergenceError, ArithmeticError, ValueError) as exc:
            out["picard"] = exc  # the check below counts it as failed
        else:
            out["picard"] = traj.values[:, 0]
            tr.count("fode.picard_iters", log.iterations)
    return out


def check_oracle(problem, ctx: dict, out: dict, checks: Checks) -> tuple:
    """Checks of one sweep; returns (err_rel at T, max-over-t error).

    err_rel leaves out the Picard repro: its error is amplified rounding, so
    its size follows the summation order of the convolutions, not the
    accuracy of the sweep.  Its failure counts in pass_frac.
    """
    a, T, amp = problem.alpha, problem.T, problem.amp
    t = ctx["grid"].nodes
    M = problem.M
    at_T = []

    def ml_array_vs_reference():
        worst = 0.0
        for lam, closed in zip(problem.lams, out["closed"]):
            for m in (1, M // 8, M // 2, M):
                worst = max(worst, _rel(closed[m], reference.relaxation(a, lam, t[m])))
        return worst

    def against(name, values, refs, limit):
        errs = [_rel(v, r) for v, r in zip(values, refs)]
        at_T.extend(errs)
        checks.add(name, max(errs), limit)

    checks.guard("ml_array_vs_reference", ml_array_vs_reference, 1e-10)
    relax = [reference.relaxation(a, lam, T, amp) for lam in problem.lams]
    against("voc_vs_closed_form", [v[-1] for v in out["voc"]], relax, 1e-9)
    against("l1_vs_closed_form", [v[-1] for v in out["l1"]], relax, ERROR_LIMITS["oracle"])
    against("yosida_vs_closed_form", [v[-1] for v in out["kn"]],
            [reference.yosida_step(a, n, T, amp) for n in problem.kn_orders], 1e-4)
    against("voc_mpmath_branch", [out["hi"][-1]],
            [reference.relaxation(problem.alpha_hi, problem.lams[0], T, amp)], 1e-8)
    against("rl_integral_vs_closed_form", out["rl"][-1],
            [reference.rl_power(a, p, T, w) for p, w in zip(problem.powers, problem.power_amps)], 1e-6)
    checks.add("ibp_residual", out["ibp"], 1e-6)

    def picard():
        if isinstance(out["picard"], Exception):
            raise out["picard"]
        return _rel(out["picard"][-1], reference.relaxation(problem.picard_alpha, math.pi**2, T))

    checks.guard("picard_vs_closed_form", picard, 1e-3)

    worst_t = max(
        np.max(np.abs(l1 - amp * closed)) / np.max(np.abs(amp * closed))
        for l1, closed in zip(out["l1"], out["closed"])
    )
    return max(at_T), float(worst_t)


SOLVERS = {"pde": (solve_pde, check_pde), "oracle": (solve_oracle, check_oracle)}


def digest(out: dict) -> str:
    """Hash of every value in an output, for the repeatability check."""
    h = hashlib.sha256()
    for key in sorted(out):
        items = out[key] if isinstance(out[key], list) else [out[key]]
        for item in items:
            h.update(key.encode())
            if isinstance(item, np.ndarray):
                h.update(np.ascontiguousarray(item).tobytes())
            else:
                h.update(repr(item).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _layer_sample(tr: Tracer, first: int, counts_before: dict) -> dict:
    """Per-layer self times, peak and counts of the traced solve at spans[first]."""
    _, start, end = tr.spans[first][:3]
    self_times = tr.self_times(first)
    sample = {f"{k}_s": v for k, v in self_times.items() if k != "solve"}
    sample["trace.coverage"] = 1.0 - self_times["solve"] / (end - start)
    sample["spectral.assemble_peak_mb"] = tr.peak_bytes("spectral.assemble", first) / 2**20
    for k, v in tr.counts.items():
        sample[k] = v - counts_before.get(k, 0)
    return sample


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(job: dict, ctx: dict, tracer: Tracer, seconds: float) -> dict:
    problem = problems.generate(job["workload"], job["seed"])
    if problem.job() != job:
        raise RuntimeError("job does not match the problem its seed generates")
    solve, check = SOLVERS[job["kind"]]
    untraced = Tracer(False)

    durations = {False: [], True: []}
    samples, digests = [], []
    first = None
    peak_mb = None
    attempted = failed = 0

    phases = [(untraced, seconds)]
    if tracer.enabled:
        phases = [(untraced, seconds / 2.0), (tracer, seconds / 2.0)]
    for tr, budget in phases:
        start = time.perf_counter()
        paces = []
        while True:
            attempted += 1
            first_span, counts_before = len(tr.spans), dict(tr.counts)
            t0 = time.perf_counter()
            try:
                with tr.span("solve"):
                    out = solve(ctx, tr)
            except Exception:  # counted as a failed solve; the loop goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                durations[tr.enabled].append(time.perf_counter() - t0)
                if first is None:
                    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    first = out
                digests.append(digest(out))
                if tr.enabled:
                    samples.append(_layer_sample(tr, first_span, counts_before))
            now = time.perf_counter()
            paces.append(now - t0)
            # start another solve only if it should end within half a solve
            # of the budget, so slow solves still give a steady count
            if now - start + 0.5 * statistics.median(paces) > budget:
                break
    if first is None or not durations[False]:
        raise RuntimeError("no solve completed")

    checks = Checks()
    err_rel, err_max = check(problem, ctx, first, checks)
    checks.add("repeatable", len(set(digests)) - 1, 0)

    result = {
        "attempted": attempted,
        "failed": failed,
        "solve_s": statistics.median(durations[False]),
        "solve_durations": durations[False],
        "peak_mem_mb": peak_mb,
        "err_rel": err_rel,
        "checks": checks.items,
        "machine": machine(),
    }
    if tracer.enabled and samples:
        names = {k for s in samples for k in s}
        layers = {k: statistics.median(s.get(k, 0.0) for s in samples) for k in names}
        points = layers.get("fraccalc.ml_points", 0)
        layers["fraccalc.ml_us_per_point"] = (
            1e6 * layers.get("fraccalc.ml_array_s", 0.0) / points if points else 0.0
        )
        layers["err_max_over_t"] = err_max
        if durations[True]:
            layers["trace.overhead_s"] = statistics.median(durations[True]) - result["solve_s"]
        result["layers"] = layers
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"trace-{job['workload']}-seed{job['seed']}.json"))
    return result
