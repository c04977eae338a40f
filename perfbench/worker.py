"""One benchmark process: timed set-up, then the closed loop and its checks.

The launcher (run.py) starts this module in a fresh interpreter with BLAS
pinned, writes the job (problem source texts and sizes) to its stdin, and
reads one JSON object from the last line of its stdout.  With --setup-only
it stops after the timed set-up, so the launcher can repeat a cold set-up in
new interpreters.

Only the stdlib is imported before the set-up clock starts: set-up covers
`import fracspec` (and with it numpy and mpmath) as a user pays it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from perfbench.tracing import Tracer


def setup_pde(job: dict, tr: Tracer) -> dict:
    """Parse, build the basis, compute the paper's constants, assemble at t=0."""
    from fracspec import exprfield, fode, fraccalc, spectral

    with tr.span("exprfield.parse"):
        coeffs = {k: exprfield.parse(s) for k, s in job["coeffs"].items()}
        forcing = {int(k): exprfield.parse(s) for k, s in job["forcing"].items()}
    with tr.span("spectral.build_basis"):
        geom = spectral.DomainGeometry(tuple(job["lengths"]))
        basis = spectral.build_basis(geom, job["N"])
    T = job["T"]
    with tr.span("spectral.constants"):
        ellipticity = spectral.check_ellipticity(coeffs, geom, T, job["theta_min"])
        beta, nu = spectral.garding_constants(coeffs, geom, job["theta_min"], T)
        c2 = spectral.continuity_constant(coeffs, geom, basis, T)
    with tr.span("spectral.assemble", memory=True):
        spectral.assemble(basis, coeffs, forcing, 0.0)
    return {
        "spectral": spectral,
        "fode": fode,
        "fraccalc": fraccalc,
        "coeffs": coeffs,
        "forcing": forcing,
        "basis": basis,
        "grid": fraccalc.TimeGrid(T, job["M"]),
        "alpha": job["alpha"],
        "ellipticity": ellipticity,
        "garding": (beta, nu),
        "continuity": c2,
    }


def setup_oracle(job: dict, tr: Tracer) -> dict:
    """Parse the forcings and sample them on their time grids."""
    import numpy as np
    from fracspec import exprfield, fode, fraccalc

    with tr.span("exprfield.parse"):
        forcing = exprfield.parse(job["forcing"])
        powers = [exprfield.parse(s) for s in job["powers"]]
        ibp_f = exprfield.parse(job["ibp_f"])
        ibp_g = exprfield.parse(job["ibp_g"])
        picard_forcing = exprfield.parse(job["picard_forcing"])

    def series(expr, grid):
        vals = exprfield.evaluate(expr, t=grid.nodes)
        return fraccalc.GridSeries(grid, np.broadcast_to(np.asarray(vals, dtype=float), grid.nodes.shape))

    T = job["T"]
    grid = fraccalc.TimeGrid(T, job["M"])
    grid_hi = fraccalc.TimeGrid(T, job["M_hi"])
    grid_fine = fraccalc.TimeGrid(T, job["M_fine"])
    grid_picard = fraccalc.TimeGrid(T, job["picard_M"])
    f_picard = series(picard_forcing, grid_picard).values
    lam = job["picard_lam"]
    return {
        "fode": fode,
        "fraccalc": fraccalc,
        "alpha": job["alpha"],
        "alpha_hi": job["alpha_hi"],
        "lams": job["lams"],
        "kn_orders": job["kn_orders"],
        "grid": grid,
        "forcing": series(forcing, grid),
        "forcing_hi": series(forcing, grid_hi),
        "powers": fraccalc.GridSeries(grid_fine, np.stack([series(p, grid_fine).values for p in powers], axis=1)),
        "ibp_f": series(ibp_f, grid_fine),
        "ibp_g": series(ibp_g, grid_fine),
        "picard_ivp": fode.FractionalIVP(
            job["picard_alpha"], grid_picard, np.full((grid_picard.M + 1, 1, 1), lam), f_picard
        ),
    }


SETUPS = {"pde": setup_pde, "oracle": setup_oracle}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    job = json.load(sys.stdin)

    tracer = Tracer(bool(args.trace))
    t0 = time.perf_counter()
    ctx = SETUPS[job["kind"]](job, tracer)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_layers": tracer.self_times()}
    if not args.setup_only:
        from perfbench import workloads

        result.update(workloads.run(job, ctx, tracer, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
