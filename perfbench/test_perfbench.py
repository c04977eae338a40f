"""Tests of the benchmark itself: generator, checks, references, metric names.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from perfbench import problems, reference, workloads
from perfbench.tracing import Tracer
from perfbench.worker import setup_pde

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(problems.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    jobs = [problems.generate(workload, seed).job() for seed in range(4)]
    assert jobs == [problems.generate(workload, seed).job() for seed in range(4)]
    assert len({json.dumps(j, sort_keys=True) for j in jobs}) == 4


@pytest.mark.parametrize("workload", ["assembly2d", "horizon1d"])
def test_seed_never_changes_sizes(workload):
    sizes = {(j["N"], j["M"], tuple(j["lengths"])) for j in (problems.generate(workload, s).job() for s in range(6))}
    assert len(sizes) == 1


def _small_pde(tr):
    problem = problems.pde_problem("horizon1d", 3, (1.0,), N=8, M=64)
    ctx = setup_pde(problem.job(), tr)
    return problem, ctx, workloads.solve_pde(ctx, tr)


def test_perturbed_trajectory_counts_as_failure():
    problem, ctx, out = _small_pde(Tracer(False))
    clean = workloads.Checks()
    workloads.check_pde(problem, ctx, out, clean)
    c = out["c"].copy()
    c[problem.M // 2] += 1e-6 * np.max(np.abs(c))
    perturbed = workloads.Checks()
    workloads.check_pde(problem, ctx, {**out, "c": c}, perturbed)
    assert "l1_residual" not in clean.failures()
    assert "l1_residual" in perturbed.failures()
    assert len(perturbed.failures()) > len(clean.failures())


def test_check_that_raises_counts_as_failed():
    checks = workloads.Checks()
    checks.guard("boom", lambda: 1 / 0, 1.0)
    checks.add("nan", math.nan, 1.0)
    assert checks.failures() == ["boom", "nan"]


def test_metric_names_are_well_formed_and_cover_the_traced_layers():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in spec["per_layer"]}

    tr = Tracer(True)
    _, ctx, _ = _small_pde(tr)
    setup_names = {f"{k}_s" for k in tr.self_times()} - {"spectral.assemble_s"}
    first, before = len(tr.spans), dict(tr.counts)
    with tr.span("solve"):
        workloads.solve_pde(ctx, tr)
    sample = workloads._layer_sample(tr, first, before)
    assert setup_names | set(sample) <= per_layer
    assert sample["trace.coverage"] > 0.9


def test_spans_record_parent_and_self_time():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    (_, s0, e0, p0, _), (_, s1, e1, p1, _) = tr.spans
    assert p0 == -1 and p1 == 0 and s0 <= s1 <= e1 <= e0
    st = tr.self_times()
    assert st["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert not Tracer(False).spans


@pytest.mark.parametrize("x", [0.5, 3.0, 20.0])
def test_ml_reference_against_erfc_form(x):
    # E_{1/2}(-x) = exp(x^2) erfc(x); x = 20 takes the asymptotic branch
    with mpmath.workdps(50):
        exact = float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x))
    assert reference.ml_ref(0.5, -x) == pytest.approx(exact, rel=1e-14)


def test_sine_quadrature_is_orthonormal():
    lengths = (1.0, 1.25)
    modes = reference.sine_modes(lengths, 12)
    quad = reference.SineQuadrature(lengths, modes)
    ones = quad.shape(())
    assert np.allclose(quad.form_matrix("c", ones), np.eye(12), atol=1e-13)
    stiff = quad.form_matrix("a11", ones) + quad.form_matrix("a22", ones)
    assert np.allclose(stiff, np.diag(reference.sine_eigenvalues(lengths, modes)), rtol=0, atol=1e-11)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
