#!/usr/bin/env python3
"""fracspec benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload assembly2d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; fracspec is imported from ./src.
The launcher pins BLAS to one thread, generates the workload's problem from
the seed, and starts every measuring process as a fresh interpreter: a few
that only time the cold set-up, then one that sets up, runs the closed loop
and checks the outputs.  It prints a machine header, one line per check and
per metric, and as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # extra cold set-ups; setup_s is the median over these and the main process
DEADLINE_S = 170.0


def _child(args: list, job: dict, env: dict, deadline: float) -> dict:
    """Run perfbench.worker in a new interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args],
        input=json.dumps(job),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="fracspec benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (0.0 < args.seconds <= 120.0):
        ap.error("--seconds must lie in (0, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "fracspec", "__init__.py")):
        print("run.py: no fracspec sources under ./src", file=sys.stderr)
        return 1

    # Pin BLAS before numpy loads here or in any worker.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, ROOT)
    from perfbench import problems, workloads

    job = problems.generate(args.workload, args.seed).job()
    deadline = started + DEADLINE_S
    trace = ["--trace", str(args.trace)]
    try:
        probes = [_child(["--setup-only", *trace], job, env, deadline) for _ in range(SETUP_PROBES)]
        res = _child(["--seconds", str(args.seconds), *trace], job, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    setups = probes + [res]
    checks = res["checks"]
    passed = [workloads.Checks.passed(c) for c in checks]
    unexpected = [c[0] for c, ok in zip(checks, passed) if not ok and c[0] not in workloads.KNOWN_DEFECTS]
    if args.trace:
        table = spec["per_layer"]
        values = dict(res.get("layers", {}))
        for name in {n for s in setups for n in s["setup_layers"]} - {"spectral.assemble"}:
            values[f"{name}_s"] = statistics.median(s["setup_layers"].get(name, 0.0) for s in setups)
    else:
        table = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "solve_s": res["solve_s"],
            "err_rel": res["err_rel"],
            "pass_frac": sum(passed) / len(checks),
            "peak_mem_mb": res["peak_mem_mb"],
        }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in table}

    print("# machine " + json.dumps(res["machine"]))
    print(f"# workload {args.workload} seed {args.seed}: closed loop, 1 caller,"
          f" {len(res['solve_durations'])} untraced solves of {res['attempted']} attempted, {res['failed']} failed")
    print("# solve durations s: " + " ".join(f"{d:.4f}" for d in res["solve_durations"]))
    print("# setup durations s: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    for (name, value, limit, error), ok in zip(checks, passed):
        status = "ok" if ok else ("KNOWN DEFECT" if name in workloads.KNOWN_DEFECTS else "FAIL")
        detail = error or f"{value:.3e} {'<=' if ok else '>'} {limit:.1e}"
        note = f" ({workloads.KNOWN_DEFECTS[name]})" if name in workloads.KNOWN_DEFECTS and not ok else ""
        print(f"# check {name}: {status}: {detail}{note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not unexpected,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
