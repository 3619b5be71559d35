"""Benchmark entry point: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flat-n32 --seed 0 --seconds 34 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  With ``--trace 0`` the run sets up the workload several times
(``setup_s`` is the median) and repeats its checks while another pass fits in
``--seconds`` seconds of wall time (at least once; ``solve_cpu_s`` is the
median per pass), then prints the end-to-end metrics of ``BENCHMARK.json``.

Both times are process CPU seconds, summed over threads.  Wall time on a
virtual machine includes the periods in which the hypervisor runs another
guest (CPU steal), which reached a fifth of both vCPUs on the 2-vCPU machine
the benchmark was tuned on and stretched single passes by up to half; CPU
time leaves steal out.

CPU time cannot credit parallelism: a change that spreads the same work over
more threads reads as no gain or as a loss, and one that serializes work can
read as a gain.  So a ``solve_cpu_s`` gain is not a speed-up claim by
itself; the wall and CPU time of every pass are printed and saved in the
result record, and a wall-time claim must come from those.

With ``--trace 1`` it runs one untraced pass, then installs the layer
wrappers of ``tracing.py`` and runs one traced set-up and pass, and prints
the per-layer metrics; a single traced pass keeps every count exact at a
fixed seed.  ``bench.trace_overhead_s`` is the traced pass's CPU time minus
the untraced one's.

A check that the workloads list in ``KNOWN_FAILING`` is counted in
``failed`` but does not make ``correct`` false.

Every line before the last is for people: each metric with its unit, each
check with its tolerance, and the provenance record.  The last line is the
JSON result.  Results and traced spans are also written under
``perfbench/out/``.  ``--size tiny`` runs the same call sequences on small
grids for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one process, at most nproc threads in BLAS and OpenMP; set before numpy loads
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, str(NPROC))

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 60
SETUP_MIN_SECONDS = 2.0


def _import_package():
    """Import achronal from this checkout's src/, refusing any other copy."""
    if not (SRC / "achronal" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'achronal'}")
    sys.path.insert(0, str(SRC))
    import achronal
    if Path(achronal.__file__).resolve().parent != (SRC / "achronal").resolve():
        sys.exit(f"error: imported achronal from {achronal.__file__}, not {SRC}")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        # grids.momentum_to_position passes workers=-1, which scipy.fft turns
        # into os.cpu_count() threads
        "scipy_fft_workers": {"argument": -1, "threads": os.cpu_count()},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setup(wl, cfg, seed):
    """Repeat the set-up; returns the last state and the median CPU time."""
    times, state = [], None
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        state = None  # release the previous factorization before rebuilding
        t0 = time.process_time()
        state = wl.setup(cfg, seed)
        times.append(time.process_time() - t0)
    return state, statistics.median(times)


def _timed_pass(solve, state, cfg, seed, scratch):
    """One pass of the checks: (outcome, wall seconds, CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = solve(state, cfg, seed, scratch)
    return outcome, time.perf_counter() - w0, time.process_time() - c0


def _time_solve(solve, state, cfg, seed, scratch, seconds):
    """Repeat the checks while another pass fits in the wall-time budget."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][1] <= seconds:
        passes.append(_timed_pass(solve, state, cfg, seed, scratch))
    return passes


def _err_ratio(outcome):
    """Largest |flux - reference| / reported error estimate."""
    return max(dev / est for dev, est in outcome.fluxes if est > 0)


def run(args):
    _import_package()
    import workloads as wl
    spec = _benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    solve, cfg = wl.config(args.workload, args.size)
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)

    if args.trace:
        import tracing as tr
        state = wl.setup(cfg, args.seed)
        passes = [_timed_pass(solve, state, cfg, args.seed, scratch)]
        state = None
        tracer = tr.Tracer()
        tracer.install()
        try:
            with tracer.region("bench.setup"):
                state = wl.setup(cfg, args.seed)
            with tracer.region("bench.solve"):
                traced = _timed_pass(solve, state, cfg, args.seed, scratch)
        finally:
            tracer.uninstall()
        outcomes = [traced[0]]
        metrics = tr.layer_metrics(tracer)
        metrics["bench.trace_overhead_s"] = traced[2] - passes[0][2]
        metrics["bench.unaccounted_frac"] = tr.unaccounted_fraction(tracer)
        names = [m["name"] for m in spec["per_layer"]]
        spans = tracer.dump()
    else:
        state, setup_s = _time_setup(wl, cfg, args.seed)
        passes = _time_solve(solve, state, cfg, args.seed, scratch, args.seconds)
        outcomes = [p[0] for p in passes]
        last = outcomes[-1]
        metrics = {"setup_s": setup_s,
                   "solve_cpu_s": statistics.median(p[2] for p in passes),
                   "peak_rss_mb": _peak_rss_mb(),
                   "norm_residual": last.norm_residual,
                   "claim_dev": last.claim_dev,
                   "err_ratio_max": _err_ratio(last)}
        names = [m["name"] for m in spec["end_to_end"]]
        spans = None

    checks = [c for o in outcomes for c in o.checks]
    failed = sum(not c["pass"] for c in checks)
    gated_failed = sum(not c["pass"] for c in checks if c["gated"])
    result = {
        "correct": gated_failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
    }
    prov = provenance(args.seed)

    for c in outcomes[-1].checks:
        verdict = "PASS" if c["pass"] else "FAIL"
        note = "" if c["gated"] else f"; known failing, not gated: {wl.KNOWN_FAILING[c['name']]}"
        print(f"[{verdict}] {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.3e}{note})")
    for name, v in outcomes[-1].values.items():
        print(f"value {name} = {v['value']:.6g} {v['unit']}")
    print(f"untraced passes {len(passes)}: wall "
          + " ".join(f"{p[1]:.3f}" for p in passes) + " s, CPU "
          + " ".join(f"{p[2]:.3f}" for p in passes) + " s")
    print(f"checks attempted {len(checks)}, failed {failed} "
          f"({failed - gated_failed} known failing, not gated)")
    for n in names:
        print(f"metric {n} = {metrics[n]:.6g} {units[n]}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{args.size}"
    record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "provenance": prov, "result": result,
              "passes": [{"wall_s": p[1], "cpu_s": p[2]} for p in passes],
              "checks": outcomes[-1].checks, "values": outcomes[-1].values}
    (scratch / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (scratch / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["flat-n32", "curved-n16", "covariance-logic-n16"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
