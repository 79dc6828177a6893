"""Run one cmalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline_n1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, measured with only
operation counters installed.  ``--trace 1`` prints per-layer metrics from a
run whose library calls are wrapped in spans; it also times untraced body
iterations so the tracing overhead can be reported.  ``--smoke`` shrinks
every input so the benchmark's own tests run in seconds.  ``--workload all``
runs every workload, untraced and then traced, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run records
(environment stamp, failures by cause, iteration times) and, for traced
runs, every span go to ``.bench_work/results/``.  The exit code is 1 when
any correctness gate fails, and 2, before any output, when ``src/cmalab``
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")
SELF_SUM_TOL = 1e-6
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("pipeline_n1", "solve_n2", "analysis_n1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, blas_cap: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import pyamg  # noqa: F401  (decides the n=2 linear-solver path)
        has_pyamg = True
    except ImportError:
        has_pyamg = False
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "pyamg_importable": has_pyamg, "blas_thread_cap": blas_cap,
        "git_commit": git_commit(),
    }


def import_times(first: float) -> list[float]:
    """The in-process import time plus SETUP_REPS - 1 fresh-interpreter ones."""
    times = [first]
    for _ in range(SETUP_REPS - 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "perfbench"), str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout))
    return times


def closed_loop(wl, state, seconds: float, tracer=None):
    """Run body iterations until ``seconds`` have passed (and at least the
    workload's minimum).  Returns (body times, failed gates, error or None,
    root span ids)."""
    times, gates, roots = [], [], []
    start = time.perf_counter()
    while len(times) < wl.min_iterations or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            with tracer.span("body") if tracer is not None else nullcontext() as sid:
                outcome = wl.body(state)
        except Exception:
            return times, gates, traceback.format_exc(), roots
        times.append(time.perf_counter() - t0)
        if sid is not None:
            roots.append(sid)
        gates += wl.check(state, outcome)
    return times, gates, None, roots


def run_untraced(wl, args, work: Path, import_s: float) -> dict:
    imports = import_times(import_s)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, args.smoke, work)
        setup_times.append(time.perf_counter() - t0)

    ops = Tracer(spans=False)
    layers.install(ops, only=wl.ops)
    try:
        times, gates, error, _ = closed_loop(wl, state, args.seconds)
    finally:
        ops.uninstall()
    ops_attempted = sum(ops.calls.values())
    ops_failed = sum(ops.failures.values())
    metrics = {
        "setup_s": {"value": median(imports) + median(setup_times), "unit": "s"},
        "run_s": {"value": median(times) if times else float("nan"), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
        "ops_ok_frac": {"value": (ops_attempted - ops_failed) / ops_attempted
                        if ops_attempted else float("nan"), "unit": "ratio"},
    }
    return {"metrics": metrics, "times": times, "gates": gates, "error": error,
            "attempted": len(times) + (error is not None),
            "import_times": imports, "setup_times": setup_times,
            "ops_attempted": ops_attempted, "ops_failed": ops_failed,
            "failures": layers.failure_table(ops.failures)}


def run_traced(wl, args, work: Path, spans_path: Path) -> dict:
    tracer = Tracer(spans=True)
    layers.install(tracer)
    try:
        with tracer.span("setup") as setup_sid:
            state = wl.setup(args.seed, args.smoke, work)
    finally:
        tracer.uninstall()
    mark_counters, mark_failures = tracer.counters.copy(), tracer.failures.copy()

    plain, gates, error, _ = closed_loop(wl, state, args.seconds)
    traced, body_roots = [], []
    if error is None:
        layers.install(tracer)
        try:
            traced, more, error, body_roots = closed_loop(wl, state, args.seconds, tracer)
        finally:
            tracer.uninstall()
        gates += more
    tracer.dump(spans_path)

    setup = layers.PhaseTotals(tracer, [setup_sid], mark_counters, mark_failures)
    body = layers.PhaseTotals(tracer, body_roots, tracer.counters - mark_counters,
                              tracer.failures - mark_failures)
    n_body = max(1, len(body_roots))
    error_sum = max(setup.self_sum_error, body.self_sum_error)
    if not error_sum <= SELF_SUM_TOL:   # NaN (an unclosed span) fails too
        gates.append(f"span self times miss their root by {error_sum:.2e} (relative)")
    plain_s = median(plain) if plain else float("nan")
    derived = {
        "trace.overhead_frac": (median(traced) / plain_s - 1.0) if traced else float("nan"),
        "trace.untracked_frac": body.root_self / body.root_total if body_roots else float("nan"),
        "trace.self_sum_error": error_sum,
        "trace.body_iterations": len(body_roots),
        "sections.chains_per_s": body.chains_ok / n_body / plain_s,
    }
    metrics = layers.per_layer_metrics(setup, body, n_body, derived)
    return {"metrics": metrics, "times": traced, "untraced_times": plain,
            "gates": gates, "error": error,
            "attempted": len(plain) + len(traced) + (error is not None),
            "failures": layers.failure_table(tracer.failures)}


def run_all(args) -> int:
    failed = []
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if subprocess.run(cmd + ["--smoke"] * args.smoke).returncode != 0:
                failed.append(f"{name} trace={trace}")
    print(f"FAILED: {', '.join(failed)}" if failed else "all workloads correct")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    blas_cap = cap_blas_threads()
    if not (ROOT / "src" / "cmalab" / "__init__.py").is_file():
        print(f"perfbench: no cmalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and every cmalab module
    import_s = time.perf_counter() - t0

    env = environment(args, blas_cap)
    wl = workloads.WORKLOADS[args.workload]
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"tmp-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            rec = run_traced(wl, args, work, results / f"{stem}-spans.json")
        else:
            rec = run_untraced(wl, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = rec["error"] is None and not rec["gates"]
    rec.update(env=env, correct=correct)
    (results / f"{stem}.json").write_text(json.dumps(rec, indent=1, default=str))

    print("env " + json.dumps(env))
    for cause, n in rec["failures"].items():
        print(f"failure {cause} {n}")
    for gate in rec["gates"]:
        print(f"GATE FAILED: {gate}")
    if rec["error"]:
        print(rec["error"], file=sys.stderr)
    for name, m in rec["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": int(rec["error"] is not None),
                      "metrics": rec["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
