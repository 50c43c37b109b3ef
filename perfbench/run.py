"""hslasso benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 10 --trace 0

Workloads (perfbench/BASELINE.md says why each is there):
  paper-grid        run_bench on the default grid, all five methods
  homotopy-deep     run_bench at lam=0.1 over 8 grid seeds, ista/fista/cd/hs
  closeness-verify  `hslasso verify --input` on six stored problems

The workload is repeated, untraced, until --seconds have passed (at least
once); end-to-end times are medians over those passes. With --trace 1 one
more pass runs with spans around every layer and the per-layer metrics
are reported instead. Each pass is checked: certified duality gaps, and
byte-identical outputs across passes, traced or not.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment. Files go to .perfbench_out/ under the working directory.
"""

import os

# One process, one BLAS thread: must be set before numpy is loaded. With
# OpenBLAS's default two threads CPU time ran ~30% above wall time on
# homotopy-deep at the same wall time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import certify  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import hslasso; print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("paper-grid", "homotopy-deep", "closeness-verify")


def fresh_import_seconds(root: Path) -> float:
    """Time `import hslasso` in a new interpreter, as a user pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=os.environ,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def blas_info() -> dict:
    """OpenBLAS version and the thread count it reports, read from the
    library numpy loaded (None where it cannot be read)."""
    import ctypes

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["blas_threads"] = int(fn())
                    return info
    except (OSError, KeyError, TypeError):
        pass
    return info


def timed_pass(workload, hooks):
    with tracing.patched(hooks):
        w0, c0 = time.perf_counter(), time.process_time()
        res = workload.run()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return res, wall, cpu


def layer_metrics(tracer, recorder, res, traced_wall, untraced_wall, ref_gap_max) -> dict:
    tot, cnt = tracer.totals(), tracer.counts()
    m = {f"{layer}.self_s": (s, "s") for layer, s in tracer.self_seconds().items()}
    m["datagen.generate_s"] = (tot.get("datagen.generate", 0.0), "s")
    m["problem.build_s"] = (tot.get("problem.build", 0.0), "s")
    m["problem.reference_s"] = (tot.get("problem.reference", 0.0), "s")
    m["problem.reference_calls"] = (cnt.get("problem.reference", 0), "count")
    m["problem.ref_dual_gap_max"] = (ref_gap_max, "objective")
    m["baselines.ref_cd_s"] = (tot.get("baselines.ref_cd", 0.0), "s")
    m["baselines.ref_fista_s"] = (tot.get("baselines.ref_fista", 0.0), "s")
    for method in ("ista", "fista", "cd", "sl"):
        solve_s = tot.get(f"baselines.{method}.solve", 0.0)
        iters = sum(s.iters for s in recorder.solves if s.method == method)
        m[f"baselines.{method}.solve_s"] = (solve_s, "s")
        m[f"baselines.{method}.iters"] = (iters, "count")
        m[f"baselines.{method}.us_per_iter"] = (1e6 * solve_s / iters if iters else 0.0, "us")
    hs_s = tot.get("homotopy.hs_solve", 0.0)
    hs = [s for s in recorder.solves if s.method == "hs"]
    inner = sum(s.inner_steps for s in hs)
    m["homotopy.hs_solve_s"] = (hs_s, "s")
    m["homotopy.outer_levels"] = (sum(s.iters for s in hs), "count")
    m["homotopy.inner_steps"] = (inner, "count")
    m["homotopy.us_per_inner_step"] = (1e6 * hs_s / inner if inner else 0.0, "us")
    m["homotopy.mops_per_s"] = (res.ops["hs"] / hs_s / 1e6 if hs_s else 0.0, "Mops/s")
    charged = sum(res.ops.values()) + res.ops_setup
    m["opcount.charge_calls"] = (tracer.charge_calls, "count")
    m["opcount.ops_per_charge_call"] = (
        charged / tracer.charge_calls if tracer.charge_calls else 0.0, "ops/call")
    m["diagnostics.closeness_sweep_s"] = (tot.get("diagnostics.closeness_sweep", 0.0), "s")
    m["diagnostics.support_conditions_s"] = (
        tot.get("diagnostics.support_conditions", 0.0), "s")
    for method, ops in res.ops.items():
        m[f"ops.{method}"] = (ops, "count")
    m["tracing_overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.uncovered_share"] = (1.0 - tracer.covered_seconds() / traced_wall, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "hslasso" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/hslasso is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # Set-up: importing hslasso and preparing the inputs, each repeated.
    import_s = [fresh_import_seconds(root) for _ in range(SETUP_REPEATS)]
    import hslasso
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, out_dir / "work")
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    problems = []
    results, walls, cpus = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        recorder = certify.Recorder(workload.epsilons)
        res, wall, cpu = timed_pass(workload, certify.hooks(recorder))
        results.append((res, recorder))
        walls.append(wall)
        cpus.append(cpu)
    untraced_wall = statistics.median(walls)

    if args.trace:
        tracer = tracing.Tracer()
        traced_rec = certify.Recorder(workload.epsilons)
        traced_res, traced_wall, _ = timed_pass(
            workload, tracing.layer_hooks(tracer) + certify.hooks(traced_rec))
        results.append((traced_res, traced_rec))
        (out_dir / "spans.json").write_text(json.dumps(tracer.to_json()))

    ref_gap_max = 0.0
    first = results[0][0]
    for i, (res, recorder) in enumerate(results):
        problems.extend(res.problems)
        gap_max, cert_problems = certify.check(recorder, workload.ref_gap_tol)
        ref_gap_max = max(ref_gap_max, gap_max)
        problems.extend(cert_problems)
        if res.artifacts != first.artifacts or (res.attempted, res.failed, res.ops) != (
                first.attempted, first.failed, first.ops):
            diff = sorted(k for k in res.artifacts.keys() | first.artifacts.keys()
                          if res.artifacts.get(k) != first.artifacts.get(k))
            problems.append(f"pass {i} differs from pass 0: {diff or 'counts'}")
    for name, text in first.artifacts.items():
        path = out_dir / "outputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    if args.trace:
        metrics = layer_metrics(tracer, traced_rec, traced_res, traced_wall, untraced_wall,
                                ref_gap_max)
    else:
        metrics = {
            "wall_s": (untraced_wall, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_frac": (1.0 - first.failed / first.attempted, "ratio"),
        }

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(walls), "wall_s_per_pass": walls,
        "setup_import_s": import_s, "setup_prepare_s": prepare_s,
        "python": platform.python_version(), "numpy": np.__version__,
        "hslasso": hslasso.__version__, "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS, **blas_info(),
        "failures": first.failures, "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({"env": env, "result": result}, indent=2))
    for note in first.failures:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    for note in problems:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
