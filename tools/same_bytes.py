"""Check that two trees write the same benchmark bytes and op counts.

    python3 tools/same_bytes.py --parent DIR [--seed S]

Runs ``perfbench/run.py --seconds 0`` at ``--trace 0`` and ``--trace 1``
for every workload in BENCHMARK.json, first in DIR, then in the tree
that holds this script. Each run's ``outputs/`` must hold the same files
with the same bytes in both trees, every ``ops.*`` metric of the traced
runs must be equal, and so must each run's correct, attempted and failed
fields. Then it runs ``python -m hslasso.cli bench`` with all five
methods on each tree's ``src/``, and the four files it writes, the
``bench_meta.json`` that perfbench never writes among them, must have
the same bytes too. Next, it runs ``hslasso solve`` on one ``datagen``
problem, once per flat method (``FLAT_METHODS``), whose floats the bench
files show only through first-hit op counts, and with ``--method hs``
under the HS configs that neither the bench nor any workload runs
(``SOLVE_CONFIGS``): each run's trace CSV, exit code and summary line,
its trace path aside, must be the same. Last, it runs ``hslasso verify``
once per entry of ``VERIFY_RUNS``, on small p > n problems whose gram is
rank deficient, a shape the ``closeness-verify`` problems do not have:
at the default levels on ``VERIFY_PROBLEM``, and from t = 0.1 to 1e-8 on
``SVD_PROBLEM``, whose jump of decades takes a damped Newton step in the
SVD direction that no workload takes. Each run's ``verify.json`` and
exit code must be the same. Prints one line per run pair and exits 1 on
any difference or on a run that fails, 0 otherwise.
Timings are not compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
CLI_BENCH = ["bench", "--methods", "ista,fista,cd,sl,hs"]
SOLVE_PROBLEM = ["datagen", "--scenario", "sim1", "--n", "50", "--p", "20", "--lambda", "0.1",
                 "--seed", "1"]
FLAT_METHODS = ("ista", "fista", "cd", "sl")
# a 3 x 8 design, whose gram has rank 3
VERIFY_PROBLEM = ["datagen", "--n", "3", "--p", "8", "--seed", "1", "--lambda", "1e-3"]
# a 2 x 5 design, whose gram has rank 2
SVD_PROBLEM = ["datagen", "--n", "2", "--p", "5", "--seed", "0", "--lambda", "1e-3"]
# run -> (datagen arguments, verify's --levels arguments, none for the default)
VERIFY_RUNS = {"verify": (VERIFY_PROBLEM, []),
               "verify-svd": (SVD_PROBLEM, ["--levels", "0.1", "1e-8"])}
# HSConfig(), the path of `solve --method hs` without --hs-config, then the
# gradient and theoretical inner stops, the t-floor and theoretical-count
# outer stops and the t0 search: the bench runs none of them (it fixes t0);
# tau = 1e-6 allows 141 levels, enough for the 133 that theoretical-count
# plans here
SOLVE_CONFIGS = {
    "default": {},
    "gradient": {"t0": "auto", "inner_stop": "gradient", "inner_grad_tol": 1e-6},
    "theoretical-t-floor": {"t0": 3.0, "inner_stop": "theoretical", "outer_stop": "t-floor",
                            "tau": 1e-3},
    "theoretical-count": {"t0": 3.0, "inner_stop": "theoretical",
                          "outer_stop": "theoretical-count", "tau": 1e-6},
}


def run_tree(tree: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One ``--seconds 0`` run in ``tree``: its result line and its outputs,
    file path (relative to ``outputs/``) -> bytes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    outputs = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}" / "outputs"
    files = {str(p.relative_to(outputs)): p.read_bytes()
             for p in sorted(outputs.rglob("*")) if p.is_file()}
    return result, files


def run_cli(tree: Path, args: list[str], ok=(0,)) -> subprocess.CompletedProcess:
    """``python -m hslasso.cli ARGS`` on ``tree``'s ``src/``; an exit code
    outside ``ok`` raises."""
    proc = subprocess.run([sys.executable, "-m", "hslasso.cli", *args], cwd=tree,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode not in ok:
        raise RuntimeError(f"{tree}: cli {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def cli_bench_files(tree: Path) -> dict:
    """``python -m hslasso.cli bench`` on ``tree``'s ``src/``: the files it
    writes, name -> bytes."""
    with tempfile.TemporaryDirectory() as out:
        run_cli(tree, [*CLI_BENCH, "--out-dir", out])
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


def write_problem(out: Path, datagen: list[str]) -> Path:
    """The problem of the ``datagen`` arguments, written into ``out`` by this
    tree's ``datagen``."""
    run_cli(HERE, [*datagen, "--out-dir", str(out)])
    return out / "problem.json"


def cli_solve_files(tree: Path, problem: Path) -> dict:
    """``hslasso solve --epsilon 1e-4`` on ``problem`` with ``tree``'s
    ``src/``: once per entry of FLAT_METHODS at the default ``--beta0``, then
    with ``--method hs`` once per entry of SOLVE_CONFIGS.  Returns
    ``<run>/trace_<method>.csv`` and ``<run>/summary``, the exit code (0, or
    1 for a run that did not converge) and the summary line without its
    trace path, -> bytes; a run is named by its flat method or HS config."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(method, method, []) for method in FLAT_METHODS]
        for name, config in SOLVE_CONFIGS.items():
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(config))
            runs.append((name, "hs", ["--hs-config", str(cfg)]))
        for name, method, extra in runs:
            out = Path(tmp) / name
            proc = run_cli(tree, ["solve", "--method", method, "--input", str(problem),
                                  "--epsilon", "1e-4", *extra, "--out-dir", str(out)], ok=(0, 1))
            summary = proc.stdout.strip().rsplit(" trace=", 1)[0]
            files[f"{name}/summary"] = f"exit={proc.returncode} {summary}".encode()
            files[f"{name}/trace_{method}.csv"] = (out / f"trace_{method}.csv").read_bytes()
    return files


def cli_verify_files(tree: Path, problem: Path, levels=()) -> dict:
    """``hslasso verify`` on ``problem`` with ``tree``'s ``src/`` and the
    extra arguments ``levels``: its exit code (0, or 3 for a numerical
    failure, which writes nothing) and the ``verify.json`` it writes,
    name -> bytes."""
    with tempfile.TemporaryDirectory() as out:
        proc = run_cli(tree, ["verify", "--input", str(problem), *levels, "--out-dir", out],
                       ok=(0, 3))
        written = Path(out) / "verify.json"
        files = {"exit": str(proc.returncode).encode()}
        if written.is_file():
            files["verify.json"] = written.read_bytes()
    return files


def changed_files(parent: dict, change: dict, root: str) -> list[str]:
    """The files, under ``root``, that one of two runs lacks or writes otherwise."""
    return [f"{root}/{name}" for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def op_counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.startswith("ops.")}


def differences(parent: tuple[dict, dict], change: tuple[dict, dict]) -> list[str]:
    """What differs between two runs' results and outputs; empty if nothing."""
    (p_result, p_files), (c_result, c_files) = parent, change
    found = changed_files(p_files, c_files, "outputs")
    found += [f"{key}: {p_result.get(key)} != {c_result.get(key)}"
              for key in ("correct", "attempted", "failed")
              if p_result.get(key) != c_result.get(key)]
    p_ops, c_ops = op_counts(p_result), op_counts(c_result)
    found += [f"{key}: {p_ops.get(key)} != {c_ops.get(key)}"
              for key in sorted(p_ops.keys() | c_ops.keys()) if p_ops.get(key) != c_ops.get(key)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the tree to compare against")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} holds no perfbench/run.py")
    workloads = [w["name"] for w in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    same = True
    for workload in workloads:
        for trace in (0, 1):
            runs = [run_tree(tree, workload, args.seed, trace) for tree in (parent, HERE)]
            found = differences(*runs)
            label = f"{workload} trace {trace}"
            if found:
                same = False
                print(f"{label}: DIFFERS: " + "; ".join(found))
            else:
                ops = "".join(f", {k}={v}" for k, v in op_counts(runs[1][0]).items())
                print(f"{label}: same ({len(runs[1][1])} output files{ops})")
    files = [cli_bench_files(tree) for tree in (parent, HERE)]
    found = changed_files(*files, "bench")
    same &= not found
    print("cli bench: " + (f"DIFFERS: {'; '.join(found)}" if found
                           else f"same ({len(files[1])} files)"))
    with tempfile.TemporaryDirectory() as tmp:
        problem = write_problem(Path(tmp) / "solve", SOLVE_PROBLEM)
        files = [cli_solve_files(tree, problem) for tree in (parent, HERE)]
        found = changed_files(*files, "solve")
        same &= not found
        print("cli solve: " + (f"DIFFERS: {'; '.join(found)}" if found
                               else f"same ({len(FLAT_METHODS)} flat methods, "
                                    f"{len(SOLVE_CONFIGS)} HS configs)"))
        for name, (datagen, levels) in VERIFY_RUNS.items():
            problem = write_problem(Path(tmp) / name, datagen)
            files = [cli_verify_files(tree, problem, levels) for tree in (parent, HERE)]
            found = changed_files(*files, name)
            same &= not found
            print(f"cli {name}: " + (f"DIFFERS: {'; '.join(found)}" if found
                                     else f"same (exit {files[1]['exit'].decode()})"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
