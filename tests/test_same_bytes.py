"""tools/same_bytes.py: what counts as a difference between two runs."""

import importlib.util
from pathlib import Path

from hslasso.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(files, wall=1.0, ops_hs=5, failed=0):
    """A run as the tool reads it: the result line and the outputs."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "ops.hs": {"value": ops_hs, "unit": "count"}}
    return {"correct": True, "attempted": 6, "failed": failed, "metrics": metrics}, files


def test_same_bytes_flags_outputs_ops_and_counts_but_not_timings():
    differences = _tool().differences
    base = _run({"grid0/bench_ops.csv": b"1\n"})
    assert differences(base, _run({"grid0/bench_ops.csv": b"1\n"}, wall=2.0)) == []
    assert differences(base, _run({"grid0/bench_ops.csv": b"2\n"})) == [
        "outputs/grid0/bench_ops.csv"]
    assert differences(base, _run({})) == ["outputs/grid0/bench_ops.csv"]
    assert differences(base, _run({"grid0/bench_ops.csv": b"1\n"}, ops_hs=6)) == [
        "ops.hs: 5 != 6"]
    assert differences(base, _run({"grid0/bench_ops.csv": b"1\n"}, failed=1)) == [
        "failed: 0 != 1"]


def test_same_bytes_compares_the_four_cli_bench_files():
    # perfbench writes no bench_meta.json or bench_curves.csv; the CLI run does
    tool = _tool()
    files = tool.cli_bench_files(TOOL.parents[1])
    assert sorted(files) == ["bench_curves.csv", "bench_meta.json", "bench_ops.csv",
                             "bench_table.csv"]
    assert b'"sl_alpha": 100.0' in files["bench_meta.json"]
    assert tool.changed_files(files, dict(files), "bench") == []
    moved = {**files, "bench_meta.json": files["bench_meta.json"].replace(b"1e-10", b"1e-08")}
    assert tool.changed_files(files, moved, "bench") == ["bench/bench_meta.json"]
    del moved["bench_ops.csv"]
    assert tool.changed_files(files, moved, "bench") == ["bench/bench_meta.json",
                                                         "bench/bench_ops.csv"]


def test_same_bytes_compares_hs_solve_runs_under_each_config(tmp_path):
    # the bench runs HS at t0 = 3 under the fixed inner stop and the oracle
    # outer stop alone; these runs cover the default config, whose t0 is
    # searched, the other stops and the t0 search under the gradient stop.
    # The same call runs each flat method once, whose trace floats the bench
    # files show only through first-hit op counts
    tool = _tool()
    assert list(tool.SOLVE_CONFIGS) == ["default", "gradient", "theoretical-t-floor",
                                        "theoretical-count"]
    assert tool.SOLVE_CONFIGS["default"] == {}  # HSConfig(), as `solve` runs without a file
    files = tool.cli_solve_files(TOOL.parents[1], tool.write_problem(tmp_path, tool.SOLVE_PROBLEM))
    runs = {**{m: m for m in tool.FLAT_METHODS}, **{name: "hs" for name in tool.SOLVE_CONFIGS}}
    assert sorted(files) == sorted(f"{name}/{f}" for name, method in runs.items()
                                   for f in ("summary", f"trace_{method}.csv"))
    for name, method in runs.items():
        summary = files[f"{name}/summary"]
        assert summary.startswith((f"exit=0 method={method} ".encode(),
                                   f"exit=1 method={method} ".encode()))
        assert b"trace=" not in summary
        assert files[f"{name}/trace_{method}.csv"].count(b"\n") > 1  # a header and rows
    for name in ("default", "gradient"):  # a searched t0 charges its probes
        assert b"setup_ops=0 " not in files[f"{name}/summary"]
    # its tau allows every planned level, so the planned run meets its gap
    assert files["theoretical-count/summary"].startswith(b"exit=0 method=hs converged=True ")
    assert tool.changed_files(files, dict(files), "solve") == []
    moved = {**files, "gradient/trace_hs.csv": files["gradient/trace_hs.csv"] + b"\n"}
    assert tool.changed_files(files, moved, "solve") == ["solve/gradient/trace_hs.csv"]
    cd = files["cd/trace_cd.csv"]  # its last digit moved by one
    moved = {**files, "cd/trace_cd.csv": cd[:-2] + bytes([cd[-2] ^ 1]) + cd[-1:]}
    assert tool.changed_files(files, moved, "solve") == ["solve/cd/trace_cd.csv"]


def test_same_bytes_compares_a_verify_run_on_a_rank_deficient_p_gt_n_design(tmp_path,
                                                                             monkeypatch):
    # a 3 x 8 design: its gram has rank 3, so F_t's curvature on the other
    # five directions is the penalty's alone.  A 2 x 5 design walked from
    # 0.1 to 1e-8 then takes one Newton step in the SVD direction
    from hslasso import surrogate

    tool = _tool()
    assert tool.VERIFY_PROBLEM[1:5] == ["--n", "3", "--p", "8"]
    assert list(tool.VERIFY_RUNS) == ["verify", "verify-svd"]
    svd_solve, svd_steps = surrogate._svd_solve, []
    monkeypatch.setattr(surrogate, "_svd_solve",
                        lambda *a: svd_steps.append(1) or svd_solve(*a))
    for name, (datagen, levels) in tool.VERIFY_RUNS.items():
        problem = tool.write_problem(tmp_path / name, datagen)
        before = len(svd_steps)
        assert main(["verify", "--input", str(problem), *levels,
                     "--out-dir", str(tmp_path / name / "v")]) == 0
        assert len(svd_steps) - before == (name == "verify-svd")
        files = tool.cli_verify_files(TOOL.parents[1], problem, levels)
        assert files == {"exit": b"0",
                         "verify.json": (tmp_path / name / "v" / "verify.json").read_bytes()}
        assert tool.changed_files(files, dict(files), "verify") == []
        assert tool.changed_files(files, {"exit": b"3"}, "verify") == ["verify/exit",
                                                                        "verify/verify.json"]
