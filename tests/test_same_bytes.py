"""tools/same_bytes.py: what counts as a difference between two runs."""

import importlib.util
from pathlib import Path

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


def test_same_bytes_compares_hs_solve_runs_under_three_stop_configs(tmp_path):
    # the bench runs HS under the fixed inner stop and the oracle outer stop
    # alone; these runs cover the other stops and the t0 search
    tool = _tool()
    files = tool.cli_solve_files(TOOL.parents[1], tool.solve_problem(tmp_path))
    assert sorted(files) == [f"{name}/{f}" for name in sorted(tool.SOLVE_CONFIGS)
                             for f in ("summary", "trace_hs.csv")]
    for name in tool.SOLVE_CONFIGS:
        summary = files[f"{name}/summary"]
        assert summary.startswith((b"exit=0 method=hs ", b"exit=1 method=hs "))
        assert b"trace=" not in summary
    assert b"setup_ops=0 " not in files["gradient/summary"]  # t0 "auto" charges its probes
    assert tool.changed_files(files, dict(files), "solve") == []
    moved = {**files, "gradient/trace_hs.csv": files["gradient/trace_hs.csv"] + b"\n"}
    assert tool.changed_files(files, moved, "solve") == ["solve/gradient/trace_hs.csv"]
