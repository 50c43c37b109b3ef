import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import first_hit_margins, tiny_problem
from hslasso.baselines import reference_minimum
from hslasso.cli import BenchmarkGrid, build_parser, main, run_bench
from hslasso.problem import LassoProblem, save_problem_json


def run_cli(args):
    return main(list(args))


def run_module(args):
    """``python -m hslasso.cli`` in a child process that imports this package."""
    import hslasso

    env = {**os.environ, "PYTHONPATH": str(Path(hslasso.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "hslasso.cli", *args],
                          capture_output=True, text=True, env=env)


def test_usage_error_exit_code(tmp_path):
    assert run_module(["frobnicate"]).returncode == 2
    assert run_module(["bench", "--no-such-flag"]).returncode == 2
    # flags a subcommand would only have ignored are not accepted
    solve = ["solve", "--method", "ista", "--input", "p.json"]
    verify = ["verify", "--input", "p.json"]
    removed = [["bench", "--bound", "5"], ["bench", "--inner-stop", "gradient"],
               ["bench", "--inner-grad-tol", "1e-6"], ["bench", "--outer-stop", "t-floor"],
               ["bench", "--t0", "auto"], ["datagen", "--pattern", "sparse-exp"],
               ["datagen", "--format", "csv"], solve + ["--format", "csv"],
               solve + ["--seed", "1"], ["verify", "--format", "json"],
               # one bench protocol and one inner-step cap: these knobs are constants
               ["bench", "--h", "0.2"], ["bench", "--tau", "1e-3"], ["bench", "--max-outer", "5"],
               ["bench", "--max-inner", "5"], ["bench", "--sl-alpha", "10"],
               solve + ["--max-inner", "5"],
               ["bench", "--t0", "3"], ["bench", "--inner-fixed", "9"],
               ["bench", "--max-iters", "5"], ["bench", "--format", "json"],
               # one spelling of the simulation flag; datagen keeps --scenario
               ["bench", "--scenario", "sim1"],
               # homotopy settings other than t0 and h are keys of the --hs-config file
               solve + ["--bound", "5"], solve + ["--tau", "1e-3"],
               solve + ["--inner-stop", "gradient"], solve + ["--inner-fixed", "9"],
               solve + ["--inner-grad-tol", "1e-6"], solve + ["--outer-stop", "t-floor"],
               solve + ["--max-outer", "5"],
               # verify reads a stored problem only; datagen writes one
               ["verify"], verify + ["--scenario", "sim1"], verify + ["--n", "50"],
               verify + ["--p", "20"], verify + ["--rho", "0.1"], verify + ["--snr", "3"],
               verify + ["--lambda", "1e-3"], verify + ["--seed", "0"],
               # one protocol for every run, and HS settings from the file only
               solve + ["--ref-tol", "1e-8"], solve + ["--max-iters", "5"],
               solve + ["--sl-alpha", "10"], solve + ["--t0", "3"], solve + ["--h", "0.2"],
               verify + ["--ref-tol", "1e-8"]]
    for argv in removed:
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv
    # a sparsity outside 1..p wrote "sparsity": null on a dense scenario and exited 0
    assert run_cli(["datagen", "--scenario", "sim1", "--sparsity", "-3",
                    "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "problem.json").exists()
    # a starting level must be finite: inf gave a NaN trace; it is rejected
    # even for a method that does not read it
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "inf.json").write_text('{"t0": Infinity}')
    for method in ("hs", "ista"):
        assert run_cli(["solve", "--method", method, "--input", str(tmp_path / "problem.json"),
                        "--hs-config", str(tmp_path / "inf.json"),
                        "--out-dir", str(tmp_path / "out")]) == 2, method


FLAG_SURFACE = {
    "datagen": ["--lambda", "--n", "--name", "--out-dir", "--p", "--rho", "--scenario",
                "--seed", "--snr", "--sparsity"],
    "solve": ["--beta0", "--epsilon", "--hs-config", "--input", "--method", "--out-dir"],
    "bench": ["--epsilons", "--lambda", "--methods", "--n", "--out-dir", "--p", "--seed",
              "--sim"],
    "verify": ["--input", "--levels", "--out-dir"],
}


def test_cli_flag_surface():
    # Every option a subcommand accepts is one its command reads; adding
    # one is a deliberate change to this list.
    import argparse

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(o for a in sp._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, sp in sub.choices.items()}
    assert surface == FLAG_SURFACE


@pytest.mark.parametrize("flag", ["--n", "--p"])
def test_bench_size_flag_alone_is_usage_error(tmp_path, flag, capsys):
    rc = run_cli(["bench", "--sim", "sim1", flag, "10", "--methods", "ista",
                  "--epsilons", "0.05", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--n and --p must be given together" in capsys.readouterr().err
    assert not (tmp_path / "bench_ops.csv").exists()


def test_unreadable_paths_are_usage_errors(tmp_path, capsys):
    assert run_cli(["datagen", "--n", "12", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    prob = str(tmp_path / "problem.json")
    missing = str(tmp_path / "missing.json")
    assert run_cli(["solve", "--method", "ista", "--input", missing,
                    "--out-dir", str(tmp_path)]) == 2
    assert "missing.json" in capsys.readouterr().err
    assert run_cli(["solve", "--method", "hs", "--input", prob, "--hs-config", missing,
                    "--out-dir", str(tmp_path)]) == 2
    assert run_cli(["verify", "--input", missing, "--out-dir", str(tmp_path)]) == 2
    # an output directory that is a regular file cannot be written
    assert run_cli(["solve", "--method", "ista", "--input", prob,
                    "--out-dir", prob]) == 2
    assert "usage error" in capsys.readouterr().err


def test_truncated_binary_header_is_usage_error(tmp_path):
    from hslasso.problem import load_problem_binary

    short = tmp_path / "short.bin"
    short.write_bytes(b"LSSO\x01")
    with pytest.raises(ValueError, match="truncated header"):
        load_problem_binary(short)
    assert run_cli(["solve", "--method", "ista", "--input", str(short),
                    "--out-dir", str(tmp_path)]) == 2


def test_binary_body_length_must_match_the_header(tmp_path, capsys):
    # a header declaring n = p = 2**32 - 1 ended in a MemoryError traceback
    # (exit 1), and 8 stray bytes after a valid body loaded silently
    from hslasso.problem import load_problem_binary

    assert run_cli(["datagen", "--n", "12", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    good = (tmp_path / "problem.bin").read_bytes()
    huge = good[:4] + (2**32 - 1).to_bytes(4, "little") * 2 + good[12:]
    for name, data in (("huge.bin", huge), ("long.bin", good + bytes(8)),
                       ("short.bin", good[:-8])):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError, match="the header's n="):
            load_problem_binary(path)
        proc = run_module(["solve", "--method", "ista", "--input", str(path),
                           "--out-dir", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert "usage error" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
    assert load_problem_binary(tmp_path / "problem.bin").n == 12


def test_solve_reproduces_bench_cell(tmp_path, capsys):
    # bench problem seed = seed + 1000*sim_index + scenario_index: 5 + 1000 + 0
    methods = ("ista", "fista", "cd", "sl", "hs")
    assert run_cli(["bench", "--sim", "sim1", "--n", "30", "--p", "10", "--seed", "5",
                    "--methods", ",".join(methods), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "bench_ops.csv").read_text().splitlines()[1:]
    bench_ops = {row.split(",")[3]: row.split(",")[4] for row in rows}
    assert run_cli(["datagen", "--scenario", "sim1", "--n", "30", "--p", "10",
                    "--seed", "1005", "--out-dir", str(tmp_path)]) == 0
    # HSConfig() with the bench's t0 is the bench's HS protocol
    (tmp_path / "hs.json").write_text('{"t0": 3}')
    capsys.readouterr()
    for method in methods:
        assert run_cli(["solve", "--method", method, "--input", str(tmp_path / "problem.json"),
                        "--beta0", "1", "--hs-config", str(tmp_path / "hs.json"),
                        "--out-dir", str(tmp_path)]) == 0
        fields = dict(f.split("=", 1) for f in capsys.readouterr().out.split())
        assert fields["ops"] == bench_ops[method], method


def test_bad_method_list_is_usage_error(tmp_path):
    # a repeated method wrote every row twice, against one metadata cell
    for methods in ("ista,frobnicate", "ista,ista"):
        rc = run_cli(["bench", "--methods", methods, "--out-dir", str(tmp_path)])
        assert rc == 2, methods
    assert not (tmp_path / "bench_table.csv").exists()


def test_malformed_problem_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "p": 2}')
    rc = run_cli(["solve", "--method", "ista", "--input", str(bad),
                  "--out-dir", str(tmp_path)])
    assert rc == 2


PROBLEM_2x1 = '"n": 2, "p": 1, "X": [[1.0], [2.0]]'


@pytest.mark.parametrize("flag,text", [
    ("--input", "[]"),
    ("--input", '{%s, "lambda": "0.1", "y": [1.0, 2.0]}' % PROBLEM_2x1),
    ("--input", '{%s, "lambda": null, "y": [1.0, 2.0]}' % PROBLEM_2x1),
    ("--input", '{%s, "lambda": 0.1, "y": {"a": 1}}' % PROBLEM_2x1),
    ("--input", '{%s, "lambda": true, "y": [1.0, 2.0]}' % PROBLEM_2x1),
    ("--input", '{"n": true, "p": 1, "X": [[1.0]], "lambda": 0.1, "y": [1.0]}'),
    ("--input", '{"n": 2, "p": 1, "X": [[true], [2.0]], "lambda": 0.1, "y": [1.0, 2.0]}'),
    ("--input", '{%s, "lambda": 0.1, "y": [true, false]}' % PROBLEM_2x1),
    ("--input", '{%s, "lambda": 0.1, "y": ["1.0", 2.0]}' % PROBLEM_2x1),
    ("--input", '{"n": 2, "p": 1, "X": [1.0, 2.0], "lambda": 0.1, "y": [1.0, 2.0]}'),
    ("--input", '{%s, "lambda": 0.1, "y": [1%s, 2.0]}' % (PROBLEM_2x1, "0" * 400)),
    ("--input", '{%s, "lambda": 1%s, "y": [1.0, 2.0]}' % (PROBLEM_2x1, "0" * 400)),
    ("--hs-config", "[]"),
    ("--hs-config", '{"inner_fixed_count": 2.5}'),
    ("--hs-config", '{"h": 1%s}' % ("0" * 400)),
], ids=["problem-array", "lambda-string", "lambda-null", "y-object", "lambda-bool", "n-bool",
        "X-bool", "y-bool", "y-string", "X-flat", "y-huge-int", "lambda-huge-int",
        "hs-config-array", "hs-config-float-count", "hs-config-huge-int"])
def test_wrongly_shaped_json_is_usage_error(tmp_path, capsys, flag, text):
    # each was a traceback (exit 1) from an AttributeError, TypeError or
    # OverflowError, or a run (exit 0): lambda = 1.0, a 1-row X, 3 inner steps, a bool
    # or a string of digits read as a number
    files = {"--input": '{%s, "lambda": 0.1, "y": [1.0, 2.0]}' % PROBLEM_2x1,
             "--hs-config": "{}", flag: text}
    argv = ["solve", "--method", "hs", "--out-dir", str(tmp_path)]
    for key, content in files.items():
        path = tmp_path / f"{key[2:]}.json"
        path.write_text(content)
        argv += [key, str(path)]
    assert run_cli(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flags,config", [
    (["--t0", "7"], {}),
    (["--h", "0.5"], {"t0": 3.0}),
    ([], {"epsilon": 1e-9}),
    ([], {"outer_ref": 5}),
    ([], {"ref": 5}),
], ids=["file-and-t0", "file-and-h", "file-epsilon", "file-outer-ref", "file-ref"])
def test_hs_settings_have_one_source(tmp_path, capsys, flags, config):
    # each value was silently dropped (exit 0): the flags beside a file,
    # the file's epsilon under the --epsilon default, the file's reference
    # (then HSConfig.outer_ref, now HSConfig.ref, the name BaselineConfig uses).
    # The file is now the only source: --t0 and --h are no flags at all.
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    cfg = tmp_path / "hs.json"
    cfg.write_text(json.dumps(config))
    argv = ["solve", "--method", "hs", "--input", str(tmp_path / "problem.json"),
            "--hs-config", str(cfg), "--out-dir", str(tmp_path)] + flags
    if flags:
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    else:
        assert run_cli(argv) == 2
        assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "trace_hs.csv").exists()


@pytest.mark.parametrize("method,flags,protocol", [
    ("ista", ["--epsilon", "-1"], {}),
    ("fista", [], {"MAX_ITERS": 0}),
    ("cd", ["--beta0", "nan"], {}),
    ("cd", ["--beta0", "foo"], {}),
    ("hs", ["--epsilon", "0"], {}),
    ("hs", ["--beta0", "nan"], {}),
    ("hs", [], {"MAX_ITERS": 0}),
], ids=["ista-epsilon", "fista-max-iters", "cd-beta0-nan", "cd-beta0-word",
        "hs-epsilon", "hs-beta0-nan", "hs-max-iters"])
def test_solve_checks_inputs_before_the_reference(tmp_path, monkeypatch, method, flags,
                                                  protocol):
    # each was rejected only after a full reference solve; the step cap,
    # once a flag, is a protocol constant checked the same way
    import hslasso.cli as cli

    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    for name, value in protocol.items():
        monkeypatch.setattr(cli, name, value)

    def no_reference(*args):
        raise AssertionError("reference_minimum ran before the inputs were checked")

    monkeypatch.setattr(cli, "reference_minimum", no_reference)
    assert run_cli(["solve", "--method", method, "--input", str(tmp_path / "problem.json"),
                    "--out-dir", str(tmp_path)] + flags) == 2


@pytest.mark.parametrize("argv,setting", [
    (["solve", "--method", "ista", "--epsilon", "inf"], "epsilon"),
    (["solve", "--method", "hs", "--epsilon", "inf"], "epsilon"),
    (["solve", "--method", "hs", "--epsilon", "inf", "--hs-config", "theoretical.json"],
     "epsilon"),
    (["solve", "--method", "hs", "--hs-config", "infinite_b.json"], "B"),
], ids=["ista-epsilon", "hs-epsilon", "hs-epsilon-count", "hs-infinite-b"])
def test_non_finite_tolerances_are_usage_errors(tmp_path, capsys, argv, setting):
    # --epsilon inf exited 0 after no step, or 2 with only "math domain
    # error"; B = inf ended in an OverflowError traceback when counting the
    # levels. The reference tolerance is the constant baselines.REF_TOL, no flag.
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "theoretical.json").write_text('{"outer_stop": "theoretical-count"}')
    (tmp_path / "infinite_b.json").write_text(
        '{"B": Infinity, "outer_stop": "theoretical-count"}')
    capsys.readouterr()
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    argv += ["--input", str(tmp_path / "problem.json"), "--out-dir", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and setting in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--levels", "1e160"],
    ["verify", "--levels", "1e-120"],
    ["solve", "--method", "hs", "--hs-config", '{"t0": 1e160}'],
    ["solve", "--method", "hs", "--hs-config", '{"tau": 1e-300, "t0": 1e-200}'],
    ["solve", "--method", "hs", "--hs-config", '{"B": 1e200, "outer_stop": "t-floor"}'],
    ["solve", "--method", "hs", "--hs-config", '{"B": 1e-120, "outer_stop": "t-floor"}'],
], ids=["level-huge", "level-tiny", "t0-huge", "tau-t0-tiny", "B-huge", "B-tiny"])
def test_levels_and_bounds_out_of_float_range_are_usage_errors(tmp_path, argv):
    # each ended in an OverflowError or ZeroDivisionError traceback (exit 1):
    # t**3 or B**3 overflowed or underflowed a float
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    if argv[-1].startswith("{"):
        (tmp_path / "hs.json").write_text(argv[-1])
        argv = argv[:-1] + [str(tmp_path / "hs.json")]
    proc = run_module(argv + ["--input", str(tmp_path / "problem.json"),
                              "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "usage error" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


def test_solve_with_a_tiny_default_bound_converges(tmp_path, capsys):
    # exited 2 with a usage error about B, which the config does not set:
    # 10*max|beta0| = 8.7e-110 lay below the level range
    save_problem_json(tiny_problem(), tmp_path / "tiny.json")
    (tmp_path / "hs.json").write_text('{"t0": 1.0, "outer_stop": "t-floor", "tau": 0.5}')
    rc = run_cli(["solve", "--method", "hs", "--input", str(tmp_path / "tiny.json"),
                  "--hs-config", str(tmp_path / "hs.json"), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out


def test_non_finite_problem_json_is_usage_error(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"n": 2, "p": 2, "lambda": 0.1, "y": [1.0, 2.0],
                               "X": [[1.0, float("nan")], [0.0, 1.0]]}))
    rc = run_cli(["solve", "--method", "ista", "--input", str(bad),
                  "--out-dir", str(tmp_path)])
    assert rc == 2


def test_zero_column_design_is_solved(tmp_path):
    # An all-zero design column is a well-posed Lasso: only the penalty
    # depends on its coefficient, so the minimizer holds it at 0.
    rng = np.random.default_rng(31)
    X = rng.standard_normal((30, 6))
    X[:, 2] = 0.0
    y = X @ rng.uniform(-1.0, 1.0, 6) + 0.3 * rng.standard_normal(30)
    pr = LassoProblem(y=y, X=X, lam=0.05)
    ref = reference_minimum(pr)
    assert ref.beta_hat[2] == 0.0
    assert 0.0 <= ref.dual_gap <= 1e-9
    path = tmp_path / "zero_column.json"
    save_problem_json(pr, path)
    assert run_cli(["solve", "--method", "fista", "--input", str(path),
                    "--out-dir", str(tmp_path)]) == 0


def test_uncertified_reference_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # A reference iterate moved off the minimizer has a duality gap far
    # above the bound its residual tolerance implies.  The iterate is moved
    # after the path that produced it and before the certificate; the second
    # round refuses every support solve, so FISTA's iterate is certified.
    from hslasso import baselines
    from hslasso.problem import NumericalFailure

    find = baselines._reference_iterate
    pr = LassoProblem(y=np.arange(6.0), X=np.eye(6) + 0.1, lam=0.05)
    path = tmp_path / "problem.json"
    save_problem_json(pr, path)
    for method in ("support-kkt", "fista"):
        if method == "fista":
            monkeypatch.setattr(baselines, "support_kkt_solution", lambda *args: None)

        def perturbed(problem, method=method):
            beta, found = find(problem)
            assert found == method
            return beta + 1e-3, found

        monkeypatch.setattr(baselines, "_reference_iterate", perturbed)
        with pytest.raises(NumericalFailure, match="duality gap"):
            reference_minimum(pr)
        assert run_cli(["solve", "--method", "fista", "--input", str(path),
                        "--out-dir", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_datagen_writes_all_formats(tmp_path):
    rc = run_cli(["datagen", "--scenario", "sim1", "--n", "12", "--p", "5",
                  "--seed", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "problem.json").exists()
    assert (tmp_path / "problem.bin").exists()
    meta = json.loads((tmp_path / "problem.meta.json").read_text())
    assert meta["n"] == 12 and meta["seed"] == 3
    assert "pcg64" in meta["rng"]

    from hslasso.problem import load_problem_binary, load_problem_json

    pj = load_problem_json(tmp_path / "problem.json")
    pb = load_problem_binary(tmp_path / "problem.bin")
    assert np.array_equal(pj.X, pb.X)
    assert np.array_equal(pj.y, pb.y)


def test_solve_roundtrip_and_exit_codes(tmp_path, capsys, monkeypatch):
    import hslasso.cli as cli

    assert run_cli(["datagen", "--scenario", "sim1", "--n", "30", "--p", "8",
                    "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    prob = str(tmp_path / "problem.json")

    cfg_path = tmp_path / "hs.json"
    cfg_path.write_text('{"t0": 3, "h": 0.1}')
    rc = run_cli(["solve", "--method", "hs", "--input", prob, "--epsilon", "0.005",
                  "--hs-config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 0
    trace = (tmp_path / "trace_hs.csv").read_text().splitlines()
    assert trace[0] == "k,t_k,inner_iters,F,F_t,ops"

    capsys.readouterr()
    rc = run_cli(["solve", "--method", "fista", "--input", prob,
                  "--epsilon", "0.005", "--out-dir", str(tmp_path)])
    assert rc == 0
    fields = dict(f.split("=", 1) for f in capsys.readouterr().out.split())
    assert abs(float(fields["ref_dual_gap"])) <= 1e-9

    # a non-finite start point is a usage error
    for bad in ("nan", "inf"):
        assert run_cli(["solve", "--method", "fista", "--input", prob, "--beta0", bad,
                        "--out-dir", str(tmp_path)]) == 2

    # unreachable precision within one iteration: finishes unconverged
    monkeypatch.setattr(cli, "MAX_ITERS", 1)
    rc = run_cli(["solve", "--method", "ista", "--input", prob,
                  "--epsilon", "1e-14", "--out-dir", str(tmp_path)])
    assert rc == 1
    monkeypatch.undo()

    # homotopy settings from a JSON config file
    cfg_path.write_text('{"t0": 2.0, "h": 0.2, "inner_fixed_count": 10}')
    rc = run_cli(["solve", "--method", "hs", "--input", prob,
                  "--epsilon", "0.01", "--hs-config", str(cfg_path),
                  "--out-dir", str(tmp_path)])
    assert rc == 0

    # a wrongly typed config value is a usage error, not a crash
    cfg_path.write_text('{"h": "0.1"}')
    rc = run_cli(["solve", "--method", "hs", "--input", prob, "--hs-config", str(cfg_path),
                  "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_bench_table_shape_matches_contract(tmp_path):
    # one scenario, three methods, default nine precision targets
    rc = run_cli(["bench", "--sim", "sim1", "--n", "50", "--p", "20",
                  "--methods", "ista,fista,hs", "--seed", "7",
                  "--out-dir", str(tmp_path)])
    assert rc == 0
    table = (tmp_path / "bench_table.csv").read_text().splitlines()
    assert len(table) == 1 + 3  # header + one row per method
    assert len(table[0].split(",")) == 4 + 9  # identity columns + 9 epsilons
    methods = [line.split(",")[3] for line in table[1:]]
    assert methods == ["ista", "fista", "hs"]


def test_bench_small_grid_outputs(tmp_path):
    rc = run_cli(["bench", "--sim", "sim1", "--n", "30", "--p", "10",
                  "--methods", "ista,fista,hs", "--seed", "5",
                  "--epsilons", "0.05", "0.02", "0.01",
                  "--out-dir", str(tmp_path)])
    assert rc == 0
    table = (tmp_path / "bench_table.csv").read_text().splitlines()
    assert table[0].startswith("sim,n,p,method,eps_")
    assert len(table) == 4  # header + 3 methods
    for line in table[1:]:
        cells = line.split(",")[4:]
        assert len(cells) == 3
        ops = [int(c) for c in cells if c]
        assert ops == sorted(ops)  # threshold monotonicity

    curves = (tmp_path / "bench_curves.csv").read_text().splitlines()
    assert curves[0] == "sim,n,p,method,epsilon,log10_inv_eps,ops,log10_ops"
    ops_rows = (tmp_path / "bench_ops.csv").read_text().splitlines()
    assert ops_rows[0] == "sim,n,p,method,ops_total,ops_setup,ops_mult,ops_add,ops_trans,ops_cmp"
    for row in ops_rows[1:]:
        f = row.split(",")
        assert int(f[4]) == int(f[6]) + int(f[7]) + int(f[8]) + int(f[9])
    meta = json.loads((tmp_path / "bench_meta.json").read_text())
    assert meta["ref_tol"] == 1e-10
    for cell in meta["cells"].values():
        assert cell["converged"]
        assert abs(cell["ref_dual_gap"]) <= 1e-9
        assert cell["ref_method"] in ("support-kkt", "fista")


def test_bench_deterministic_bytes(tmp_path):
    args = ["bench", "--sim", "sim2", "--n", "25", "--p", "8",
            "--methods", "fista,hs", "--seed", "9",
            "--epsilons", "0.05", "0.01"]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert run_cli(args + ["--out-dir", str(a_dir)]) == 0
    assert run_cli(args + ["--out-dir", str(b_dir)]) == 0
    for name in ("bench_table.csv", "bench_curves.csv", "bench_ops.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


GOLDEN_GRIDS = {
    # HS does no outer level here: the ridge start already meets both targets
    "golden_lam0.001": BenchmarkGrid(scenarios=((50, 20),), epsilons=(0.05, 0.01),
                                     methods=("ista", "fista", "cd", "sl", "hs")),
    # lambda = 0.1: HS runs 57 and 53 levels of the homotopy loop
    "golden_lam0.1": BenchmarkGrid(scenarios=((50, 20),), lam=0.1, epsilons=(1e-2, 1e-3),
                                   methods=("ista", "fista", "cd", "hs")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_bench_matches_golden_bytes(name):
    # Files written by run_bench on these grids before the solver loops
    # shared one driver; any byte change is a change of results or of the
    # op-count convention.
    table, _, ops, _ = run_bench(GOLDEN_GRIDS[name])
    golden = Path(__file__).parent / "data" / name
    assert table.encode() == (golden / "bench_table.csv").read_bytes()
    assert ops.encode() == (golden / "bench_ops.csv").read_bytes()


PAPER_GRID = BenchmarkGrid(methods=("ista", "fista", "cd", "sl", "hs"))  # default grid


@pytest.fixture(scope="module")
def paper_grid_csvs():
    return run_bench(PAPER_GRID)[:3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_does_not_depend_on_row_order(monkeypatch, paper_grid_csvs, seed):
    # Permuting a problem's rows leaves the Lasso problem as it is but changes
    # the rounding of X'X/n and X'y/n: no first hit, curve point or op count
    # of the default grid may move with it.
    import hslasso.cli as cli

    generate = cli.generate
    rng = np.random.default_rng(seed)

    def permuted(spec, lam):
        problem = generate(spec, lam=lam)
        order = rng.permutation(problem.n)
        return LassoProblem(y=problem.y[order], X=problem.X[order], lam=problem.lam)

    monkeypatch.setattr(cli, "generate", permuted)
    names = ("bench_table.csv", "bench_curves.csv", "bench_ops.csv")
    for name, plain, shuffled in zip(names, paper_grid_csvs, run_bench(PAPER_GRID)[:3]):
        rows = set(plain.splitlines()) ^ set(shuffled.splitlines())
        moved = sorted({"/".join(row.split(",")[:4]) for row in rows})
        assert plain == shuffled, f"{name}: cells moved under row permutation: {moved}"


# Below the default grid's smallest first-hit margin: 1.16e-5 on
# sim1/n50p80/ista, then 1.0e-4 on sim1/n50p80/cd.
MARGIN_FLOOR = 1e-5


def test_default_grid_first_hits_keep_off_rounding_edges():
    # The row permutations above change the gaps by round-off alone, some
    # 1e-13 of an epsilon; a cell whose gap comes within MARGIN_FLOOR of an
    # epsilon is one that a change of arithmetic could move, so it is named.
    margins = first_hit_margins(PAPER_GRID)
    assert len(margins) == 20
    near = {cell: f"{m:.3g}" for cell, m in margins.items() if not m >= MARGIN_FLOOR}
    assert near == {}, f"cells within {MARGIN_FLOOR:g} (relative) of an epsilon: {near}"


def test_bench_unreached_thresholds_leave_cells_empty(monkeypatch):
    import hslasso.cli as cli

    monkeypatch.setattr(cli, "MAX_ITERS", 2)
    table, _, _, meta = run_bench(BenchmarkGrid(sims=("sim1",), scenarios=((20, 6),),
                                                methods=("ista",), epsilons=(0.05, 1e-9)))
    cells = table.splitlines()[1].split(",")[4:]
    assert cells[-1] == ""  # 1e-9 unreachable in two iterations
    assert not next(iter(meta["cells"].values()))["converged"]


def test_bench_runs_one_protocol():
    # the HS settings and the iteration cap are constants, echoed in the metadata
    import dataclasses

    import hslasso.cli as cli

    assert [f.name for f in dataclasses.fields(BenchmarkGrid)] == [
        "sims", "scenarios", "epsilons", "methods", "seed", "lam"]
    _, _, _, meta = run_bench(BenchmarkGrid(sims=("sim1",), scenarios=((20, 6),),
                                            methods=("hs",), epsilons=(0.05,)))
    hs = cli.BENCH_HS
    assert (hs.t0, hs.h, hs.inner_stop, hs.inner_fixed_count, hs.tau, hs.outer_stop) == (
        3.0, 0.1, "fixed", 50, 1e-4, "oracle")
    assert meta["hs"] == {"t0": hs.t0, "h": hs.h, "inner_stop": hs.inner_stop,
                          "inner_fixed": hs.inner_fixed_count, "tau": hs.tau}
    assert meta["max_iters"] == cli.MAX_ITERS == 200000


def test_benchmark_grid_validation(tmp_path):
    BenchmarkGrid().validate()
    with pytest.raises(ValueError):
        BenchmarkGrid(methods=())
    with pytest.raises(ValueError):
        BenchmarkGrid(methods=("ista", "nope"))
    with pytest.raises(ValueError):
        BenchmarkGrid(epsilons=(0.01, 0.05))  # not descending
    with pytest.raises(ValueError):
        BenchmarkGrid(epsilons=(0.05, -0.01))
    # a NaN precision wrote an eps_nan column that no run can fill
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            BenchmarkGrid(epsilons=(0.05, bad))
        assert run_cli(["bench", "--epsilons", "0.05", str(bad), "--out-dir", str(tmp_path)]) == 2
    # (True,) built and wrote an eps_True column
    for bad in ((True,), (0.05, False)):
        with pytest.raises(ValueError, match="epsilons"):
            BenchmarkGrid(epsilons=bad)
    with pytest.raises(ValueError, match="methods"):
        BenchmarkGrid(methods=("ista", "hs", "ista"))
    with pytest.raises(ValueError, match="scenarios"):
        BenchmarkGrid(scenarios=((20, 5), (30, 5), (20, 5)))
    with pytest.raises(ValueError, match="sims"):
        BenchmarkGrid(sims=("sim1", "sim1"))
    # each was found only by run_bench, the first after a full scenario had run
    for bad in ((0, 5), (5,), (5.5, 3), (20, True), 5):
        with pytest.raises(ValueError, match="scenario"):
            BenchmarkGrid(scenarios=((20, 5), bad))
    # each built, and run_bench then failed: seed=1.5 with a TypeError
    for bad in (-1.0, 0.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="lambda"):
            BenchmarkGrid(lam=bad)
    for bad in (-5000, -1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            BenchmarkGrid(seed=bad)
    # NumPy's bools built (run_bench then failed on lambda, or wrote an eps_True
    # column), and lambda "0.1" raised a TypeError
    for bad in (np.True_, np.False_, "0.1"):
        with pytest.raises(ValueError, match="lambda"):
            BenchmarkGrid(lam=bad)
    for bad in ((np.True_,), (0.05, np.False_), ("0.05",), (0.05, "0.01")):
        with pytest.raises(ValueError, match="epsilons"):
            BenchmarkGrid(epsilons=bad)
    for bad in ((np.int64(20), np.True_), (np.float64(20.0), 5)):
        with pytest.raises(ValueError, match="scenario"):
            BenchmarkGrid(scenarios=(bad,))
    # an empty sims or scenarios built, and run_bench wrote a header-only table
    for field in ("sims", "scenarios"):
        with pytest.raises(ValueError, match=f"{field} must be nonempty"):
            BenchmarkGrid(**{field: ()})
    assert run_cli(["bench", "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
    assert run_cli(["bench", "--lambda", "-1", "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "bench_table.csv").exists()
    # a NumPy-int seed or scenario size was rejected, though HSConfig and
    # BaselineConfig take NumPy counts; the grid stores Python numbers, so its
    # outputs and their JSON are the int grid's
    small = dict(sims=("sim1",), epsilons=(0.05, 0.01), methods=("ista", "hs"))
    grid = BenchmarkGrid(scenarios=[(np.int64(20), np.int32(5))], seed=np.int64(3),
                         lam=np.float32(0.5), **small)
    plain = BenchmarkGrid(scenarios=((20, 5),), seed=3, lam=float(np.float32(0.5)), **small)
    assert grid == plain
    assert [type(v) for v in (grid.seed, grid.lam, *grid.scenarios[0], *grid.epsilons)] == [
        int, float, int, int, float, float]
    grid.validate()  # a second check changes nothing
    assert grid == plain
    outputs, expected = run_bench(grid), run_bench(plain)
    assert outputs == expected
    assert json.dumps(outputs[3]) == json.dumps(expected[3])


def test_verify_minimizer_failure_is_numerical_exit(tmp_path, monkeypatch, capsys):
    from hslasso import diagnostics

    monkeypatch.setattr(diagnostics, "SWEEP_MAX_NEWTON", 1)
    assert run_cli(["datagen", "--scenario", "sim1", "--n", "40", "--p", "10",
                    "--out-dir", str(tmp_path)]) == 0
    rc = run_cli(["verify", "--input", str(tmp_path / "problem.json"),
                  "--levels", "1e-3", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_verify_svd_failure_is_numerical_exit(tmp_path, monkeypatch, capsys):
    # one Jacobi sweep left non-orthogonal factors, and verify exited 0 on them
    import functools

    from hslasso import diagnostics

    capped = functools.partial(diagnostics.jacobi_svd, max_sweeps=1)
    monkeypatch.setattr(diagnostics, "jacobi_svd", capped)
    assert run_cli(["datagen", "--scenario", "sim2", "--n", "50", "--p", "20",
                    "--lambda", "0.1", "--out-dir", str(tmp_path)]) == 0
    rc = run_cli(["verify", "--input", str(tmp_path / "problem.json"),
                  "--levels", "0.1", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "Jacobi SVD" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("level", ["inf", "0", "nan"])
def test_verify_checks_levels_before_the_reference(tmp_path, monkeypatch, level):
    # --levels inf exited 0 and wrote "t": Infinity, which is not JSON
    import hslasso.cli as cli

    def no_reference(*args):
        raise AssertionError("reference_minimum ran before the levels were checked")

    monkeypatch.setattr(cli, "reference_minimum", no_reference)
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--out-dir", str(tmp_path)]) == 0
    assert run_cli(["verify", "--input", str(tmp_path / "problem.json"),
                    "--levels", "0.1", level, "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "verify.json").exists()


def test_verify_sparse_scenario_with_fewer_than_ten_columns(tmp_path):
    # sim2 keeps min(10, p) nonzero coefficients, as the bench grid does
    assert run_cli(["datagen", "--scenario", "sim2", "--n", "20", "--p", "5",
                    "--out-dir", str(tmp_path)]) == 0
    rc = run_cli(["verify", "--input", str(tmp_path / "problem.json"),
                  "--levels", "0.1", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "verify.json").exists()


def test_datagen_sparse_scenario_with_fewer_than_ten_columns(tmp_path):
    # --sparsity defaults to min(10, p), as in bench and verify
    assert run_cli(["datagen", "--scenario", "sim2", "--n", "20", "--p", "5",
                    "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "problem.meta.json").read_text())["sparsity"] == 5
    assert run_cli(["datagen", "--scenario", "sim2", "--p", "5", "--sparsity", "6",
                    "--out-dir", str(tmp_path)]) == 2


def test_verify_reports(tmp_path, capsys):
    assert run_cli(["datagen", "--scenario", "sim1", "--n", "40", "--p", "10", "--seed", "2",
                    "--out-dir", str(tmp_path)]) == 0
    rc = run_cli(["verify", "--input", str(tmp_path / "problem.json"),
                  "--levels", "0.1", "0.01", "1e-3", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert len(report["closeness_sweep"]) == 3
    errs = [row["prediction_error"] for row in report["closeness_sweep"]]
    assert errs[-1] <= errs[0] + 1e-12
    assert "support" in report


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # np.setdiff1d, through np.unique, imported numpy.ma (about 0.9 MB) on
    # the first support-condition check of a process
    import hslasso

    assert run_cli(["datagen", "--scenario", "sim2", "--n", "20", "--p", "8", "--sparsity", "2",
                    "--lambda", "0.1", "--out-dir", str(tmp_path)]) == 0
    code = ("import sys; from hslasso.cli import main; "
            f"assert main(['verify', '--input', {str(tmp_path / 'problem.json')!r}, "
            f"'--levels', '0.1', '--out-dir', {str(tmp_path)!r}]) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
    env = {**os.environ, "PYTHONPATH": str(Path(hslasso.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "verify.json").read_text())
    assert "error" not in report["support_conditions"]  # the check ran


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_reused_parser_writes_what_a_fresh_process_writes(tmp_path, capsys):
    # main parses with one parser per process; a flagged call must not leave
    # its values behind as the next call's defaults
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["verify", "--input", "p.json"])
    assert isinstance(args.levels, tuple)
    assert isinstance(build_parser().parse_args(["bench"]).epsilons, tuple)
    assert run_cli(["datagen", "--n", "20", "--p", "5", "--lambda", "0.1",
                    "--out-dir", str(tmp_path)]) == 0
    small_bench = ["bench", "--sim", "sim1", "--n", "20", "--p", "5", "--methods", "ista"]
    calls = [["verify", "--input", str(tmp_path / "problem.json"), "--levels", "0.5"],
             ["verify", "--input", str(tmp_path / "problem.json")],
             small_bench + ["--epsilons", "0.05"],
             small_bench]
    for k, argv in enumerate(calls):
        assert run_cli(argv + ["--out-dir", str(tmp_path / f"main{k}")]) == 0, argv
    capsys.readouterr()
    for k, argv in enumerate(calls):
        proc = run_module(argv + ["--out-dir", str(tmp_path / f"fresh{k}")])
        assert proc.returncode == 0, proc.stderr
        assert _files(tmp_path / f"main{k}") == _files(tmp_path / f"fresh{k}"), argv
    assert len(json.loads((tmp_path / "main0" / "verify.json").read_text())
               ["closeness_sweep"]) == 1
    assert len(json.loads((tmp_path / "main1" / "verify.json").read_text())
               ["closeness_sweep"]) == 5
