import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from bellbounce import cli, optimize
from bellbounce.bell import BellCoeffs, Scenario, classical_bound, gisin_variant
from bellbounce.cli import main
from bellbounce.lattice import lattice_quantum_floor, load_lattice
from bellbounce.mapping import bell_operator, solve_alpha
from bellbounce.noise import prepare_noisy_singlets
from bellbounce.optimize import Objective, OptimizerConfig, run_search
from bellbounce.pauli import correlator_vector
from bellbounce.presets import H_G_COEFFS, tetrahedron_axes_settings
from bellbounce.serialize import format_float, write_json_lines

CERT_SHA = "402455be3535bd7f61760cb7e0ccf0679b0cd281b97936dde814e90d1f348443"


def test_classical_bound_gisin(capsys, tmp_path):
    assert main(["classical-bound", "--gisin-delta", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "classical bound: -8" in out
    assert "difference: 0" in out
    summary = json.loads((tmp_path / "classical_bound_summary.json").read_text())
    assert summary["beta_c"] == -8
    assert summary["witness_a"] == [1, -1, -1, -1]
    assert summary["provenance"]["version"]


def test_classical_bound_inline_alpha(capsys):
    argv = ["classical-bound", "--alpha", "1 1 1 -1", "--m1", "2", "--m2", "2"]
    assert main(argv) == 0
    assert "classical bound: -2" in capsys.readouterr().out


def test_classical_bound_alpha_file(capsys, tmp_path):
    path = tmp_path / "eq5.json"
    path.write_text(json.dumps([[0, 1, -1], [-1, 0, 1], [1, 0, 1], [0, -1, -1]]))
    assert main(["classical-bound", "--alpha-file", str(path)]) == 0
    assert "classical bound: -4" in capsys.readouterr().out


def test_validation_exit_codes(capsys, tmp_path):
    assert main(["classical-bound"]) == 2  # no coefficient source
    assert main(["classical-bound", "--gisin-delta", "1", "--alpha-file", "x"]) == 2
    assert main(["bounce", "--max-loops", "0", "--steps", "5", "--out", str(tmp_path)]) == 2
    assert main(["ineq2ham", "--p-grid", "bad", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    for grid in ("0:inf:0.001", "0:0.002:inf", "nan:0.002:0.001"):
        assert main(["ineq2ham", "--p-grid", grid, "--steps", "5", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: p grid entries must be finite, got {grid!r}\n"
    # a 20-byte lattice header may declare more vertices than a run can hold
    huge = tmp_path / "huge.lattice"
    huge.write_text("vertices 1000000000\n0 1 1.0 red\n")
    assert main(["lattice", "--file", str(huge), "--out", str(tmp_path / "lat")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count 1000000000 outside [1, 1048576]\n"
    assert not (tmp_path / "lat").exists()
    # the kernel follows the shape; there is no flag to choose it
    assert main(["ham2ineq", "--preset", "H_G", "--m1", "4", "--m2", "4",
                 "--solve-mode", "unique", "--out", str(tmp_path)]) == 2
    assert main(["ham2ineq", "--h", "nan 0 0 0 1 0 0 0 1", "--restarts", "1",
                 "--steps", "5", "--out", str(tmp_path)]) == 2
    assert main(["bounce", "--h", "1 0 0 0 1 0 0 0 nan", "--steps", "5",
                 "--out", str(tmp_path)]) == 2
    assert main(["ineq2ham", "--restarts", "-3", "--steps", "5", "--out", str(tmp_path)]) == 2
    assert main(["bounce", "--gap-tol", "nan", "--steps", "5", "--out", str(tmp_path)]) == 2
    # the engine's enumeration at 16x16 with 32 restarts is refused, not allocated
    assert main(["ham2ineq", "--preset", "H_G", "--m1", "16", "--m2", "16", "--restarts", "32",
                 "--steps", "5", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # a step budget beyond the engine's cap, 1e9 random starts and a 3e11-point
    # noise grid are refused before any allocation, row or output dir
    for i, argv in enumerate((
        ["ham2ineq", "--preset", "H_G", "--steps", "10000000000"],
        ["ineq2ham", "--steps", "10000000000"],
        ["bounce", "--steps", "10000000000"],
        ["ham2ineq", "--preset", "H_G", "--restarts", "1000000000", "--steps", "1"],
        ["ineq2ham", "--p-grid", "0:0.3:1e-12", "--steps", "5"],
    )):
        out = tmp_path / f"guard{i}"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert not out.exists()
    # a negative seed is refused at the option by every subcommand that takes one;
    # classical-bound and lattice draw nothing at random and refuse the flag itself
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"bounce": {"seed": -1}}')
    for i, argv in enumerate((
        ["classical-bound", "--gisin-delta", "2", "--seed", "-1"],
        ["ham2ineq", "--preset", "H_G", "--steps", "5", "--seed", "-1"],
        ["ineq2ham", "--restarts", "0", "--steps", "5", "--seed", "-1"],
        ["bounce", "--steps", "5", "--seed", "-1"],
        ["lattice", "--seed", "-1"],
        ["bounce", "--steps", "5", "--config", str(cfg)],
    )):
        out = tmp_path / f"seed{i}"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert ("--seed" if "--seed" in argv else "'seed'") in captured.err
        assert not out.exists()
    assert main(["ham2ineq", "--preset", "H_G", "--restarts", "1", "--steps", "5",
                 "--lr", "nan", "--out", str(tmp_path)]) == 2
    # a common flag the subcommand does not take is refused, not ignored
    assert main(["classical-bound", "--gisin-delta", "2", "--lr", "0.1"]) == 2
    assert main(["lattice", "--steps", "5"]) == 2
    capsys.readouterr()
    for argv in (
        ["ham2ineq", "--preset", "H_G", "--restarts", "1", "--steps", "5", "--fd-step", "1e-4"],
        ["ineq2ham", "--restarts", "0", "--steps", "5", "--fd-step", "1e-4"],
        ["bounce", "--steps", "5", "--fd-step", "1e-4"],
        ["classical-bound", "--gisin-delta", "2", "--seed", "0"],
        ["lattice", "--seed", "0"],
    ):
        assert main([*argv, "--out", str(tmp_path / "taken")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]} does not take {argv[-2]}\n"
        assert not (tmp_path / "taken").exists()
    cfg = tmp_path / "fd.json"
    cfg.write_text('{"ineq2ham": {"fd_step": 1e-4}}')
    assert main(["ineq2ham", "--config", str(cfg), "--steps", "5"]) == 2
    assert capsys.readouterr().err == "error: unknown config keys for ineq2ham: ['fd_step']\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"classical-bound": {"bogus": 1}}')
    assert main(["classical-bound", "--config", str(cfg)]) == 2
    capsys.readouterr()
    # broken JSON, and nesting beyond the parser's depth, exit 2 with one line
    for i, text in enumerate(("{", "[" * 100_000 + "]" * 100_000)):
        cfg = tmp_path / f"broken{i}.json"
        cfg.write_text(text)
        assert main(["classical-bound", "--gisin-delta", "2", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config file {cfg} is not valid JSON\n"
    # a data or coefficient file must be a rectangular JSON list of numbers: an object,
    # strings, booleans, ragged rows and broken JSON are refused before any search or output
    for i, text in enumerate(('{"a": 1}', '["1", 0, 0, 0, 0, 0, 0, 0, 0]', "true",
                              "[true, 0, 0, 0, 0, 0, 0, 0, 0]", "[[1, 2], [3]]", "[1, 2")):
        data = tmp_path / f"malformed{i}.json"
        data.write_text(text)
        for argv in (["ineq2ham", "--data-file", str(data), "--steps", "5"],
                     ["classical-bound", "--alpha-file", str(data)],
                     ["lattice", "--alpha-file", str(data)],
                     ["bounce", "--data-file", str(data), "--steps", "5"]):
            what = "alpha file" if "--alpha-file" in argv else "correlator data file"
            out = tmp_path / f"malformed{i}_{argv[0]}"
            assert main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {what} {data} is not a rectangular JSON list of numbers\n"
            assert not out.exists()


_A33 = "[[1, 2, 3], [4, 5, 6], [7, 8, 9]]"


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["ineq2ham", "--data-file", "FILE"], "[1, 2]",
                 "correlator data file must hold 9 numbers, got shape (2,)", id="data-shape"),
    pytest.param(["classical-bound", "--alpha", "1 2 3 4"], None,
                 "inline alpha needs --m1 and --m2", id="alpha-no-shape"),
    pytest.param(["classical-bound", "--alpha", "1 2 3", "--m1", "2", "--m2", "2"], None,
                 "alpha has 3 entries, expected 4", id="alpha-size"),
    pytest.param(["ham2ineq", "--preset", "H_G", "--h", "1,0,0,0,1,0,0,0,1"], None,
                 "choose either --preset or --h, not both", id="preset-and-h"),
    pytest.param(["ham2ineq", "--h", "1,2,3"], None, "h must have 9 entries, got 3", id="h-size"),
    # |h| is 2e154, finite, but np.linalg.norm forms it from h . h, which overflows
    pytest.param(["ham2ineq", "--h", "2e154,0,0,0,0,0,0,0,0"], None,
                 "h entries too large: the sum of their squares overflows", id="h-squares"),
    pytest.param(["ham2ineq"], None, "no operator given: use --preset or --h", id="no-operator"),
    pytest.param(["ineq2ham", "--p-grid", "0:1"], None,
                 "p grid must be start:stop:step, got '0:1'", id="grid-parts"),
    pytest.param(["ineq2ham", "--p-grid", "0.02:0.01:0.001"], None,
                 "bad p grid '0.02:0.01:0.001'", id="grid-descending"),
    pytest.param(["ineq2ham", "--alpha-file", "FILE"], _A33,
                 "settings optimization is wired for (4, 3) coefficient matrices", id="ineq2ham-3x3"),
    pytest.param(["lattice", "--alpha-file", "FILE"], _A33,
                 "lattice quantum floor is wired for (4, 3) local coefficients", id="lattice-3x3"),
    pytest.param(["bounce", "--gisin-delta", "2", "--preset", "H_G"], None,
                 "start from an inequality or an operator, not both", id="bounce-two-starts"),
    pytest.param(["ham2ineq", "--config", "FILE"], "[1]",
                 "config must be a JSON object keyed by subcommand", id="config-list"),
    pytest.param(["ham2ineq", "--config", "FILE"], '{"ham2ineq": 3}',
                 "config section 'ham2ineq' must be an object", id="config-section"),
    pytest.param(["lattice", "--file", "FILE"], "vertices x\n0 1 1.0 red\n",
                 "line 1: bad vertex count 'x'", id="lattice-header"),
])
def test_refusals_exit_2_with_one_line(argv, text, message, capsys, tmp_path):
    # FILE in argv names a file holding text
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def test_nonfinite_data_file_rejected_before_search(capsys, tmp_path):
    # a nan entry, and correlators outside [-1, 1] that no state produces
    bad = {"nan": ("[NaN,0,0,0,0,0,0,0,0]", "finite"),
           "unphysical": ("[-2,0,0,0,-2,0,0,0,-2]", "[-1, 1]")}
    for name, (text, message) in bad.items():
        data = tmp_path / f"{name}.json"
        data.write_text(text)
        for cmd in ("ineq2ham", "bounce"):
            out = tmp_path / f"{name}_{cmd}"
            argv = [cmd, "--data-file", str(data), "--steps", "5", "--out", str(out)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""  # nothing searched or printed first
            assert len(captured.err.splitlines()) == 1 and message in captured.err
            assert not out.exists()


def test_alpha_file_of_wrong_rank_rejected(capsys, tmp_path):
    # a coefficient file must hold a matrix with at least two settings per party
    nested = "[[[1, 2], [3, 4]], [[5, 6], [7, 8]]]"
    for i, text in enumerate(("[1, 2, 3]", "[[1, 2]]", "[]", "[[]]", nested)):
        data = tmp_path / f"rank{i}.json"
        data.write_text(text)
        for cmd, extra in (("classical-bound", []), ("lattice", []),
                           ("ineq2ham", ["--steps", "5"]), ("bounce", ["--steps", "5"])):
            out = tmp_path / f"rank{i}_{cmd}"
            assert main([cmd, "--alpha-file", str(data), *extra, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert not out.exists()


def test_unphysical_data_file_rejected_before_search(capsys, tmp_path):
    # entries inside [-1, 1] whose signed singular values leave the tetrahedron
    # of two-qubit states: <XX> = <YY> = <ZZ> = 1 is impossible, as XX YY = -ZZ
    for i, c in enumerate(([1, 0, 0, 0, 1, 0, 0, 0, 1], [-1, 0, 0, 0, -1, 0, 0, 0, 1])):
        data = tmp_path / f"bad{i}.json"
        data.write_text(json.dumps(c))
        for cmd in ("ineq2ham", "bounce"):
            out = tmp_path / f"bad{i}_{cmd}"
            argv = [cmd, "--data-file", str(data), "--steps", "5", "--out", str(out)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1 and "tetrahedron" in captured.err
            assert not out.exists()
    # the p = 0 singlet is a vertex of the tetrahedron; all-zero data is its centre
    singlet = correlator_vector(prepare_noisy_singlets([0.0])[0])
    for i, c in enumerate((singlet.tolist(), [0] * 9)):
        data = tmp_path / f"good{i}.json"
        data.write_text(json.dumps(c))
        for cmd, extra in (("ineq2ham", []), ("bounce", ["--max-loops", "1"])):
            argv = [cmd, "--data-file", str(data), "--steps", "5", *extra,
                    "--out", str(tmp_path / f"good{i}_{cmd}")]
            assert main(argv) == 0
            capsys.readouterr()


def test_numerical_failure_exit_code(capsys, tmp_path, monkeypatch):
    # no valid input reaches a failed search or solve, so the search raises each
    # numerical error in turn; LinAlgError subclasses ValueError, yet exits 3
    argv = ["ham2ineq", "--preset", "H_G", "--restarts", "2", "--steps", "30",
            "--out", str(tmp_path)]
    for error in (optimize.NoFeasiblePointError, cli.LinearSolveError, np.linalg.LinAlgError):
        def fail(*args, error=error):
            raise error("injected")

        monkeypatch.setattr(cli, "run_search", fail)
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: injected\n"


def _h_arg(h) -> str:
    return ",".join(repr(x) for x in np.asarray(h, dtype=float).tolist())


@pytest.mark.parametrize("argv", [
    ["--preset", "H_G", "--m1", "2"],
    ["--preset", "gisin_elegant", "--m1", "4", "--m2", "2"],
    ["--h", "1 .7 -.3 .2 -1 .4 .9 -.6 .5", "--m1", "2", "--m2", "2"],
    ["--h", _h_arg(H_G_COEFFS * 1e-100), "--m1", "2", "--m2", "3"],
    ["--h", "1,0,0,0,0,0,0,0,0", "--m1", "2", "--m2", "2"],  # rank 1
    ["--h", "1,0,0,0,0,0,0,0,1", "--m1", "2", "--m2", "3"],  # rank 2
    ["--h", "1,0,0,0,0,0,0,0,0", "--m1", "3", "--m2", "2"],  # rank 1
    # |h|^2 underflows to 0, where a relative residual gate passes any settings
    ["--h", _h_arg(H_G_COEFFS * 1e-200), "--m1", "2", "--m2", "3"],
])
def test_ham2ineq_refuses_an_unrepresentable_operator(argv, capsys, tmp_path, monkeypatch):
    # NA^T alpha NB has rank at most min(m1, m2): below 3, the settings that represent
    # a nonzero H form a measure-zero set at best, so such a search is refused unstarted
    monkeypatch.setattr(cli, "random_starts", None)
    out = tmp_path / "out"
    assert main(["ham2ineq", *argv, "--restarts", "2", "--steps", "30", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: a nonzero operator needs at least 3 settings per party\n"
    assert not out.exists()


def test_ham2ineq_represents_the_zero_operator_exactly(capsys, tmp_path):
    # the residual gate is relative to ||h||, so h = 0 passes it only with residual 0,
    # which alpha = 0 leaves
    for m1 in (2, 3, 4):
        out = tmp_path / f"zero{m1}"
        argv = ["ham2ineq", "--h", "0,0,0,0,0,0,0,0,0", "--m1", str(m1), "--m2", "3",
                "--restarts", "2", "--steps", "20", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        summary = json.loads((out / "ham2ineq_summary.json").read_text())
        assert summary["best_beta_c"] == 0 and summary["residual"] == 0
        assert summary["alpha"] == [[0] * 3] * m1


def test_ham2ineq_outputs(capsys, tmp_path):
    argv = ["ham2ineq", "--preset", "H_G", "--m1", "3", "--m2", "3",
            "--restarts", "2", "--steps", "40", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "ham2ineq_summary.json").read_text())
    assert summary["scenario"] == [3, 3]
    assert summary["residual"] <= 1e-8 * np.linalg.norm(summary["h"])
    assert len(summary["alpha"]) == 3
    curve = (tmp_path / "ham2ineq_curve.csv").read_text().splitlines()
    assert curve[0] == "step,value"
    values = [float(line.split(",")[1]) for line in curve[1:]]
    assert values == sorted(values)  # best-so-far never decreases
    assert abs(values[-1] - summary["best_beta_c"]) < 1e-9


def test_ham2ineq_reruns_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["ham2ineq", "--preset", "H_G", "--m1", "3", "--m2", "3",
            "--restarts", "2", "--steps", "30"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "ham2ineq_summary.json").read_bytes() == (b / "ham2ineq_summary.json").read_bytes()
    assert (a / "ham2ineq_curve.csv").read_bytes() == (b / "ham2ineq_curve.csv").read_bytes()


def test_ineq2ham_zero_data(capsys, tmp_path):
    data = tmp_path / "zeros.json"
    data.write_text("[0,0,0,0,0,0,0,0,0]")
    argv = ["ineq2ham", "--data-file", str(data), "--restarts", "1", "--steps", "20",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "ineq2ham_summary.json").read_text())
    (row,) = summary["rows"]
    assert row[0] is None
    assert row[1] == 0 and row[2] == 0  # zero data: original and optimized both 0
    assert row[3] == -8


def test_ineq2ham_sweeps_an_inequality_with_a_zero_column(capsys, tmp_path):
    # delta = 0 zeroes alpha's last column, so B's last vector has nothing to turn
    # against; it keeps its start, and at p = 0 the sweep reaches -4 sqrt(2)
    argv = ["ineq2ham", "--gisin-delta", "0", "--p-grid", "0:0:0.001", "--restarts", "1",
            "--steps", "20", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    (row,) = json.loads((tmp_path / "ineq2ham_summary.json").read_text())["rows"]
    assert abs(row[2] - (-4 * np.sqrt(2))) <= 1e-9


def test_ham2ineq_writes_the_residual_of_a_tiny_operator(capsys, tmp_path):
    # H_G x 1e-200: the residual's squares underflow unless it is scaled first, and
    # the summary read 0; formed at its own scale it is about 1e-200 times H_G's
    h = ",".join(repr(x) for x in (H_G_COEFFS * 1e-200).tolist())
    argv = ["ham2ineq", "--h", h, "--restarts", "4", "--steps", "200"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    residual = json.loads((tmp_path / "ham2ineq_summary.json").read_text())["residual"]
    assert 0 < residual <= 1e-8 * np.linalg.norm(H_G_COEFFS) * 1e-200


def test_ineq2ham_chunked_sweep_is_byte_identical(capsys, tmp_path, monkeypatch):
    # 5 points x 3 starts: a cap of 7 rows splits the sweep into 3 block descents, and
    # a cap below one point's 3 rows runs each point alone
    argv = ["ineq2ham", "--p-grid", "0:0.004:0.001", "--restarts", "2", "--steps", "30"]
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    whole = capsys.readouterr()
    searches = []
    block_descent = optimize._block_descent

    def counted(alpha, cmats, thetas, max_sweeps):
        searches.append(len(thetas))
        return block_descent(alpha, cmats, thetas, max_sweeps)

    monkeypatch.setattr(optimize, "_block_descent", counted)
    for key, value, batches in (("MAX_RANDOM_STARTS", 7, [6, 6, 3]),
                                ("MAX_RANDOM_STARTS", 2, [3] * 5)):
        with monkeypatch.context() as patched:
            patched.setattr(optimize, key, value)
            searches.clear()
            assert main([*argv, "--out", str(tmp_path / "chunked")]) == 0
        assert searches == batches
        assert capsys.readouterr() == whole
        for name in ("ineq2ham_rows.csv", "ineq2ham_summary.json"):
            chunked = (tmp_path / "chunked" / name).read_bytes()
            assert chunked == (tmp_path / "whole" / name).read_bytes()


def test_p_grid_stays_inside_its_stop():
    # a step that overshoots stop ends before it; a stop the steps reach up to
    # rounding is kept, as in the paper's 15-point grid
    assert cli._parse_p_grid("0:0.014:0.004").tolist() == [0.0, 0.004, 0.008, 0.012]
    assert cli._parse_p_grid("0:0.012:0.004").tolist() == [0.0, 0.004, 0.008, 0.012]
    assert cli._parse_p_grid("0:0.014:0.001").tolist() == (0.001 * np.arange(15)).tolist()
    assert cli._parse_p_grid("0.01:0.01:0.001").tolist() == [0.01]
    # a last point that rounds past its stop is clamped to it: 2/15 + 3 * (1/15)
    # is 0.33333333333333337, above the noise strength's cap of 1/3
    third = cli._parse_p_grid("0.13333333333333333:0.3333333333333333:0.06666666666666667")
    assert len(third) == 4 and third[-1] == 1 / 3 and np.all(third <= 1 / 3)


def test_ineq2ham_grid_ending_at_one_third(capsys, tmp_path):
    argv = ["ineq2ham", "--p-grid", "0.13333333333333333:0.3333333333333333:0.06666666666666667",
            "--restarts", "0", "--steps", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = json.loads((tmp_path / "ineq2ham_summary.json").read_text())["rows"]
    # the files carry 12 digits, so the last p reads as 1/3 rounded
    assert len(rows) == 4 and rows[-1][0] == float(format_float(1 / 3))
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"p={format_float(1 / 3)} ")


def test_bound_search_beyond_budget_refused_before_any_start(capsys, tmp_path, monkeypatch):
    # 32 starts at 25000x3 pass the enumeration budget (6.4e6 products) but would
    # form 2e10 gradient entries; at 100000x3 the products exceed it too
    def no_starts(*args):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(cli, "random_starts", no_starts)
    for m1, what in ((25000, "25000 x 25000 gradient entries"), (100000, "100000 x 2^3 products")):
        out = tmp_path / str(m1)
        argv = ["ham2ineq", "--preset", "H_G", "--m1", str(m1), "--m2", "3", "--steps", "1"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: too large to enumerate: 32 x {what} exceed 20 x 2^20\n"
        assert not out.exists()


def test_ineq2ham_small_grid(capsys, tmp_path):
    argv = ["ineq2ham", "--p-grid", "0:0.002:0.001", "--restarts", "1", "--steps", "30",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("original") == 3
    rows = json.loads((tmp_path / "ineq2ham_summary.json").read_text())["rows"]
    assert [r[0] for r in rows] == [0.0, 0.001, 0.002]
    assert abs(rows[0][1] - (-16 / np.sqrt(3))) < 1e-9  # ideal data at preset settings
    for _, original, optimized, beta_c in rows:
        assert optimized <= original
        assert beta_c == -8


def test_bounce_outputs(capsys, tmp_path):
    argv = ["bounce", "--p", "0.01", "--steps", "60", "--max-loops", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "violation: True" in out
    lines = (tmp_path / "bounce_trajectory.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    summary = json.loads((tmp_path / "bounce_summary.json").read_text())
    assert len(rows) == 2 * summary["loops"] + 1
    assert rows[0]["kind"] == "init"
    for row in rows:
        # fields round to 12 significant digits independently on write
        assert abs(row["gap"] - (row["beta_q"] - row["beta_c"])) < 1e-10
    assert summary["violation"] is True
    assert summary["final_gap"] == rows[-1]["gap"]


@pytest.mark.parametrize("lr", [None, 0.01], ids=["own-rates", "lr"])
def test_bounce_from_an_operator_bounces_from_its_inequality(capsys, tmp_path, lr):
    # --preset H_G starts the loop from solve_alpha(H_G) at the tetrahedron axes; without
    # --lr each half-step takes its direction's own rate, and --lr sets both
    argv = ["bounce", "--preset", "H_G", "--steps", "60", "--max-loops", "3",
            "--out", str(tmp_path / "cli")] + ([] if lr is None else ["--lr", str(lr)])
    assert main(argv) == 0
    capsys.readouterr()
    ms0 = tetrahedron_axes_settings()
    c = correlator_vector(prepare_noisy_singlets([0.010])[0])
    want = optimize.bounce_loop(solve_alpha(ms0, H_G_COEFFS), ms0, c,
                                cfg=OptimizerConfig(lr, 60), max_loops=3)
    write_json_lines(tmp_path / "want.jsonl", (asdict(r) for r in want.records))
    got = (tmp_path / "cli" / "bounce_trajectory.jsonl").read_bytes()
    assert got == (tmp_path / "want.jsonl").read_bytes() and len(want.records) > 3


def test_lattice_report(capsys, tmp_path):
    argv = ["lattice", "--improved-bound", "-7.39", "-6.56", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "classical bound: -526" in out
    assert "-485.8925" in out and "-431.32" in out
    summary = json.loads((tmp_path / "lattice_summary.json").read_text())
    assert summary["vertices"] == 73
    assert summary["certificate_sha256"] == CERT_SHA
    assert abs(summary["quantum_floor"] - 65.75 * (-16 / np.sqrt(3))) < 1e-9


def test_lattice_alpha_file(capsys, tmp_path):
    path = tmp_path / "delta2.json"
    path.write_text(json.dumps([[1, 1, 2], [1, -1, -2], [-1, 1, -2], [-1, -1, 2]]))
    assert main(["lattice", "--out", str(tmp_path / "default")]) == 0
    assert main(["lattice", "--alpha-file", str(path), "--out", str(tmp_path / "file")]) == 0
    capsys.readouterr()
    default = json.loads((tmp_path / "default" / "lattice_summary.json").read_text())
    summary = json.loads((tmp_path / "file" / "lattice_summary.json").read_text())
    assert summary["certificate_sha256"] == CERT_SHA
    for key in ("beta_lattice", "certificate_sha256", "quantum_floor"):
        assert summary[key] == default[key]


def test_lattice_epsilon_recoupling(capsys):
    # epsilon 1 turns off green/blue links: 33 red edges at J=2 plus the
    # lone "other" edge keeping its file coupling
    assert main(["lattice", "--epsilon", "1"]) == 0
    out = capsys.readouterr().out
    assert "total coupling: 66.02" in out


def test_edgeless_lattice_floor_is_zero(capsys, tmp_path):
    path = tmp_path / "edgeless.lattice"
    path.write_text("vertices 3\n")
    local_op = bell_operator(tetrahedron_axes_settings(), gisin_variant(2.0))
    assert lattice_quantum_floor(load_lattice(path), local_op) == 0
    assert main(["lattice", "--file", str(path), "--out", str(tmp_path)]) == 0
    assert "quantum floor: 0\n" in capsys.readouterr().out
    assert '"quantum_floor": 0,' in (tmp_path / "lattice_summary.json").read_text()


# One lattice file per fault, and the one line a run of it prints.
LATTICE_FAULTS = {
    "# a comment and nothing else\n": "missing 'vertices N' header",
    "vertices\n0 1 1.0 red\n": "line 1: expected header 'vertices N'",
    "vertices 0\n": "vertex count 0 outside [1, 1048576]",
    "vertices 1048577\n0 1 1.0 red\n": "vertex count 1048577 outside [1, 1048576]",
    "vertices 2\n0 1 1.0\n": "line 2: expected 'u v J color', got '0 1 1.0'",
    "vertices 2\n\n0\t1  1.0 red extra  # note\n":
        "line 3: expected 'u v J color', got '0\\t1  1.0 red extra'",
    "vertices 2\n0 1.5 1.0 red\n": "line 2: bad edge fields '0 1.5 1.0 red'",
    "vertices 2\n0 1 one red\n": "line 2: bad edge fields '0 1 one red'",
    "vertices 2\n1 1 1.0 red\n": "self-loop at vertex 1",
    "vertices 3\n0 3 1.0 red\n": "edge (0, 3) outside vertex range",
    "vertices 3\n-1 2 1.0 red\n": "edge (-1, 2) outside vertex range",
    "vertices 3\n0 99999999999999999999 1.0 red\n":
        "edge (0, 99999999999999999999) outside vertex range",
    "vertices 2\n0 1 nan red\n": "edge (0, 1) has non-finite coupling",
    "vertices 2\n0 1 inf red\n": "edge (0, 1) has non-finite coupling",
    "vertices 2\n0 1 1.0 purple\n": "unknown edge color 'purple'",
    "vertices 3\n0 1 1.0 red\n1 2 1.0 green\n2 0 1.0 blue\n":
        "lattice is not bipartite: odd cycle through edge (1, 2)",
    "vertices 3\n0 1 1.0 red\n1 2 -0.5 green\n":
        "unsupported lattice: negative coupling -0.5 on edge (1, 2)",
    "vertices 3\n0 1 1e308 red\n1 2 1e308 green\n": "total coupling overflows the float range",
    b"vertices 2\n0 1 1.0 red # \xe9\n":
        "'utf-8' codec can't decode byte 0xe9 in position 25: invalid continuation byte",
    # several bad edges: the first one is named, by the first rule it breaks
    "vertices 3\n0 1 nan purple\n2 2 1.0 red\n": "edge (0, 1) has non-finite coupling",
    "vertices 3\n0 1 1.0 red\n2 2 nan purple\n0 9 1.0 red\n": "self-loop at vertex 2",
    "vertices 3\n0 1 1.0 red\n1 2 1.0 purple\n0 9 1.0 red\n": "unknown edge color 'purple'",
}


def test_lattice_input_faults_exit_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "fault.lattice"
    for text, message in LATTICE_FAULTS.items():
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["lattice", "--file", str(path), "--out", str(tmp_path / "out")]) == 2, text
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), text
        assert not (tmp_path / "out").exists()


def _run_with_peak_rss(*args):
    # A probe process starts `bellbounce args` as its only child and reports that child's
    # exit status, peak RSS in KiB (ru_maxrss on Linux) and output.
    probe = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "sys.stdout.write(run.stdout + run.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bellbounce", *args]
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         env=env, check=True).stdout
    status, peak_kib = map(int, out.splitlines()[0].split())
    return status, peak_kib, out


def test_lattice_of_2_20_vertices_runs_in_bounded_memory(tmp_path):
    # one edge between the end vertices of the largest allowed header
    lattice = tmp_path / "wide.lattice"
    lattice.write_text("vertices 1048576\n0 1048575 1.0 red\n")
    status, peak_kib, out = _run_with_peak_rss("lattice", "--file", str(lattice))
    assert status == 0, out
    sha = "99bc43969205bf1bd43f97fae357d5ae6798c8064f99475d6f3041de0704e226"
    assert f"certificate sha256: {sha}\n" in out
    assert peak_kib <= 80 * 1024


def test_classical_bound_of_20x20_runs_in_bounded_memory(tmp_path):
    # the largest accepted side: 2^19 sign patterns, as 2^6 prefixes over one 2^13-pattern
    # table (all at once, 525 MB)
    alpha = np.random.default_rng(22).integers(-3, 4, size=(20, 20)).astype(float)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha.tolist()))
    status, peak_kib, out = _run_with_peak_rss("classical-bound", "--alpha-file", str(path))
    assert status == 0, out
    beta, witness = classical_bound(BellCoeffs(alpha))
    assert f"classical bound: {format_float(beta)}\nwitness a: {witness.a.tolist()}\n" in out
    assert f"witness b: {witness.b.tolist()}\n" in out
    assert peak_kib <= 80 * 1024


def _refused_in_one_line(capsys, out, argv, message):
    # exit 2 before any start is drawn or row printed; a RuntimeWarning raised inside
    # main would escape it as an exception (pytest turns warnings into errors)
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_lattice_refuses_bounds_that_overflow(capsys, tmp_path):
    # the total coupling is finite, but a product with a local value is not
    path = tmp_path / "heavy.lattice"
    runs = [
        ("1e308", [], "lattice classical bound overflows: total coupling 1e+308 x local -8"),
        ("2e307", [], "lattice quantum floor overflows: total coupling 2e+307 x local -9.2376"),
        ("1e307", ["--improved-bound", "-100"], "improved bound for local -100 overflows"),
    ]
    for coupling, extra, message in runs:
        path.write_text(f"vertices 2\n0 1 {coupling} red\n")
        argv = ["lattice", "--file", str(path), *extra]
        _refused_in_one_line(capsys, tmp_path / "out", argv, message)


def test_classical_bound_refuses_alpha_whose_sums_overflow(capsys, tmp_path):
    # the entries are finite, but a*alpha*b sums beyond the float range
    argv = ["classical-bound", "--alpha", "1e308 1e308 1e308 -1e308", "--m1", "2", "--m2", "2"]
    _refused_in_one_line(capsys, tmp_path / "out", argv,
                         "alpha entries too large: 2 x 2 x max|alpha| overflows")


def test_ineq2ham_refuses_alpha_whose_sums_overflow(capsys, tmp_path):
    argv = ["ineq2ham", "--gisin-delta", "1e308", "--restarts", "0", "--steps", "3",
            "--p-grid", "0:0:1"]
    _refused_in_one_line(capsys, tmp_path / "out", argv,
                         "alpha entries too large: 4 x 3 x max|alpha| overflows")


def test_bounce_refuses_alpha_whose_sums_overflow(capsys, tmp_path):
    # an oversized input, not a numerical failure (exit 3)
    argv = ["bounce", "--gisin-delta", "1e308", "--steps", "3"]
    _refused_in_one_line(capsys, tmp_path / "out", argv,
                         "alpha entries too large: 4 x 3 x max|alpha| overflows")


def test_ham2ineq_refuses_h_whose_norm_overflows(capsys, tmp_path):
    argv = ["ham2ineq", "--h", "1e308 0 0 0 1e308 0 0 0 1e308", "--restarts", "1", "--steps", "3"]
    _refused_in_one_line(capsys, tmp_path / "out", argv,
                         "h entries too large: the sum of their squares overflows")


def test_learning_rate_above_a_turn_refused(capsys, tmp_path):
    # 1e308 overflowed the angles, and the run reported its random start's bound
    argv = ["ham2ineq", "--preset", "H_G", "--restarts", "1", "--steps", "3", "--lr", "1e308"]
    _refused_in_one_line(capsys, tmp_path / "out", argv,
                         "learning rate must be at most 2*pi, got 1e+308")
    assert OptimizerConfig(learning_rate=2 * np.pi).learning_rate == 2 * np.pi
    with pytest.raises(ValueError, match="at most 2"):
        OptimizerConfig(learning_rate=np.nextafter(2 * np.pi, 7.0))
    # without a rate, the first step moves each angle by the direction's own rate times
    # sign(g), up to Adam's epsilon: 0.02 for the ascent, 0.01 for the descent
    g = np.array([3.0, -0.5, 0.0, 2.0, -4.0, -2.5, 0.0, -1.0, 5.0, 0.25])
    for maximize, rate in ((True, 0.02), (False, 0.01)):
        seen = []

        def evaluate(thetas):
            seen.append(thetas.copy())
            return np.zeros(len(thetas)), np.tile(g, (len(thetas), 1))

        fake = Objective(Scenario(2, 3), maximize, evaluate)
        run_search(fake, np.zeros((1, 10)), OptimizerConfig(max_steps=1))
        step = seen[1][0] - seen[0][0]
        assert np.allclose(step, (1 if maximize else -1) * rate * np.sign(g), rtol=0, atol=1e-8)


def test_nonfinite_improved_bound_rejected_before_output(capsys, tmp_path):
    # argparse would read -inf as an option, not as a value
    runs = [["lattice", "--improved-bound", "-7.39", value] for value in ("nan", "inf", "-inf")]
    runs.append(["ham2ineq", "--preset", "H_G", "--lr", "-inf"])
    for i, argv in enumerate(runs):
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "must be finite" in captured.err
        assert not out.exists()


def test_negative_number_lists_read_as_values(capsys, tmp_path):
    # a list whose first entry is negative reads as the option's value, as with "="
    bound = ["classical-bound", "--m1", "2", "--m2", "2"]
    assert main([*bound, "--alpha", "-1,2,3,4"]) == 0
    spaced = capsys.readouterr()
    assert main([*bound, "--alpha=-1,2,3,4"]) == 0
    assert capsys.readouterr() == spaced and "classical bound: -8" in spaced.out
    search = ["ham2ineq", "--restarts", "2", "--steps", "20"]
    assert main([*search, "--h", "-1,0,0,0,1,0,0,0,1", "--out", str(tmp_path / "a")]) == 0
    assert main([*search, "--h=-1,0,0,0,1,0,0,0,1", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("ham2ineq_summary.json", "ham2ineq_curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_usage_errors_print_one_line(capsys):
    runs = {
        ("ham2ineq", "--restarts"): "argument --restarts: expected one argument",
        ("frob",): "argument command: invalid choice: 'frob'",
        (): "the following arguments are required: command",
        ("classical-bound", "--alpha", "-1,x"): "argument --alpha: expected one argument",
    }
    for argv, message in runs.items():
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: {message}")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_config_values_parse_like_flags(capsys, tmp_path):
    bad = [
        {"ham2ineq": {"preset": "H_G", "lr": "abc"}},
        {"ham2ineq": {"preset": "H_G", "m1": [3]}},
        {"ham2ineq": {"preset": "H_G", "steps": 2.7}},
        {"ham2ineq": {"preset": "H_G", "restarts": True}},
        {"lattice": {"improved_bound": -7.39}},
        {"lattice": {"improved_bound": [-7.39, "nan"]}},
        {"ineq2ham": {"noise_placement": "bogus"}},
        {"ham2ineq": {"solve_mode": "unique"}},
    ]
    for i, section in enumerate(bad):
        cfg, out = tmp_path / f"bad{i}.json", tmp_path / f"bad{i}"
        cfg.write_text(json.dumps(section))
        (cmd,) = section
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2, section
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert not out.exists()
    # a config gives the same files as the same options given as flags; null is not given
    options = {"preset": "H_G", "m1": 3, "m2": 3, "restarts": 2, "steps": 30, "lr": None}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ham2ineq": options}))
    assert main(["ham2ineq", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    argv = ["ham2ineq", "--preset", "H_G", "--m1", "3", "--m2", "3", "--restarts", "2",
            "--steps", "30", "--out", str(tmp_path / "flags")]
    assert main(argv) == 0
    capsys.readouterr()
    for name in ("ham2ineq_summary.json", "ham2ineq_curve.csv"):
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


def test_help_lists_each_subcommands_options(capsys):
    expected = {
        "classical-bound": {"--gisin-delta", "--alpha", "--alpha-file", "--m1", "--m2"},
        "ham2ineq": {"--preset", "--h", "--m1", "--m2", "--restarts", "--steps", "--lr",
                     "--seed"},
        "ineq2ham": {"--gisin-delta", "--alpha-file", "--p-grid", "--data-file",
                     "--noise-placement", "--restarts", "--steps", "--seed"},
        "bounce": {"--gisin-delta", "--alpha-file", "--preset", "--h", "--p", "--data-file",
                   "--noise-placement", "--max-loops", "--gap-tol", "--steps", "--lr",
                   "--seed"},
        "lattice": {"--file", "--epsilon", "--gisin-delta", "--alpha-file", "--improved-bound"},
    }
    for cmd, own in expected.items():
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == own | {"--config", "--out"}, cmd


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"classical-bound": {"gisin_delta": 1.0}}')
    assert main(["classical-bound", "--config", str(cfg)]) == 0
    assert "classical bound: -6" in capsys.readouterr().out
    # explicit flag wins over the config value
    assert main(["classical-bound", "--config", str(cfg), "--gisin-delta", "0"]) == 0
    assert "classical bound: -4" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
