"""Each correctness check passes on real output and rejects a corrupted copy."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from bellbounce.cli import main
from perfbench import checks, oracles


def _run(argv):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_ham2ineq_check_rejects_perturbed_alpha(tmp_path):
    _run(["ham2ineq", "--preset", "H_G", "--m1", "3", "--m2", "3", "--restarts", "2",
          "--steps", "20", "--out", str(tmp_path)])
    fig = checks.check_ham2ineq(tmp_path, "H_G", windows=False)
    assert fig["margin"] == pytest.approx(fig["beta_c"] + 16 / np.sqrt(3), abs=1e-9)

    def perturb(s):
        s["alpha"][1][2] += 1e-6

    _edit_json(tmp_path / "ham2ineq_summary.json", perturb)
    with pytest.raises(checks.CheckError, match="residual"):
        checks.check_ham2ineq(tmp_path, "H_G", windows=False)


def test_ham2ineq_window(tmp_path):
    _run(["ham2ineq", "--preset", "H_G", "--m1", "3", "--m2", "3", "--restarts", "1",
          "--steps", "2", "--out", str(tmp_path)])
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_ham2ineq(tmp_path, "H_G", windows=True)


def test_classical_bound_check_rejects_shifted_bound(tmp_path):
    alpha = np.random.default_rng(0).normal(size=(5, 6))
    src = tmp_path / "alpha.json"
    src.write_text(json.dumps(alpha.tolist()))
    _run(["classical-bound", "--alpha-file", str(src), "--out", str(tmp_path)])
    checks.check_classical_bound(tmp_path, alpha)

    def shift(s):
        s["beta_c"] += 1e-6

    _edit_json(tmp_path / "classical_bound_summary.json", shift)
    with pytest.raises(checks.CheckError, match="beta_c"):
        checks.check_classical_bound(tmp_path, alpha)


def test_ineq2ham_check_rejects_broken_monotone_sweep(tmp_path):
    _run(["ineq2ham", "--gisin-delta", "2", "--p-grid", "0:0.014:0.001", "--restarts", "1",
          "--steps", "20", "--out", str(tmp_path)])
    grid = np.arange(15) / 1000.0
    checks.check_ineq2ham(tmp_path, 2.0, grid, windows=False)
    rows_csv = tmp_path / "ineq2ham_rows.csv"
    lines = rows_csv.read_text().splitlines()
    cells = [ln.split(",") for ln in lines]
    cells[5][2], cells[6][2] = cells[6][2], cells[5][2]  # optimized falls from p=0.004 to 0.005
    rows_csv.write_text("\n".join(",".join(c) for c in cells) + "\n")
    with pytest.raises(checks.CheckError, match="optimized"):
        checks.check_ineq2ham(tmp_path, 2.0, grid, windows=False)


def test_bounce_check_rejects_half_step_raising_beta_q(tmp_path):
    _run(["bounce", "--gisin-delta", "2", "--p", "0.010", "--steps", "30", "--out", str(tmp_path)])
    c = oracles.correlators(oracles.noisy_singlet(0.010))
    checks.check_bounce(tmp_path, c, oracles.gisin(2.0))
    traj = tmp_path / "bounce_trajectory.jsonl"
    recs = [json.loads(ln) for ln in traj.read_text().splitlines()]
    recs[1]["beta_q"] = recs[0]["beta_q"] + 0.01
    recs[1]["gap"] = recs[1]["beta_q"] - recs[1]["beta_c"]
    traj.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(checks.CheckError, match="raised beta_Q"):
        checks.check_bounce(tmp_path, c, oracles.gisin(2.0))


def test_lattice_check_rejects_wrong_digest(tmp_path):
    lattice = tmp_path / "tiny.lattice"
    lattice.write_text("vertices 4\n0 1 1.5 red\n2 1 0.25 green\n3 2 0.5 blue\n")
    out = tmp_path / "out"
    _run(["lattice", "--file", str(lattice), "--improved-bound", "-7.39", "--out", str(out)])
    fig = checks.check_lattice(out, lattice.read_text(), oracles.gisin(2.0), ("-7.39",))
    assert fig["beta_lattice"] == pytest.approx(2.25 * -8.0)

    def tamper(s):
        s["certificate_sha256"] = "0" * 64

    _edit_json(out / "lattice_summary.json", tamper)
    with pytest.raises(checks.CheckError, match="digest"):
        checks.check_lattice(out, lattice.read_text(), oracles.gisin(2.0), ("-7.39",))


def test_noise_crossing_interpolates():
    grid = np.array([0.0, 0.001, 0.002])
    assert checks.noise_crossing(grid, np.array([-9.0, -8.5, -7.5]), -8.0) == pytest.approx(0.0015)
    with pytest.raises(checks.CheckError):
        checks.noise_crossing(grid, np.array([-9.0, -8.5, -8.1]), -8.0)
