"""Every workload completes at a tiny budget, untraced and traced."""

import json
import shutil
import subprocess
import sys

import pytest

import bellbounce
from bellbounce import cli
from perfbench import run, tracing, workloads

# The one operation allowed to fail: `lattice --alpha-file` exits 2 today
# because the subcommand's default --gisin-delta collides with the file.
KNOWN_FAILURE = {"lattice_alpha_file"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_completes_at_tiny_budget(name, tmp_path):
    wl = workloads.build(name, 3, run.ROOT, tmp_path / "inputs", tiny=True)
    tracer = tracing.Tracer(bellbounce)
    runner = run.Runner(cli, wl, tmp_path, tracer)
    runner.round(0, traced=False)
    runner.round(1, traced=True)
    figures = runner.check()
    assert runner.problems == []
    failed = {n for n, first in runner.first.items() if first[0] != 0}
    assert failed <= KNOWN_FAILURE
    assert runner.attempted == 2 * len(wl.ops)
    assert runner.failed == 2 * len(failed)
    quality = wl.summarize(figures)
    assert quality["detection_margin"] != 0
    layers = runner.layer_rounds[0]
    assert layers["trace.self_share"] == pytest.approx(1.0, abs=0.05)
    assert cli.main.__module__ == "bellbounce.cli" and not hasattr(cli.main, "__wrapped__")


def test_engine_metrics_count_the_budget(tmp_path):
    wl = workloads.build("ham2ineq", 0, run.ROOT, tmp_path / "inputs", tiny=True)
    runner = run.Runner(cli, wl, tmp_path, tracing.Tracer(bellbounce))
    runner.round(0, traced=True)
    m = runner.layer_rounds[0]
    restarts, steps = workloads.TINY_HAM2INEQ
    assert m["optimize.restart_steps"] == len(wl.ops) * restarts * steps
    # 2*dim + 1 probe points per restart-step (25 at 3x3, 29 at 4x3), plus
    # the final evaluation of each restart.
    assert m["optimize.objective_points"] == 2 * restarts * (25 * steps + 1) + 2 * restarts * (29 * steps + 1)
    assert m["optimize.solve_s"] > 0 and m["optimize.enumerate_s"] > 0


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"][0]["name"] == "setup_s"
