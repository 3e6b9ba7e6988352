"""Benchmark of the bellbounce CLI pipelines, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload ham2ineq --seed 0 --seconds 15 --trace 0

The workload's operations run in whole rounds inside this one process,
through ``bellbounce.cli.main`` as a user would run them, until ``--seconds``
have passed (at least one round; with ``--trace 1`` at least one untraced
and one traced round). Every output file is checked against independent
recomputations, and every round must reproduce the first round's files byte
for byte. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the human-readable report. Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier timings, and no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
# Speed probe: every PROBE_INTERVAL_S of wall time, time a fixed pure-Python
# loop between the operations' bytecodes. PROBE_REF_S is that loop's time on
# the reference machine (2-core Xeon, 2.1 GHz, Python 3.11) when uncontended.
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 12e-6

# Child process timed for setup_s: interpreter start, imports, input
# generation. It prints its speed scale (see SpeedProbe).
_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.run import SpeedProbe
with SpeedProbe(0.005) as probe:
    import bellbounce.cli
    from perfbench import workloads
    from pathlib import Path
    workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[2]), Path(sys.argv[5]))
print(probe.scale())
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads() -> str:
    # Ask the OpenBLAS library numpy loaded for its thread count.
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def machine_info() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={_blas_threads()} "
        f"src_lines={src_lines}"
    )


def measure_setup(workload: str, seed: int, scratch: Path) -> float:
    """Median time, at the reference speed, of fresh processes that import
    the package and generate the workload's inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(ROOT), workload, str(seed),
             str(scratch / f"setup{k}")],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        times.append((perf_counter() - t0) * float(child.stdout))
        shutil.rmtree(scratch / f"setup{k}")
    return statistics.median(times)


class SpeedProbe:
    """Samples how fast this process runs while the operations execute.

    On a shared machine the same operation's wall time drifts by up to 1.8x
    between minutes as other tenants load the cores. An interval timer runs
    a fixed loop every PROBE_INTERVAL_S in this process, on the same core as
    the operation; a round's wall time times PROBE_REF_S over the mean loop
    time is its time at the reference speed.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _probe(self, signum, frame):
        t0 = perf_counter()
        acc = 0
        for i in range(300):
            acc += i
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """PROBE_REF_S over the mean probe time since the last call.

        A sample over three times the median caught the process descheduled
        (a stall of up to a second); such stalls are not a speed, so they are
        left out.
        """
        samples, self.samples = self.samples, []
        if not samples:
            return 1.0
        cap = 3.0 * statistics.median(samples)
        return PROBE_REF_S / statistics.fmean(s for s in samples if s <= cap)


def run_op(cli, argv) -> tuple[int | None, float, str, str]:
    """Run one CLI invocation in-process; return (exit code, seconds, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that crashes counts as failed
            traceback.print_exc()
            rc = None
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def _tree(d: Path) -> dict:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


class Runner:
    """Repeats a workload's rounds and keeps what the report needs."""

    def __init__(self, cli, workload, run_dir: Path, tracer=None):
        self.cli, self.workload, self.run_dir, self.tracer = cli, workload, run_dir, tracer
        self.probe = SpeedProbe()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.round_s = {False: [], True: []}
        self.scaled_s = {False: [], True: []}
        self.layer_rounds: list[dict] = []
        self.first: dict = {}
        self.op_s: dict = {op.name: [] for op in workload.ops}
        self.errors: dict = {}

    def round(self, k: int, traced: bool):
        round_dir = self.run_dir / f"round{k}"
        mark = self.tracer.mark() if traced else 0
        self.probe.scale()
        if traced:
            self.tracer.install()
        total = 0.0
        try:
            for i, op in enumerate(self.workload.ops):
                if traced:
                    self.tracer.op = k * len(self.workload.ops) + i
                out = round_dir / op.name
                rc, dt, stdout, stderr = run_op(self.cli, [*op.argv, "--out", str(out)])
                total += dt
                self.op_s[op.name].append(dt)
                self.attempted += 1
                if rc != 0:
                    self.failed += 1
                    self.errors[op.name] = stderr.strip().splitlines()[-1:] or [f"exit {rc}"]
                produced = (rc, stdout, _tree(out) if out.is_dir() else {})
                if k == 0:
                    self.first[op.name] = produced
                elif produced != self.first[op.name]:
                    self.problems.append(f"{op.name}: round {k} differs from round 0")
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_s[traced].append(total)
        self.scaled_s[traced].append(total * self.probe.scale())
        if traced:
            self.layer_rounds.append(self.tracer.layer_metrics(mark, self.tracer.mark(), total))
        if k > 0:
            shutil.rmtree(round_dir, ignore_errors=True)

    def check(self) -> dict:
        """Check round 0's outputs; return the figures of every passing op."""
        figures = {}
        round_dir = self.run_dir / "round0"
        for op in self.workload.ops:
            if self.first[op.name][0] != 0:
                continue
            try:
                figures[op.name] = op.check(round_dir / op.name, round_dir)
            except (AssertionError, OSError, ValueError, KeyError, IndexError) as exc:
                self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return figures


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "bellbounce" / "cli.py").is_file():
        print(f"error: no bellbounce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bellbounce
    from bellbounce import cli

    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, run_dir)
    workload = workloads.build(args.workload, args.seed, ROOT, run_dir / "inputs")
    tracer = tracing.Tracer(bellbounce) if args.trace else None
    runner = Runner(cli, workload, run_dir, tracer)

    t_begin = perf_counter()
    k = 0
    with runner.probe:
        while True:
            runner.round(k, traced=bool(args.trace) and k % 2 == 1)
            k += 1
            if perf_counter() - t_begin >= args.seconds and (not args.trace or k >= 2):
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = runner.check()
    quality = {} if runner.problems else workload.summarize(figures)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_info()}")
    print(f"# rounds={k} ops_per_round={len(workload.ops)} attempted={runner.attempted} "
          f"failed={runner.failed}")
    for traced, times in runner.round_s.items():
        if times:
            kind = "traced" if traced else "untraced"
            print(f"# {kind} round wall seconds: " + " ".join(f"{t:.4f}" for t in times))
            print(f"# {kind} round seconds at reference speed: "
                  + " ".join(f"{t:.4f}" for t in runner.scaled_s[traced]))
    for name, times in runner.op_s.items():
        status = "ok" if runner.first[name][0] == 0 else f"FAILED: {' '.join(runner.errors[name])}"
        print(f"# op {name}: median {statistics.median(times):.4f} s over {len(times)}  {status}")
    for name, value in quality.items():
        print(f"# figure {name} = {value:.10g} 1")
    for problem in runner.problems:
        print(f"# CHECK FAILED {problem}")

    if args.trace:
        measured = {}
        for name in runner.layer_rounds[0]:
            measured[name] = statistics.median(r[name] for r in runner.layer_rounds)
        measured["trace.untraced_run_s"] = statistics.median(runner.round_s[False])
        measured["trace.overhead_ratio"] = (
            statistics.median(runner.scaled_s[True]) / statistics.median(runner.scaled_s[False]))
        for name in sorted(tracer.absent()):
            print(f"# metric {name} absent: engine helper removed")
            measured.pop(name)
        tracer.write(run_dir / "trace.csv.gz")
    else:
        measured = {
            "setup_s": setup_s,
            "run_s": statistics.median(runner.scaled_s[False]),
            "peak_rss_mb": peak_mb,
            **quality,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in section if m["name"] in measured}
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
