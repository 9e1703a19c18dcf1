"""End-to-end and per-layer benchmark of the anyonpt CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Run from the root of a checkout; the package is imported from ``src``.  Each
workload is a closed loop with one client: one parent process starts
``python3 -m anyonpt.cli <runner> --config ... --jobs J`` subprocesses back to
back, the next one only after the previous has ended, as many as fit into S
seconds at their median length (at least one).  Every invocation's outputs
are checked.

Every child runs with one BLAS thread, and every workload at ``--jobs 1``.
On a few shared vCPUs a second thread (a sweep worker, or a BLAS thread that
spins while the main thread works) and the time the host steals make both
wall time and multi-threaded CPU time vary from run to run; the CPU time of
one thread repeats to a few percent.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
median invocation CPU time (user + system of the child, from ``os.wait4``;
the median wall time is printed beside it), median set-up time (interpreter,
``import anyonpt``, config parse and validate, in its own subprocess, timed
after one warm-up), median child peak RSS, and the share of runs that
succeeded.  ``--trace 1`` alternates an untraced invocation with a traced one
(``perfbench/trace.py``) and reports the per-layer metrics plus the tracing
overhead, the traced median CPU time minus the untraced one.

``--corrupt`` damages one output value of every invocation before it is
checked; ``perfbench/selftest.py`` uses it to show that the checks reject
wrong outputs and that the failures are counted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the sample counts and, when traced, each span's calls,
inclusive and self time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 150.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE = (
    "import sys; import anyonpt; from anyonpt.config import ExperimentConfig; "
    "ExperimentConfig.from_yaml(sys.argv[1]).validate()"
)
# Counts whose value follows from array or file sizes rather than a measurement of time.
COMPUTED = {
    "model.h_dense_bytes": "computed from array sizes",
    "spectra.dense_n3": "computed from array sizes",
    "io.bytes_written": "computed from file sizes",
}


class Runner:
    """Starts the program's subprocesses and keeps the tally of attempts and failures."""

    def __init__(self, root: Path, workdir: Path, corrupt: bool):
        self.root = root
        self.workdir = workdir
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, **BLAS_THREADS)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def spawn(self, argv: list) -> tuple:
        """Run one subprocess to completion; returns (wall s, CPU s, peak RSS MB, exit code)."""
        with (self.workdir / "stderr.txt").open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}")
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def count(self, ok: bool, problems=()):
        self.attempted += 1
        if not ok:
            self.failed += 1
        for problem in problems:
            print(f"check failed: {problem}")

    def setup(self, config: Path) -> float:
        wall, _, _, code = self.spawn([sys.executable, "-c", SETUP_PROBE, str(config)])
        self.count(code == 0)
        return wall

    def invoke(self, workload, config: Path, raw: dict, seed: int, traced_summary=None) -> tuple:
        """One CLI invocation, untraced or through trace.py, with its outputs checked."""
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        args = workload.cli_args(config, outdir)
        if traced_summary is None:
            argv = [sys.executable, "-m", "anyonpt.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "trace.py"), str(traced_summary), *args]
        wall, cpu, rss, code = self.spawn(argv)
        problems = []
        if code == 0:
            if self.corrupt:
                workload.corrupt(outdir)
            problems = workload.check(outdir, raw, seed)
        self.count(code == 0 and not problems, problems)
        return wall, cpu, rss


def environment(nproc: int, env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # OpenBLAS reads these in this order and otherwise starts one thread per CPU.
    threads_env = {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    blas_threads = next((int(v) for v in threads_env.values() if v and v.isdigit()), nproc)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": threads_env,
        "blas_threads": blas_threads,
        "jobs": {w.name: w.jobs for w in WORKLOADS.values()},
        "oversubscribed": {w.name: w.jobs * blas_threads > nproc for w in WORKLOADS.values()},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(section: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def describe(samples: list, unit: str) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"n={len(samples)}, quartiles {q1:.6g}-{q3:.6g} {unit}"


def emit(runner: Runner, values: dict, units: dict, notes: dict):
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = values[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:34s} {shown} {unit}{note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def room_for_another(deadline: float, durations: list) -> bool:
    """Whether one more repetition of median length still ends inside the window."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def run_untraced(runner, workload, config, raw, seed, seconds) -> int:
    runner.setup(config)  # warm-up: byte-code and file caches
    setups = [runner.setup(config) for _ in range(SETUP_REPEATS)]
    walls, cpus, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu, peak = runner.invoke(workload, config, raw, seed)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if not room_for_another(deadline, walls):
            break
    values = {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }
    notes = {
        "cpu_s": f"median, {describe(cpus, 's')}; wall median {statistics.median(walls):.4f} s",
        "setup_s": f"median, {describe(setups, 's')}",
        "peak_rss_mb": f"median, {describe(rss, 'MB')}",
        "success_rate": f"{runner.failed} failed of {runner.attempted} runs, set-up probes included",
    }
    return emit(runner, values, declared_metrics("end_to_end"), notes)


def run_traced(runner, workload, config, raw, seed, seconds) -> int:
    runner.setup(config)  # warm-up: byte-code and file caches
    untraced, traced, pairs, summaries = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        untraced.append(runner.invoke(workload, config, raw, seed)[1])
        summary_path = runner.workdir / "trace.json"
        summary_path.unlink(missing_ok=True)
        traced.append(runner.invoke(workload, config, raw, seed, traced_summary=summary_path)[1])
        if summary_path.exists():
            summaries.append(json.loads(summary_path.read_text()))
        pairs.append(time.perf_counter() - start)
        if not room_for_another(deadline, pairs):
            break
    if not summaries:
        print("traced run wrote no summary", file=sys.stderr)
        return 1
    units = declared_metrics("per_layer")
    values = {
        name: statistics.median_low(s["metrics"][name] for s in summaries)
        for name in units
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"{'span':34s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>12s}  (last traced run)")
    for name, span in summaries[-1]["spans"].items():
        print(f"{name:34s} {span['calls']:8d} {span['inclusive_s']:12.4f} {span['self_s']:12.4f}")
    notes = dict(COMPUTED)
    notes["trace.overhead_s"] = (
        f"traced median CPU {statistics.median(traced):.4f} s minus untraced median "
        f"{statistics.median(untraced):.4f} s, {len(traced)} pairs"
    )
    return emit(runner, values, units, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="damage outputs before checking (self-test)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "anyonpt" / "cli.py").is_file():
        print(f"benchmark: no anyonpt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config, raw = workload.make_config(ROOT, args.seed, workdir)
    runner = Runner(ROOT, workdir, args.corrupt)

    record = environment(len(os.sched_getaffinity(0)), runner.env)
    print(f"workload {workload.name}: anyonpt {workload.runner} --config {config.relative_to(ROOT)} "
          f"--jobs {workload.jobs}; seed {args.seed}; {args.seconds:g} s; trace {args.trace}")
    print("environment " + json.dumps(record))
    if record["oversubscribed"][workload.name]:
        print(f"warning: jobs x BLAS threads = {workload.jobs * record['blas_threads']} > nproc {record['nproc']}")
    run = run_traced if args.trace else run_untraced
    try:
        return run(runner, workload, config, raw, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir / "out", ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
