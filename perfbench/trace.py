"""Traced in-process run of one anyonpt CLI invocation.

    python3 perfbench/trace.py SUMMARY_JSON <runner> --config FILE --jobs J --output DIR

Imports ``anyonpt`` from the checkout's ``src``, wraps the public functions of
each module (and the numpy/scipy kernels they call) with spans, runs
``anyonpt.cli.main`` on the remaining arguments in this process, and writes
the per-layer summary to SUMMARY_JSON.  Nothing under ``src/`` is edited: the
wrappers replace module attributes at run time only.

A span records name, parent, start and end.  Spans nest through a
thread-local stack; work handed to sweep worker threads is parented to the
``runners.map_points`` span that dispatched it.  A layer's time is the
inclusive duration of its outermost spans; self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

LAYER_SPANS = (
    "config.from_yaml",
    "model.build_h_eff",
    "spectra.solve_spectrum",
    "spectra.fit_localization_length",
    "nonnormal.g_t",
    "nonnormal.expm",
    "nonnormal.svdvals",
    "nonnormal.g_infinity",
    "propagation.evolve",
    "scattering.stationary_rt",
    "scattering.report",
    "io.write_csv",
    "io.write_ndjson",
)
RUNNER_SPANS = ("runners.run", "runners.map_points", "runners.worker")


class Tracer:
    """Spans and counters of one process, kept in memory until ``summary``."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counts = {}
        self._fast_counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None, parent=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs, result)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            par = stack[-1] if stack else parent
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, par, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counter(self, key: str, fn):
        """Return ``fn`` counting calls only, for kernels called thousands of times.

        ``next`` on an ``itertools.count`` is atomic under the interpreter lock,
        so worker threads count without taking a lock per call.
        """
        calls = self._fast_counts.setdefault(key, itertools.count())

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ aggregation

    def summary(self, jobs: int) -> dict:
        children = {}
        by_id = {}
        for span in self.spans:
            by_id[span[0]] = span
            children.setdefault(span[1], []).append(span)

        def has_ancestor_named(span) -> bool:
            par = by_id.get(span[1])
            while par is not None:
                if par[2] == span[2]:
                    return True
                par = by_id.get(par[1])
            return False

        def self_time(span) -> float:
            covered = 0.0
            reach = span[3]
            for _, _, _, start, end in sorted(children.get(span[0], []), key=lambda s: s[3]):
                start, end = max(start, reach), min(end, span[4])
                if end > start:
                    covered += end - start
                    reach = end
            return (span[4] - span[3]) - covered

        inclusive, selftimes, calls = {}, {}, {}
        for span in self.spans:
            name = span[2]
            calls[name] = calls.get(name, 0) + 1
            selftimes[name] = selftimes.get(name, 0.0) + self_time(span)
            if not has_ancestor_named(span):
                inclusive[name] = inclusive.get(name, 0.0) + (span[4] - span[3])

        c = dict(self.counts)
        for key, fast in self._fast_counts.items():
            c[key] = c.get(key, 0) + next(fast)
        point_steps = c.get("propagation.point_steps", 0)
        evolve_s = inclusive.get("propagation.evolve", 0.0)
        computed = c.get("spectra.eigpairs_computed", 0)
        compute_wall = inclusive.get("runners.map_points", 0.0)
        metrics = {f"{name}_s": inclusive.get(name, 0.0) for name in LAYER_SPANS}
        metrics.update(
            {
                "model.h_dense_bytes": c.get("model.h_dense_bytes", 0),
                "spectra.solve_calls": calls.get("spectra.solve_spectrum", 0),
                "spectra.dense_n3": c.get("spectra.dense_n3", 0),
                "spectra.eigpair_yield": (
                    c.get("spectra.eigpairs_used", 0) / computed if computed else 0.0
                ),
                "nonnormal.expm_calls": calls.get("nonnormal.expm", 0),
                "propagation.steps": c.get("propagation.steps", 0),
                "propagation.ns_per_point_step": (
                    evolve_s * 1e9 / point_steps if point_steps else 0.0
                ),
                "propagation.fft_calls": c.get("propagation.fft_calls", 0),
                "scattering.stationary_rt_calls": calls.get("scattering.stationary_rt", 0),
                "io.bytes_written": c.get("io.bytes_written", 0),
                "io.files_written": c.get("io.files_written", 0),
                "runners.self_s": sum(selftimes.get(name, 0.0) for name in RUNNER_SPANS),
                "runners.worker_busy_fraction": (
                    inclusive.get("runners.worker", 0.0) / (jobs * compute_wall)
                    if compute_wall
                    else 0.0
                ),
            }
        )
        spans = {
            name: {"calls": calls[name], "inclusive_s": inclusive[name], "self_s": selftimes[name]}
            for name in sorted(calls)
        }
        return {"metrics": metrics, "spans": spans}


def _replace_everywhere(original, replacement):
    """Point every ``anyonpt`` module attribute bound to ``original`` at ``replacement``."""
    found = False
    for name, module in list(sys.modules.items()):
        if name != "anyonpt" and not name.startswith("anyonpt."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"no anyonpt module refers to {original!r}")


def instrument(tracer: Tracer):
    """Wrap each layer's entry points in place; returns nothing, patches modules."""
    import numpy as np
    import scipy.linalg

    from anyonpt import _io, config, model, nonnormal, propagation, runners, scattering, spectra

    def wrap_function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))

    def count_h(args, kwargs, h):
        # Bytes of every array the operator object holds: n^2 * 16 while dense.
        held = sum(v.nbytes for v in vars(h).values() if isinstance(v, np.ndarray))
        tracer.add("model.h_dense_bytes", held)

    def count_solve(args, kwargs, result):
        n = len(result.eigenvalues)
        tracer.add("spectra.dense_n3", n**3)
        tracer.add("spectra.eigpairs_computed", n)

    def count_evolve(args, kwargs, record):
        psi0 = args[0] if args else kwargs["psi0"]
        cfg = args[3] if len(args) > 3 else kwargs["config"]
        steps = cfg.n_steps()
        tracer.add("propagation.steps", steps)
        tracer.add("propagation.point_steps", steps * len(psi0.values))

    def count_file(args, kwargs, path):
        tracer.add("io.bytes_written", Path(path).stat().st_size)
        tracer.add("io.files_written")

    cls = config.ExperimentConfig
    cls.from_yaml = staticmethod(tracer.wrap("config.from_yaml", cls.from_yaml))
    wrap_function(model, "build_h_eff", "model.build_h_eff", count_h)
    wrap_function(spectra, "solve_spectrum", "spectra.solve_spectrum", count_solve)
    wrap_function(spectra, "fit_localization_length", "spectra.fit_localization_length")
    wrap_function(nonnormal, "g_t", "nonnormal.g_t")
    wrap_function(nonnormal, "g_infinity", "nonnormal.g_infinity")
    wrap_function(nonnormal, "g_infinity_poschl_teller", "nonnormal.g_infinity")
    wrap_function(propagation, "evolve", "propagation.evolve", count_evolve)
    wrap_function(scattering, "stationary_rt", "scattering.stationary_rt")
    wrap_function(scattering, "report_from_final", "scattering.report")
    wrap_function(_io, "write_csv", "io.write_csv", count_file)
    wrap_function(_io, "write_ndjson", "io.write_ndjson", count_file)

    scipy.linalg.expm = tracer.wrap("nonnormal.expm", scipy.linalg.expm)
    scipy.linalg.svdvals = tracer.wrap("nonnormal.svdvals", scipy.linalg.svdvals)
    np.fft.fft = tracer.counter("propagation.fft_calls", np.fft.fft)
    np.fft.ifft = tracer.counter("propagation.fft_calls", np.fft.ifft)

    # Eigenpairs a runner consumes: rows written to eigs_*.csv, or one per lookup.
    result_cls = spectra.SpectrumResult
    csv_rows = result_cls.csv_rows

    def counted_rows(self):
        for row in csv_rows(self):
            tracer.add("spectra.eigpairs_used")
            yield row

    result_cls.csv_rows = counted_rows
    for method in ("nearest", "eigenvector"):
        setattr(result_cls, method, tracer.counter("spectra.eigpairs_used", getattr(result_cls, method)))

    # Runner layer: the whole run, the compute phase, and each sweep point.
    map_points = runners._map_points

    def traced_map_points(fn, points, jobs):
        parent = tracer.current()
        return map_points(tracer.wrap("runners.worker", fn, parent=parent), points, jobs)

    runners._map_points = tracer.wrap("runners.map_points", traced_map_points)
    wrap_function(runners, "run_experiment", "runners.run")


def main(argv) -> int:
    summary_path, cli_args = Path(argv[0]), argv[1:]
    from anyonpt import cli

    tracer = Tracer()
    instrument(tracer)
    jobs = int(cli_args[cli_args.index("--jobs") + 1]) if "--jobs" in cli_args else 1
    code = cli.main(cli_args)
    summary_path.write_text(json.dumps(tracer.summary(jobs), indent=1))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
