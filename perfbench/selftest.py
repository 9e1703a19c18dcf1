"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), runs ``perfbench/run.py`` once on intact
outputs, which must pass, and once with ``--corrupt``, which damages one
output value of every invocation (spectrum-sweep: a manifest point count
raised by one; scatter-barrier: the evanescent flag flipped; gain-transient:
G_infinity off by 0.1%).  The corrupted run must report ``correct: false``
and count every invocation as failed.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, corrupt: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0"]
    if corrupt:
        argv.append("--corrupt")
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(names) -> int:
    failures = []
    for name in names or sorted(WORKLOADS):
        intact, corrupted = run(name, corrupt=False), run(name, corrupt=True)
        setup_probes = intact["attempted"] - 1  # one workload invocation per run
        ok = (
            intact["correct"]
            and intact["failed"] == 0
            and not corrupted["correct"]
            and corrupted["failed"] == corrupted["attempted"] - setup_probes == 1
            and corrupted["metrics"]["success_rate"]["value"] < 1.0
        )
        print(f"{name}: intact failed {intact['failed']}/{intact['attempted']}, "
              f"corrupted failed {corrupted['failed']}/{corrupted['attempted']}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
