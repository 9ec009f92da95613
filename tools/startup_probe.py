"""Start-up cost of each CLI subcommand: one fresh process per job, start to exit.

    python3 tools/startup_probe.py --workload ring-optics --seed 5 --runs 11

Every job of the workload's round (``perfbench/workloads.py``, loaded
from its file and only read, as ``tools/artifact_digests.py`` loads it)
runs as its own ``python -m avgbeam.cli`` process, timed from just before
the process starts until it has exited.  Two baselines run the same way:
the bare interpreter (``python -c pass``) and ``python -c "import
numpy"``.  A pass runs every entry once, in an order rotated from pass
to pass so that a slow stretch of the machine does not fall on one
entry; ``--runs`` passes give each entry that many samples.

The probe pins itself, and so every child, to one CPU, and sets the
BLAS thread counts to 1, as ``perfbench/run.py`` does.  The package is
imported from the ``src`` directory next to this script, so each
checkout times its own code.  It prints one line per entry (median, min
and max in ms, and the job's exit status) and a last JSON line of the
medians.  It only measures: no figure is compared against a limit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINES = {"python": ["-c", "pass"], "import numpy": ["-c", "import numpy"]}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


def _time(argv, env) -> tuple[float, int]:
    """Seconds from start to exit of one process, and its exit code."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms, which is the resolution
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, proc.returncode


def probe(workloads, workload: str, seed: int, runs: int) -> dict:
    """{entry: {"median_ms", "min_ms", "max_ms", "exit"}} over ``runs`` passes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as work:
        entries = dict(BASELINES)
        for job in workloads.make_inputs(workload, seed, work):
            entries.setdefault(job.name, ["-m", "avgbeam.cli", *job.argv])
        names = list(entries)
        seconds = {name: [] for name in names}
        codes = {name: set() for name in names}
        for k in range(runs):
            for name in names[k % len(names):] + names[:k % len(names)]:
                elapsed, code = _time(entries[name], env)
                seconds[name].append(elapsed)
                codes[name].add(code)
    return {name: {"median_ms": 1e3 * statistics.median(seconds[name]),
                   "min_ms": 1e3 * min(seconds[name]), "max_ms": 1e3 * max(seconds[name]),
                   "exit": sorted(codes[name])} for name in names}


def main(argv=None) -> int:
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.SIZES), default="ring-optics")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--runs", type=int, default=11, help="samples of each entry")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error(f"--runs must be at least 1, got {args.runs}")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = probe(workloads, args.workload, args.seed, args.runs)
    print(f"start-up probe: workload={args.workload} seed={args.seed} runs={args.runs} "
          f"python={sys.version.split()[0]} "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    for name, r in result.items():
        print(f"  {name:<14} median {r['median_ms']:7.1f} ms  "
              f"(min {r['min_ms']:.1f}, max {r['max_ms']:.1f})  exit {r['exit']}")
    print(json.dumps({name: round(r["median_ms"], 1) for name, r in result.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
