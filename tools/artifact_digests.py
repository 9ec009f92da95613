"""sha256 of every artifact of the benchmark's jobs, each job run once.

    python3 tools/artifact_digests.py --workload bunch-cells --seed 5 --seed 29

For every workload and seed the inputs are written by
``perfbench/workloads.py`` (loaded from its file and only read, as
``tests/test_trace_hooks.py`` loads it) into a fresh temporary
directory, and every job of the round runs once through
``avgbeam.cli.main``.  One JSON line per (workload, seed) maps each job
to the sha256 of its artifact, or, for a job that exits nonzero, to its
exit code and what it wrote to stderr (the temporary directory shown as
``<work>``).  The inputs depend only on (workload, seed), so the lines
of two checkouts compare directly.  The package is imported from the
``src`` directory next to this script, so each checkout digests its own
code.  Without ``--workload`` every workload runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avgbeam.cli import main as cli_main  # noqa: E402


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


def digests(workloads, workload: str, seed: int) -> dict:
    """{job name: sha256 hex, or {"exit": code, "stderr": text}} for one round."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for job in workloads.make_inputs(workload, seed, work):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(job.argv)
            if code:
                out[job.name] = {"exit": code, "stderr": err.getvalue().replace(work, "<work>")}
            else:
                out[job.name] = hashlib.sha256(Path(job.out).read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", action="append", type=int, required=True)
    args = ap.parse_args(argv)
    for workload in args.workload or sorted(workloads.SIZES):
        for seed in args.seed:
            print(json.dumps({"workload": workload, "seed": seed,
                              "artifacts": digests(workloads, workload, seed)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
