"""Alternating parent/change pairs of the benchmark, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label pr21 \\
        --workload bunch-dipole --seed 113 --control moments_s

Each rev's committed tree is exported with ``git archive`` into a fresh
temporary directory (removed afterwards), so each side runs its own
unmodified ``perfbench/run.py`` on its own ``src``, and nothing is
registered in the repository.  For every workload, ten pairs run, pair
i parent then change when i is even and change then parent when it is
odd, each run a separate ``--trace 0`` process on the one seed for the
change side's ``BENCHMARK.json`` ``run_seconds``.  Per workload and
end-to-end metric of the change side's ``BENCHMARK.json`` the file holds
each side's median and quartiles (numpy linear interpolation), the pairs
the change won (ties count for neither) and the relative change of the
medians, in the layout of the earlier BENCH files.  It also records each
side's environment as the harness reports it, with the real git rev and
the orjson version added, and the wall time and summary line of each
side's Tier-1 test suite.  Without ``--workload`` every workload runs.

Each ``--control METRIC`` names a metric of jobs the change leaves
alone.  Every workload then gets a ``control`` entry holding the names
and the median of their median changes (each metric's own figures stay
under ``metrics``): how far untouched jobs drift in the same runs, to
read the claimed metric's change against.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
DESCRIPTION = ("Alternating pairs of perfbench/run.py runs (unmodified harness), parent then "
               "change on even pairs and change then parent on odd pairs; per workload and "
               "metric: median, 25th and 75th percentiles (numpy linear interpolation), the "
               "number of pairs the change won (ties count for neither) and the relative "
               "change of the medians.")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Unpack rev's committed tree into dest; return the full commit hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def bench(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One perfbench run in checkout: its JSON result and the environment it reported."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout
    report = checkout / "perfbench" / "work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return {"result": json.loads(out.strip().splitlines()[-1]),
            "environment": json.loads(report.read_text())["environment"]}


def orjson_version(checkout: Path):
    """orjson's version as the checkout's interpreter sees it, or None when it is absent."""
    probe = "import importlib.util as u; print(__import__('orjson').__version__ " \
            "if u.find_spec('orjson') else '')"
    out = subprocess.run([sys.executable, "-c", probe], cwd=checkout, check=True,
                         capture_output=True, text=True).stdout.strip()
    return out or None


def tier1(checkout: Path) -> dict:
    """Wall time and summary line of the checkout's Tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def summarize(runs: dict, metrics: list) -> dict:
    """Per-metric quartiles, wins and median change over the pairs of one workload."""
    out = {"pairs": len(runs["parent"]),
           "failed": {side: [r["result"]["failed"] for r in runs[side]] for side in SIDES},
           "attempted": {side: [r["result"]["attempted"] for r in runs[side]] for side in SIDES},
           "metrics": {}}
    for spec in metrics:
        name = spec["name"]
        values = {side: np.array([r["result"]["metrics"][name]["value"] for r in runs[side]],
                                 dtype=float) for side in SIDES}
        sign = -1.0 if spec["better"] == "lower" else 1.0
        stats = {side: {"median": float(np.median(v)),
                        "q1": float(np.percentile(v, 25)),
                        "q3": float(np.percentile(v, 75))} for side, v in values.items()}
        out["metrics"][name] = {
            **stats,
            "change_wins": int(np.sum(sign * (values["change"] - values["parent"]) > 0.0)),
            "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
            "unit": spec["unit"],
        }
    return out


def control(summary: dict, names: list) -> dict:
    """The named metrics and the median of their median changes in one workload's summary."""
    return {"metrics": names,
            "median_change": float(np.median([summary["metrics"][name]["median_change"]
                                              for name in names]))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git rev of the parent side")
    ap.add_argument("--change", required=True, help="git rev of the change side")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=113)
    ap.add_argument("--control", action="append", default=[], metavar="METRIC",
                    help="a metric of jobs the change leaves alone; repeatable")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        revs = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        unknown = set(args.control) - {m["name"] for m in spec["end_to_end"]}
        if unknown:
            ap.error(f"--control names no end-to-end metric: {', '.join(sorted(unknown))}")
        tests = {side: tier1(checkouts[side]) for side in SIDES}
        results, env = {}, {}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    run = bench(checkouts[side], workload, args.seed, spec["run_seconds"])
                    runs[side].append(run)
                    env[side] = run["environment"]
                print(f"{workload}: pair {i + 1} of {PAIRS}", file=sys.stderr)
            results[workload] = summarize(runs, spec["end_to_end"])
            if args.control:
                results[workload]["control"] = control(results[workload], args.control)
        for side in SIDES:
            env[side] = {**env[side], "git_rev": revs[side],
                         "orjson": orjson_version(checkouts[side]), "tier1": tests[side]}

    command = (f"python3 perfbench/run.py --workload W --seed {args.seed} "
               f"--seconds {spec['run_seconds']} --trace 0")
    doc = {"description": DESCRIPTION, "command": command, "git_rev": revs,
           "workloads": results, "environment": env}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
