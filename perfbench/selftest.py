"""Self-test of the benchmark at a tiny input size (about half a minute).

    python3 perfbench/selftest.py

Checks that
1. an untraced and a traced run print every metric of BENCHMARK.json,
   by name and with its unit, and nothing else;
2. a corrupted artifact, a nonzero exit and an out-of-range scan are
   counted as failed, and the dispersion known defect is accepted only on
   a lattice with element edges;
3. in the traced run, the self times of each job's spans add up to its
   root span, and the root span to the job's latency within the tracing
   overhead.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run
from checks import judge
from spans import layer_totals
from workloads import TINY, make_inputs

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metrics(result, report, spec, label):
    printed = "\n".join(run.summary_lines(report))
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    check(result["correct"] and result["failed"] == 0, f"{label}: run is correct")
    check(got == want, f"{label}: metric names and units match BENCHMARK.json")
    check(all(f"  {k} = " in printed and f" {u} (samples=" in printed for k, u in want.items()),
          f"{label}: every metric printed with its unit")
    return result["metrics"]


def check_spans(report, tracer):
    jobs = report["jobs"]
    roots = [(i, s) for i, s in enumerate(tracer.spans) if s[3] == -1]
    check(len(roots) == sum(r["traced"] for r in jobs), "one root span per traced job")
    bounds = [i for i, _ in roots] + [len(tracer.spans)]
    for (lo, (name, start, end, _, job, _)), hi in zip(roots, bounds[1:]):
        total = sum(t["self_s"] for t in layer_totals(tracer.spans, lo, hi).values())
        span = end - start
        latency = jobs[job]["raw_seconds"]
        if not (abs(total - span) <= 1e-9 * span + 1e-12
                and 0.0 <= latency - span <= 0.05 * latency + 1e-3):
            check(False, f"job {job} ({jobs[job]['job']}): self sum {total!r}, "
                         f"root span {span!r}, latency {latency!r}")
            return
    check(True, "self times add up to each job's root span, and that to its latency")


def check_corruption(workdir):
    from avgbeam.cli import main
    jobs = {j.name: j for j in make_inputs("bunch-cells", 1, workdir, TINY)}
    digests = {}
    for job in jobs.values():
        code, stderr, _ = run.run_job(main, job)
        status, detail, _ = judge(job, code, stderr, digests)
        check(status in ("ok", "known-defect"), f"clean {job.name}: {status} {detail}")

    def corrupt(job, edit, fresh=False):
        with open(job.out) as fh:
            text = fh.read()
        with open(job.out, "w") as fh:
            fh.write(edit(text))
        return judge(job, 0, "", {} if fresh else digests)[0]

    def bump_x2(text):   # one digit of the last row's position: still a valid orbit
        head, last = text.rstrip("\n").rsplit("\n", 1)
        cols = last.split(",")
        cols[3] = cols[3][:-1] + str((int(cols[3][-1]) + 1) % 10)
        return head + "\n" + ",".join(cols) + "\n"

    track = jobs["track"]
    check(corrupt(track, bump_x2) == "failed",
          "one changed digit in track.csv fails the byte-identity check")
    check(corrupt(track, lambda t: t[: t.rstrip("\n").rfind("\n") + 1], fresh=True) == "failed",
          "truncated track.csv fails the row-count check")

    def skew(text):
        doc = json.loads(text)
        doc["third"][0][1][2] *= 1.0 + 1e-6
        return json.dumps(doc)
    check(corrupt(jobs["moments"], skew, fresh=True) == "failed",
          "asymmetric third moment fails the symmetry check")

    def off_theory(text):
        doc = json.loads(text)
        doc["fitted_exponent"] = 0.4
        return json.dumps(doc)
    strict = dataclasses.replace(jobs["scan-alpha"], exponent_range=(1.6, 2.4))
    check(corrupt(strict, off_theory, fresh=True) == "failed",
          "scan exponent outside [1.6, 2.4] fails on an edge-free lattice")
    check(judge(track, 1, "avgbeam: boom\n", {})[0] == "failed", "nonzero exit fails")
    residual = "avgbeam: particular-solution residual 0.1 exceeds 2e-08\n"
    disp = jobs["dispersion"]
    check(judge(disp, 1, residual, {})[0] == "known-defect",
          "dispersion residual on an edged lattice is the known defect")
    check(judge(dataclasses.replace(disp, edge_defect=False), 1, residual, {})[0] == "failed",
          "dispersion residual on an edge-free lattice fails")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base = os.path.join(run.WORK, "selftest")
    result, report, _ = run.benchmark("bunch-cells", 1, 0, False, sizes=TINY,
                                      workdir=os.path.join(base, "plain"))
    metrics = check_metrics(result, report, bench["end_to_end"], "untraced")
    check(all(m["value"] > 0 for m in metrics.values()), "untraced: every metric is positive")
    result, report, tracer = run.benchmark("bunch-cells", 1, 0, True, sizes=TINY,
                                           workdir=os.path.join(base, "traced"))
    check_metrics(result, report, bench["per_layer"], "traced")
    check_spans(report, tracer)
    check_corruption(os.path.join(base, "corrupt"))
    print(f"selftest: {len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
