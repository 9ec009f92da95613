"""Output checks run on every job of every round.

``judge`` turns one job's exit code, stderr and artifact into a status:

* ``ok``: exit 0 and the artifact passed its check;
* ``known-defect``: the seed's documented dispersion failure (see below);
* ``failed``: anything else, including a nonzero exit, a malformed or
  non-finite artifact, and an artifact whose bytes differ from the first
  run of the same job in this benchmark run.

A failed check never stops the run; it is counted.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SHELL_DRIFT_MAX = 1e-6      # max |eta(v,v) - 1| along a trajectory CSV
SYMMETRY_RTOL = 1e-12       # moments' third tensor under index permutations

HEADERS = {
    "trajectory": "t,x0,x1,x2,x3,v0,v1,v2,v3",
    "jacobi": "t,xi0,xi1,xi2,xi3,dxi0,dxi1,dxi2,dxi3",
    "offset": "t,off1,off3,avg1,avg3",
    "dispersion": "t,C,S,D,off",
}

# The seed's dispersion subcommand raises ResidualTooLarge on every
# lattice whose focusing or bend jumps at an element edge: the
# finite-difference residual check of particular_solution straddles the
# jump.  Such a job is reported as a known defect, never as a pass; on an
# edge-free lattice the same message is a plain failure.
EDGE_DEFECT_MESSAGE = "avgbeam: particular-solution residual"


def _csv(job, text):
    header, _, body = text.partition("\n")
    if header != HEADERS[job.kind]:
        raise ValueError(f"header {header!r}")
    data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if job.rows is not None and len(data) != job.rows:
        raise ValueError(f"{len(data)} rows, expected {job.rows}")
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite value")
    if job.kind == "trajectory":
        v = data[:, 5:9]
        drift = float(np.max(np.abs(v[:, 0] ** 2 - v[:, 1] ** 2 - v[:, 2] ** 2
                                    - v[:, 3] ** 2 - 1.0)))
        if drift > SHELL_DRIFT_MAX:
            raise ValueError(f"shell-norm drift {drift:.3e} > {SHELL_DRIFT_MAX}")
        return {"shell_drift": drift}
    return {}


def _moments(job, text):
    doc = json.loads(text)
    third = np.array(doc["third"], dtype=float)
    first = np.array(doc["first"], dtype=float)
    if third.shape != (4, 4, 4) or first.shape != (4,):
        raise ValueError("moment shapes")
    if not (np.all(np.isfinite(third)) and np.all(np.isfinite(first))
            and doc["vol"] > 0 and doc["alpha"] >= 0 and math.isfinite(doc["energy"])):
        raise ValueError("non-finite or negative moment field")
    tol = SYMMETRY_RTOL * float(np.max(np.abs(third)))
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        if np.max(np.abs(third - third.transpose(axes))) > tol:
            raise ValueError(f"third moment not symmetric under axes {axes}")
    return {}


def _scan(job, text):
    doc = json.loads(text)
    exponent = float(doc["fitted_exponent"])
    devs = np.array(doc["deviations"], dtype=float)
    if not math.isfinite(exponent) or len(devs) != len(doc["alphas"]) or np.any(devs <= 0):
        raise ValueError("unusable scaling report")
    if job.exponent_range is not None:
        lo, hi = job.exponent_range
        if not lo <= exponent <= hi:
            raise ValueError(f"fitted exponent {exponent:.4f} outside [{lo}, {hi}]")
    return {"exponent": exponent}


_READERS = {"trajectory": _csv, "jacobi": _csv, "offset": _csv, "dispersion": _csv,
            "moments": _moments, "scan": _scan}


def judge(job, code, stderr, digests):
    """Return (status, detail, info) for one finished job.

    ``digests`` maps job name to the sha256 of its first artifact in this
    run; the first ok run of a job records it.
    """
    if code != 0:
        if job.edge_defect and code == 1 and stderr.startswith(EDGE_DEFECT_MESSAGE):
            return "known-defect", stderr.strip(), {}
        return "failed", f"exit {code}: {stderr.strip()[-300:]}", {}
    try:
        with open(job.out, "rb") as fh:
            raw = fh.read()
        info = _READERS[job.kind](job, raw.decode())
    except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return "failed", f"artifact check: {exc}", {}
    digest = hashlib.sha256(raw).hexdigest()
    if digests.setdefault(job.name, digest) != digest:
        return "failed", "artifact bytes differ from this job's first run", info
    info["bytes"] = len(raw)
    return "ok", "", info
