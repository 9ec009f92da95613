"""Workload definitions: seeded input files and the job list of one round.

Every workload runs the same nine CLI subcommands, so every end-to-end
metric exists on every workload; the workloads differ in the lattice and
the beam, which decides which layer carries the time:

* ``ring-optics``: a 128-element FODO ring and a gamma ~ sqrt(2) beam.
  Single-orbit field lookup scans every element on each call, so
  ``lattice.field_*`` dominates; the beam layer does little.
* ``bunch-dipole``: one 25 m dipole and a gamma ~ 10 beam.  Field lookup
  takes the one-element fast path; the time goes to batched ensemble RK4
  (``scan-alpha``), the O(n^2) ``energy_stats`` and beam sampling.  A
  field-lookup change should move nothing here.
* ``bunch-cells``: a 16-element FODO line.  The scan tracks a cloud
  through the masked per-element lookup, so a lookup change that speeds
  single orbits but slows batched clouds shows here.

The seed perturbs field strengths, beam spread, RNG seeds and the
initial deviation by a few percent; it never changes a size, so run time
does not depend on the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

ALPHAS = "0.02,0.01,0.005"
# Orbit jobs (track, avg-track, jacobi, offset) of every workload follow
# a narrow gamma ~ sqrt(2) beam.  The averaged geodesic leaves the mass
# shell by O(field x spread^2 x span), which is physics, not integration
# error; the spread is kept small enough that this stays well under the
# shell-norm check, so the check still sees integration error.
ORBIT_N = 2000


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload (identical for every seed).

    Jobs are kept short, most under half a second on an uncontended
    core: the contention correction in run.py brackets each job with
    reference blocks and follows the core's speed only over a short time.
    The bunch-cells scan keeps the span of 3 m, over which the seed's
    RK4-across-edges defect shows in the fitted exponent.
    """

    cells: int           # FODO cells (4 elements each); 0 means one dipole
    gamma: float         # Lorentz factor of the bunch beam and of the scan
    sigma: float         # per-axis velocity spread of the bunch beam
    beam_n: int          # samples in the bunch beam (moments)
    orbit_sigma: float   # per-axis velocity spread of the orbit beam
    orbit_step: float    # track / avg-track / jacobi / offset
    orbit_span: float
    jacobi_span: float   # a jacobi step costs about five orbit steps
    dispersion_step: float
    scan_n: int
    scan_span: float
    scan_step: float
    transverse_step: float = 1e-4
    transverse_span: float = 0.5
    longitudinal_step: float = 1e-3
    longitudinal_span: float = 10.0
    # runs per round of each short job, so that every subcommand gets a
    # similar share of the measured time (1 when absent)
    reps: dict = field(default_factory=dict)


SIZES = {
    "ring-optics": Sizes(cells=32, gamma=math.sqrt(2.0), sigma=0.01, beam_n=2000,
                         orbit_sigma=0.01, orbit_step=0.01, orbit_span=1.0, jacobi_span=0.3,
                         dispersion_step=4e-3, scan_n=100, scan_span=0.3, scan_step=0.01,
                         reps={"track": 2, "avg-track": 2, "offset": 2, "jacobi": 2,
                               "dispersion": 2, "transverse": 4, "longitudinal": 3,
                               "moments": 10, "scan-alpha": 2}),
    "bunch-dipole": Sizes(cells=0, gamma=10.0, sigma=0.05, beam_n=3000,
                          orbit_sigma=0.004, orbit_step=0.01, orbit_span=1.5, jacobi_span=1.0,
                          dispersion_step=4e-3, scan_n=2000, scan_span=1.0, scan_step=1e-3,
                          reps={"track": 8, "avg-track": 2, "offset": 2, "jacobi": 2,
                                "dispersion": 4, "transverse": 4, "longitudinal": 3,
                                "moments": 8, "scan-alpha": 5}),
    "bunch-cells": Sizes(cells=4, gamma=2.0, sigma=0.01, beam_n=2000,
                         orbit_sigma=0.01, orbit_step=0.01, orbit_span=3.0, jacobi_span=1.0,
                         dispersion_step=1e-3, scan_n=500, scan_span=3.0, scan_step=0.01,
                         reps={"track": 4, "avg-track": 2, "offset": 2, "jacobi": 2,
                               "dispersion": 4, "transverse": 4, "longitudinal": 3,
                               "moments": 10, "scan-alpha": 2}),
}

# A sizes profile small enough for the self-test (a few seconds a round).
TINY = Sizes(cells=1, gamma=2.0, sigma=0.01, beam_n=200,
             orbit_sigma=0.01, orbit_step=0.01, orbit_span=0.3, jacobi_span=0.3,
             dispersion_step=1e-2, scan_n=100, scan_span=0.3, scan_step=0.01,
             transverse_step=1e-3, transverse_span=0.2,
             longitudinal_step=1e-2, longitudinal_span=1.0)


@dataclass
class Job:
    """One CLI invocation of a round.

    ``kind`` selects the output check.  ``traj_steps`` is the number of
    trajectory x RK4-step units of 4-velocity tracking the job performs
    (0 for the linear channels and for jobs that track nothing).
    ``edge_defect`` marks a dispersion job on a lattice whose focusing
    or bend jumps at an element edge: at the seed it raises
    ResidualTooLarge, which the benchmark reports as a known defect.
    ``exponent_range`` bounds the fitted scan exponent where Theorem 1
    holds (an edge-free lattice).
    """

    name: str
    argv: list
    out: str
    kind: str
    traj_steps: int = 0
    rows: int | None = None
    edge_defect: bool = False
    exponent_range: tuple | None = None
    reps: int = 1


def _steps(span: float, step: float) -> int:
    # the integrators round the span up to whole steps
    return max(1, int(math.ceil(span / step - 1e-9)))


def _lattice_text(sizes: Sizes, rng: random.Random) -> str:
    if sizes.cells == 0:
        return f"element dipole length=25.0 b0={0.05 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))!r}\n"
    b0 = 0.02 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    lines = ["# FODO: focusing quad_dipole, drift, defocusing quad_dipole, drift"]
    for _ in range(sizes.cells):
        b1 = 0.8 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        lines.append(f"element quad_dipole length=0.5 b0={b0!r} b1={b1!r}")
        lines.append("element drift length=0.5")
        lines.append(f"element quad_dipole length=0.5 b0={b0!r} b1={-b1!r}")
        lines.append("element drift length=0.5")
    return "\n".join(lines) + "\n"


def _write_beam(path, speed, sigma, n, rng):
    sigma *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
    with open(path, "w") as fh:
        fh.write("distribution=gaussian\n"
                 f"mean=0.0,{speed!r},0.0\n"
                 f"sigma={sigma!r},{sigma!r},{sigma!r}\n"
                 f"n={n}\n"
                 f"seed={rng.randrange(1, 2**31)}\n")


def make_inputs(workload: str, seed: int, workdir: str, sizes: Sizes | None = None):
    """Write the workload's input files under ``workdir``; return the jobs.

    The same (workload, seed) always yields the same files and jobs.
    """
    sizes = SIZES[workload] if sizes is None else sizes
    rng = random.Random(f"{workload}:{seed}")
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)
    lat = os.path.join(workdir, "lattice.lat")
    rf = os.path.join(workdir, "rf.lat")
    beam = os.path.join(workdir, "bunch.beam")
    orbit_beam = os.path.join(workdir, "orbit.beam")

    with open(lat, "w") as fh:
        fh.write(_lattice_text(sizes, rng))
    e2_0 = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
    w_rf = 3.0 + 0.1 * rng.uniform(-1.0, 1.0)
    with open(rf, "w") as fh:
        fh.write(f"element rf length=20.0 e2_0={e2_0!r} w_rf={w_rf!r}\n")
    speed = math.sqrt(sizes.gamma * sizes.gamma - 1.0)
    _write_beam(beam, speed, sizes.sigma, sizes.beam_n, rng)
    _write_beam(orbit_beam, 1.0, sizes.orbit_sigma, ORBIT_N, rng)
    xi = 1e-3 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
    scan_seed = rng.randrange(1, 2**31)

    def path(name):
        return os.path.join(out, name)

    orbit = ["--lattice", lat, "--beam", orbit_beam,
             "--step", repr(sizes.orbit_step), "--span", repr(sizes.orbit_span)]
    n_orbit = _steps(sizes.orbit_span, sizes.orbit_step)
    n_jacobi = _steps(sizes.jacobi_span, sizes.orbit_step)
    # theorem1_scan integrates for the proper time that covers the lab span
    n_scan = _steps(sizes.scan_span / speed, sizes.scan_step)
    n_alphas = len(ALPHAS.split(","))
    n_disp = _steps(_lattice_length(sizes), sizes.dispersion_step) + 1
    jobs = [
        Job("track", ["track", *orbit, "--out", path("track.csv")],
            path("track.csv"), "trajectory", traj_steps=n_orbit, rows=n_orbit + 1),
        Job("avg-track", ["avg-track", *orbit, "--out", path("avg-track.csv")],
            path("avg-track.csv"), "trajectory", traj_steps=n_orbit, rows=n_orbit + 1),
        Job("jacobi", ["jacobi", "--lattice", lat, "--beam", orbit_beam,
                       "--step", repr(sizes.orbit_step), "--span", repr(sizes.jacobi_span),
                       "--xi0", f"0,{xi!r},0,0", "--dxi0", "0,0,0,0",
                       "--out", path("jacobi.csv")],
            path("jacobi.csv"), "jacobi", traj_steps=n_jacobi, rows=n_jacobi + 1),
        Job("offset", ["offset", *orbit, "--out", path("offset.csv")],
            path("offset.csv"), "offset", traj_steps=n_orbit, rows=n_orbit + 1),
        Job("dispersion", ["dispersion", "--lattice", lat,
                           "--step", repr(sizes.dispersion_step), "--delta", "0.001",
                           "--out", path("dispersion.csv")],
            path("dispersion.csv"), "dispersion", rows=n_disp,
            edge_defect=sizes.cells > 0),
        Job("transverse", ["transverse", "--lattice", lat,
                           "--step", repr(sizes.transverse_step),
                           "--span", repr(sizes.transverse_span),
                           "--xi0", f"0,{xi!r},0,0", "--dxi0", "0,0,0,0",
                           "--out", path("transverse.csv")],
            path("transverse.csv"), "jacobi",
            rows=_steps(sizes.transverse_span, sizes.transverse_step) + 1),
        Job("longitudinal", ["longitudinal", "--lattice", rf,
                             "--step", repr(sizes.longitudinal_step),
                             "--span", repr(sizes.longitudinal_span),
                             "--xi0", f"0,0,{xi!r},0", "--dxi0", "0,0,0,0",
                             "--out", path("longitudinal.csv")],
            path("longitudinal.csv"), "jacobi",
            rows=_steps(sizes.longitudinal_span, sizes.longitudinal_step) + 1),
        Job("moments", ["moments", "--beam", beam, "--out", path("moments.json")],
            path("moments.json"), "moments"),
        Job("scan-alpha", ["scan-alpha", "--lattice", lat, "--alphas", ALPHAS,
                           "--n", str(sizes.scan_n), "--gamma", repr(sizes.gamma),
                           "--span", repr(sizes.scan_span), "--step", repr(sizes.scan_step),
                           "--seed", str(scan_seed), "--out", path("scan-alpha.json")],
            path("scan-alpha.json"), "scan",
            traj_steps=n_alphas * (sizes.scan_n + 1) * n_scan,
            exponent_range=(1.6, 2.4) if sizes.cells == 0 else None),
    ]
    for job in jobs:
        job.reps = sizes.reps.get(job.name, 1)
    return jobs


def _lattice_length(sizes: Sizes) -> float:
    return 25.0 if sizes.cells == 0 else 2.0 * sizes.cells
