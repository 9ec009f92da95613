"""Command-line front end.

Every subcommand reads plain-text inputs (lattice and beam files), runs
one deterministic computation, and writes one text artifact (CSV or
JSON) with full round-trip float formatting, so identical invocations
produce byte-identical outputs.  Units follow the library convention:
lengths in meters, dipole and electric strengths in 1/m, gradients in
1/m^2, with the charge-to-mass ratio absorbed into the field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .errors import AvgBeamError


def _finite(text: str) -> float:
    """A finite float flag value; anything else is a usage error."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got '{text}'")
    return value


def _four_floats(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated floats, got '{text}'")
    return np.array([_finite(p) for p in parts])


def _alpha_list(text: str):
    vals = [_finite(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated list of alphas")
    return vals


def _load_beam(path: str):
    from .ensemble import parse_beam_definition

    with open(path) as fh:
        return parse_beam_definition(fh.read())


def _add_common(p, span_help="integration span in proper time (m)"):
    p.add_argument("--lattice", required=True, help="lattice file path")
    p.add_argument("--step", type=_finite, required=True, help="integrator step (m)")
    p.add_argument("--span", type=_finite, required=True, help=span_help)
    p.add_argument("--out", required=True, help="output artifact path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="avgbeam",
        description="Beam dynamics through moment-averaged connections "
                    "(lengths in m, dipole/electric strengths in 1/m, "
                    "gradients in 1/m^2).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="single-particle reference trajectory")
    _add_common(p)
    p.add_argument("--beam", required=True, help="beam file (initial velocity = its mean)")

    p = sub.add_parser("avg-track", help="geodesic of the moment-averaged connection")
    _add_common(p)
    p.add_argument("--beam", required=True, help="beam file providing the moments")

    p = sub.add_parser("jacobi", help="deviation transport along an averaged reference")
    _add_common(p)
    p.add_argument("--beam", required=True, help="beam file providing the moments")
    p.add_argument("--xi0", type=_four_floats, required=True,
                   help="initial deviation xi (4 floats, m)")
    p.add_argument("--dxi0", type=_four_floats, required=True,
                   help="initial deviation rate dxi/dt (4 floats)")

    p = sub.add_parser("transverse", help="linear transverse channel of the first element")
    _add_common(p, span_help="path length span l (m)")
    p.add_argument("--xi0", type=_four_floats, required=True, help="initial deviation (m)")
    p.add_argument("--dxi0", type=_four_floats, required=True, help="initial deviation slope")
    p.add_argument("--rho", type=_finite, default=None,
                   help="bending radius override (m); default 1/b0 of the element")

    p = sub.add_parser("longitudinal", help="longitudinal channel of the first element")
    _add_common(p)
    p.add_argument("--xi0", type=_four_floats, required=True, help="initial deviation (m)")
    p.add_argument("--dxi0", type=_four_floats, required=True, help="initial deviation rate")
    p.add_argument("--gamma", type=_finite, default=1.0,
                   help="constant Lorentz factor entering the RF focusing strength")

    p = sub.add_parser("moments", help="velocity moments and support statistics of a beam")
    p.add_argument("--beam", required=True, help="beam file path")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("offset", help="averaged transverse offset along a reference run")
    _add_common(p)
    p.add_argument("--beam", required=True, help="beam file providing the moments")

    p = sub.add_parser("dispersion", help="dispersion function of the lattice optics")
    p.add_argument("--lattice", required=True, help="lattice file path")
    p.add_argument("--step", type=_finite, required=True, help="grid step (m), must align with element boundaries")
    p.add_argument("--delta", type=_finite, required=True, help="momentum error dp/p0")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("scan-alpha", help="bunch-size scaling of the averaged dynamics")
    p.add_argument("--lattice", required=True, help="lattice file path")
    p.add_argument("--alphas", type=_alpha_list, required=True,
                   help="decreasing comma-separated support diameters")
    p.add_argument("--span", type=_finite, required=True, help="lab path length (m)")
    p.add_argument("--seed", type=int, required=True, help="ensemble RNG seed")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--step", type=_finite, default=1e-3, help="integrator step (m)")
    p.add_argument("--n", type=int, default=10000, help="samples per ensemble")
    p.add_argument("--gamma", type=_finite, default=100.0,
                   help="Lorentz factor of the beam mean velocity")

    p = sub.add_parser("validate", help="finite-difference check of field gradients")
    p.add_argument("--lattice", required=True, help="lattice file path")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--fd-step", type=_finite, default=1e-5,
                   help="finite-difference step (m)")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _launch(args, v):
    """The launch at the lattice start x2 = 0 with velocity v, and the config.

    A span whose sign sends the first half step to x2 < 0 is refused here,
    before the run, as the lattice lookup there would refuse it unnamed.
    """
    from .dynamics import IntegratorConfig, TrajectoryState

    cfg = IntegratorConfig(step=args.step)
    if args.span != 0.0 and 0.5 * math.copysign(cfg.step, args.span) * v[2] < 0.0:
        raise ValueError(f"--span {args.span!r} leaves the lattice at its start x2 = 0: the "
                         f"launch has v2 = {float(v[2])!r}, and the span must have its sign")
    return TrajectoryState(t=0.0, x=np.zeros(4), v=v), cfg


def _averaged_launch(args):
    """The beam's moments, the launch on their projected mean velocity, the config."""
    from .ensemble import compute_moments, project_to_hyperboloid, realize_beam

    moments = compute_moments(realize_beam(_load_beam(args.beam)))
    return (moments, *_launch(args, project_to_hyperboloid(moments.first[1:4])))


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _run(args) -> int:
    # each job imports only the modules it runs, so a process pays for no other job's
    lattice = None
    if args.command != "moments":
        from .lattice import load_lattice

        lattice = load_lattice(args.lattice)
    if args.command == "track":
        from .dynamics import integrate_lorentz, write_trajectory_csv

        state, cfg = _launch(args, _load_beam(args.beam).central_velocity())
        series = integrate_lorentz(lattice, state, args.span, cfg)
        write_trajectory_csv(series, args.out)

    elif args.command == "avg-track":
        from .dynamics import integrate_averaged_geodesic, write_trajectory_csv

        moments, launch, cfg = _averaged_launch(args)
        series = integrate_averaged_geodesic(lattice, moments, launch, args.span, cfg)
        write_trajectory_csv(series, args.out)

    elif args.command == "jacobi":
        from .dynamics import JacobiState, integrate_jacobi_full, write_jacobi_csv

        moments, launch, cfg = _averaged_launch(args)
        xi0 = JacobiState(t=0.0, xi=args.xi0, dxi=args.dxi0)
        xi_run = integrate_jacobi_full(lattice, moments, launch, xi0, args.span, cfg)
        write_jacobi_csv(xi_run, args.out)

    elif args.command == "transverse":
        from .dynamics import (
            IntegratorConfig, JacobiState, integrate_transverse_linear, write_jacobi_csv,
        )

        series = integrate_transverse_linear(
            lattice.elements[0], args.rho,
            JacobiState(t=0.0, xi=args.xi0, dxi=args.dxi0),
            args.span, IntegratorConfig(step=args.step),
        )
        write_jacobi_csv(series, args.out)

    elif args.command == "longitudinal":
        from .dynamics import (
            IntegratorConfig, JacobiState, integrate_longitudinal, write_jacobi_csv,
        )

        series = integrate_longitudinal(
            lattice.elements[0], args.gamma,
            JacobiState(t=0.0, xi=args.xi0, dxi=args.dxi0),
            args.span, IntegratorConfig(step=args.step),
        )
        write_jacobi_csv(series, args.out)

    elif args.command == "moments":
        from .ensemble import compute_moments, energy_stats, realize_beam

        defn = _load_beam(args.beam)
        ens = realize_beam(defn)
        moments = compute_moments(ens)
        stats = energy_stats(ens)
        payload = {
            "vol": float(moments.vol),
            "first": [float(c) for c in moments.first],
            "third": [[[float(v) for v in row] for row in mat] for mat in moments.third],
            "energy": float(stats.energy),
            "alpha": float(stats.alpha),
        }
        _write_json(args.out, payload)

    elif args.command == "offset":
        from .dynamics import _write_rows, comoving_moments_along, integrate_averaged_geodesic
        from .observables import averaged_offset

        moments, launch, cfg = _averaged_launch(args)
        reference = integrate_averaged_geodesic(lattice, moments, launch, args.span, cfg)
        along = comoving_moments_along(reference, moments)
        off = averaged_offset(lattice, reference, along)
        # the header is the artifact format: off1/off3 repeat the averaged avg1/avg3
        _write_rows(args.out, "t,off1,off3,avg1,avg3",
                    [off.t, off.avg1, off.avg3, off.avg1, off.avg3])

    elif args.command == "dispersion":
        from .dynamics import _write_rows
        from .lattice import optics_profiles
        from .observables import dispersion, principal_solutions

        grid, K, inv_rho = optics_profiles(lattice, args.step)
        ps = principal_solutions(grid, K)
        del grid, K  # ps holds copies of both; freed, they stay out of the job's peak memory
        result = dispersion(ps, inv_rho, args.delta)
        _write_rows(args.out, "t,C,S,D,off", [ps.t, ps.C, ps.S, result.D, result.offset])

    elif args.command == "scan-alpha":
        from .dynamics import IntegratorConfig
        from .oracle import gaussian_beam_family, theorem1_scan

        mean_spatial = np.array([0.0, np.sqrt(args.gamma * args.gamma - 1.0), 0.0])
        family = gaussian_beam_family(mean_spatial, n=args.n, seed=args.seed)
        report = theorem1_scan(lattice, family, args.alphas, args.span,
                               IntegratorConfig(step=args.step))
        with open(args.out, "w", newline="\n") as fh:
            fh.write(report.to_json() + "\n")

    elif args.command == "validate":
        from .oracle import validate_field_gradients

        probes = []
        starts = np.concatenate(([0.0], lattice.boundaries[:-1]))
        for start, el in zip(starts, lattice.elements):
            mid = start + 0.5 * el.length
            probes.append(np.array([0.0, 0.0, mid, 0.0]))
            probes.append(np.array([0.0, 0.01, mid, 0.02]))
        err = validate_field_gradients(lattice, probes, step=args.fd_step)
        payload = {"max_relative_error": float(err), "probes": len(probes)}
        _write_json(args.out, payload)

    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command}")
    return 0


def main(argv=None) -> int:
    parser = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes only -N and -N.N for negative numbers and would read
    # -1e-3 or -1,0,0,0 after a flag as an option: join it as --flag=value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and re.match(r"-[0-9.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    if args.command == "longitudinal" and not args.gamma >= 1.0:
        parser.error(f"longitudinal --gamma must be at least 1, got {args.gamma!r}")
    if args.command == "scan-alpha":
        # gamma 1 is a beam at rest, which never covers the lab path
        if not args.gamma > 1.0:
            parser.error(f"scan-alpha --gamma must be greater than 1, got {args.gamma!r}")
        if not args.span > 0.0:
            parser.error(f"scan-alpha --span must be positive, got {args.span!r}")
        if args.seed < 0:
            parser.error(f"scan-alpha --seed must be nonnegative, got {args.seed}")
    try:
        return _run(args)
    except (AvgBeamError, OSError, ValueError) as exc:
        print(f"avgbeam: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
