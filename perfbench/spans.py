"""Spans around the public functions of each avgbeam layer.

The tracer patches functions from outside the package: every module that
bound a traced function by name (``from .lattice import field_mixed``)
gets the wrapper, so calls through any import site are seen.  The source
under ``src/`` is not edited, and ``restore`` puts the originals back.

A span is ``[name, start, end, parent, job, units]``.  ``units`` is the
work the call did, in the layer's own count (points looked up, RK4
steps, sample-steps, pairs, bytes).  Spans stay in memory until
``write``.  Self time is a span's duration minus that of its direct
children, so over a job the self times add up to the root span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _no_units(args, kwargs, result):
    return 0


def _points(args, kwargs, result):          # field_mixed(lattice, x2, xi)
    return int(getattr(args[1], "size", 1))


def _series_steps(args, kwargs, result):    # integrators return a series
    return len(result.t) - 1


def _grid_points(args, kwargs, result):     # principal_solutions(t, K)
    return len(args[0])


def _sample_steps(args, kwargs, result):    # ensemble_track(lattice, ensemble, ...)
    return len(args[1].ys) * (len(result.mean.t) - 1)


def _pairs(args, kwargs, result):           # energy_stats(ensemble)
    return len(args[0].ys) ** 2


def _ensemble_size(args, kwargs, result):   # BeamEnsemble.__init__(self, ys, ...)
    return len(args[0].ys)


def _file_bytes(args, kwargs, result):      # write_*_csv(series, path)
    return os.path.getsize(args[1])


# (module, function, span name, units) of every traced public function.
TRACED = [
    ("lattice", "field_mixed", "lattice.field_mixed", _points),
    ("lattice", "field_gradient", "lattice.field_gradient", _points),
    ("lattice", "load_lattice", "lattice.load_lattice", _no_units),
    ("lattice", "transverse_k_profile", "lattice.profiles", _no_units),
    ("lattice", "inverse_rho_profile", "lattice.profiles", _no_units),
    ("minkowski", "velocity_monomials3", "minkowski.velocity_monomials3", _no_units),
    ("dynamics", "integrate_lorentz", "dynamics.lorentz", _series_steps),
    ("dynamics", "integrate_averaged_geodesic", "dynamics.averaged", _series_steps),
    ("dynamics", "integrate_jacobi_full", "dynamics.jacobi", _series_steps),
    ("dynamics", "integrate_transverse_linear", "dynamics.transverse", _series_steps),
    ("dynamics", "integrate_longitudinal", "dynamics.longitudinal", _series_steps),
    ("dynamics", "comoving_moments_along", "dynamics.comoving_moments", _no_units),
    ("dynamics", "write_trajectory_csv", "dynamics.write_csv", _file_bytes),
    ("dynamics", "write_jacobi_csv", "dynamics.write_csv", _file_bytes),
    ("observables", "principal_solutions", "observables.principal_solutions", _grid_points),
    ("observables", "dispersion", "observables.dispersion", _no_units),
    ("observables", "averaged_offset", "observables.averaged_offset", _no_units),
    ("oracle", "ensemble_track", "oracle.ensemble_track", _sample_steps),
    ("oracle", "theorem1_scan", "oracle.theorem1_scan", _no_units),
    ("ensemble", "parse_beam_definition", "ensemble.parse_beam", _no_units),
    ("ensemble", "realize_beam", "ensemble.sample", _no_units),
    ("ensemble", "sample_gaussian_beam", "ensemble.sample", _no_units),
    ("ensemble", "compute_moments", "ensemble.compute_moments", _no_units),
    ("ensemble", "energy_stats", "ensemble.energy_stats", _pairs),
]


class Tracer:
    """Records spans of traced calls while patched in."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, units=_no_units):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = units(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self):
        """Install the wrappers at every import site in the avgbeam package."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "avgbeam" or n.startswith("avgbeam."))]
        for mod_name, fn_name, span_name, units in TRACED:
            original = getattr(sys.modules[f"avgbeam.{mod_name}"], fn_name)
            wrapper = self.wrap(original, span_name, units)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._set(mod, fn_name, wrapper)
        ensemble = sys.modules["avgbeam.ensemble"]
        self._set(ensemble.BeamEnsemble, "__init__",
                  self.wrap(ensemble.BeamEnsemble.__init__, "ensemble.sample", _ensemble_size))
        # gaussian_beam_family returns a closure that draws each alpha's cloud
        oracle = sys.modules["avgbeam.oracle"]
        family = oracle.gaussian_beam_family

        def traced_family(*args, **kwargs):
            return self.wrap(family(*args, **kwargs), "ensemble.sample")

        for mod in modules:
            if getattr(mod, "gaussian_beam_family", None) is family:
                self._set(mod, "gaussian_beam_family", traced_family)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("job\tparent\tname\tstart\tend\tunits\n")
            for name, start, end, parent, job, units in self.spans:
                fh.write(f"{job}\t{parent}\t{name}\t{start!r}\t{end!r}\t{units}\n")


def layer_totals(spans, lo=0, hi=None, scale=None):
    """Per span name: calls, units, inclusive and self seconds.

    Reads ``spans[lo:hi]``; every parent of a span in that range must be
    in it too, which holds when the range covers whole jobs.  ``scale``,
    indexed by job, multiplies the durations of that job's spans.
    """
    part = spans[lo:hi]
    dur = [(end - start) * (scale[job] if scale else 1.0)
           for name, start, end, parent, job, units in part]
    child = defaultdict(float)
    for k, (name, start, end, parent, job, units) in enumerate(part):
        if parent >= 0:
            child[parent] += dur[k]
    totals = defaultdict(lambda: {"calls": 0, "units": 0, "incl_s": 0.0, "self_s": 0.0})
    for k, (name, start, end, parent, job, units) in enumerate(part):
        t = totals[name]
        t["calls"] += 1
        t["units"] += units
        t["incl_s"] += dur[k]
        t["self_s"] += dur[k] - child[lo + k]
    return dict(totals)
