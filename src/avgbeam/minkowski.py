"""Flat-spacetime tensor algebra for beam dynamics.

Conventions
-----------
* Metric eta = diag(+1, -1, -1, -1), indices run over {0, 1, 2, 3}.
* Natural units, c = 1; charge-to-mass ratio is absorbed into the field
  tensor, so field entries carry 1/length.
* Coordinates: x0 is laboratory time, x2 is the longitudinal (beamline)
  axis, x1 and x3 are the horizontal and vertical transverse axes.
* 4-velocities are parameterized by proper time and live on the unit
  hyperboloid eta(y, y) = 1 with y0 >= 1.
* The electromagnetic field is stored in mixed form F^i_j (first index
  up).  The fully lowered tensor eta_ik F^k_j must be antisymmetric;
  mixed entries in the time row/column are therefore symmetric pairs.

All helpers accept plain ndarrays and operate on the trailing axes, so
they broadcast over leading batch dimensions where that is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import OffShell

# Signs of the diagonal metric; eta is its own inverse.
METRIC_SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])
ETA = np.diag(METRIC_SIGNATURE)

# Sorted index triples (m <= s <= l) used to build totally symmetric
# rank-3 velocity monomials exactly once per independent entry.
_SORTED_TRIPLES = [
    (m, s, l) for m in range(4) for s in range(m, 4) for l in range(s, 4)
]


def lower(vec):
    """Lower one index with the diagonal metric (also raises, eta^-1 = eta)."""
    return vec * METRIC_SIGNATURE


def minkowski_dot(a, b):
    """eta(a, b) evaluated in fixed component order a0 b0 - a1 b1 - a2 b2 - a3 b3."""
    return (
        a[..., 0] * b[..., 0]
        - a[..., 1] * b[..., 1]
        - a[..., 2] * b[..., 2]
        - a[..., 3] * b[..., 3]
    )


def norm_residual(y):
    """eta(y, y) - 1, the on-shell defect of a 4-velocity."""
    return minkowski_dot(y, y) - 1.0


# Shell rule: |eta(y,y) - 1| <= _SHELL_TOL * max(1, y0^2).  Scaled by y0^2
# because computing eta(y,y) at Lorentz factor gamma cancels terms of size
# gamma^2, so even a correctly rounded lift leaves a residual ~ gamma^2 eps.
_SHELL_TOL = 1e-12


def check_on_shell(y, exc=OffShell, label: str = "4-velocity"):
    """Raise ``exc`` unless |eta(y,y)-1| <= 1e-12 max(1, y0^2).

    y is one 4-velocity or an (n, 4) batch; for a batch the message names
    the first offending row.  A NaN residual fails.  Returns the largest
    residual.
    """
    y = np.asarray(y, dtype=float)
    res = np.abs(norm_residual(y))
    bad = np.flatnonzero(~(res <= _SHELL_TOL * np.maximum(1.0, y[..., 0] * y[..., 0])))
    if len(bad):
        a = int(bad[0])
        where = f"{label} {a}" if y.ndim > 1 else label
        raise exc(f"{where} off the unit hyperboloid: |eta(y,y)-1| = "
                  f"{np.ravel(res)[a]:.3e} > 1e-12 max(1, y0^2)")
    return float(np.max(res))


def velocity_monomials3(y):
    """Totally symmetric rank-3 monomial tensor y^m y^s y^l.

    Each independent entry (m <= s <= l) is computed once as
    (y[m] * y[s]) * y[l] and mirrored to all permutations, so the result
    is symmetric bit for bit.  Accepts a leading batch axis.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (4, 4, 4))
    for m, s, l in _SORTED_TRIPLES:
        val = (y[..., m] * y[..., s]) * y[..., l]
        for perm in set(permutations((m, s, l))):
            out[(Ellipsis,) + perm] = val
    return out


@dataclass(frozen=True)
class Connection3:
    """Connection coefficients Gamma^i_jk at a single event.

    coeffs has shape (4, 4, 4) indexed [i, j, k], units 1/length, and is
    stored exactly symmetric in the two lower slots: the constructor
    symmetrizes its input, which is the identity for already symmetric
    arrays.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.coeffs, dtype=float)
        if g.shape != (4, 4, 4):
            raise ValueError(f"connection coefficients must have shape (4,4,4), got {g.shape}")
        sym = 0.5 * (g + np.swapaxes(g, 1, 2))
        sym.setflags(write=False)
        object.__setattr__(self, "coeffs", sym)

    @classmethod
    def zero(cls) -> "Connection3":
        return cls(np.zeros((4, 4, 4)))

    def __add__(self, other: "Connection3") -> "Connection3":
        return Connection3(self.coeffs + other.coeffs)


@dataclass(frozen=True)
class FieldSample:
    """Mixed field tensor F^i_j and its spatial gradient at one event.

    grad holds the analytic derivatives with axes [l, i, j] meaning
    d_l F^i_j, units 1/length^2.  The lowered tensor eta_ik F^k_j must be
    antisymmetric exactly; hard-edged analytic elements satisfy this with
    zero rounding budget, so the check uses tolerance 0.
    """

    f_mixed: np.ndarray
    grad: np.ndarray = field(default=None)

    def __post_init__(self):
        f = np.asarray(self.f_mixed, dtype=float)
        if f.shape != (4, 4):
            raise ValueError(f"field tensor must have shape (4,4), got {f.shape}")
        g = self.grad
        g = np.zeros((4, 4, 4)) if g is None else np.asarray(g, dtype=float)
        if g.shape != (4, 4, 4):
            raise ValueError(f"field gradient must have shape (4,4,4), got {g.shape}")
        lowered = METRIC_SIGNATURE[:, None] * f
        if np.any(lowered + lowered.T != 0.0):
            raise ValueError("lowered field tensor eta_ik F^k_j is not antisymmetric")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "f_mixed", f)
        object.__setattr__(self, "grad", g)

    @property
    def lowered(self) -> np.ndarray:
        return METRIC_SIGNATURE[:, None] * self.f_mixed


def contract_geodesic(gamma: Connection3, u, v):
    """Gamma^i_jk u^j v^k, the quadratic form entering geodesic transport.

    Symmetric in (u, v) up to rounding because the lower slots are.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("ijk,j,k->i", gamma.coeffs, u, v)
