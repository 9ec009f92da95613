"""Hard-edged beamline elements and lattice field evaluation.

A lattice is an ordered list of elements occupying contiguous intervals
of the longitudinal coordinate x2, starting at 0.  Fields jump at the
element boundaries (hard-edge model).  All strengths are normalized so
that the charge-to-mass ratio is absorbed: b0 and e-type strengths carry
1/m, the quadrupole gradient b1 carries 1/m^2.  With unit spatial
momentum the bending radius of a dipole is rho = 1/b0.

Field tensors are returned in mixed form F^i_j (see minkowski module).
Magnetic elements populate the spatial block, electric elements the
symmetric time row/column pairs.  Transverse field dependence enters
through the deviation 4-vector xi: quadrupole entries are linear in the
transverse offsets xi1 (horizontal) and xi3 (vertical), and the RF field
is sampled at the shifted phase w_rf * (x2 + xi2) with phase origin at
the lattice entry.

Text format, one element per line, '#' comments::

    element <kind> length=<float> [b0=<float>] [b1=<float>]
            [e2=<float>] [e2_0=<float>] [w_rf=<float>]

with kinds drift, dipole, quad_dipole, skew_quad_dipole, const_e, rf.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import (
    DuplicateKey,
    MismatchedSampling,
    NegativeLength,
    NonFiniteValue,
    OutOfLattice,
    ParseError,
    UnsupportedElement,
    ZeroStrength,
)
from .minkowski import FieldSample


@dataclass(eq=False)
class Element(ABC):
    """One beamline element of fixed length.

    The fields, in order, are the element's lattice-file keys and its
    constructor arguments; ``kind`` names it in the file.  Every field
    must be finite and the length positive.
    """

    kind: ClassVar[str] = ""
    length: float

    def __post_init__(self):
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not math.isfinite(value):
                raise NonFiniteValue(f"{self.kind} {f.name} must be finite, got {value}")
            setattr(self, f.name, value)
        if not self.length > 0.0:
            raise NegativeLength(f"element length must be positive, got {self.length}")

    @abstractmethod
    def write_field(self, F, x2, xi):
        """Add this element's mixed tensor entries into F (shape (...,4,4)).

        x2 is the longitudinal lattice coordinate (phase reference) and
        xi the deviation 4-vector; both broadcast over leading axes.
        """

    def write_grad(self, G, x2, xi):
        """Add analytic derivatives d_l F^i_j into G (shape (...,4,4,4))."""
        # constant-field elements contribute nothing

    def focusing(self, rho: float | None = None):
        """(K_h, K_v) of the linear transverse channels u'' + K u = 0.

        1/rho^2 enters as b0 * b0, or as 1/(rho * rho) when a bending
        radius rho is given.
        """
        raise UnsupportedElement(
            f"transverse channel defined only for bending elements, got '{self.kind}'"
        )


def _inv_rho2(b0: float, rho: float | None) -> float:
    return b0 * b0 if rho is None else 1.0 / (rho * rho)


@dataclass(eq=False)
class Drift(Element):
    kind = "drift"

    def write_field(self, F, x2, xi):
        pass


@dataclass(eq=False)
class Dipole(Element):
    """Constant vertical-bend field: F^1_2 = b0, F^2_1 = -b0."""

    kind = "dipole"
    b0: float

    def write_field(self, F, x2, xi):
        F[..., 1, 2] += self.b0
        F[..., 2, 1] += -self.b0

    def focusing(self, rho=None):
        return _inv_rho2(self.b0, rho), 0.0


@dataclass(eq=False)
class NormalQuadDipole(Element):
    """Combined-function dipole with a normal quadrupole gradient.

    Mixed entries: F^1_2 = b0 - b1 xi1 (and the antisymmetric partner),
    F^2_3 = b1 xi3, F^3_2 = -b1 xi3.
    """

    kind = "quad_dipole"
    b0: float
    b1: float

    def write_field(self, F, x2, xi):
        horiz = self.b0 - self.b1 * xi[..., 1]
        vert = self.b1 * xi[..., 3]
        F[..., 1, 2] += horiz
        F[..., 2, 1] += -horiz
        F[..., 2, 3] += vert
        F[..., 3, 2] += -vert

    def write_grad(self, G, x2, xi):
        G[..., 1, 1, 2] += -self.b1
        G[..., 1, 2, 1] += self.b1
        G[..., 3, 2, 3] += self.b1
        G[..., 3, 3, 2] += -self.b1

    def focusing(self, rho=None):
        return _inv_rho2(self.b0, rho) - self.b1, self.b1


@dataclass(eq=False)
class SkewQuadDipole(Element):
    """Combined-function dipole with a skew quadrupole gradient.

    Mixed entries: F^1_2 = b0 + b1 xi3, F^2_3 = b1 xi1 and antisymmetric
    partners; exchanging xi1 and xi3 maps the gradient entries onto the
    normal pattern (the (2,3) block exactly, the (1,2) block with the
    sign of b1 flipped).
    """

    kind = "skew_quad_dipole"
    b0: float
    b1: float

    def write_field(self, F, x2, xi):
        horiz = self.b0 + self.b1 * xi[..., 3]
        vert = self.b1 * xi[..., 1]
        F[..., 1, 2] += horiz
        F[..., 2, 1] += -horiz
        F[..., 2, 3] += vert
        F[..., 3, 2] += -vert

    def write_grad(self, G, x2, xi):
        G[..., 3, 1, 2] += self.b1
        G[..., 3, 2, 1] += -self.b1
        G[..., 1, 2, 3] += self.b1
        G[..., 1, 3, 2] += -self.b1

    def focusing(self, rho=None):
        return _inv_rho2(self.b0, rho) + self.b1, -self.b1


@dataclass(eq=False)
class ConstantE(Element):
    """Uniform longitudinal electric field, symmetric pair F^0_2 = F^2_0 = e2."""

    kind = "const_e"
    e2: float

    def write_field(self, F, x2, xi):
        F[..., 0, 2] += self.e2
        F[..., 2, 0] += self.e2


@dataclass(eq=False)
class RFCavity(Element):
    """Sinusoidal longitudinal field E2 = e2_0 sin(w_rf (x2 + xi2)).

    The phase argument is the lattice coordinate plus the longitudinal
    deviation, with origin at the lattice entry.
    """

    kind = "rf"
    e2_0: float
    w_rf: float

    def write_field(self, F, x2, xi):
        amp = self.e2_0 * np.sin(self.w_rf * (x2 + xi[..., 2]))
        F[..., 0, 2] += amp
        F[..., 2, 0] += amp

    def write_grad(self, G, x2, xi):
        damp = self.e2_0 * self.w_rf * np.cos(self.w_rf * (x2 + xi[..., 2]))
        G[..., 2, 0, 2] += damp
        G[..., 2, 2, 0] += damp


_BENDING_KINDS = (Dipole, NormalQuadDipole, SkewQuadDipole)


def curvature_radius(element: Element) -> float:
    """Design bending radius 1/b0 of a dipole-bearing element.

    Valid under the unit-spatial-momentum normalization, where a tracked
    reference orbit in a pure dipole has |d^2 X / dl^2| = b0.
    """
    if not isinstance(element, _BENDING_KINDS):
        raise UnsupportedElement(f"{element.kind} has no bending radius")
    if element.b0 == 0.0:
        raise ZeroStrength("bending radius undefined for b0 = 0")
    return 1.0 / element.b0


@dataclass(frozen=True)
class Lattice:
    """Ordered element list with cumulative boundary positions."""

    elements: tuple
    boundaries: np.ndarray
    total_length: float

    @classmethod
    def from_elements(cls, elements) -> "Lattice":
        elements = tuple(elements)
        if not elements:
            raise ValueError("lattice needs at least one element")
        bounds = np.cumsum([e.length for e in elements])
        bounds.setflags(write=False)
        return cls(elements=elements, boundaries=bounds,
                   total_length=float(bounds[-1]))

    def element_index(self, x2):
        """Element index for each x2 (right-open intervals, end inclusive)."""
        idx = np.searchsorted(self.boundaries, x2, side="right")
        return np.minimum(idx, len(self.elements) - 1)

    def min_length(self) -> float:
        return min(e.length for e in self.elements)


def _by_element(lattice: Lattice, x2):
    """Yield (element, where) once per distinct element the positions x2 occupy.

    ``where`` is Ellipsis when that element holds them all, else a mask.
    """
    if len(lattice.elements) == 1:
        yield lattice.elements[0], ...
        return
    idx = lattice.element_index(x2)
    first = idx.min()
    if first == idx.max():
        yield lattice.elements[first], ...
        return
    for e in np.unique(idx):
        yield lattice.elements[e], idx == e


def _lookup(lattice: Lattice, x2, xi, shape, method):
    """Evaluate ``method`` (write_field or write_grad) of the element at each x2.

    Returns an array of shape x2.shape + shape, zero where the element
    contributes nothing.  One element call per distinct element the batch
    occupies, written in place when that is a single element.
    """
    x2 = np.asarray(x2, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lo, hi = x2.min(), x2.max()
    if not (lo >= 0.0 and hi <= lattice.total_length):  # NaN fails both
        raise OutOfLattice(f"longitudinal position {hi if lo >= 0.0 else lo} "
                           f"outside [0, {lattice.total_length}]")
    out = np.zeros(x2.shape + shape)
    for element, where in _by_element(lattice, x2):
        if where is Ellipsis:
            getattr(element, method)(out, x2, xi)
        else:
            sub = np.zeros((int(np.count_nonzero(where)),) + shape)
            getattr(element, method)(sub, x2[where], xi[where])
            out[where] = sub
    return out


def field_mixed(lattice: Lattice, x2, xi):
    """Mixed tensor F^i_j at longitudinal positions x2 with deviations xi.

    Batched: x2 may be a scalar or shape (m,), xi shape (...,4).  Raises
    OutOfLattice when any position is NaN or leaves [0, total_length].
    Costs one element evaluation per distinct element the batch occupies;
    each point's value is bit for bit that of a scalar call.
    """
    return _lookup(lattice, x2, xi, (4, 4), "write_field")


def field_gradient(lattice: Lattice, x2, xi):
    """Analytic derivatives d_l F^i_j, axes [..., l, i, j]."""
    return _lookup(lattice, x2, xi, (4, 4, 4), "write_grad")


def field_at(lattice: Lattice, x, xi=None) -> FieldSample:
    """FieldSample (tensor plus gradient) at event x with deviation xi."""
    x = np.asarray(x, dtype=float)
    xi = np.zeros(4) if xi is None else np.asarray(xi, dtype=float)
    return FieldSample(f_mixed=field_mixed(lattice, x[2], xi),
                       grad=field_gradient(lattice, x[2], xi))


# ---------------------------------------------------------------------------
# parsing

_KINDS = {cls.kind: cls for cls in (Drift, Dipole, NormalQuadDipole,
                                   SkewQuadDipole, ConstantE, RFCavity)}


def parse_lattice(text: str) -> Lattice:
    """Parse the element-per-line lattice format into a Lattice."""
    elements = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "element":
            raise ParseError(ln, f"expected 'element', got '{tokens[0]}'")
        if len(tokens) < 2:
            raise ParseError(ln, "missing element kind")
        kind = tokens[1]
        if kind not in _KINDS:
            raise ParseError(ln, f"unknown element kind '{kind}'")
        cls = _KINDS[kind]
        param_names = [f.name for f in fields(cls)[1:]]
        kv = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise ParseError(ln, f"expected key=value, got '{tok}'")
            key, _, value = tok.partition("=")
            if key in kv:
                raise DuplicateKey(ln, f"duplicate key '{key}'")
            try:
                kv[key] = float(value)
            except ValueError:
                raise ParseError(ln, f"non-numeric value for '{key}': '{value}'") from None
            if not math.isfinite(kv[key]):
                raise ParseError(ln, f"non-finite value for '{key}': '{value}'")
        if "length" not in kv:
            raise ParseError(ln, "missing required key 'length'")
        length = kv.pop("length")
        if not length > 0.0:
            raise NegativeLength(f"line {ln}: element length must be positive, got {length}")
        missing = [p for p in param_names if p not in kv]
        if missing:
            raise ParseError(ln, f"kind '{kind}' requires key '{missing[0]}'")
        extra = [k for k in kv if k not in param_names]
        if extra:
            raise ParseError(ln, f"key '{extra[0]}' not valid for kind '{kind}'")
        elements.append(cls(length, *[kv[p] for p in param_names]))
    if not elements:
        raise ParseError(0, "lattice file defines no elements")
    return Lattice.from_elements(elements)


def load_lattice(path) -> Lattice:
    with open(path) as fh:
        return parse_lattice(fh.read())


# ---------------------------------------------------------------------------
# piecewise profiles along the beamline (for linear optics)

def _aligned_grid(lattice: Lattice, step: float) -> np.ndarray:
    if step <= 0.0:
        raise ValueError(f"profile step must be positive, got {step}")
    n = int(round(lattice.total_length / step))
    if n < 1 or abs(n * step - lattice.total_length) > 1e-9:
        raise MismatchedSampling(
            f"step {step} does not divide the lattice length {lattice.total_length}"
        )
    for b in lattice.boundaries[:-1]:
        k = round(float(b) / step)
        if abs(k * step - b) > 1e-9:
            raise MismatchedSampling(
                f"element boundary at {b} is not aligned to step {step}"
            )
    return np.arange(n + 1) * step


def transverse_k_profile(lattice: Lattice, plane: str, step: float):
    """Piecewise-constant focusing function K(l) sampled on a step grid.

    Each bending element contributes its focusing() strength for the
    plane (b0^2 for a dipole, b0^2 - b1 and +b1 for a normal, b0^2 + b1
    and -b1 for a skew gradient element), every other element 0.
    Boundary samples take the downstream value (right continuity); the
    grid must align with element boundaries.
    """
    if plane not in ("horizontal", "vertical"):
        raise ValueError(f"plane must be 'horizontal' or 'vertical', got '{plane}'")
    grid = _aligned_grid(lattice, step)
    axis = 0 if plane == "horizontal" else 1
    k = np.zeros(len(grid))
    for element, where in _by_element(lattice, grid):
        if isinstance(element, _BENDING_KINDS):
            k[where] = element.focusing()[axis]
    return grid, k


def inverse_rho_profile(lattice: Lattice, step: float):
    """Piecewise 1/rho(l) = b0 of bending elements, 0 elsewhere."""
    grid = _aligned_grid(lattice, step)
    inv = np.zeros(len(grid))
    for element, where in _by_element(lattice, grid):
        if isinstance(element, _BENDING_KINDS):
            inv[where] = element.b0
    return grid, inv
