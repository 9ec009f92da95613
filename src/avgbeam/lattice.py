"""Hard-edged beamline elements and lattice field evaluation.

A lattice is an ordered list of elements occupying contiguous intervals
of the longitudinal coordinate x2, starting at 0.  Fields jump at the
element boundaries (hard-edge model).  All strengths are normalized so
that the charge-to-mass ratio is absorbed: b0 and e-type strengths carry
1/m, the quadrupole gradient b1 carries 1/m^2.  With unit spatial
momentum the bending radius of a dipole is rho = 1/b0.  An orbit of
spatial speed u covers path length l = u tau in proper time tau, and
in l it sees the rigidity-scaled strengths b0/u and b1/u: its radius
is u/b0, and the linear channels in l take the element with b0 and b1
divided by u.

Fields are in mixed form F^i_j (see minkowski module), given as their
nonzero entries: floats for one point, columns for a batch.  Magnetic
elements populate the spatial block, electric elements the symmetric
time row/column pairs.  Transverse field dependence enters through the
deviation 4-vector xi: quadrupole entries are linear in the transverse
offsets xi1 (horizontal) and xi3 (vertical), and the RF field is sampled
at the shifted phase w_rf * (x2 + xi2) with phase origin at the lattice
entry.  The integrators contract the entries and never build a dense
tensor; field_mixed, field_gradient and field_at scatter them into one.

Text format, one element per line, '#' comments::

    element <kind> length=<float> [b0=<float>] [b1=<float>]
            [e2=<float>] [e2_0=<float>] [w_rf=<float>]

with kinds drift, dipole, quad_dipole, skew_quad_dipole, const_e, rf.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field, fields
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
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if type(value) is not float:  # a float is kept as it is
                value = float(value)
                setattr(self, name, value)
            if not math.isfinite(value):
                raise NonFiniteValue(f"{self.kind} {name} must be finite, got {value}")
        if not self.length > 0.0:
            raise NegativeLength(f"element length must be positive, got {self.length}")

    @abstractmethod
    def field_entries(self, x2, xi):
        """Nonzero mixed entries (i, j, F^i_j) in row-major order.

        x2 is the longitudinal lattice coordinate (phase reference) and
        xi the deviation's four components.
        """

    def gradient_entries(self, x2, xi):
        """Nonzero analytic derivatives (l, i, j, d_l F^i_j), one per (i, j) in row-major order."""
        return ()  # constant-field elements

    def focusing(self, rho: float | None = None):
        """(K_h, K_v) of the linear transverse channels u'' + K u = 0.

        1/rho^2 enters as b0 * b0, or as 1/(rho * rho) when a bending
        radius rho is given.
        """
        raise UnsupportedElement(
            f"transverse channel defined only for bending elements, got '{self.kind}'"
        )


@functools.cache
def _field_names(cls) -> tuple:
    """The names of an element class's fields, length first, computed once per class."""
    return tuple(f.name for f in fields(cls))


def _inv_rho2(b0: float, rho: float | None) -> float:
    if rho is None:
        return b0 * b0
    inv = 1.0 / (rho * rho) if rho * rho > 0.0 else math.inf
    if not math.isfinite(inv):
        raise ZeroStrength(f"bending radius {rho} gives no finite 1/rho^2")
    return inv


@dataclass(eq=False)
class Drift(Element):
    kind = "drift"

    def field_entries(self, x2, xi):
        return ()


@dataclass(eq=False)
class Dipole(Element):
    """Constant vertical-bend field: F^1_2 = b0, F^2_1 = -b0."""

    kind = "dipole"
    b0: float

    def field_entries(self, x2, xi):
        return ((1, 2, self.b0), (2, 1, -self.b0))

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

    def field_entries(self, x2, xi):
        horiz = self.b0 - self.b1 * xi[1]
        vert = self.b1 * xi[3]
        return ((1, 2, horiz), (2, 1, -horiz), (2, 3, vert), (3, 2, -vert))

    def gradient_entries(self, x2, xi):
        return ((1, 1, 2, -self.b1), (1, 2, 1, self.b1), (3, 2, 3, self.b1), (3, 3, 2, -self.b1))

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

    def field_entries(self, x2, xi):
        horiz = self.b0 + self.b1 * xi[3]
        vert = self.b1 * xi[1]
        return ((1, 2, horiz), (2, 1, -horiz), (2, 3, vert), (3, 2, -vert))

    def gradient_entries(self, x2, xi):
        return ((3, 1, 2, self.b1), (3, 2, 1, -self.b1), (1, 2, 3, self.b1), (1, 3, 2, -self.b1))

    def focusing(self, rho=None):
        return _inv_rho2(self.b0, rho) + self.b1, -self.b1


@dataclass(eq=False)
class ConstantE(Element):
    """Uniform longitudinal electric field, symmetric pair F^0_2 = F^2_0 = e2."""

    kind = "const_e"
    e2: float

    def field_entries(self, x2, xi):
        return ((0, 2, self.e2), (2, 0, self.e2))


@dataclass(eq=False)
class RFCavity(Element):
    """Sinusoidal longitudinal field E2 = e2_0 sin(w_rf (x2 + xi2)).

    The phase argument is the lattice coordinate plus the longitudinal
    deviation, with origin at the lattice entry.
    """

    kind = "rf"
    e2_0: float
    w_rf: float

    def field_entries(self, x2, xi):
        amp = self.e2_0 * _numpy_float(np.sin, self.w_rf * (x2 + xi[2]))
        return ((0, 2, amp), (2, 0, amp))

    def gradient_entries(self, x2, xi):
        damp = self.e2_0 * self.w_rf * _numpy_float(np.cos, self.w_rf * (x2 + xi[2]))
        return ((2, 0, 2, damp), (2, 2, 0, damp))


def _numpy_float(ufunc, phase):
    """ufunc(phase) from numpy, a column for a column and a plain float for a float:
    one point keeps the bits a column entry gets, which math's functions may not."""
    out = ufunc(phase)
    return out if isinstance(out, np.ndarray) else float(out)


_BENDING_KINDS = (Dipole, NormalQuadDipole, SkewQuadDipole)


def curvature_radius(element: Element) -> float:
    """Design bending radius 1/b0 of a dipole-bearing element.

    Valid under the unit-spatial-momentum normalization, where a tracked
    reference orbit in a pure dipole has |d^2 X / dl^2| = b0.  At spatial
    speed u the radius is u/b0: pass the element with b0 and b1 divided
    by u.
    """
    if not isinstance(element, _BENDING_KINDS):
        raise UnsupportedElement(f"{element.kind} has no bending radius")
    if element.b0 == 0.0:
        raise ZeroStrength("bending radius undefined for b0 = 0")
    return 1.0 / element.b0


@dataclass(frozen=True)
class Lattice:
    """Nonempty element tuple laid end to end from x2 = 0; the lengths fix boundaries
    (exits, read-only), total_length and inner_edges (between elements, as floats)."""

    elements: tuple
    boundaries: np.ndarray = field(init=False, compare=False)
    total_length: float = field(init=False, compare=False)
    inner_edges: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("lattice needs at least one element")
        with np.errstate(over="ignore"):
            bounds = np.cumsum([e.length for e in self.elements])
        if not math.isfinite(bounds[-1]):
            raise NonFiniteValue(f"lattice total length must be finite, got {bounds[-1]}")
        bounds.setflags(write=False)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "total_length", float(bounds[-1]))
        object.__setattr__(self, "inner_edges", bounds[:-1].tolist())

    @classmethod
    def from_elements(cls, elements) -> "Lattice":
        return cls(tuple(elements))

    def element_index(self, x2):
        """Element index for each x2 (right-open intervals, end inclusive)."""
        idx = np.searchsorted(self.boundaries, x2, side="right")
        return np.minimum(idx, len(self.elements) - 1)

    def min_length(self) -> float:
        return min(e.length for e in self.elements)

    @functools.cached_property
    def drift_runs(self) -> tuple:
        """For each element, the index of the last drift in its run of consecutive
        drifts, -1 for an element that is no drift; formed on first use."""
        runs, last = [], -1
        for i in reversed(range(len(self.elements))):
            last = (i if last < 0 else last) if isinstance(self.elements[i], Drift) else -1
            runs.append(last)
        return tuple(reversed(runs))

    def in_drift_run(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] lies in [0, total_length] and inside one run of consecutive
        drifts, elements assigned as _entries assigns them; False when either is NaN."""
        if not (lo >= 0.0 and hi <= self.total_length):
            return False
        return bisect_right(self.inner_edges, hi) <= self.drift_runs[
            bisect_right(self.inner_edges, lo)]


def _entries(lattice: Lattice, x2, xi, method):
    """Entries from ``method`` of the element holding each x2 (a float, or a column).

    Every element a batch occupies is evaluated once on its points; across
    elements each entry becomes a column that is zero off its element.
    Raises OutOfLattice when any position is NaN or leaves [0, total_length].
    """
    lo, hi = (x2, x2) if isinstance(x2, float) else (float(x2.min()), float(x2.max()))
    if not (lo >= 0.0 and hi <= lattice.total_length):  # NaN fails both
        raise OutOfLattice(f"longitudinal position {hi if lo >= 0.0 else lo} "
                           f"outside [0, {lattice.total_length}]")
    first = bisect_right(lattice.inner_edges, lo)
    if lo == hi or first == bisect_right(lattice.inner_edges, hi):  # one element holds all
        return getattr(lattice.elements[first], method)(x2, xi)
    idx = lattice.element_index(x2)
    merged = {}
    for e in np.unique(idx):
        where = idx == e
        sub = [c[where] if isinstance(c, np.ndarray) else c for c in xi]
        for entry in getattr(lattice.elements[e], method)(x2[where], sub):
            merged.setdefault(entry[:-1], np.zeros(len(x2)))[where] = entry[-1]
    # row-major; two elements may share an (i, j) through different l,
    # but at any one point at most one of those entries is nonzero
    return tuple(key + (merged[key],) for key in sorted(merged, key=lambda k: k[-2:] + k[:-2]))


def field_entries(lattice: Lattice, x2, xi):
    """Nonzero mixed entries (i, j, F^i_j) at x2 with deviation components xi.

    One element evaluation per distinct element the points occupy; each
    point's values are bit for bit those of a float call.
    """
    return _entries(lattice, x2, xi, "field_entries")


def gradient_entries(lattice: Lattice, x2, xi):
    """Nonzero analytic derivatives (l, i, j, d_l F^i_j), as field_entries."""
    return _entries(lattice, x2, xi, "gradient_entries")


def _dense(lattice: Lattice, x2, xi, method, shape):
    x2 = np.asarray(x2, dtype=float)
    xi = np.broadcast_to(np.asarray(xi, dtype=float), x2.shape + (4,))
    out = np.zeros(x2.shape + shape)
    for entry in _entries(lattice, x2 if x2.ndim else float(x2), [xi[..., c] for c in range(4)],
                          method):
        out[(Ellipsis,) + entry[:-1]] += entry[-1]
    return out


def field_mixed(lattice: Lattice, x2, xi):
    """Dense mixed tensor F^i_j at positions x2 (scalar or (m,)) with deviations xi.

    The scatter of field_entries, for the tensor form of the connection
    and the gradient check; no integrator builds it.  Raises OutOfLattice
    when any position is NaN or leaves [0, total_length].
    """
    return _dense(lattice, x2, xi, "field_entries", (4, 4))


def field_gradient(lattice: Lattice, x2, xi):
    """Dense analytic derivatives d_l F^i_j, axes [..., l, i, j]; see field_mixed."""
    return _dense(lattice, x2, xi, "gradient_entries", (4, 4, 4))


def field_at(lattice: Lattice, x, xi=None) -> FieldSample:
    """FieldSample (tensor plus gradient) at event x with deviation xi."""
    x = np.asarray(x, dtype=float)
    xi = np.zeros(4) if xi is None else np.asarray(xi, dtype=float)
    return FieldSample(f_mixed=field_mixed(lattice, x[2], xi),
                       grad=field_gradient(lattice, x[2], xi))


# ---------------------------------------------------------------------------
# parsing

# each kind's class and the keys it takes after length
_KINDS = {cls.kind: (cls, _field_names(cls)[1:]) for cls in (Drift, Dipole, NormalQuadDipole,
                                                             SkewQuadDipole, ConstantE, RFCavity)}
# each kind's class and its keys, length first, each with its '='
_PREFIXES = {kind: (cls, tuple(f"{name}=" for name in _field_names(cls)))
             for kind, (cls, _) in _KINDS.items()}


def parse_lattice(text: str) -> Lattice:
    """Parse the element-per-line lattice format into a Lattice.

    A lattice repeats its cells, so each distinct line is read once
    (_read_line) and every line equal to it builds its element from the
    same class and values.
    """
    elements, read = [], {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        if raw not in read:
            read[raw] = _read_line(ln, raw)
        if read[raw]:
            cls, values = read[raw]
            elements.append(cls(*values))
    if not elements:
        raise ParseError(0, "lattice file defines no elements")
    return Lattice.from_elements(elements)


def _read_line(ln: int, raw: str):
    """(class, field values) of a line's element, None for a blank or comment line.

    A line giving its kind's keys once each in field order, length first,
    is read in one pass; any other, or one whose values are not all finite
    or whose length is not positive, goes through _checked_line.
    """
    tokens = raw.split("#", 1)[0].split()
    if not tokens:
        return None
    if tokens[0] == "element" and len(tokens) > 1 and tokens[1] in _PREFIXES:
        cls, prefixes = _PREFIXES[tokens[1]]
        try:
            values = [float(tok[len(p):]) for tok, p in zip(tokens[2:], prefixes)
                      if tok.startswith(p)]
        except ValueError:
            values = []
        # a finite sum means finite values; one that overflows takes the long way
        if len(values) == len(prefixes) == len(tokens) - 2 and math.isfinite(sum(values)) \
                and values[0] > 0.0:
            return cls, values
    return _checked_line(ln, tokens)


def _checked_line(ln: int, tokens):
    """(class, field values) of a line's tokens, checked key by key: ParseError,
    DuplicateKey or NegativeLength names the first fault and the line."""
    if tokens[0] != "element":
        raise ParseError(ln, f"expected 'element', got '{tokens[0]}'")
    if len(tokens) < 2:
        raise ParseError(ln, "missing element kind")
    kind = tokens[1]
    if kind not in _KINDS:
        raise ParseError(ln, f"unknown element kind '{kind}'")
    cls, param_names = _KINDS[kind]
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
    return cls, [length, *[kv[p] for p in param_names]]


def load_lattice(path) -> Lattice:
    with open(path) as fh:
        return parse_lattice(fh.read())


# ---------------------------------------------------------------------------
# piecewise profiles along the beamline (for linear optics)

def _aligned_grid(lattice: Lattice, step: float):
    """The grid k * step over the lattice and each sample's element, assigned by
    the rounded boundary index round(b / step) the alignment check accepts, so
    a boundary sample belongs downstream however k * step rounds against b."""
    if step <= 0.0:
        raise ValueError(f"profile step must be positive, got {step}")
    n = int(round(lattice.total_length / step))
    if n < 1 or abs(n * step - lattice.total_length) > 1e-9:
        raise MismatchedSampling(
            f"step {step} does not divide the lattice length {lattice.total_length}"
        )
    edges = lattice.boundaries[:-1]
    starts = np.round(edges / step)  # half to even, as round() rounds
    misaligned = np.flatnonzero(np.abs(starts * step - edges) > 1e-9)
    if len(misaligned):
        raise MismatchedSampling(f"element boundary at {lattice.inner_edges[misaligned[0]]} "
                                 f"is not aligned to step {step}")
    # element e owns the samples from its entry index to the next element's
    counts = np.diff(starts, prepend=0.0, append=n + 1.0).astype(int)
    return np.arange(n + 1) * step, np.repeat(np.arange(len(counts)), counts)


def _element_k(lattice: Lattice, plane: str) -> list:
    """Each element's constant K for the plane: focusing() of a bending element, else 0."""
    if plane not in ("horizontal", "vertical"):
        raise ValueError(f"plane must be 'horizontal' or 'vertical', got '{plane}'")
    axis = 0 if plane == "horizontal" else 1
    return [e.focusing()[axis] if isinstance(e, _BENDING_KINDS) else 0.0 for e in lattice.elements]


def _element_inv_rho(lattice: Lattice) -> list:
    """Each element's curvature 1/rho: b0 of a bending element, else 0."""
    return [e.b0 if isinstance(e, _BENDING_KINDS) else 0.0 for e in lattice.elements]


def transverse_k_profile(lattice: Lattice, plane: str, step: float):
    """Piecewise-constant focusing function K(l) sampled on a step grid.

    Each bending element contributes its focusing() strength for the
    plane (b0^2 for a dipole, b0^2 - b1 and +b1 for a normal, b0^2 + b1
    and -b1 for a skew gradient element), every other element 0.
    Boundary samples take the downstream value (right continuity); the
    grid must align with element boundaries.
    """
    grid, owner = _aligned_grid(lattice, step)
    return grid, np.array(_element_k(lattice, plane))[owner]


def inverse_rho_profile(lattice: Lattice, step: float):
    """Piecewise 1/rho(l) = b0 of bending elements, 0 elsewhere."""
    grid, owner = _aligned_grid(lattice, step)
    return grid, np.array(_element_inv_rho(lattice))[owner]


def optics_profiles(lattice: Lattice, plane: str, step: float):
    """(grid, K, 1/rho): transverse_k_profile and inverse_rho_profile from one grid walk."""
    grid, owner = _aligned_grid(lattice, step)
    return (grid, np.array(_element_k(lattice, plane))[owner],
            np.array(_element_inv_rho(lattice))[owner])
