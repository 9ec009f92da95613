"""Fixed-step integration of reference orbits and deviation transport.

Parameterization and units
--------------------------
Trajectories x(t) are parameterized by proper time t in meters (c = 1);
velocities v = dx/dt live on the unit hyperboloid.  Every integrator
here, and the ensemble oracle, advances x' = v, v' = accel(x, v) through
one classical fixed-step RK4 kernel that calls accel at t_k, twice at
t_k + h/2 and at t_k + h in every step, in that order, except where a
field-free step is one add (a coast through drifts, _rk4); a right-hand
side sees only the state it is handed, and an observer sees every grid
point.
A state is a list of parts, each advanced elementwise by the same
expressions: one orbit's parts are its components as plain floats, and
a cloud is one part, a (4, m) array whose rows are its components, one
entry per sample, so each update is one array operation; _rows_accel
hands the rows to a right-hand side written over four components.
No adaptive control, so identical inputs give identical output bytes.
The linear transverse and longitudinal channels have constant
coefficients inside one element (the longitudinal one takes a single
Lorentz factor per run) and are evaluated in closed form, as the
element's transfer map on the output grid; neither runs through the
kernel.

Moment transport
----------------
Averaged runs reuse the ensemble shape along the trajectory: the
centered deviations of the supplied moments from the monomials of the
launch velocity,

    D1 = first - v(0),      D3 = third - v(0) x v(0) x v(0),

are frozen, and the moment slots are rebuilt around the current velocity
as first = v + D1 and third = v x v x v + D3, at every right-hand-side
evaluation and at every point of a stored run (comoving_moments_along).
The rank-3 slot only ever enters contracted with two vectors, so it is
evaluated in closed form, without building the monomial tensor,

    third(a, b) = v eta(v, a) eta(v, b) + D3(a, b),

in the integrators, the offset integrands and the transport defect
alike; only the connections module builds the rank-3 tensor, as the
independent check.  Every moment-slot force (orbit, deviation transport,
transport defect, offset integrands) is assembled by one function from
the parts of Gamma(a, b) and by one for its moment part.  A point
(delta) ensemble has D identically zero, so an averaged run collapses
onto the single-particle geodesic bit for bit (the zero-deviation case
takes the same monomial code path as integrate_lorentz).

The force algebra is written once, over 4-sequences of components (the
field as its nonzero entries (i, j, F^i_j)), with every sum in a fixed
index order.  One orbit runs it on plain floats, which its right-hand
side receives and returns as lists; a batch (a cloud, a stored series)
on contiguous (n,) columns, one per component (a cloud's are the rows
of its one-part state).  A float rounds as one element of a column, so
batching does not change the bits.  The one exception is the direct
force form a = -F v sqrt(eta(v, v)) (_rhs_force, run through _orbit):
it takes one orbit's floats only, as its shell test and math.sqrt are
scalar, because no integrator uses it; it is acceptance criterion 04's
independent single-orbit reference for the connection form.  Each
function unpacks its components into locals once and writes its sums
out term by term, and a value one evaluation uses twice (eta(v, v),
F v, eta(first, v), the moment slot the Jacobi terms share) is formed
once, by the same operations that formed it twice; a product rounds
alike with its factors swapped (a_s a_l = a_l a_s, eta(a, b) =
eta(b, a)).  So every value keeps the operations and order of the
plain written-out algebra and floats and columns keep equal bits; the
sums are written out because indexing, not arithmetic, was most of the
interpreter's time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble import MomentSet
from .errors import (
    MismatchedGrid,
    MismatchedSampling,
    NonFiniteValue,
    OffShellInitial,
    OutOfLattice,
    StepTooLarge,
    UnsupportedElement,
)
from .lattice import (
    ConstantE,
    Element,
    Lattice,
    RFCavity,
    curvature_radius,
    field_entries,
    gradient_entries,
)
from .minkowski import check_on_shell, norm_residual, velocity_monomials3


@dataclass(frozen=True)
class TrajectoryState:
    """Event and 4-velocity at parameter value t."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class JacobiState:
    """Deviation vector and its rate at parameter value t."""

    t: float
    xi: np.ndarray
    dxi: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    step is the classical RK4 step in the run parameter (meters); it
    must be positive.  Trajectory runs evaluate the hard-edged field at
    the current position of every stage.
    """

    step: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"integrator step must be positive, got {self.step}")


@dataclass
class TrajectorySeries:
    """Trajectory samples on a uniform parameter grid."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self):
        return len(self.t)

    def state(self, k: int) -> TrajectoryState:
        return TrajectoryState(t=float(self.t[k]), x=self.x[k].copy(), v=self.v[k].copy())

    @property
    def final(self) -> TrajectoryState:
        return self.state(len(self.t) - 1)

    def norm_drift(self) -> float:
        """max_k |eta(v_k, v_k) - 1| over the run."""
        return float(np.max(np.abs(norm_residual(self.v))))


@dataclass
class JacobiSeries:
    """Deviation samples on a uniform parameter grid.

    decoupling_ok is False when |eta(Xdot, dxi)| exceeded 1e-2 |dxi|
    somewhere, the regime in which the transverse/longitudinal split
    loses meaning.
    """

    t: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray
    decoupling_ok: bool = True

    def __len__(self):
        return len(self.t)


@dataclass
class MomentsSeries:
    """Ensemble moments along a run's grid, in the comoving form.

    first = v + D1 at every grid point.  The third moment
    v x v x v + D3 is kept as the frozen D3 alone, four rows of sixteen
    as _frozen_slots gives it (None for a point ensemble); a consumer
    contracts it around the velocity of the run the series was built
    along (_comoving_third).
    """

    t: np.ndarray
    first: np.ndarray
    D3: list | None

    def __len__(self):
        return len(self.t)


TRAJECTORY_HEADER = "t,x0,x1,x2,x3,v0,v1,v2,v3"
JACOBI_HEADER = "t,xi0,xi1,xi2,xi3,dxi0,dxi1,dxi2,dxi3"
_BLOCK_ROWS = 1024  # rows per write, which bounds the bytes held at once
_UNLOADED = object()
_orjson = _UNLOADED  # imported by the first write, so that importing avgbeam does not pay for it


def _formatter():
    """The orjson module, or None where it is not installed."""
    global _orjson
    if _orjson is _UNLOADED:
        try:
            import orjson
        except ImportError:
            orjson = None
        _orjson = orjson
    return _orjson


def _repr_lines(rows):
    """CSV lines of a (rows, columns) float64 array, each value its float repr."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()]).encode()


def _block_lines(block, orjson):
    """The CSV lines of a block, byte for byte those of _repr_lines.

    The block is dumped by orjson flat, as one list of its values in
    row-major order, so the dump holds one comma between every two values
    and no other comma.  It is copied once into a bytearray, where every
    width-th comma, a row end, and the closing ']' are set to newlines in
    one scatter; the lines start past the opening '['.

    repr (Gay's dtoa) and orjson (Ryu) both write the shortest digits that
    round-trip, so only the layout differs, and it is mended in the bytes:

    - 1e-5 <= |x| < 1e-4, which orjson writes positionally (0.0000DDD)
      where repr writes D.DDDe-05, is dumped as NaN, which orjson writes
      as null and no finite value produces.  These cells are dumped
      together by one more orjson call, turned into repr's layout by a
      fixed chain of replacements (0.0000d -> d., e-05 after every cell,
      .e-05 -> e-05) and put back in row-major order by one split and join;
    - one-digit exponents, 1e-9 <= |x| < 1e-5, which repr pads (e-7 ->
      e-07), and the exponents of |x| >= 1e16, which repr signs (e16 ->
      e+16), get a '0' or a '+' inserted by one scatter over the body,
      placed from the cell ends (the commas); it runs only when the
      block holds such a cell;
    - all else, e-10 ... e-324 included, orjson writes as repr does.

    Every block is written by repr when orjson is not installed.  The
    block is finite (_write_rows), so no value of its own reaches null.
    """
    if orjson is None:
        return _repr_lines(block)
    size = np.abs(block)
    positional = (size >= 1e-5) & (size < 1e-4)
    plus = (size >= 1e16).reshape(-1)
    edit = plus | ((size >= 1e-9) & (size < 1e-5)).reshape(-1)
    spliced = None
    if positional.any():
        spliced = block[positional]
        block = np.where(positional, np.nan, block)
    width = block.shape[1]
    body = bytearray(orjson.dumps(block.reshape(-1), option=orjson.OPT_SERIALIZE_NUMPY))
    view = np.frombuffer(body, np.uint8)
    commas = np.flatnonzero(view == 44)
    view[commas[width - 1::width]] = 10  # ',' -> '\n'
    view[-1] = 10  # ']' -> '\n'
    if edit.any():
        edited = np.flatnonzero(edit)
        end = np.append(commas, len(view) - 1)[edited]
        signed = plus[edited]
        # before the last digit of e-D, or before the exponent of e16 ... e99
        # and of e100 ... e308, whose 'e' (101) sits one byte earlier
        at = np.where(signed, end - 2 - (view[end - 4] == 101), end - 1)
        at += np.arange(len(at))
        body = bytearray(len(view) + len(at))
        out = np.frombuffer(body, np.uint8)
        kept = np.ones(len(out), bool)
        kept[at] = False
        out[kept] = view
        out[at] = np.where(signed, 43, 48)  # '+' or '0'
    if spliced is not None:
        fixed = orjson.dumps(spliced, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        for d in b"123456789":
            fixed = fixed.replace(b"0.0000%c" % d, b"%c." % d)
        fixed = (fixed.replace(b",", b"e-05,") + b"e-05").replace(b".e-05", b"e-05")
        parts = body.split(b"null")
        cells = [b""] * (2 * len(parts) - 1)
        cells[::2] = parts
        cells[1::2] = fixed.split(b",")
        body = b"".join(cells)
    return memoryview(body)[1:]


def _write_rows(path, header, columns):
    """CSV of float64 columns, a block of rows per write, each value as its float repr.

    A non-finite value raises NonFiniteValue naming the first such row
    (from 0, in row-major order) and its column before the file is opened.
    """
    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.unravel_index(np.argmax(~finite), table.shape)
        raise NonFiniteValue(f"column {header.split(',')[col]} is {float(table[row, col])!r} "
                             f"at row {row}; no CSV written")
    orjson = _formatter()
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(table), _BLOCK_ROWS):
            fh.write(_block_lines(table[lo:lo + _BLOCK_ROWS], orjson))


def write_trajectory_csv(series: TrajectorySeries, path):
    _write_rows(path, TRAJECTORY_HEADER, [series.t, *series.x.T, *series.v.T])


def write_jacobi_csv(series: JacobiSeries, path):
    _write_rows(path, JACOBI_HEADER, [series.t, *series.xi.T, *series.dxi.T])


# ---------------------------------------------------------------------------
# the RK4 kernel

def _rk4(accel, x, v, h, n, observe):
    """Classical RK4 for x' = v, v' = accel(x, v) over n steps of h.

    A state is a list of parts, every update elementwise over the parts
    in one fixed order: one orbit's parts are its components as plain
    floats (eight for Jacobi), and a cloud is one part, a (4, m) array
    whose rows are its components, so each update is one array
    operation for the whole cloud.  A right-hand side written over four
    components runs on the floats directly and on the cloud through
    _rows_accel; elementwise operations round alike either way.
    Step k calls accel at t_k, t_k + h/2, t_k + h/2 and t_k + h in that
    order, each call returning a list of parts; observe(k, x, v) sees
    every grid point k = 0..n.  Parts are never changed in place.

    Coasting through drifts.  An accel may carry in_drift(x, v, h)
    (_drift_test): x2 and x2 + h v2 lie in [0, total_length] inside one
    run of consecutive drifts, which bounds the half-step position too,
    rounding being monotone.  The contract it rests on: an accel depends
    on the position only through the lattice lookup, which gives every
    drift the same empty field, and returns -0.0 there near the shell.
    When a step's first call is -0.0 in every part and h > 0, v + h/2
    (-0.0) is v bit for bit, every stage of a step that passes in_drift
    returns -0.0 again, and the step is x <- x + e, e = h/6 (v + 2 v +
    2 v + v), with v unchanged.  The kernel forms e once and adds it at
    each step that passes, calling no accel; the first step that fails
    runs the four stages, so edges and OutOfLattice come out as ever.
    h <= 0 never coasts: h/2 (-0.0) is +0.0 there and would flip a -0.0
    velocity component.
    """
    half = 0.5 * h
    sixth = h / 6.0
    in_drift = getattr(accel, "in_drift", None) if h > 0.0 else None
    observe(0, x, v)
    k = 0
    while k < n:
        a1 = accel(x, v)
        if in_drift is not None and _negative_zeros(a1) and in_drift(x, v, h):
            e = [sixth * (q + 2.0 * q + 2.0 * q + q) for q in v]
            while True:
                x = [p + d for p, d in zip(x, e)]
                k += 1
                observe(k, x, v)
                if k == n or not in_drift(x, v, h):
                    break
            continue
        v2 = [p + half * q for p, q in zip(v, a1)]
        a2 = accel([p + half * q for p, q in zip(x, v)], v2)
        v3 = [p + half * q for p, q in zip(v, a2)]
        a3 = accel([p + half * q for p, q in zip(x, v2)], v3)
        v4 = [p + h * q for p, q in zip(v, a3)]
        a4 = accel([p + h * q for p, q in zip(x, v3)], v4)
        x = [p + sixth * (q + 2.0 * r + 2.0 * s + u) for p, q, r, s, u in zip(x, v, v2, v3, v4)]
        v = [p + sixth * (q + 2.0 * r + 2.0 * s + u) for p, q, r, s, u in zip(v, a1, a2, a3, a4)]
        k += 1
        observe(k, x, v)


def _negative_zeros(parts) -> bool:
    """Whether every entry of every part (floats or arrays) is -0.0."""
    for p in parts:
        if isinstance(p, float):
            if p != 0.0 or math.copysign(1.0, p) > 0.0:
                return False
        elif p.any() or not np.signbit(p).all():
            return False
    return True


def _drift_test(lattice: Lattice):
    """in_drift(x, v, h) for an accel whose lookup reads x2 = x[2] (a float or a
    row): x2 and x2 + h v2 inside one run of drifts (Lattice.in_drift_run); None
    when the lattice holds no drift, so its runs pay nothing."""
    if max(lattice.drift_runs) < 0:
        return None

    def in_drift(x, v, h):
        start = x[2]
        end = start + h * v[2]
        if isinstance(start, float):
            lo, hi = (start, end) if start <= end else (end, start)
        else:  # np.minimum and np.maximum keep a NaN, which fails the test
            lo, hi = float(np.minimum(start, end).min()), float(np.maximum(start, end).max())
        return lattice.in_drift_run(lo, hi)

    return in_drift


def _rows_accel(rhs):
    """rhs, written over four components, as the accel of one-part (4, m) states:
    it gets the part's rows and its four returned rows are stacked.  rhs's
    in_drift is forwarded on the part."""

    def accel(x, v):
        return [np.array(rhs(x[0], v[0]))]

    test = getattr(rhs, "in_drift", None)
    if test is not None:
        accel.in_drift = lambda x, v, h: test(x[0], v[0], h)
    return accel


def _rk4_rows(accel, x0, v0, h, n):
    """Run the kernel and keep every grid point: arrays of shape (n+1, parts, ...)."""
    xs = np.empty((n + 1,) + np.shape(x0))
    vs = np.empty_like(xs)

    def observe(k, x, v):
        xs[k] = x
        vs[k] = v

    _rk4(accel, x0, v0, h, n, observe)
    return xs, vs


# ---------------------------------------------------------------------------
# the averaged-connection force, over 4-sequences of components

def _matvec(F, v):
    """F^i_j v^j from the nonzero entries (i, j, F^i_j) of F, each row summed in column order."""
    zero = 0.0 * v[0] + 0.0  # +0.0, or a column of it in a batch
    out = [zero, zero, zero, zero]
    for i, j, f in F:
        out[i] = out[i] + f * v[j]
    return out


def _mdot(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3


def _slot3(T, a, b):
    """T^{msl} a_s b_l with the metric signs on s, l; T[m] holds row m's sixteen, s-major.

    Each sign goes onto a_s b_l, which rounds exactly as onto T^{msl}.
    For b = a the mirrored products a_s a_l and a_l a_s are one product.
    """
    a0, a1, a2, a3 = a
    if b is a:
        p0, p5, p10, p15 = a0 * a0, a1 * a1, a2 * a2, a3 * a3
        p1 = p4 = -(a0 * a1)
        p2 = p8 = -(a0 * a2)
        p3 = p12 = -(a0 * a3)
        p6 = p9 = a1 * a2
        p7 = p13 = a1 * a3
        p11 = p14 = a2 * a3
    else:
        b0, b1, b2, b3 = b
        p0, p1, p2, p3 = a0 * b0, -(a0 * b1), -(a0 * b2), -(a0 * b3)
        p4, p5, p6, p7 = -(a1 * b0), a1 * b1, a1 * b2, a1 * b3
        p8, p9, p10, p11 = -(a2 * b0), a2 * b1, a2 * b2, a2 * b3
        p12, p13, p14, p15 = -(a3 * b0), a3 * b1, a3 * b2, a3 * b3
    out = []  # a loop, not a comprehension, keeps the products in fast locals
    for t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 in T:
        out.append(t0 * p0 + t1 * p1 + t2 * p2 + t3 * p3 + t4 * p4 + t5 * p5 + t6 * p6
                   + t7 * p7 + t8 * p8 + t9 * p9 + t10 * p10 + t11 * p11 + t12 * p12
                   + t13 * p13 + t14 * p14 + t15 * p15)
    return out


def _third(v, D3, a, b, c):
    """third(a, b) for third = v x v x v + D3, given c = eta(v, a) eta(v, b)."""
    v0, v1, v2, v3 = v
    if D3 is None:
        return [v0 * c, v1 * c, v2 * c, v3 * c]
    d0, d1, d2, d3 = _slot3(D3, a, b)
    return [v0 * c + d0, v1 * c + d1, v2 * c + d2, v3 * c + d3]


def _comoving_third(v, D3, a, b):
    """third(a, b) for third = v x v x v + D3, without building the tensor."""
    va = _mdot(v, a)
    return _third(v, D3, a, b, va * (va if b is a else _mdot(v, b)))


def _moment(first, third_ab, ab):
    """first eta(a, b) - third(a, b) from ab = eta(a, b): the slot F takes in 2 Gamma(a, b)."""
    f0, f1, f2, f3 = first
    t0, t1, t2, t3 = third_ab
    return [f0 * ab - t0, f1 * ab - t1, f2 * ab - t2, f3 * ab - t3]


def _gamma_of(Fa, fb, Fb, fa, FM):
    """Gamma(a, b) = 1/2 (Fa fb + Fb fa + FM) from its parts.

    Fa = F a, fb = eta(first, b), Fb = F b, fa = eta(first, a) and
    FM = F (first eta(a, b) - third(a, b)), the moment slot.  Fb is Fa,
    and fa equals fb, exactly when b = a; the two products are then one.
    """
    a0, a1, a2, a3 = Fa
    m0, m1, m2, m3 = FM
    if Fb is Fa:
        p0, p1, p2, p3 = a0 * fb, a1 * fb, a2 * fb, a3 * fb
        return [0.5 * (p0 + p0 + m0), 0.5 * (p1 + p1 + m1),
                0.5 * (p2 + p2 + m2), 0.5 * (p3 + p3 + m3)]
    b0, b1, b2, b3 = Fb
    return [0.5 * (a0 * fb + b0 * fa + m0), 0.5 * (a1 * fb + b1 * fa + m1),
            0.5 * (a2 * fb + b2 * fa + m2), 0.5 * (a3 * fb + b3 * fa + m3)]


def _gamma(F, first, third_ab, a, b):
    """Gamma(a, b) of the field connection with moment slots first, third.

    Gamma(a, b) = 1/2 [F a eta(first, b) + F b eta(first, a)
                       + F (first eta(a, b) - third(a, b))],
    third_ab being the rank-3 slot already contracted with a and b.  On
    the hyperboloid with point moments Gamma(v, v) = F v.
    """
    Fa, fb = _matvec(F, a), _mdot(first, b)
    FM = _matvec(F, _moment(first, third_ab, _mdot(a, b)))
    if b is a:
        return _gamma_of(Fa, fb, Fa, fb, FM)
    return _gamma_of(Fa, fb, _matvec(F, b), _mdot(first, a), FM)


def _geodesic_accel(F, v, D1, D3):
    """v' = -Gamma(v, v) with comoving slots; D1 None means a point ensemble.

    The point case keeps the monomial connection form -F v s(3 - s)/2,
    s = eta(v, v), which equals the force form on the hyperboloid; its
    factor is negated once, F v (-c) rounding as -(F v c).  In a
    field-free element (F = ()) every product with F is the +0.0 that
    _matvec starts its sums from, so on the shell with finite slots each
    component is -0.0, which lets the kernel coast through drifts (_rk4).
    """
    v0, v1, v2, v3 = v
    s = v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3
    if D1 is None:
        c = -(s * (3.0 - s) * 0.5)
        f0, f1, f2, f3 = _matvec(F, v)
        return [f0 * c, f1 * c, f2 * c, f3 * c]
    e0, e1, e2, e3 = D1
    first = [v0 + e0, v1 + e1, v2 + e2, v3 + e3]
    fv = _mdot(first, v)
    Fv = _matvec(F, v)
    FM = _matvec(F, _moment(first, _third(v, D3, v, v, s * s), s))
    g0, g1, g2, g3 = _gamma_of(Fv, fv, Fv, fv, FM)
    return [-g0, -g1, -g2, -g3]


def _directional(G, xi):
    """Entries (i, j, xi^l d_l F^i_j) from gradient entries (l, i, j, d_l F^i_j)."""
    return [(i, j, g * xi[l]) for l, i, j, g in G]


def _lookup_xi(x):
    """Deviation used for field lookup: the transverse offsets of the orbit."""
    return (0.0, x[1], 0.0, x[3])


def _rhs_force(lattice: Lattice):
    """Direct force form: a = -F v sqrt(eta(v, v)), for one orbit's floats only."""

    def rhs(x, v):
        s = _mdot(v, v)
        r = math.sqrt(s) if s >= 0.0 else math.nan  # nan off the shell, without a warning
        return [-f * r for f in _matvec(field_entries(lattice, x[2], _lookup_xi(x)), v)]

    rhs.in_drift = _drift_test(lattice)
    return rhs


def _rhs_geodesic(lattice: Lattice, D1=None, D3=None):
    """Connection form with comoving moment slots (monomial slots by default)."""

    def rhs(x, v):
        return _geodesic_accel(field_entries(lattice, x[2], _lookup_xi(x)), v, D1, D3)

    rhs.in_drift = _drift_test(lattice)
    return rhs


def _frozen_slots(moments: MomentSet, velocity):
    """(D1, D3) as floats for the comoving slots, (None, None) for an exact point ensemble."""
    D1, D3 = moment_deviations(moments, velocity)
    if not D1.any() and not D3.any():
        return None, None
    return D1.tolist(), D3.reshape(4, 16).tolist()


def _series_columns(series):
    """An (n, ...) series as contiguous columns, sample axis last."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(series, dtype=float), 0, -1))


def _grid(t0: float, t_end: float, step: float):
    """Step count, signed step and the uniform output grid from t0 towards t_end."""
    span = t_end - t0
    if span == 0.0 or not math.isfinite(span):
        raise ValueError(f"integration span must be finite and nonzero, got {span}")
    steps = abs(span) / step
    h = math.copysign(step, span)
    try:  # an infinite step count, or a grid past numpy's size limit or the memory
        n = max(int(math.ceil(steps - 1e-9)), 1)
        return n, h, t0 + np.arange(n + 1) * h
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"integration span {span!r} over step {step!r} overflows the step "
                         f"count: {steps:.6g} steps, more than a grid can hold") from None


def _uniform_step(t: np.ndarray) -> float:
    if len(t) < 2:
        raise ValueError("grid needs at least two points")
    h = float(t[1] - t[0])
    # a NaN or infinite step fails too
    if not np.abs(np.diff(t) - h).max() <= 1e-12 * max(1.0, abs(h)):
        raise ValueError("grid must be uniform")
    return h


def _check_common_grid(reference: TrajectorySeries, series, what="moment series"):
    if len(series) != len(reference) or not np.array_equal(series.t, reference.t):
        raise MismatchedGrid(f"{what} and reference are on different grids")


def _check_step(min_len: float, step: float):
    if step > min_len / 4.0 + 1e-15:
        raise StepTooLarge(
            f"step {step} exceeds a quarter of the shortest element length {min_len}"
        )


def _orbit(rhs, initial: TrajectoryState, t_end: float, step: float) -> TrajectorySeries:
    n, h, t = _grid(initial.t, t_end, step)
    xs, vs = _rk4_rows(rhs, np.reshape(initial.x, 4).astype(float).tolist(),
                       np.reshape(initial.v, 4).astype(float).tolist(), h, n)
    return TrajectorySeries(t=t, x=xs, v=vs)


def integrate_lorentz(lattice: Lattice, initial: TrajectoryState, t_end: float,
                      config: IntegratorConfig) -> TrajectorySeries:
    """Track the single-particle orbit through the lattice fields.

    The acceleration contracts the velocity-slot connection, which on the
    hyperboloid agrees with the direct force form _rhs_force.

    Raises OffShellInitial for an off-shell launch velocity and
    StepTooLarge when the step underresolves the shortest element.
    """
    check_on_shell(initial.v, exc=OffShellInitial, label="initial velocity")
    _check_step(lattice.min_length(), config.step)
    return _orbit(_rhs_geodesic(lattice), initial, t_end, config.step)


def moment_deviations(moments: MomentSet, velocity):
    """Centered moment deviations D1, D3 relative to a launch velocity."""
    vref = np.asarray(velocity, dtype=float)
    D1 = moments.first - vref
    D3 = moments.third - velocity_monomials3(vref)
    return D1, D3


def integrate_averaged_geodesic(lattice: Lattice, moments: MomentSet,
                                initial: TrajectoryState, t_end: float,
                                config: IntegratorConfig) -> TrajectorySeries:
    """Geodesic of the moment-averaged connection, slots comoving from the launch velocity."""
    check_on_shell(initial.v, exc=OffShellInitial, label="initial velocity")
    _check_step(lattice.min_length(), config.step)
    rhs = _rhs_geodesic(lattice, *_frozen_slots(moments, initial.v))
    return _orbit(rhs, initial, t_end, config.step)


def comoving_moments_along(series: TrajectorySeries, moments: MomentSet) -> MomentsSeries:
    """Moment series along a run, its deviations frozen at the run's first velocity."""
    D1, D3 = _frozen_slots(moments, series.v[0])
    first = series.v + (0.0 if D1 is None else D1)
    return MomentsSeries(t=series.t.copy(), first=first, D3=D3)


def _along_run(lattice: Lattice, curve: TrajectorySeries, moments_along: MomentsSeries):
    """Step, field entries, v and first along a run, as columns.

    The moment series must share the curve's grid (MismatchedGrid
    otherwise), and the grid must be uniform (ValueError otherwise).
    """
    _check_common_grid(curve, moments_along)
    h = _uniform_step(curve.t)
    x = _series_columns(curve.x)
    return (h, field_entries(lattice, x[2], _lookup_xi(x)), _series_columns(curve.v),
            _series_columns(moments_along.first))


# ---------------------------------------------------------------------------
# mean-field transport defect

_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_FORWARD = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def _series_derivative(q: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference d/dt of a sampled series."""
    n = len(q)
    if n < 5:
        raise MismatchedSampling("defect evaluation needs at least 5 grid points")
    dq = np.empty_like(q)
    for k in (0, 1):
        dq[k] = sum(c * q[k + j] for j, c in enumerate(_FD_FORWARD)) / h
    for k in (n - 2, n - 1):
        dq[k] = -sum(c * q[k - j] for j, c in enumerate(_FD_FORWARD)) / h
    body = (q[0:-4] * _FD_INTERIOR[0] + q[1:-3] * _FD_INTERIOR[1]
            + q[2:-2] * _FD_INTERIOR[2] + q[3:-1] * _FD_INTERIOR[3]
            + q[4:] * _FD_INTERIOR[4]) / h
    dq[2:-2] = body
    return dq


def mean_field_defect(lattice: Lattice, moments_along: MomentsSeries,
                      curve: TrajectorySeries):
    """Norm of the mean-velocity transport defect along a curve.

    Evaluates |dV/dt + Gamma(V, V)| with V the first-moment series and
    Gamma the moment-averaged connection at the sampled events; dV/dt
    uses fourth-order finite differences.  For a point ensemble riding
    its own geodesic this vanishes to integrator tolerance, and its
    magnitude scales with the squared support diameter of the ensemble.
    The moment series must be built along the curve (see _along_run for
    the grid checks); its third slot is contracted around the curve's v.
    """
    h, F, v, V = _along_run(lattice, curve, moments_along)
    gam = _gamma(F, V, _comoving_third(v, moments_along.D3, V, V), V, V)
    dV = _series_columns(_series_derivative(moments_along.first, h))
    d = [dV[c] + gam[c] for c in range(4)]
    return curve.t.copy(), np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3])


# ---------------------------------------------------------------------------
# deviation (Jacobi) transport along a reference run

def integrate_jacobi_full(lattice: Lattice, moments: MomentSet,
                          launch: TrajectoryState, initial: JacobiState,
                          t_end: float, config: IntegratorConfig) -> JacobiSeries:
    """Transport a deviation vector along the averaged geodesic from launch.

    Integrates the linearized geodesic deviation system
    ddxi + 2 Gamma(X)(dxi, Xdot) + xi^l d_l Gamma(X)(Xdot, Xdot) = 0
    with Gamma the moment-averaged connection and d_l Gamma taken through
    the analytic field gradients.  xi is a laboratory Cartesian vector;
    on a bend, Hill's x is its component along the reference's normal.
    The reference X is the curve integrate_averaged_geodesic returns for
    the same launch: it and the deviation advance as one stacked state
    of eight floats through the RK4 kernel, the reference with the same
    arithmetic as that run and both sharing one field lookup per stage.
    The grid runs from initial.t to t_end; launch.t must equal initial.t.

    The moment slots are comoving, first = Xdot + D1, as on the
    reference.  The kernel's observer records the deviation rows and the
    worst coupling |eta(Xdot, dxi)| / |dxi| behind the decoupling flag.
    """
    _check_step(lattice.min_length(), config.step)
    check_on_shell(launch.v, exc=OffShellInitial, label="launch velocity")
    if launch.t != initial.t:
        raise MismatchedSampling(
            f"deviation starts at t = {initial.t}, its reference launch at t = {launch.t}"
        )
    n, h, t = _grid(initial.t, t_end, config.step)

    D1, D3 = _frozen_slots(moments, launch.v)

    def accel(x, v):
        V, xi, dxi = v[:4], x[4:], v[4:]
        lookup = _lookup_xi(x)
        F = field_entries(lattice, x[2], lookup)
        dF = _directional(gradient_entries(lattice, x[2], lookup), xi)
        if D1 is None:
            first = V
        else:
            V0, V1, V2, V3 = V
            e0, e1, e2, e3 = D1
            first = [V0 + e0, V1 + e1, V2 + e2, V3 + e3]
        # eta(Xdot, Xdot), eta(Xdot, dxi), F Xdot, eta(first, Xdot) and the
        # moment slot of (Xdot, Xdot) enter several terms below; each is formed once
        s, w = _mdot(V, V), _mdot(V, dxi)
        FV, fV = _matvec(F, V), _mdot(first, V)
        slot = _moment(first, _third(V, D3, V, V, s * s), s)
        d0, d1, d2, d3 = _gamma_of(_matvec(F, dxi), fV, FV, _mdot(first, dxi),
                                   _matvec(F, _moment(first, _third(V, D3, dxi, V, w * s), w)))
        dFV = _matvec(dF, V)
        q0, q1, q2, q3 = _gamma_of(dFV, fV, dFV, fV, _matvec(dF, slot))
        if D1 is None:
            r0, r1, r2, r3 = _geodesic_accel(F, V, None, None)
        else:  # with a spread beam the reference's slots are the deviation's
            g0, g1, g2, g3 = _gamma_of(FV, fV, FV, fV, _matvec(F, slot))
            r0, r1, r2, r3 = -g0, -g1, -g2, -g3
        # -(2 Gamma(dxi, Xdot) + xi^l d_l Gamma(Xdot, Xdot))
        return [r0, r1, r2, r3, -(2.0 * d0 + q0), -(2.0 * d1 + q1),
                -(2.0 * d2 + q2), -(2.0 * d3 + q3)]

    accel.in_drift = _drift_test(lattice)

    xis = np.empty((n + 1, 4))
    dxis = np.empty((n + 1, 4))
    worst_coupling = 0.0

    def observe(k, x, v):
        nonlocal worst_coupling
        xis[k] = x[4:]
        dxis[k] = dxi = v[4:]
        V = v[:4]
        scale = math.sqrt(dxi[0] * dxi[0] + dxi[1] * dxi[1] + dxi[2] * dxi[2] + dxi[3] * dxi[3])
        if k and scale > 0.0:
            worst_coupling = max(worst_coupling, abs(_mdot(V, dxi)) / scale)

    x0 = np.concatenate([np.reshape(launch.x, 4), np.reshape(initial.xi, 4)]).astype(float)
    v0 = np.concatenate([np.reshape(launch.v, 4), np.reshape(initial.dxi, 4)]).astype(float)
    _rk4(accel, x0.tolist(), v0.tolist(), h, n, observe)
    return JacobiSeries(t=t, xi=xis, dxi=dxis, decoupling_ok=worst_coupling < 1e-2)


# ---------------------------------------------------------------------------
# closed-form linear channels (path-length parameterization)

def _hill_map(K, tau):
    """(C, C', S) of u'' + K u = 0 at offsets tau for a constant K, whose S' is C.

    C and S are the cosine-like and sine-like solutions, C(0) = S'(0) = 1
    and C'(0) = S(0) = 0: cos/sin for K > 0, cosh/sinh for K < 0, the
    drift for K == 0 (-0.0 included), and rows of nan for a non-finite K.
    K is a float, or an array the shape of tau giving each entry its own
    K; then each sign class is evaluated once over its own entries, every
    entry bit for bit the float call's.
    """
    if isinstance(K, np.ndarray):
        finite = np.isfinite(K)
        # three separate rows, not one (3, ...) block, each filled a row at a
        # time: a boolean index on both axes of a block is slower
        rows = tuple(np.full(np.shape(tau), math.nan) for _ in range(3))  # non-finite K: nan
        for sign, cls in ((1.0, finite & (K > 0.0)), (-1.0, finite & (K < 0.0)), (0.0, K == 0.0)):
            if cls.any():
                for row, value in zip(rows, _hill_class(sign, np.sqrt(np.abs(K[cls])), tau[cls])):
                    row[cls] = value
        return rows
    if not math.isfinite(K):
        return tuple(np.full(np.shape(tau), math.nan) for _ in range(3))
    return _hill_class(K, math.sqrt(abs(K)), tau)


def _hill_class(sign, w, tau):
    """_hill_map's (C, C', S) for K of the sign of the float ``sign``, w = sqrt|K|
    a float or a column along tau."""
    if sign == 0.0:
        return np.ones(np.shape(tau)), np.zeros(np.shape(tau)), tau
    if sign > 0.0:
        c, s = np.cos(w * tau), np.sin(w * tau)
        return c, -w * s, s / w
    c, s = np.cosh(w * tau), np.sinh(w * tau)
    return c, w * s, s / w


# Taylor coefficients of (sinh x - x)/x^3 in z = x^2 and of
# (e^-x - 1 + x)/x^2 in x: 1/(2j+3)! and (-1)^j/(j+2)!; for |z|, |x| < 1
# the terms left out are below 2e-18 of the sum
_SINH_EXCESS = [1.0 / math.factorial(2 * j + 3) for j in range(9)]
_EXP_EXCESS = [(-1.0) ** j / math.factorial(j + 2) for j in range(18)]


def _series_near_zero(direct, z, coefficients):
    """direct, its entries where |z| < 1 replaced by z sum_j coefficients[j] z^j."""
    near = np.abs(z) < 1.0
    z = z[near]
    acc = np.full_like(z, coefficients[-1])
    for c in reversed(coefficients[:-1]):
        acc = acc * z + c
    direct[near] = z * acc
    return direct


def _hill_excess(K, tau):
    """(C - 1, C', S - tau) of _hill_map(K, tau), each kept relatively accurate.

    C - 1 is -2 sin^2 or 2 sinh^2 of w tau / 2, and S - tau where
    |z| < 1, z = -K tau^2, is the series tau z sum_j z^j / (2j+3)!, so
    neither is a difference of nearly equal numbers.
    """
    if not math.isfinite(K) or K == 0.0:
        C, Cp, S = _hill_map(K, tau)
        return C - 1.0, Cp, S - tau
    w = math.sqrt(abs(K))
    if K > 0.0:
        half, s = np.sin(0.5 * w * tau), np.sin(w * tau)
        cm1, cp = -2.0 * half * half, -w * s
    else:
        half, s = np.sinh(0.5 * w * tau), np.sinh(w * tau)
        cm1, cp = 2.0 * half * half, w * s
    return cm1, cp, tau * _series_near_zero(s / (w * tau) - 1.0, -K * tau * tau, _SINH_EXCESS)


def _hill_rows(K, tau, u0, du0):
    """u and u' from the launch (u0, du0) through the map of constant K, S' = C."""
    C, Cp, S = _hill_map(K, tau)
    return C * u0 + S * du0, Cp * u0 + C * du0


def _channel(element: Element, initial: JacobiState, t_end: float, step: float):
    """(launch xi, launch dxi, offsets tau of grid points 1..n, a series with only row 0,
    the launch, filled) on a grid checked to stay on and resolve the element."""
    n, h, t = _grid(initial.t, t_end, step)
    start, end = initial.t, t[-1]
    if min(start, end) < -1e-9 or max(start, end) > element.length + 1e-9:
        raise OutOfLattice(f"grid [{start}, {end}] leaves element of length {element.length}")
    _check_step(element.length, step)
    out = JacobiSeries(t=t, xi=np.empty((n + 1, 4)), dxi=np.empty((n + 1, 4)))
    out.xi[0], out.dxi[0] = np.reshape(initial.xi, 4), np.reshape(initial.dxi, 4)
    return out.xi[0].tolist(), out.dxi[0].tolist(), np.arange(1, n + 1) * h, out


def integrate_transverse_linear(element: Element, rho: float | None,
                                initial: JacobiState, l_end: float,
                                config: IntegratorConfig) -> JacobiSeries:
    """Linear transverse deviation channels in path length l, in closed form.

    Every component obeys u'' + K u = 0 with constant K inside the
    element, (0, K_h, 0, K_v) with (K_h, K_v) = element.focusing(rho):
    (1/rho^2, 0) for a dipole, (1/rho^2 - b1, b1) for a normal gradient
    and (1/rho^2 + b1, -b1) for a skew gradient, so temporal and
    longitudinal components drift freely.  rho = None takes the design
    curvature, 1/rho^2 = b0^2.  Each grid row is the element's transfer
    map (_hill_map) applied to the launch, which row 0 holds bit for bit;
    a grid that ends past the element raises OutOfLattice.  A launch
    amplitude above a tenth of the bending radius (rho, or else 1/b0)
    warns; a pure gradient, b0 = 0 with rho None, has no radius and
    runs without that check.
    """
    kh, kv = element.focusing(rho)
    if l_end < initial.t:
        raise ValueError("path length must advance forward through the element")
    xi, dxi, tau, out = _channel(element, initial, l_end, config.step)
    amp = float(np.sqrt(initial.xi[1] ** 2 + initial.xi[3] ** 2))
    r_design = curvature_radius(element) if rho is None and element.b0 != 0.0 else rho
    if r_design is not None and amp > 0.1 * abs(r_design):
        warnings.warn(
            f"transverse amplitude {amp} exceeds a tenth of the bending radius "
            f"{r_design}; linearization is suspect", RuntimeWarning)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for i, K in enumerate((0.0, kh, 0.0, kv)):
            out.xi[1:, i], out.dxi[1:, i] = _hill_rows(K, tau, xi[i], dxi[i])
    return out


def integrate_longitudinal(element: Element, gamma: float, initial: JacobiState,
                           t_end: float, config: IntegratorConfig) -> JacobiSeries:
    """Longitudinal deviation dynamics for accelerating elements, in closed form.

    ConstantE: ddxi0 = ddxi2 = -e2 dxi2 (uniform field, no gradient):
    xi2 = xi2(0) + xi2'(0) (1 - e^(-e2 tau))/e2 and xi2' = xi2'(0)
    e^(-e2 tau).  RFCavity: ddxi2 = +2 gamma e2_0 xi2 and ddxi0 =
    -2 gamma e2_0 xi2, the linearized dynamics at the zero-crossing phase
    of the cavity, whose xi2 is the Hill map of K = -(2 gamma) e2_0.
    gamma is one Lorentz factor for the whole run, taken by float(), so
    a series raises TypeError.  Transverse components propagate freely.

    xi0 follows from xi2 algebraically, since ddxi0 = +-ddxi2 (+ for
    ConstantE, - for RFCavity): xi0 = xi0(0) + xi0'(0) tau
    +- (xi2 - xi2(0) - xi2'(0) tau).  The bracket and its derivative are
    formed from the map's own differences, xi2(0) (C - 1) + xi2'(0)
    (S - tau) (_hill_excess) or -xi2'(0) tau (e^(-x) - 1 + x)/x, not by
    subtracting from the rounded xi2, so xi0 stays relatively accurate
    where it is small against xi2(0).  Row 0 is the launch bit for bit;
    a grid that leaves the element raises OutOfLattice.
    """
    if not isinstance(element, (ConstantE, RFCavity)):
        raise UnsupportedElement(
            f"longitudinal channel defined only for const_e and rf, got '{element.kind}'"
        )
    gamma = float(gamma)
    xi, dxi, tau, out = _channel(element, initial, t_end, config.step)
    u0, du0 = xi[2], dxi[2]
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for i in (1, 3):
            out.xi[1:, i], out.dxi[1:, i] = _hill_rows(0.0, tau, xi[i], dxi[i])
        if isinstance(element, ConstantE):
            sign, x = 1.0, element.e2 * tau
            # (1 - e^(-x))/x, 1 where x is 0 (e2 == 0, or an e2 tau that underflows)
            em1 = np.expm1(-x)
            lag = np.divide(em1, -x, out=np.ones_like(x), where=x != 0.0)
            xi2, dxi2 = u0 + du0 * (tau * lag), du0 * np.exp(-x)
            bend = _series_near_zero((em1 + x) / x, x, _EXP_EXCESS)  # (e^-x - 1 + x)/x
            rise, drise = -du0 * (tau * bend), du0 * em1
        else:
            sign, K = -1.0, -((2.0 * gamma) * element.e2_0)
            xi2, dxi2 = _hill_rows(K, tau, u0, du0)
            cm1, cp, excess = _hill_excess(K, tau)
            rise, drise = cm1 * u0 + excess * du0, cp * u0 + cm1 * du0
        out.xi[1:, 2], out.dxi[1:, 2] = xi2, dxi2
        out.xi[1:, 0] = xi[0] + dxi[0] * tau + sign * rise
        out.dxi[1:, 0] = dxi[0] + sign * drise
    return out
