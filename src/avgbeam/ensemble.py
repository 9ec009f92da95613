"""Weighted velocity ensembles and their hyperboloid moments.

A bunch is modeled as a weighted cloud of unit 4-velocities, a discrete
quadrature of the underlying one-particle distribution.  The invariant
measure on the mass shell is absorbed into the weights, so every moment
is a plain weighted average over the sample list:

    vol            = sum_a w_a
    first^i        = sum_a w_a y_a^i / vol
    third^{m s l}  = sum_a w_a y_a^m y_a^s y_a^l / vol

Reductions are performed in a fixed, documented order so results are bit
reproducible: sums run sequentially over the sample index (a cumulative
sum, left to right), and averaged quantities are accumulated relative to
the first sample,

    mean = q_0 + (sum_a w_a (q_a - q_0)) / vol,

which keeps a single-point (delta) ensemble exactly equal to its sample.
Third moments are computed once per sorted index triple and mirrored, so
the stored tensor is totally symmetric bit for bit.

Energy statistics follow the support of the cloud: ``energy`` is the
minimum Lorentz factor min_a y_a^0 and ``alpha`` the Euclidean diameter
max_{a,b} |y_a - y_b| over all four components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyEnsemble,
    InvalidCount,
    NonFiniteValue,
    OffShell,
    ParseError,
    ZeroWeight,
)
from .minkowski import _SORTED_TRIPLES, check_on_shell, velocity_monomials3


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum over the leading axis (documented reduction order)."""
    return float(np.cumsum(values)[-1])


def _shifted_mean(q: np.ndarray, ws: np.ndarray, vol: float):
    """Weighted mean over the last (sample) axis, each row summed in order relative to sample 0."""
    q0 = q[..., :1]
    return q0[..., 0] + np.cumsum(ws * (q - q0), axis=-1)[..., -1] / vol


def project_to_hyperboloid(spatial) -> np.ndarray:
    """Lift spatial 3-velocities onto the unit hyperboloid.

    Returns (sqrt(1 + ((v1^2 + v2^2) + v3^2)), v1, v2, v3) for one
    velocity of shape (3,) or a batch of shape (n, 3), which satisfies
    eta(y, y) = 1 up to rounding and y0 >= 1.  Every row is lifted with
    the same arithmetic, so batching does not change the bits.
    """
    v = np.asarray(spatial, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected 3 spatial components, got shape {v.shape}")
    s = (v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]) + v[..., 2] * v[..., 2]
    return np.concatenate([np.sqrt(1.0 + s)[..., None], v], axis=-1)


def _check_samples(ys: np.ndarray, ws: np.ndarray):
    """Shell, sheet and weight checks on (n, 4) samples; errors name the first bad one."""
    check_on_shell(ys, label="sample")
    bad = np.flatnonzero(ys[:, 0] < 1.0 - 1e-12)
    if len(bad):
        a = int(bad[0])
        raise OffShell(f"sample {a} has y0 = {ys[a, 0]} < 1, wrong hyperboloid sheet")
    bad = np.flatnonzero(~((ws >= 0.0) & (ws < math.inf)))  # NaN fails both
    if len(bad):
        a = int(bad[0])
        if not math.isfinite(ws[a]):
            raise NonFiniteValue(f"sample {a} weight must be finite, got {ws[a]}")
        raise ValueError(f"sample {a} weight must be nonnegative, got {ws[a]}")


@dataclass(frozen=True)
class VelocitySample:
    """One weighted support point of the velocity distribution."""

    y: np.ndarray
    w: float = 1.0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (4,):
            raise ValueError(f"4-velocity must have shape (4,), got {y.shape}")
        _check_samples(y[None, :], np.array([float(self.w)]))
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", float(self.w))


class BeamEnsemble:
    """Immutable weighted collection of on-shell velocity samples.

    Parameters
    ----------
    ys : array-like, shape (n, 4)
        Sample 4-velocities, each on the unit hyperboloid.
    ws : array-like, shape (n,), optional
        Nonnegative weights, default all ones.
    """

    def __init__(self, ys, ws=None):
        ys = np.array(ys, dtype=float)
        if ys.ndim != 2 or ys.shape[1] != 4:
            raise ValueError(f"ensemble velocities must have shape (n,4), got {ys.shape}")
        if len(ys) == 0:
            raise EmptyEnsemble("ensemble must contain at least one sample")
        ws = np.ones(len(ys)) if ws is None else np.array(ws, dtype=float)
        if ws.shape != (len(ys),):
            raise ValueError("weights must match the number of samples")
        _check_samples(ys, ws)
        ys.setflags(write=False)
        ws.setflags(write=False)
        self.ys = ys
        self.ws = ws

    def __len__(self) -> int:
        return len(self.ys)

    def sample(self, a: int) -> VelocitySample:
        return VelocitySample(self.ys[a].copy(), float(self.ws[a]))


@dataclass(frozen=True)
class MomentSet:
    """Zeroth, first and third velocity moments of an ensemble.

    third is totally symmetric; first[0] is the mean Lorentz factor and
    cannot drop below 1 for an on-shell ensemble.  No renormalization is
    applied: first is generally slightly inside the hyperboloid, and the
    identity eta_sl third^{m s l} = first^m holds only as a consequence
    of the samples being on shell, it is never assumed.
    """

    vol: float
    first: np.ndarray
    third: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=float)
        third = np.asarray(self.third, dtype=float)
        if first.shape != (4,) or third.shape != (4, 4, 4):
            raise ValueError("moment shapes must be (4,) and (4,4,4)")
        for name, value in (("vol", np.atleast_1d(self.vol)), ("first", first), ("third", third)):
            bad = value[~np.isfinite(value)]
            if bad.size:
                raise NonFiniteValue(f"moment {name} must be finite, got {bad[0]}")
        if not self.vol > 0.0:
            raise ZeroWeight(f"ensemble volume must be positive, got {self.vol}")
        if first[0] < 1.0 - 1e-9:
            raise ValueError(f"mean Lorentz factor {first[0]} < 1")
        first.setflags(write=False)
        third.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "third", third)


@dataclass(frozen=True)
class EnergyStats:
    """Support statistics: minimum Lorentz factor and velocity diameter."""

    energy: float
    alpha: float

    def __post_init__(self):
        if self.energy < 1.0 - 1e-12:
            raise ValueError(f"minimum Lorentz factor {self.energy} < 1")
        if self.alpha < 0.0:
            raise ValueError("support diameter cannot be negative")


def delta_moments(y) -> MomentSet:
    """Moments of a single-point distribution at 4-velocity y."""
    y = np.asarray(y, dtype=float)
    return MomentSet(vol=1.0, first=y.copy(), third=velocity_monomials3(y))


def compute_moments(ensemble: BeamEnsemble) -> MomentSet:
    """Weighted moments with the documented shifted sequential reduction."""
    return moments_from_arrays(ensemble.ys, ensemble.ws)


def moments_from_arrays(ys: np.ndarray, ws: np.ndarray) -> MomentSet:
    """Moment arithmetic on raw (n,4) velocity and (n,) weight arrays.

    Same reduction order as compute_moments; callers are responsible for
    the samples being on shell.
    """
    vol = _sequential_sum(ws)
    if vol <= 0.0:
        raise ZeroWeight("total ensemble weight is zero")

    first = _shifted_mean(ys.T, ws, vol)
    third = np.zeros((4, 4, 4))
    for m, s, l in _SORTED_TRIPLES:
        val = _shifted_mean((ys[:, m] * ys[:, s]) * ys[:, l], ws, vol)
        for perm in set(permutations((m, s, l))):
            third[perm] = val
    return MomentSet(vol=vol, first=first, third=third)


def energy_stats(ensemble: BeamEnsemble, chunk: int = 256) -> EnergyStats:
    """Exact support statistics; the diameter scan skips pairs that cannot win.

    With samples sorted by distance r to their mean, farthest first, a
    pair whose r_a + r_b (less a 1e-9 relative margin) cannot beat the
    best distance so far is skipped, by row blocks of ``chunk`` and by
    column suffixes.  Computed pairs sum the four squared differences in
    order from zero, so alpha is the all-pairs maximum bit for bit.
    """
    ys = ensemble.ys
    energy = np.min(ys[:, 0])

    centered = ys - ys.mean(axis=0)
    r = np.sqrt(np.sum(centered * centered, axis=1))
    order = np.argsort(-r, kind="stable")
    ys, r = ys[order], r[order]

    def max_d2(rows, cols):
        d2 = np.zeros((len(rows), len(cols)))
        for c in range(4):
            diff = rows[:, c : c + 1] - cols[None, :, c]
            d2 += diff * diff
        return float(np.max(d2))

    best = max_d2(ys[:1], ys)
    for start in range(0, len(ys), chunk):
        reach = math.sqrt(best) / (1.0 + 1e-9) - r[start]  # a partner needs r_b >= reach
        if r[start] < reach:
            break  # no pair among the remaining samples can beat best
        # columns before start were paired with these rows in earlier blocks;
        # r descends, so the partners in reach are a prefix of the rest
        stop = start + int(np.count_nonzero(r[start:] >= reach))
        best = max(best, max_d2(ys[start : start + chunk], ys[start:stop]))
    return EnergyStats(energy=float(energy), alpha=math.sqrt(best))


def _check_count(n) -> None:
    """Raise InvalidCount unless n is a positive integer sample count."""
    if n <= 0 or int(n) != n:
        raise InvalidCount(f"sample count must be a positive integer, got {n}")


def sample_gaussian_beam(mean_spatial, sigma, n: int, seed: int) -> BeamEnsemble:
    """Draw n unit-weight samples around a spatial mean velocity.

    Spatial components are drawn componentwise normal with the given
    sigmas and lifted onto the hyperboloid; sigma = 0 reproduces the mean
    exactly, giving a delta ensemble.  Sampling uses a seeded PCG64
    generator, so identical arguments give identical ensembles.
    """
    _check_count(n)
    mean_spatial = np.asarray(mean_spatial, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mean_spatial.shape != (3,) or sigma.shape != (3,):
        raise ValueError("mean and sigma must each have 3 spatial components")
    if np.any(sigma < 0.0):
        raise ValueError("sigma components must be nonnegative")
    rng = np.random.default_rng(seed)
    draws = mean_spatial + sigma * rng.standard_normal((int(n), 3))
    return BeamEnsemble(project_to_hyperboloid(draws))


# ---------------------------------------------------------------------------
# beam definition files (key=value lines)

@dataclass(frozen=True)
class BeamDefinition:
    """Parsed beam description: distribution family plus parameters."""

    distribution: str
    mean: np.ndarray
    sigma: np.ndarray | None = None
    n: int = 1
    seed: int = 0

    def central_velocity(self) -> np.ndarray:
        """Design 4-velocity: the stated spatial mean lifted on shell."""
        return project_to_hyperboloid(self.mean)


def parse_beam_definition(text: str) -> BeamDefinition:
    """Parse 'key=value' lines describing a beam.

    Keys: distribution (gaussian|delta), mean (three floats), and for
    gaussian beams sigma (three floats), n (int) and seed (int).
    '#' starts a comment; blank lines are skipped.
    """
    fields = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(ln, f"expected key=value, got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in fields:
            raise DuplicateKey(ln, f"duplicate key '{key}'")
        fields[key] = (ln, value)

    def take(key, required=True):
        """(line, value) of a key; a missing key reports line 0."""
        if key not in fields:
            if required:
                raise ParseError(0, f"missing required key '{key}'")
            return 0, None
        return fields.pop(key)

    ln, dist = take("distribution")
    if dist not in ("gaussian", "delta"):
        raise ParseError(ln, f"unknown distribution '{dist}'")
    mean = _parse_triplet(*take("mean"), "mean")
    if dist == "delta":
        ln, n = take("n", required=False)
        defn = BeamDefinition(distribution="delta", mean=mean,
                              n=_parse_int(ln, n, "n", 1) if n is not None else 1)
    else:
        sigma = _parse_triplet(*take("sigma"), "sigma", nonnegative=True)
        n = _parse_int(*take("n"), "n", 1)
        seed = _parse_int(*take("seed"), "seed", 0)
        defn = BeamDefinition(distribution="gaussian", mean=mean,
                              sigma=sigma, n=n, seed=seed)
    if fields:
        ln, _ = next(iter(fields.values()))
        raise ParseError(ln, f"unknown key '{next(iter(fields))}'")
    return defn


def _parse_triplet(ln: int, value: str, name: str, nonnegative: bool = False) -> np.ndarray:
    parts = value.split(",")
    if len(parts) != 3 or any(p.strip() == "" for p in parts):
        raise ParseError(ln, f"{name} needs 3 comma-separated floats, got '{value}'")
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(ln, f"non-numeric component in {name}: '{value}'") from None
    if not np.all(np.isfinite(vals)) or (nonnegative and np.any(vals < 0.0)):
        bound = "finite and nonnegative" if nonnegative else "finite"
        raise ParseError(ln, f"{name} must be {bound}, got '{value}'")
    return vals


def _parse_int(ln: int, value: str, name: str, minimum: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(ln, f"{name} must be an integer, got '{value}'") from None
    if n < minimum:
        raise ParseError(ln, f"{name} must be at least {minimum}, got {n}")
    return n


def realize_beam(defn: BeamDefinition) -> BeamEnsemble:
    """Instantiate the ensemble described by a beam definition."""
    if defn.distribution == "delta":
        y = project_to_hyperboloid(defn.mean)
        return BeamEnsemble(np.tile(y, (defn.n, 1)))
    return sample_gaussian_beam(defn.mean, defn.sigma, defn.n, defn.seed)
