"""Large-time directional amplitude of localized solutions.

For a localized solution u, the limit

    F(s, n) = lim_{t -> inf}  c t * u(t, (c t + s) n)

exists for every retarded offset s and unit direction n, and it
characterizes the pulse amplitude radiated along n.  A solution is
unidirectional along +z exactly when F vanishes on the whole backward
hemisphere (polar angle > pi/2); this module extracts F numerically
from any evaluator, provides the closed form for the quasi-spherical
family, and packages the vanishing test as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Evaluator, PulseParams, SpacetimePoint, evaluate_batch
from .numerics import ExtrapolationResult, ToleranceNotReached, limit_extrapolate
from .waveforms import Waveform

#: default ct ladder, in units of b, for forward-direction extraction
DEFAULT_SCHEDULE_CT = (1e2, 1e3, 1e4)

#: longer ladder used by the unidirectionality certificate: waveforms
#: with an oscillatory carrier decay on the backward hemisphere with a
#: non-polynomial phase, so the certificate relies on small |ct*u|
#: itself rather than on extrapolation order.
CERTIFICATE_SCHEDULE_CT = (1e5, 1e6, 1e7)


@dataclass(frozen=True)
class Direction:
    """Unit direction given by polar angle chi (from +z) and azimuth phi,
    or many when they are broadcastable numpy arrays."""

    chi: float
    phi: float = 0.0

    def __post_init__(self):
        if not np.all((0.0 <= self.chi) & (self.chi <= math.pi)):
            raise ValueError(f"chi must lie in [0, pi], got {self.chi}")
        if not np.all((0.0 <= self.phi) & (self.phi < 2.0 * math.pi)):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @classmethod
    def fan(cls, directions: Sequence["Direction"]) -> "Direction":
        """Single directions as one, along a leading axis that broadcasts
        against a trailing axis of s values."""
        return cls(np.array([[d.chi] for d in directions]),
                   np.array([[d.phi] for d in directions]))

    @property
    def unit_vector(self) -> tuple[float, float, float]:
        s = np.sin(self.chi)
        return (s * np.cos(self.phi), s * np.sin(self.phi), np.cos(self.chi))


def radiation_schedule(
    params: PulseParams, factors: Sequence[float] = DEFAULT_SCHEDULE_CT
) -> tuple[float, ...]:
    """Times t with ct = factor * b for each factor."""
    return tuple(f * params.b / params.c for f in factors)


def _ladder(
    evaluator: Evaluator, s, n: Direction, t_schedule: Sequence[float], c: float
) -> tuple[np.ndarray, np.ndarray]:
    """ct along the ladder and the samples ct * u(t, (ct+s) n), from one
    evaluator call; the samples carry a trailing axis over the ladder."""
    ts = np.array(t_schedule, dtype=float)
    if ts.ndim != 1 or ts.size < 3 or np.any(ts[1:] <= ts[:-1]):
        raise ValueError("t_schedule must be increasing with at least 3 entries")
    ct = c * ts
    r = ct + np.asarray(s, dtype=float)[..., None]
    if np.any(r <= 0.0):
        raise ValueError(f"need ct + s > 0 along the schedule, got {r.min()}")
    nx, ny, nz = (np.asarray(v)[..., None] for v in n.unit_vector)
    return ct, ct * evaluate_batch(evaluator, SpacetimePoint(ts, r * nx, r * ny, r * nz))


def farfield_numeric(
    evaluator: Evaluator,
    s: float,
    n: Direction,
    t_schedule: Sequence[float],
    c: float = 1.0,
) -> ExtrapolationResult:
    """Extrapolated limits of ct * u(t, (ct+s) n) along a time ladder.

    ``s`` and the angles of ``n`` broadcast against each other; the
    evaluator is called once, on every entry times the ladder.  The
    samples are extrapolated in h = 1/(ct); ``diverged`` flags the entries
    that do not settle, and ``stability`` gives every entry's spread.
    """
    ct, samples = _ladder(evaluator, s, n, t_schedule, c)
    return limit_extrapolate(1.0 / ct, samples)


def _forward_only(s, n: Direction, params: PulseParams, profile):
    """profile(arg, mu) with mu = cos chi and arg = (-s + i b (1 - mu))/mu
    on the forward hemisphere, zero for chi >= pi/2 (the equator itself
    carries no weight in the reconstruction integral, so it is assigned
    zero).  s and the angles of n broadcast against each other."""
    forward = np.less(n.chi, 0.5 * math.pi)
    mu = np.where(forward, np.cos(n.chi), 1.0)  # 1 stands in behind, masked below
    arg = (-np.asarray(s, dtype=float) + 1j * params.b * (1.0 - mu)) / mu
    return np.where(forward, profile(arg, mu), 0j)[()]


def farfield_analytic(
    s: float, n: Direction, params: PulseParams, w: Waveform
) -> complex:
    """Closed-form F for u = f(theta)/S:
    F = f((-s + i b (1 - cos chi)) / cos chi) / cos chi on the forward
    hemisphere and identically zero behind it."""
    return _forward_only(s, n, params, lambda arg, mu: w.eval(arg) / mu)


def farfield_deriv(
    s: float, n: Direction, params: PulseParams, w: Waveform
) -> complex:
    """d/ds of the closed-form F; zero on the backward hemisphere."""
    return _forward_only(s, n, params, lambda arg, mu: -w.deriv(arg) / (mu * mu))


def backward_direction_grid(count: int = 8) -> tuple[Direction, ...]:
    """Deterministic fan of backward directions, ending on the -z axis."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    for i in range(count):
        chi = 0.5 * math.pi + 0.5 * math.pi * (i + 1) / count
        phi = (2.0 * math.pi * i / count) % (2.0 * math.pi)
        out.append(Direction(min(chi, math.pi), phi))
    return tuple(out)


@dataclass(frozen=True)
class UnidirectionalityReport:
    passed: bool
    tol: float
    max_abs: float
    worst: dict  # {"chi", "phi", "s"} of max_abs
    schedule_t: tuple[float, ...]
    directions: tuple[dict, ...]  # chi, phi, max_abs_farfield, worst_s, status

    @property
    def margin(self) -> float:
        """tol / max |F|: how far below the tolerance the far field stays."""
        return self.tol / self.max_abs if self.max_abs > 0.0 else math.inf

    def as_dict(self) -> dict:
        return {"pass": self.passed, "tol": self.tol, "max_abs_farfield": self.max_abs,
                "margin": self.margin, "worst": self.worst,
                "schedule_t": list(self.schedule_t), "directions": list(self.directions)}


def unsettled(chi: float, s: float, spread: float) -> ToleranceNotReached:
    """The failure for a far-field entry whose extrapolants do not settle."""
    return ToleranceNotReached(f"far field along chi={float(chi)!r}, s={float(s)!r}: "
                               f"extrapolants do not settle (spread {spread:.3e})")


def check_unidirectional(
    evaluator: Evaluator,
    s_samples: Sequence[float],
    backward_directions: Sequence[Direction],
    tol: float,
    t_schedule: Sequence[float],
    c: float = 1.0,
) -> UnidirectionalityReport:
    """Certify that the far field vanishes on the backward hemisphere.

    One evaluator call covers every direction and s.  The ladder's
    |ct*u| is extrapolated rather than ct*u: the limit of |g| is
    |lim g|, and where a carrier turns ct*u ~ A h e^{i phi(h)} between
    ladder steps, its modulus stays smooth in h = 1/(ct).  An entry is
    undecided when its extrapolants diverge by more than ``tol``.  A
    settled |F| > tol FAILs the report; else an undecided entry raises
    ``ToleranceNotReached`` naming it, and PASS means max |F| <= tol.
    """
    s = np.asarray(s_samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need at least one s sample")
    for d in backward_directions:
        if d.chi <= 0.5 * math.pi:
            raise ValueError(f"direction chi={d.chi} is not in the backward hemisphere")

    ct, samples = _ladder(evaluator, s, Direction.fan(backward_directions), t_schedule, c)
    res = limit_extrapolate(1.0 / ct, np.abs(samples))
    undecided = res.diverged & (res.stability > tol)
    mags = np.where(undecided, 0.0, np.abs(res.value))  # (directions, s)
    per_direction, worst_s = mags.max(axis=1), mags.argmax(axis=1)
    i = int(per_direction.argmax())
    max_abs = float(per_direction[i])
    if max_abs <= tol and undecided.any():
        k, j = np.argwhere(undecided)[0]
        raise unsettled(backward_directions[k].chi, s[j], res.stability[k, j])

    directions = tuple({"chi": d.chi, "phi": d.phi, "max_abs_farfield": float(m),
                        "worst_s": float(s[j]), "status": "OK" if m <= tol else "FAIL"}
                       for d, m, j in zip(backward_directions, per_direction, worst_s))
    d = backward_directions[i]
    worst = {"chi": d.chi, "phi": d.phi, "s": float(s[worst_s[i]])}
    return UnidirectionalityReport(max_abs <= tol, tol, max_abs, worst,
                                   tuple(float(t) for t in t_schedule), directions)
