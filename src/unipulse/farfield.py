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

from .fields import Evaluator, PulseParams, SpacetimePoint
from .numerics import ExtrapolationUnstable, limit_extrapolate
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
    """Unit direction given by polar angle chi (from +z) and azimuth phi."""

    chi: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.chi <= math.pi:
            raise ValueError(f"chi must lie in [0, pi], got {self.chi}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @property
    def unit_vector(self) -> tuple[float, float, float]:
        s = math.sin(self.chi)
        return (s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.chi))


def radiation_schedule(
    params: PulseParams, factors: Sequence[float] = DEFAULT_SCHEDULE_CT
) -> tuple[float, ...]:
    """Times t with ct = factor * b for each factor."""
    return tuple(f * params.b / params.c for f in factors)


def farfield_numeric(
    evaluator: Evaluator,
    s: float,
    n: Direction,
    t_schedule: Sequence[float],
    c: float = 1.0,
) -> complex:
    """Extrapolated limit of ct * u(t, (ct+s) n) along a time ladder.

    The samples are extrapolated in h = 1/(ct); slow or oscillatory
    divergence raises ExtrapolationUnstable.
    """
    ts = [float(t) for t in t_schedule]
    if len(ts) < 3 or any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("t_schedule must be increasing with at least 3 entries")
    nx, ny, nz = n.unit_vector
    samples = []
    for t in ts:
        ct = c * t
        r = ct + s
        if r <= 0.0:
            raise ValueError(f"need ct + s > 0 along the schedule, got {r}")
        u = evaluator(SpacetimePoint(t, r * nx, r * ny, r * nz))
        samples.append((1.0 / ct, ct * u))
    return limit_extrapolate(samples).value


def farfield_analytic(
    s: float, n: Direction, params: PulseParams, w: Waveform
) -> complex:
    """Closed-form F for u = f(theta)/S.

    F = f((-s + i b (1 - cos chi)) / cos chi) / cos chi on the forward
    hemisphere and identically zero for chi >= pi/2 (the equator itself
    carries no weight in the reconstruction integral, so it is assigned
    zero).
    """
    if n.chi >= 0.5 * math.pi:
        return 0.0 + 0.0j
    mu = math.cos(n.chi)
    arg = complex(-s, params.b * (1.0 - mu)) / mu
    return complex(w.eval(arg)) / mu


def farfield_deriv(
    s: float, n: Direction, params: PulseParams, w: Waveform
) -> complex:
    """d/ds of the closed-form F; zero on the backward hemisphere."""
    if n.chi >= 0.5 * math.pi:
        return 0.0 + 0.0j
    mu = math.cos(n.chi)
    arg = complex(-s, params.b * (1.0 - mu)) / mu
    return -complex(w.deriv(arg)) / (mu * mu)


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
class UnidirEntry:
    chi: float
    phi: float
    max_abs: float
    worst_s: float
    status: str  # "OK" | "WARN"
    note: str = ""


@dataclass(frozen=True)
class UnidirectionalityReport:
    passed: bool
    tol: float
    max_abs: float
    worst_chi: float
    worst_phi: float
    worst_s: float
    schedule_t: tuple[float, ...]
    entries: tuple[UnidirEntry, ...]

    @property
    def margin(self) -> float:
        """tol / max |F|: how far below the tolerance the far field stays."""
        return self.tol / self.max_abs if self.max_abs > 0.0 else math.inf

    def as_dict(self) -> dict:
        return {
            "pass": self.passed,
            "tol": self.tol,
            "max_abs_farfield": self.max_abs,
            "margin": self.margin,
            "worst": {"chi": self.worst_chi, "phi": self.worst_phi, "s": self.worst_s},
            "schedule_t": list(self.schedule_t),
            "directions": [
                {
                    "chi": e.chi,
                    "phi": e.phi,
                    "max_abs_farfield": e.max_abs,
                    "worst_s": e.worst_s,
                    "status": e.status,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def check_unidirectional(
    evaluator: Evaluator,
    s_samples: Sequence[float],
    backward_directions: Sequence[Direction],
    tol: float,
    t_schedule: Sequence[float],
    c: float = 1.0,
) -> UnidirectionalityReport:
    """Certify that the far field vanishes on the backward hemisphere.

    PASS requires max |F| <= tol over the grid with no extrapolation
    warnings; unstable extrapolations become WARN entries that block the
    PASS rather than being silently dropped.
    """
    if not s_samples:
        raise ValueError("need at least one s sample")
    for d in backward_directions:
        if d.chi <= 0.5 * math.pi:
            raise ValueError(f"direction chi={d.chi} is not in the backward hemisphere")

    entries = []
    grid_max = 0.0
    worst = (0.0, 0.0, 0.0)
    all_ok = True
    for d in backward_directions:
        dir_max = -1.0
        dir_worst_s = s_samples[0]
        status, note = "OK", ""
        for s in s_samples:
            try:
                f = farfield_numeric(evaluator, s, d, t_schedule, c)
            except ExtrapolationUnstable as exc:
                status, note = "WARN", str(exc)
                all_ok = False
                continue
            if abs(f) > dir_max:
                dir_max, dir_worst_s = abs(f), s
        dir_max = max(dir_max, 0.0)
        entries.append(UnidirEntry(d.chi, d.phi, dir_max, dir_worst_s, status, note))
        if dir_max > grid_max:
            grid_max = dir_max
            worst = (d.chi, d.phi, dir_worst_s)

    passed = all_ok and grid_max <= tol
    return UnidirectionalityReport(
        passed, tol, grid_max, worst[0], worst[1], worst[2],
        tuple(float(t) for t in t_schedule), tuple(entries),
    )
