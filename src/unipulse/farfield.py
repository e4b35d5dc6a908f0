"""Large-time directional amplitude of localized solutions.

For a localized solution u, the limit

    F(s, n) = lim_{t -> inf}  c t * u(t, (c t + s) n)

exists for every retarded offset s and unit direction n, and it
characterizes the pulse amplitude radiated along n.  A solution is
unidirectional along +z exactly when F vanishes on the whole backward
hemisphere (polar angle > pi/2); this module extracts F numerically
from any evaluator, provides the closed form for the quasi-spherical
family, and packages the vanishing test as a certificate.

Both extractions sample one ladder.  With rho = (ct + s) sin chi,
S ~ ct |cos chi| sqrt(1 + 2 (ib - s sin^2 chi)/(ct cos^2 chi) + ...),
so ct * u expands in max(b, |s|)/(ct cos^2 chi), and each (direction, s)
entry runs ct = LADDER in those units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Evaluator, PulseParams, SpacetimePoint, evaluate_batch
from .numerics import ExtrapolationResult, ToleranceNotReached, limit_extrapolate
from .waveforms import Waveform

#: the far-field ladder: ct in units of max(b, |s|)/cos^2 chi, per entry
LADDER = (1e2, 1e3, 1e4)

#: directions closer to the equator are refused: their ladder would pass
#: ct = 1e10 max(b, |s|)
MIN_COS_CHI = 1e-3

#: larger offsets are refused: ct = 1e10 |s| squared in S^2 would overflow
MAX_ABS_S = 1e100

_STEPS = 1.0 / np.array(LADDER)  # the steps h every entry extrapolates in


@dataclass(frozen=True)
class Direction:
    """Unit direction given by polar angle chi (from +z) and azimuth phi,
    or many when they are broadcastable numpy arrays."""

    chi: float
    phi: float = 0.0

    def __post_init__(self):
        for name, ok, span in (("chi", (0.0 <= self.chi) & (self.chi <= math.pi), "[0, pi]"),
                               ("phi", (0.0 <= self.phi) & (self.phi < 2 * math.pi), "[0, 2*pi)")):
            if not (ok is True or np.all(ok)):  # float angles give a bool: skip slow np.all
                raise ValueError(f"{name} must lie in {span}, got {getattr(self, name)}")

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


def _ladder(evaluator: Evaluator, s, n: Direction, params: PulseParams) -> np.ndarray:
    """Samples ct * u(t, (ct+s) n) with a trailing axis over the ladder,
    from one evaluator call (ct >= 100 |s| keeps ct + s > 0).  An entry's
    steps 1/(ct) are _STEPS times a constant of its own, and Neville's
    limit at h = 0 does not change under that scaling, so one step vector
    extrapolates every entry.  A node past the float range raises
    ValueError naming its (chi, s) entry."""
    s = np.asarray(s, dtype=float)[..., None]
    chi = np.asarray(n.chi)[..., None]
    mu = np.abs(np.cos(chi))
    if np.any(mu < MIN_COS_CHI):
        raise ValueError(f"direction chi={float(chi[mu < MIN_COS_CHI][0])!r} has |cos chi| < "
                         f"{MIN_COS_CHI:g}: the far-field ladder would pass ct = 1e10 max(b, |s|)")
    with np.errstate(over="ignore"):  # a node past the float range is refused below
        ct = np.array(LADDER) * np.maximum(params.b, np.abs(s)) / (mu * mu)
        t, r = ct / params.c, ct + s
    lost = ~(np.isfinite(t) & np.isfinite(r))
    if lost.any():  # the first by direction, s and rung
        i = tuple(np.argwhere(lost)[0])
        chi_i, s_i = (float(np.broadcast_to(v, lost.shape)[i]) for v in (chi, s))
        raise ValueError(f"far field along chi={chi_i!r}, s={s_i!r}: the ladder node at "
                         f"t = {float(t[i])!r}, ct + s = {float(r[i])!r} leaves the float range")
    nx, ny, nz = (np.asarray(v)[..., None] for v in n.unit_vector)
    return ct * evaluate_batch(evaluator, SpacetimePoint(t, r * nx, r * ny, r * nz))


def farfield_numeric(
    evaluator: Evaluator, s: float, n: Direction, params: PulseParams
) -> ExtrapolationResult:
    """Extrapolated limits of ct * u(t, (ct+s) n) along the far-field ladder.

    ``s`` and the angles of ``n`` broadcast against each other; the
    evaluator is called once, on every entry times the ladder.
    ``diverged`` flags the entries that do not settle, and ``stability``
    gives every entry's spread.
    """
    return limit_extrapolate(_STEPS, _ladder(evaluator, s, n, params))


def farfield_analytic(
    s: float, n: Direction, params: PulseParams, w: Waveform
) -> complex:
    """Closed-form F for u = f(theta)/S:
    F = f((-s + i b (1 - cos chi)) / cos chi) / cos chi on the forward
    hemisphere and identically zero for chi >= pi/2 (the equator itself
    carries no weight in the plane-wave superposition, so it is
    assigned zero).  s and the angles of n broadcast against each other."""
    forward = np.less(n.chi, 0.5 * math.pi)
    mu = np.where(forward, np.cos(n.chi), 1.0)  # 1 stands in behind, masked below
    arg = (-np.asarray(s, dtype=float) + 1j * params.b * (1.0 - mu)) / mu
    return np.where(forward, w.eval(arg) / mu, 0j)[()]


def backward_direction_grid() -> tuple[Direction, ...]:
    """Deterministic fan of 8 backward directions, ending on the -z axis."""
    return tuple(Direction(0.5 * math.pi + 0.5 * math.pi * (i + 1) / 8, 2.0 * math.pi * i / 8)
                 for i in range(8))


@dataclass(frozen=True)
class UnidirectionalityReport:
    passed: bool
    tol: float
    max_abs: float
    worst: dict  # {"chi", "phi", "s"} of max_abs
    directions: tuple[dict, ...]  # chi, phi, max_abs_farfield, worst_s, status

    @property
    def margin(self) -> float:
        """tol / max |F|: how far below the tolerance the far field stays."""
        return self.tol / self.max_abs if self.max_abs > 0.0 else math.inf

    def as_dict(self) -> dict:
        return {"pass": self.passed, "tol": self.tol, "max_abs_farfield": self.max_abs,
                "margin": self.margin, "worst": self.worst,
                "schedule_ct": list(LADDER), "directions": list(self.directions)}


def unsettled(chi: float, s: float, spread: float) -> ToleranceNotReached:
    """The failure for a far-field entry whose extrapolants do not settle."""
    return ToleranceNotReached(f"far field along chi={float(chi)!r}, s={float(s)!r}: "
                               f"extrapolants do not settle (spread {spread:.3e})")


def check_unidirectional(
    evaluator: Evaluator,
    s_samples: Sequence[float],
    backward_directions: Sequence[Direction],
    tol: float,
    params: PulseParams,
) -> UnidirectionalityReport:
    """Certify that the far field vanishes on the backward hemisphere.

    One evaluator call covers every direction and s.  The ladder's
    |ct*u| is extrapolated rather than ct*u: the limit of |g| is
    |lim g|, and where a carrier turns ct*u ~ A h e^{i phi(h)} between
    ladder steps, its modulus stays smooth in h = 1/(ct).  An entry is
    undecided when its extrapolants diverge by more than ``tol``.  A
    settled |F| > tol FAILs the report; else an undecided entry raises
    ``ToleranceNotReached`` naming it, and PASS means max |F| <= tol.
    A direction's maximum and ``worst_s`` cover its settled entries; in
    a FAIL report a direction is FAIL past ``tol``, else UNDECIDED if
    any of its entries is, else OK.
    """
    s = np.asarray(s_samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need at least one s sample")
    for d in backward_directions:
        if d.chi <= 0.5 * math.pi:
            raise ValueError(f"direction chi={d.chi} is not in the backward hemisphere")

    samples = _ladder(evaluator, s, Direction.fan(backward_directions), params)
    res = limit_extrapolate(_STEPS, np.abs(samples))
    undecided = res.diverged & (res.stability > tol)
    mags = np.where(undecided, 0.0, np.abs(res.value))  # (directions, s)
    per_direction, worst_s = mags.max(axis=1), mags.argmax(axis=1)
    i = int(per_direction.argmax())
    max_abs = float(per_direction[i])
    if max_abs <= tol and undecided.any():
        k, j = np.argwhere(undecided)[0]
        raise unsettled(backward_directions[k].chi, s[j], res.stability[k, j])

    directions = tuple({"chi": d.chi, "phi": d.phi, "max_abs_farfield": float(m),
                        "worst_s": float(s[j]),
                        "status": "FAIL" if m > tol else "UNDECIDED" if u else "OK"}
                       for d, m, j, u in zip(backward_directions, per_direction, worst_s,
                                             undecided.any(axis=1)))
    d = backward_directions[i]
    worst = {"chi": d.chi, "phi": d.phi, "s": float(s[worst_s[i]])}
    return UnidirectionalityReport(max_abs <= tol, tol, max_abs, worst, directions)
