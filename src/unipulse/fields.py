"""Closed-form evaluation of the localized pulse family.

The family is built from the complexified radial root

    S = sqrt(c^2 (t + i tau)^2 - rho^2),   branch with Im S >= c tau,

whose on-axis value is c(t + i tau).  The basic solution is
u = 1/(S (S - z - i zeta)); the general family is u = f(theta)/S with
phase theta = S - z - i c tau and f any admissible waveform.  A
spherical reference solution f(R - ct)/R is provided as the
counterexample for directionality checks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ioformats import fmt_float, render_json, write_csv, write_text
from .numerics import (
    QuadratureResult,
    complex_sqrt_upper,
    integrate_adaptive,
    integrate_nested,
)
from .waveforms import Waveform

#: Maps a point to u.  A point whose coordinates are broadcastable
#: arrays maps to the array of u over every node (or to values that
#: broadcast to it); u is NaN at a pole.
Evaluator = Callable[["SpacetimePoint"], complex]

BATCH_BLOCK_BYTES = 640 * 1024  #: an ``evaluate_batch`` block's kernel temporaries, at 80 bytes a node


class SingularPoint(Exception):
    """An evaluator gave a non-finite value: the node sits at (or too
    close to) a pole of the solution, or a value there left the float
    range.  ``index`` locates the node in its batch (a grid index for
    ``sample_grid``) and ``point`` is the node itself."""

    def __init__(self, index: tuple[int, ...], point: "SpacetimePoint", value: complex):
        super().__init__(f"index {index}: non-finite u at {point}, where u = {value}")
        self.index = index
        self.point = point


@dataclass(frozen=True)
class PulseParams:
    """Physical constants of one pulse family.

    ``tau`` is the imaginary time shift (sets the duration scale),
    ``zeta`` the imaginary z shift (sets the focal shape).  The length
    b = c*tau is derived.  The family is free of singularities exactly
    when zeta < b.
    """

    c: float
    tau: float
    zeta: float = 0.0

    def __post_init__(self):
        for name in ("c", "tau", "zeta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"pulse parameter {name} must be finite, got {v}")
        if self.c <= 0.0:
            raise ValueError(f"wave speed c must be > 0, got {self.c}")
        if self.tau <= 0.0:
            raise ValueError(f"time shift tau must be > 0, got {self.tau}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"length b = c*tau must lie in (0, inf), got {self.b} "
                             f"at c = {self.c!r}, tau = {self.tau!r}")

    @property
    def b(self) -> float:
        return self.c * self.tau

    @property
    def regular(self) -> bool:
        return self.zeta < self.b


@dataclass(frozen=True, slots=True)
class SpacetimePoint:
    """One event (t, x, y, z), or many when the coordinates are
    broadcastable numpy arrays; the closed forms accept both."""

    t: float
    x: float
    y: float
    z: float

    @classmethod
    def from_cylindrical(cls, t: float, rho: float, z: float) -> "SpacetimePoint":
        if np.any(np.less(rho, 0.0)):
            raise ValueError(f"rho must be >= 0, got {np.min(rho)}")
        return cls(t, rho, 0.0, z)

    @property
    def shape(self) -> tuple[int, ...]:
        """Broadcast shape of the coordinates; () for one event."""
        return np.broadcast(self.t, self.x, self.y, self.z).shape

    def node(self, index: tuple[int, ...]) -> "SpacetimePoint":
        """The single event at ``index`` of the broadcast coordinates."""
        return SpacetimePoint(*(float(np.broadcast_to(v, self.shape)[index])
                                for v in (self.t, self.x, self.y, self.z)))

    @property
    def rho(self) -> float:
        return np.hypot(self.x, self.y)

    @property
    def radius(self) -> float:
        return np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)  # pow(., 0.5) may err an ulp


def complex_distance(p: SpacetimePoint, params: PulseParams) -> complex:
    """The root S with Im S >= c*tau; equals c(t + i tau) on the axis."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite nodes are redone below
        if np.isfinite(s := _root(params.c * p.t, params.b, p.x, p.y)).all():
            return s
    h = 2.0 ** -512  # a square overflowed: S is homogeneous of degree 1, so take it at h the size
    return np.where(np.isfinite(s), s, _root(params.c * (p.t * h), params.b * h, p.x * h, p.y * h) / h)[()]


def _root(ct, b, x, y):
    # (ct + ib)^2 - rho^2 in real arithmetic, in the order of Python's complex product:
    # numpy's vectorized complex product may fuse multiply-adds, and array nodes would round otherwise
    return complex_sqrt_upper((ct * ct - b * b - (x * x + y * y)) + 2j * ct * b)


def eval_simple_pulse(p: SpacetimePoint, params: PulseParams) -> complex:
    """u = 1 / (S (S - z - i zeta)).

    The denominator can only vanish for non-regular parameter sets
    (zeta >= b); u is NaN at such nodes.
    """
    s = complex_distance(p, params)
    # S (S - z - i zeta) in real arithmetic, in the order of Python's complex product, as in _root
    re, im = s.real - p.z, s.imag - params.zeta
    denom = np.empty(np.shape(re), complex)
    np.subtract(s.real * re, s.imag * im, out=denom.real)
    np.add(s.real * im, s.imag * re, out=denom.imag)
    u = 1.0 / np.where(abs(denom) < 1e-300, np.nan, denom)
    return u if np.isfinite(denom).all() else np.where(  # where |S|^2 overflowed, in two steps
        np.isfinite(denom), u, 1.0 / s / (s - p.z - 1j * params.zeta))[()]


def eval_quasi_spherical(p: SpacetimePoint, params: PulseParams, w: Waveform) -> complex:
    """u = f(theta)/S.  |S| >= b > 0, so no division singularity."""
    s = complex_distance(p, params)
    return w.eval(s - p.z - 1j * params.b) / s


def eval_spherical_reference(
    p: SpacetimePoint, params: PulseParams, w: Waveform, b_ref: float = 0.0
) -> complex:
    """Isotropic reference u = f(R - ct + i b_ref)/R.

    ``b_ref > 0`` shifts the waveform argument into the upper half-plane
    for waveforms that are only defined there; the default 0 is fine for
    the shipped families, which extend to the real axis.  u is NaN at
    the origin.
    """
    r = p.radius
    r = np.where(r < 1e-300, np.nan, r)
    return w.eval(r - params.c * p.t + 1j * b_ref) / r


def evaluate_batch(evaluator: Evaluator, point: SpacetimePoint) -> np.ndarray:
    """``evaluator(point)`` over every node of the broadcast point, as a
    complex128 array of ``point.shape``, a block at a time: slices of the
    first axis whose trailing slice fits ``BATCH_BLOCK_BYTES`` at 80 bytes
    a node, as many as fit (one at least), at each index of the axes
    before it.  The output is allocated after the first block's call, and
    a batch of one block keeps that call's array.  A non-finite value fails
    the batch: SingularPoint names the first in row-major order, by batch
    index.
    """
    shape, values, fits = point.shape, None, BATCH_BLOCK_BYTES // 80
    d = next((d for d in range(len(shape)) if math.prod(shape[d + 1:]) <= fits), 0)  # the cut axis
    n, per = math.prod(shape[d:d + 1]), math.prod(shape[d + 1:])  # 1, 1 for one node
    step = max(1, fits // per)  # cut-axis slices a block

    def block(v, at: tuple[slice, ...]):  # v at the slices ``at`` of the batch's leading axes
        a = len(shape) - np.ndim(v)  # v's axes align with the batch's last ones
        cut = tuple(s if np.shape(v)[j - a] > 1 else slice(None) for j, s in enumerate(at) if j >= a)
        return v[cut] if cut else v
    for outer in np.ndindex(shape[:d]):
        for lo in range(0, max(n, 1), step):
            at = (*(slice(i, i + 1) for i in outer), slice(lo, lo + step))[:len(shape)]
            nodes = SpacetimePoint(*(block(v, at) for v in (point.t, point.x, point.y, point.z)))
            with np.errstate(all="ignore"):  # non-finite nodes are reported below
                u = evaluator(nodes)
            if values is None:  # allocated after the first call; a batch of one block keeps its array
                values = np.asarray(u, complex) if np.shape(u) == shape else np.empty(shape, complex)
            (out := block(values, at))[...] = u
            if (bad := np.flatnonzero(~np.isfinite(out))).size:
                first = (*outer, lo) + (0,) * len(shape)  # the block's first node
                index = tuple(int(j) + k for j, k in zip(np.unravel_index(bad[0], out.shape), first))
                raise SingularPoint(index, point.node(index), values[index])
    return values


# --- structured grid sampling ------------------------------------------

AXIS_NAMES = ("t", "x", "y", "z", "rho")


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1, got {self.count}")
        if self.count > 1 and not self.stop > self.start:
            raise ValueError(f"axis {self.name}: stop must exceed start for count > 1")
        if self.name == "rho" and self.start < 0.0:
            raise ValueError(f"axis rho: start must be >= 0, got {self.start}")

    def values(self) -> np.ndarray:
        if self.count == 1:  # linspace spells -0.0 as 0.0
            return np.array([self.start])
        half = 0.5 if math.isinf(self.stop - self.start) else 1.0  # an inf span: halve the ends
        return np.linspace(half * self.start, half * self.stop, self.count) / half


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[AxisSpec, ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise ValueError(f"grid must have 1 to 3 axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        for k in self.fixed:
            if k not in AXIS_NAMES:
                raise ValueError(f"fixed coordinate {k!r} is not one of {AXIS_NAMES}")
            if k in names:
                raise ValueError(f"coordinate {k!r} is both an axis and fixed")
        used = set(names) | set(self.fixed)
        if "rho" in used and ("x" in used or "y" in used):
            raise ValueError("rho cannot be combined with x or y")
        if self.fixed.get("rho", 0.0) < 0.0:
            raise ValueError(f"fixed coordinate rho must be >= 0, got {self.fixed['rho']}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    def axis_values(self) -> dict[str, np.ndarray]:
        """Each axis's values, running along array dimension k for axis k."""
        ndim = len(self.axes)
        return {a.name: a.values().reshape([-1 if j == k else 1 for j in range(ndim)])
                for k, a in enumerate(self.axes)}

    def broadcast_point(self) -> SpacetimePoint:
        """Every node at once: axis k runs along array dimension k and
        fixed coordinates stay scalars.  rho is placed on the x axis."""
        coords = {**self.fixed, **self.axis_values()}
        return SpacetimePoint(
            coords.get("t", 0.0), coords.get("rho", coords.get("x", 0.0)),
            coords.get("y", 0.0), coords.get("z", 0.0),
        )


def pulse_comment(p: PulseParams) -> str:
    """The CSV comment line naming a pulse's constants."""
    return f"pulse: c={fmt_float(p.c)} tau={fmt_float(p.tau)} zeta={fmt_float(p.zeta)}"


@dataclass(frozen=True)
class FieldGrid:
    """Sampled complex field over a structured grid, with its provenance:
    the pulse, the waveform descriptor and the evaluator kind."""

    spec: GridSpec
    values: np.ndarray
    params: PulseParams
    waveform_desc: str
    evaluator_desc: str

    def __post_init__(self):
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.spec.shape}"
            )

    def write_csv(self, path) -> None:
        """Rows of axis coordinates, re(u), im(u), |u|, row-major order,
        under comments naming the provenance and the fixed coordinates."""
        comments = [pulse_comment(self.params), f"waveform: {self.waveform_desc}",
                    f"evaluator: {self.evaluator_desc}",
                    *(f"fixed: {k}={fmt_float(v)}" for k, v in sorted(self.spec.fixed.items()))]
        write_csv(path, comments, {**self.spec.axis_values(), "re,im,abs": self.values})

    def write_binary(self, json_path) -> None:
        """JSON header plus a sibling .bin: the values' own little-endian complex128 buffer."""
        json_path = os.fspath(json_path)
        bin_path = json_path + ".bin"
        header = {
            "axes": [{"name": a.name, "start": a.start, "stop": a.stop, "count": a.count}
                     for a in self.spec.axes],
            "fixed": dict(sorted(self.spec.fixed.items())),
            "waveform": self.waveform_desc,
            "evaluator": self.evaluator_desc,
            "pulse": {"c": self.params.c, "tau": self.params.tau, "zeta": self.params.zeta},
            "dtype": "complex128", "byte_order": "little", "order": "C",
            "shape": list(self.spec.shape), "data_file": os.path.basename(bin_path),
        }
        fh = open(bin_path, "wb")
        try:
            with fh:
                fh.write(np.ascontiguousarray(self.values, dtype="<c16"))
            write_text(json_path, render_json(header))
        except OSError:
            os.remove(bin_path)  # part of the data, or data without its header, is unreadable
            raise


def sample_grid(spec: GridSpec, evaluator: Evaluator, *, params: PulseParams, waveform_desc: str,
                evaluator_desc: str) -> FieldGrid:
    """Evaluate over the whole grid on its broadcast point, a block of
    leading-axis slices at a time (see ``evaluate_batch``); a non-finite node
    raises SingularPoint carrying its grid index.  The grid carries
    ``params``, the waveform descriptor and the evaluator kind into its files.
    """
    values = evaluate_batch(evaluator, spec.broadcast_point())
    return FieldGrid(spec, values, params, waveform_desc, evaluator_desc)


# --- field energy -------------------------------------------------------


def energy_estimate(
    t: float, params: PulseParams, w: Waveform, tol: float = 1e-4
) -> QuadratureResult:
    """Energy integral |du/d(ct)|^2 + |grad u|^2 over all space at time t.

    The analytic gradient of u = f(theta)/S is integrated in spherical
    coordinates through ``integrate_nested``.  Outside, y on [0, 2]
    gives the radius: r = c|t| + b y/(1-y) beyond the pulse shell for
    y < 1, and r = c|t| (1 - (1-x)^3) inside it for x = y - 1 (absent
    at t = 0), so that both ends of the range and the panel edge at
    y = 1 sit where the density changes scale.  Inside, the polar angle
    chi = (pi/2) s^3 clusters nodes at both axes, where the on-axis
    tails sit, and ends on the equator; the two hemispheres are one
    vector integrand, whose quadrature starts on panel edges at
    s = 1/8, 1/4 and 1/2, where its bisections toward the axis went one
    density call per level.

    While the pulse sits near the origin (c|t| <= 2b) the polar integrand
    is smooth on the scale of those panels, and the inner quadrature
    takes the sharper three-rule panel estimate (``integrate_adaptive``'s
    ``sharp``).  Later the pulse is a shell of width ~b at radius c|t|,
    whose polar features narrow as b/(c|t|) and can fall between the
    nodes of a panel that looks converged to all three rules; there the
    inner estimate stays QUADPACK's.  Once c|t| > 3b the outer rule also
    starts on an edge at y = 1.5, inside the shell (r = 0.875 c|t|).
    ``value`` is real; the error estimate is the outer rule's plus the
    outer-weighted inner ones (``integrate_nested``).  Raises
    ToleranceNotReached, naming the time, once the budget is spent, a
    target lies below the rounding floor, or the estimate exceeds
    max(tol E, tol).
    """
    b, ct = params.b, params.c * t
    shell, ct_ib_sq = abs(ct), ct * ct + b * b
    hemisphere = np.array([1.0, -1.0])[:, None, None]

    def density(y: np.ndarray) -> Callable:
        y = y[:, None]
        beyond = y < 1.0
        x = np.where(beyond, y, y - 1.0)
        r = np.where(beyond, shell + b * x / (1.0 - x), shell * (1.0 - (1.0 - x) ** 3))
        dr = np.where(beyond, b / (1.0 - x) ** 2, 3.0 * shell * (1.0 - x) ** 2)
        weight = 3.0 * math.pi**2 * r * r * dr  # 2 pi r^2 dr/dy times dchi/ds / s^2

        def f(s: np.ndarray) -> np.ndarray:
            chi = 0.5 * math.pi * s**3
            sin = np.sin(chi)
            rho, z = r * sin, hemisphere * (r * np.cos(chi))
            root = complex_distance(SpacetimePoint(t, rho, 0.0, 0.0), params)
            theta = root - z - 1j * b
            fp = w.deriv(theta)
            g = (fp - w.eval(theta) / root) / root
            # |grad u|^2 + |du/d(ct)|^2 with dS/d(ct) = (ct+ib)/S, dS/drho = -rho/S
            density = (np.abs(g) ** 2 * (ct_ib_sq + rho * rho) + np.abs(fp) ** 2) / np.abs(root) ** 2
            return density * (weight * s * s * sin)

        return f

    top = 2.0 if ct != 0.0 else 1.0
    edges = (1.0, 1.5) if shell > 3.0 * b else (1.0,)
    return integrate_nested(
        lambda g, tt: integrate_adaptive(g, 0.0, top, tt, 60_000, edges), density,
        lambda f, tt, n: integrate_adaptive(f, 0.0, 1.0, tt, n, (0.125, 0.25, 0.5), sharp=shell <= 2.0 * b),
        tol, 10_000_000, (f"energy at t={t!r}",))[0]
