"""Finite-difference verification that an evaluator solves the wave equation.

The residual of

    u_xx + u_yy + u_zz - (1/c^2) u_tt

is formed from central second differences with step h in every axis
(time steps h/c, i.e. step h in ct units), so a true solution shows an
O(h^2) residual while a non-solution keeps a fixed one.  The measured
convergence order is the log-log slope of |residual| against h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Evaluator, PulseParams, SpacetimePoint, evaluate_batch

_EPS = 2.220446049250313e-16

# stencil offsets in units of the step, (ct, x, y, z): the centre, then
# the +/- pairs of x, y, z and ct
_STENCIL = np.array([(0, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
                     (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1), (1, 0, 0, 0),
                     (-1, 0, 0, 0)], dtype=float).T


@dataclass(frozen=True)
class ResidualReport:
    """Residuals at a set of points with steps ``h``; every field has
    (or broadcasts to) the broadcast shape of the points and steps.
    ``rounding`` is 4 eps |u0| / h^2, the rounding scale of one second
    difference of the centre value u0."""

    h: float | np.ndarray
    residual: complex | np.ndarray
    field_scale: float | np.ndarray
    rounding: float | np.ndarray

    @property
    def normalized(self) -> float | np.ndarray:
        return abs(self.residual) / self.field_scale

    def order(self) -> float | np.ndarray:
        """Least-squares slope of log |residual| against log h along the
        trailing axis, where ``h`` is a strictly decreasing, roughly
        geometric ladder of at least three steps.  NaN where half or more
        of the residuals sit at the rounding floor, ten times the larger of
        4 eps ``field_scale`` and ``rounding``: no order exists there.
        """
        hs = np.asarray(self.h, dtype=float)
        if hs.ndim != 1 or hs.size < 3:
            raise ValueError(f"need a ladder of at least 3 step sizes, got {self.h}")
        if np.any(hs[1:] >= hs[:-1]):
            raise ValueError("step sizes must be strictly decreasing")
        mags = np.abs(self.residual)
        with np.errstate(over="ignore"):  # a floor past the float range floors every residual
            floored = np.sum(mags <= 10.0 * np.maximum(4.0 * _EPS * self.field_scale, self.rounding), -1)
        x = np.log(hs) - np.log(hs).mean()
        slope = (np.log(np.maximum(mags, 1e-300)) @ x) / (x @ x)
        return np.where(floored >= (hs.size + 1) // 2, np.nan, slope)[()]


class StepRefused(ValueError):
    """A step at which the stencil measures no residual (see ``wave_residual``)."""


def wave_residual(evaluator: Evaluator, p: SpacetimePoint, h: float, params: PulseParams) -> ResidualReport:
    """Second-order residual at the points of ``p`` with steps ``h``,
    which broadcast against each other: one evaluator call on every
    point and step times the 9 stencil nodes.

    ``field_scale`` is the magnitude of the largest term entering the
    residual sum (with a rounding-level floor), so the normalized
    residual is O(1) for a non-solution and O(h^2) for a solution.
    StepRefused names the first step that is not > 0, whose h/c or +/-
    node leaves the float range, whose node rounds to its centre, or whose
    h^2 is not a normal float; ValueError, the first whose second
    differences leave the float range.  Points are numbered row-major.
    """
    def refuse(bad, why):  # the first such step: in a decreasing ladder, the largest
        if bad.any():
            raise StepRefused(f"step {float(h.flat[np.argmax(bad)])!r} {why}")

    h = np.asarray(h, dtype=float)
    shape, coords = np.broadcast_shapes(p.shape, h.shape), [np.asarray(v) for v in (p.t, p.x, p.y, p.z)]
    number = np.broadcast_to(np.arange(np.prod(p.shape, dtype=int)).reshape(p.shape), shape)
    with np.errstate(over="ignore"):  # refused below
        dt, h2 = h / params.c, h * h
        refuse(~(h > 0.0), "is not > 0")
        refuse(~np.isfinite(dt), f"overflows h/c at c = {params.c!r}")
        nodes = [v[..., None] + s[..., None] * offsets
                 for v, s, offsets in zip(coords, (dt, h, h, h), _STENCIL)]
    lost = np.zeros((*shape, 4), np.int8)  # 1: a +/- node rounds to its centre, 2: one is not finite
    for a, (v, node, offsets) in enumerate(zip(coords, nodes, _STENCIL)):
        moved = node[..., offsets != 0]
        lost[..., a] = np.where(np.isfinite(moved).all(axis=-1), (moved == v[..., None]).any(axis=-1), 2)
    if lost.any():  # the first by point, step, then coordinate
        first = np.unravel_index(np.argmax(lost != 0), lost.shape)
        at, a = first[:-1], first[-1]
        raise StepRefused(f"step {float(np.broadcast_to(h, shape)[at])!r} "
                          f"{('rounds away', 'leaves the float range')[lost[first] - 1]} at point "
                          f"{number[at]}: {'txyz'[a]} +/- {'h/c' if a == 0 else 'h'} = "
                          f"{float(np.broadcast_to(coords[a], shape)[at])!r}")
    refuse(~((h2 >= np.finfo(float).tiny) & (h2 < np.inf)), "has h^2 outside the normal float range")
    u = evaluate_batch(evaluator, SpacetimePoint(*nodes))  # the centre, then the +/- pairs
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        terms = (u[..., 1::2] - 2.0 * u[..., :1] + u[..., 2::2]) / h2[..., None]
        residual = terms[..., 0] + terms[..., 1] + terms[..., 2] - terms[..., 3]
        rounding = 4.0 * _EPS * np.abs(u[..., 0]) / h2
        field_scale = np.maximum(np.abs(terms).max(axis=-1), np.maximum(rounding, 1e-300))
        lost = ~(np.isfinite(field_scale) & np.isfinite(np.abs(residual)))
    if lost.any():
        at = np.unravel_index(np.argmax(lost), lost.shape)
        raise ValueError(f"the second differences at point {number[at]} with step "
                         f"{float(np.broadcast_to(h, shape)[at])!r} leave the float range")
    return ResidualReport(h[()], residual[()], field_scale[()], rounding[()])


def convergence_order(evaluator: Evaluator, p: SpacetimePoint, h_list: Sequence[float],
                      params: PulseParams) -> float:
    """Least-squares slope of log |residual| versus log h at the points
    of ``p``, the ladder along a new trailing axis: ``ResidualReport.order``,
    so NaN where the residuals sit at the rounding floor.
    """
    ladder = SpacetimePoint(*(np.asarray(v)[..., None] for v in (p.t, p.x, p.y, p.z)))
    return wave_residual(evaluator, ladder, np.array(h_list, dtype=float), params).order()
