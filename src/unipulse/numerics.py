"""Low-level numerical kernels shared by every other module.

Provides the upper-half-plane complex square root, the Bessel function
J0, adaptive Gauss-Kronrod quadrature for complex-valued integrands on
finite and semi-infinite intervals and for nested double integrals, and
polynomial limit extrapolation for sequences v(h) -> v0 as h -> 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_EPS = 2.220446049250313e-16


class ToleranceNotReached(Exception):
    """Quadrature ran out of budget, or a limit did not settle, short of its tolerance.

    ``result`` holds the best estimate obtained so far (may be None for
    composite operations that cannot produce a partial value).
    """

    def __init__(self, message: str, result: "QuadratureResult | None" = None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class ExtrapolationResult:
    """Limits, the spread of their last two extrapolants, and which diverged."""

    value: complex | np.ndarray
    stability: float | np.ndarray
    diverged: bool | np.ndarray


def complex_sqrt_upper(w: complex | np.ndarray) -> complex | np.ndarray:
    """Square root of ``w`` on the branch with nonnegative imaginary part.

    Real w >= 0 maps to the nonnegative real root; real w < 0 maps to
    +i*sqrt(|w|).  Signed-zero imaginary parts are treated as zero so
    that values on the negative real axis never fall on the lower side
    of the cut.  One ``np.sqrt`` call over all entries; a scalar gives a
    numpy scalar, and non-finite entries propagate as NaN/Inf.
    """
    r = np.sqrt(np.asarray(w) + 0j)  # adding +0j turns an imaginary -0.0 into +0.0
    return np.where(r.imag < 0.0, -r, r)[()]


# --- Bessel J0 ---------------------------------------------------------
#
# Two regimes: a Maclaurin series below 8 and the Hankel large-argument
# form sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)] beyond,
# with P and Q evaluated from rational fits in 25/x^2 (coefficients from
# the public-domain Cephes library).  Absolute error stays below 1e-12
# for |x| <= 1e4.

_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ = (
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_SQ2OPI = 7.9788456080286535587989e-1


def _polevl(x, coef):
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


# Maclaurin coefficients of J0 in q = x^2/4, highest power first; the
# first omitted term is below 6e-21 for x < 8
_J0_SERIES = tuple((-1) ** k / math.factorial(k) ** 2 for k in range(24, -1, -1))


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _PP) / _polevl(q, _PQ)
    qq = _polevl(q, _QP) / _polevl(q, _QQ)
    xn = x - 0.25 * math.pi
    return _SQ2OPI * (p * np.cos(xn) - w * qq * np.sin(xn)) / np.sqrt(x)


def bessel_j0(x):
    """Bessel function of the first kind, order zero.  Even in x.

    A float gives a float; an array gives the array of values, each
    equal to the float call on that element.
    """
    x = np.abs(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError(
            f"bessel_j0 requires finite input, got {float(x[~np.isfinite(x)][0])!r}"
        )
    small = x < 8.0
    if small.all() or not small.any():  # one regime: no masking
        out = _polevl(0.25 * x * x, _J0_SERIES) if small.all() else _j0_hankel(x)
    else:
        out = np.empty_like(x)
        out[small] = _polevl(0.25 * x[small] ** 2, _J0_SERIES)
        out[~small] = _j0_hankel(x[~small])
    return float(out) if out.ndim == 0 else out


# --- adaptive Gauss-Kronrod quadrature ---------------------------------

# 15-point Kronrod nodes (nonnegative half) and weights, with the
# embedded 7-point Gauss rule on nodes 1, 3, 5 and the centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

DEFAULT_QUAD_BUDGET = 1_000_000

# the 15 nodes in ascending order with their Kronrod weights, and the
# Gauss weights on the same nodes (zero on the Kronrod-only ones)
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_W_KRONROD = np.array(list(_WGK) + [_WGK_CENTER] + list(_WGK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:7:2] = _W_GAUSS[13:7:-2] = _WG
_W_GAUSS[7] = _WG_CENTER


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod panels [lo[j], hi[j]], ``f`` called once on the
    array of all their nodes, shape (15 n,).  Returns (value, error,
    floor), each of the components' shape with a trailing axis of the n
    panels; ``floor`` is the rounding floor 50 eps resabs below which
    no error estimate falls."""
    hl = 0.5 * (hi - lo)
    n = hl.size
    fx = np.asarray(f(((0.5 * (lo + hi))[:, None] + hl[:, None] * _NODES).ravel()),
                    dtype=complex)
    if fx.shape[-1:] != (15 * n,):  # a constant broadcasts
        try:
            fx = np.broadcast_to(fx, (15 * n,))
        except ValueError:
            raise ValueError(f"integrand values of shape {fx.shape} lack a last axis "
                             f"of the {15 * n} nodes (15 per panel)") from None
    fx = fx.reshape(fx.shape[:-1] + (n, 15))
    sk = fx @ _W_KRONROD
    value = sk * hl
    bad = ~np.isfinite(value)
    if bad.any():
        j = int(np.flatnonzero(bad.reshape(-1, n).any(axis=0))[0])
        where = f" in component {tuple(np.argwhere(bad[..., j])[0].tolist())}"
        raise ValueError(f"integrand produced a non-finite value on "
                         f"[{float(lo[j])}, {float(hi[j])}]" + (where if value.ndim > 1 else ""))
    ahl = np.abs(hl)
    resabs = (np.abs(fx) @ _W_KRONROD) * ahl
    resasc = (np.abs(fx - 0.5 * sk[..., None]) @ _W_KRONROD) * ahl
    err = np.abs(sk - fx @ _W_GAUSS) * ahl
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = 50.0 * _EPS * resabs
    return value, np.maximum(err, floor), floor


def integrate_adaptive(
    f: Callable[[np.ndarray], complex | np.ndarray],
    a: float,
    b: float,
    tol: float,
    max_evals: int = DEFAULT_QUAD_BUDGET,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive bisection with a nested 7/15 Gauss-Kronrod rule.

    ``f`` is called on the array of the 15 nodes of every panel it is
    to evaluate: once on all initial panels, shape (15 n,), then once
    per bisection on the 30 nodes of both halves.  It returns values of
    that shape, or (..., 15 n) for a vector of integrands sharing the
    panels; each component must reach |error| <= max(tol * |value|,
    tol), and the panel with the largest component error is bisected
    next.  Value and error estimate are then arrays of the component
    shape (complex and float for a scalar integrand); ``evaluations``
    counts nodes times components.  ``breakpoints`` seed the initial
    panel edges (useful for known kinks).  Raises ToleranceNotReached,
    carrying the best estimate, once ``max_evals`` evaluations are
    spent, or once a component's summed rounding floor 50 eps resabs
    exceeds its target, which no bisection can lower.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"integration interval must satisfy a < b, got [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    heap, seq = [], 0

    def evaluate(los: list, his: list):
        """Panels [los[j], his[j]] in one integrand call, queued for
        bisection; returns their summed values, errors and floors."""
        nonlocal seq
        v, e, fl = _gk15(f, np.array(los), np.array(his))
        for j, (lo, hi) in enumerate(zip(los, his)):
            heapq.heappush(heap, (-np.max(e[..., j]), seq, lo, hi, v[..., j], e[..., j], fl[..., j]))
            seq += 1
        return v.sum(axis=-1), e.sum(axis=-1), fl.sum(axis=-1)

    edges = [a] + sorted({float(p) for p in breakpoints if a < p < b}) + [b]
    total, total_err, total_floor = evaluate(edges[:-1], edges[1:])
    per_panel = 15 * np.size(total)
    evals = per_panel * seq

    def best() -> QuadratureResult:
        if np.ndim(total) == 0:
            return QuadratureResult(complex(total), float(total_err), evals)
        return QuadratureResult(total, total_err, evals)

    if evals > max_evals:
        raise ToleranceNotReached(
            f"evaluation budget {max_evals} exhausted by the initial panels", best()
        )
    while True:
        target = np.maximum(tol * np.abs(total), tol)
        if not np.any(total_err > target):
            return best()
        if np.any(total_floor > target):
            i = int(np.argmax(total_floor / target))
            where = (f" of component {tuple(map(int, np.unravel_index(i, np.shape(total))))}"
                     if np.ndim(total) else "")
            raise ToleranceNotReached(
                f"error floor 50·eps·resabs {np.ravel(total_floor)[i]:.3e}{where} exceeds its "
                f"target {np.ravel(target)[i]:.3e}; no bisection can lower it", best())
        if not heap:
            raise ToleranceNotReached("no panel can be refined further", best())
        if evals + 2 * per_panel > max_evals:
            raise ToleranceNotReached(f"evaluation budget {max_evals} exhausted (error "
                                      f"estimate {np.max(total_err):.3e})", best())
        _, _, lo, hi, val, err, floor = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi) or (hi - lo) < 1e-15 * (b - a):
            continue  # too narrow to split further
        v, e, fl = evaluate([lo, mid], [mid, hi])
        evals += 2 * per_panel
        total = total + (v - val)
        total_err = total_err + (e - err)
        total_floor = total_floor + (fl - floor)


def integrate_semi_infinite(
    f: Callable[[np.ndarray], complex | np.ndarray],
    tol: float,
    decay_hint: float,
    max_evals: int = DEFAULT_QUAD_BUDGET,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [0, inf) assuming |f(x)| <= C exp(-decay_hint*x).

    Uses the substitution u = 1 - exp(-decay_hint*x), which maps the
    half-line onto [0, 1) and turns the exponential tail into a bounded
    integrand, then delegates to :func:`integrate_adaptive` (same contract).
    """
    if not decay_hint > 0.0:
        raise ValueError(f"decay_hint must be positive, got {decay_hint}")
    lam = float(decay_hint)

    def transformed(u: np.ndarray) -> np.ndarray:
        return f(-np.log1p(-u) / lam) / (lam * (1.0 - u))

    mapped = tuple(-math.expm1(-lam * p) for p in breakpoints if p > 0.0)
    return integrate_adaptive(transformed, 0.0, 1.0, tol, max_evals, mapped)


def integrate_nested(outer: Callable, inner: Callable, tol: float, max_evals: int,
                     what: str) -> QuadratureResult:
    """The nested integral of the four reconstruction routes and of the
    field energy: ``outer(g, 0.5 tol)`` runs the outer rule on ``g``.
    For the outer nodes x of one call of ``g`` (all initial panels, then
    the 30 of a bisection), ``inner(x)`` takes s on [0, 1] to values of
    shape (..., x.size, s.size) in the units of the outer integrand: one
    vector quadrature at 0.05 tol, whose integrals ``g`` sums over the
    leading axes.  ``evaluations`` counts inner values; ``max_evals``
    bounds them over the whole integral.  A failure or a non-finite
    integrand is raised once, naming ``what``.
    """
    evals = 0

    def g(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        res = integrate_adaptive(inner(x), 0.0, 1.0, 0.05 * tol, max_evals=max_evals - evals)
        evals += res.evaluations
        return res.value.reshape(-1, x.size).sum(axis=0)

    try:
        res = outer(g, 0.5 * tol)
    except ToleranceNotReached as exc:
        raise ToleranceNotReached(f"{what} (route budget {max_evals}): {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    return QuadratureResult(res.value, res.error_estimate, evals)


def limit_extrapolate(h: Sequence[float], v: np.ndarray) -> ExtrapolationResult:
    """Extrapolate v(h) -> v0 as h -> 0 along the trailing axis of ``v``,
    which holds the samples at the strictly decreasing steps ``h``.

    Assumes v(h) = v0 + c1*h + c2*h^2 + ... and evaluates the Neville
    interpolation tableau at h = 0 (classical Richardson acceleration
    for geometric ladders, but any strictly decreasing h works).  The
    stability estimate is the spread of the last two diagonal
    extrapolants.  An entry diverges when that spread grows more than
    5-fold over the one before instead of shrinking (and exceeds 1e-12
    of the entry's largest sample); it is flagged in ``diverged``, for
    the caller to weigh against its tolerance.
    """
    h = np.asarray(h, dtype=float)
    tab = np.asarray(v, dtype=complex)
    n = h.size
    if h.ndim != 1 or n < 3 or tab.shape[-1:] != (n,):
        raise ValueError(f"need at least 3 steps along the samples' last axis, got "
                         f"steps of shape {h.shape} for samples of shape {tab.shape}")
    if np.any(h <= 0.0) or np.any(h[1:] >= h[:-1]):
        raise ValueError("sample steps must be positive and strictly decreasing")

    scale = np.abs(tab).max(axis=-1) + 1e-300
    diag = [tab[..., 0]]
    for m in range(1, n):
        tab = (h[m:] * tab[..., :-1] - h[:-m] * tab[..., 1:]) / (h[m:] - h[:-m])
        diag.append(tab[..., 0])

    diffs = np.abs(np.diff(np.stack(diag, axis=-1), axis=-1))
    stability = diffs[..., -1]
    diverged = (stability > 5.0 * diffs[..., -2]) & (stability > 1e-12 * scale)
    return ExtrapolationResult(diag[-1][()], stability[()], diverged[()])
