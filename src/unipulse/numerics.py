"""Low-level numerical kernels shared by every other module.

Provides the upper-half-plane complex square root, the Bessel function
J0, adaptive Gauss-Kronrod quadrature for real or complex integrands on
finite and semi-infinite intervals, doubling trapezoid and Fejer rules
for analytic integrals, one entry point for nested double integrals
(``integrate_nested``, which takes the inner rule from its caller and
splits the tolerance between the two), and polynomial limit
extrapolation for sequences v(h) -> v0 as h -> 0.
"""

from __future__ import annotations

import functools
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
    with np.errstate(over="ignore"):  # past x ~ 1.3e154 x*x is inf, and q's limit is 0
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
# embedded 7-point Gauss rule on nodes 1, 3, 5 and the centre, and the
# 5-point interpolatory rule on nodes 1, 5 and the centre (exact through
# degree 5).
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
_WQ5 = (0.218822398256701763337049217224197, 0.827008707076435779945939541602724)
_WQ5_CENTER = -0.0916622106662750865659775176538407

DEFAULT_QUAD_BUDGET = 1_000_000

# the 15 nodes in ascending order with their Kronrod weights, and the
# Gauss weights on the same nodes (zero on the Kronrod-only ones)
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_W_KRONROD = np.array(list(_WGK) + [_WGK_CENTER] + list(_WGK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:7:2] = _W_GAUSS[13:7:-2] = _WG
_W_GAUSS[7] = _WG_CENTER
_W_Q5 = np.zeros(15)
_W_Q5[[1, 13]], _W_Q5[[5, 9]], _W_Q5[7] = _WQ5[0], _WQ5[1], _WQ5_CENTER


def _weighted_sum(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] w[j] in numpy's own loop.  A BLAS product of the
    same size may start threads (OpenBLAS does past 4,096 complex or
    9,216 real entries), and on a busy machine their wake-ups cost
    milliseconds where the sum takes tens of microseconds."""
    return np.einsum("...j,j->...", a, w)


def _gk15(f, lo: np.ndarray, hi: np.ndarray, sharp: bool = False):
    """Gauss-Kronrod panels [lo[j], hi[j]], ``f`` called once on the
    array of all their nodes, shape (15 n,).  Returns (value, error,
    floor), each of the components' shape with a trailing axis of the n
    panels, real for a real integrand; ``floor`` is the rounding floor
    50 eps resabs below which no error estimate falls.  The sums run on
    the values as rows of 15.

    The error is QUADPACK's: |K15 - G7| scaled by (200 err/resasc)^1.5.
    With ``sharp`` a third rule, the 5-point Q5 on the same nodes, tests
    a panel for geometric convergence (Laurie, BIT 23, 1983): where
    rho = |K15 - G7| / |G7 - Q5| <= 0.01 the error is |K15 - G7|
    rho/(1 - rho), if lower, and never below the floor."""
    hl = 0.5 * (hi - lo)
    n = hl.size
    fx = np.asarray(f(((0.5 * (lo + hi))[:, None] + hl[:, None] * _NODES).ravel()))
    if fx.dtype.kind not in "fc":
        fx = fx.astype(float)
    if fx.shape[-1:] != (15 * n,):  # a constant broadcasts
        try:
            fx = np.broadcast_to(fx, (15 * n,))
        except ValueError:
            raise ValueError(f"integrand values of shape {fx.shape} lack a last axis "
                             f"of the {15 * n} nodes (15 per panel)") from None
    shape = fx.shape[:-1] + (n,)
    rows = fx.reshape(-1, 15)
    kronrod, gauss = _weighted_sum(rows, _W_KRONROD), _weighted_sum(rows, _W_GAUSS)
    value = kronrod.reshape(shape) * hl
    bad = ~np.isfinite(value)
    if bad.any():
        j = int(np.flatnonzero(bad.reshape(-1, n).any(axis=0))[0])
        where = f" in component {tuple(np.argwhere(bad[..., j])[0].tolist())}"
        raise ValueError(f"integrand produced a non-finite value on "
                         f"[{float(lo[j])}, {float(hi[j])}]" + (where if value.ndim > 1 else ""))
    ahl = np.abs(hl)
    resabs = _weighted_sum(np.abs(rows), _W_KRONROD).reshape(shape) * ahl
    resasc = _weighted_sum(np.abs(rows - 0.5 * kronrod[:, None]), _W_KRONROD).reshape(shape) * ahl
    err = np.abs(kronrod - gauss).reshape(shape) * ahl
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an infinite ratio caps at 1
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        if sharp:
            rho = err / (np.abs(gauss - _weighted_sum(rows, _W_Q5)).reshape(shape) * ahl)
            scaled = np.where(rho <= 0.01, np.minimum(scaled, err * rho / (1.0 - rho)), scaled)
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
    sharp: bool = False,
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
    panel edges (useful for known kinks).  ``sharp`` takes the
    three-rule panel estimate of ``_gk15``, for an integrand smooth on
    every panel; otherwise a panel's estimate is QUADPACK's.  Raises
    ToleranceNotReached, carrying the best estimate, once ``max_evals``
    evaluations are spent, or once a component's error floor exceeds its
    target: its summed 50 eps resabs plus the error of panels too narrow
    to bisect.
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
        v, e, fl = _gk15(f, np.array(los), np.array(his), sharp)
        keys = (-e.reshape(-1, len(los)).max(axis=0)).tolist()
        for j, (lo, hi) in enumerate(zip(los, his)):
            heapq.heappush(heap, (keys[j], seq, lo, hi, v[..., j], e[..., j], fl[..., j]))
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
                f"error floor {np.ravel(total_floor)[i]:.3e}{where} exceeds its target "
                f"{np.ravel(target)[i]:.3e}: rounding and panels too narrow to bisect", best())
        if not heap:
            raise ToleranceNotReached("no panel can be refined further", best())
        if evals + 2 * per_panel > max_evals:
            raise ToleranceNotReached(f"evaluation budget {max_evals} exhausted (error "
                                      f"estimate {np.max(total_err):.3e})", best())
        _, _, lo, hi, val, err, floor = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi) or (hi - lo) < 1e-15 * (b - a):
            total_floor = total_floor + (err - floor)  # too narrow to split: its error stays
            continue
        v, e, fl = evaluate([lo, mid], [mid, hi])
        evals += 2 * per_panel
        total = total + (v - val)
        total_err = total_err + (e - err)
        total_floor = total_floor + (fl - floor)


# the deepest seed 1 - 2^-k whose panel [1 - 2^-k, 1] keeps its outermost
# Kronrod node below u = 1, where the map sends x to infinity
_SEED_DEPTH_MAX = 46


def integrate_semi_infinite(
    f: Callable[[np.ndarray], complex | np.ndarray],
    tol: float,
    decay_hint: float,
    max_evals: int = DEFAULT_QUAD_BUDGET,
) -> QuadratureResult:
    """Integrate f over [0, inf) assuming |f(x)| <= C exp(-decay_hint*x).

    Uses the substitution u = 1 - exp(-decay_hint*x), which maps the
    half-line onto [0, 1) and turns the exponential tail into a bounded
    integrand, then delegates to :func:`integrate_adaptive` (same
    contract).  An integrand whose support starts at some x0 > 0 is to be
    shifted there by its caller: beyond lambda x0 ~ 37 the map puts all of
    it within rounding of u = 1, where no node falls.  The initial panels
    have edges at the seeds u_k = 1 - 2^-k, k = 1 ... ceil(log2(1/tol)/2) + 2
    (none for tol >= 1; at most 46, the depth at which the last panel's
    outermost node would round to u = 1).  A hint of half the true decay
    leaves the mapped integrand O(1-u) near u = 1, so [u_k, 1] holds
    O(4^-k) of the integral: the seeds put in the first integrand call
    the partition that bisection would reach one call per level, and
    bisection goes on from there wherever they do not suffice.
    """
    if not decay_hint > 0.0:
        raise ValueError(f"decay_hint must be positive, got {decay_hint}")
    lam = float(decay_hint)

    def transformed(u: np.ndarray) -> np.ndarray:
        u = np.minimum(u, 1.0 - 2.0**-53)  # a panel narrower than 2^-46 at 1 rounds its last node to 1
        return f(-np.log1p(-u) / lam) / (lam * (1.0 - u))

    depth = min(math.ceil(0.5 * math.log2(1.0 / tol)) + 2, _SEED_DEPTH_MAX) if tol < 1.0 else 0
    seeds = [1.0 - 2.0**-k for k in range(1, depth + 1)]
    return integrate_adaptive(transformed, 0.0, 1.0, tol, max_evals, seeds)


# --- doubling rules for analytic inner integrals ---------------------------
#
# A doubling rule integrates over s in [0, 1] on the nodes s(theta_j) of the
# angles theta_j = pi j / n, j = 0 ... n.  Doubling n adds the odd j only, so
# no value is computed twice.  Each rule maps n to its n + 1 nodes and
# weights; an open rule has weight 0 at both ends and never evaluates them.

_DOUBLING_START = 16  # the first n: Q_16, and Q_8 and Q_4 from its nodes
_DOUBLING_MAX = 1 << 14


def _frozen(s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s.flags.writeable = w.flags.writeable = False
    return s, w


@functools.cache
def trapezoid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid on s = j/n with both ends halved: for the mean over
    a period of a periodic integrand, or over psi = pi s in [0, pi] of an
    even 2 pi-periodic one, exact for cos(k psi), k < 2 n, and
    geometrically convergent for an analytic one."""
    w = np.full(n + 1, 1.0 / n)
    w[[0, n]] = 0.5 / n
    return _frozen(np.arange(n + 1) / n, w)


@functools.cache
def fejer2(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer's second rule in s = (1 - cos theta)/2: open (weight 0 at
    both ends, which it never evaluates), positive weights, exact for
    polynomials of degree < n.  Weights by Waldvogel's FFT construction
    (BIT 46, 2006)."""
    odd = np.arange(1, n, 2)
    v0 = np.concatenate([2.0 / odd / (odd - 2.0), [1.0 / odd[-1]], np.zeros(n - odd.size)])
    w = np.append(np.fft.ifft(-v0[:-1] - v0[:0:-1]).real, 0.0)
    w[0] = 0.0
    return _frozen(np.sin(0.5 * math.pi * np.arange(n + 1) / n) ** 2, 0.5 * w)


def integrate_doubling(f: Callable, rule: Callable, tol: float, max_evals: int) -> QuadratureResult:
    """Every row of ``f(s, rows)`` over s in [0, 1] by the doubling
    ``rule`` at n = 16, 32, ..., each row on its own.  ``f`` returns
    (..., len(rows), len(s)) values, any leading axes being components
    that share the row's nodes; ``rows`` is slice(None) in the first
    call, then the indices of the rows still refining, one call per
    doubling.

    A component's estimate is d = |Q_2n - Q_n| plus the rounding floor
    50 eps sum |w f|.  It counts as resolved once d has shrunk tenfold
    from |Q_n - Q_n/2| or sits below the floor; an unresolved one adds
    2 sum |w f|, which bounds the error of a rule that misses the
    integrand's shape.  A row stops once all its components' estimates
    are at most tol max(|Q_2n|, 1), each reporting that Q_2n.  The result
    holds one value, estimate and count per component, shape (..., size).
    Raises ToleranceNotReached, naming a component, once ``max_evals``
    values are spent, n passes 2^14, or a floor exceeds its target.
    """
    n = _DOUBLING_START
    s, w = rule(n)
    nodes = slice(1, n) if w[0] == 0.0 else slice(None)  # an open rule skips both ends
    first = np.asarray(f(s[nodes], slice(None)))
    evals = first.size
    if evals > max_evals:
        raise ToleranceNotReached(f"evaluation budget {max_evals} exhausted by the first nodes")
    shape = first.shape[:-1]
    rows, vals = np.arange(shape[-1]), np.zeros(shape + (n + 1,), first.dtype)
    vals[..., nodes] = first
    value, error, used = np.zeros(shape, vals.dtype), np.zeros(shape), np.zeros(shape, int)
    coarse = _weighted_sum(vals[..., ::2], rule(n // 2)[1])
    step = np.abs(coarse - _weighted_sum(vals[..., ::4], rule(n // 4)[1]))

    def component(i: int) -> str:  # the one at flat index i of the rows refining
        *lead, row = np.unravel_index(i, vals.shape[:-1])
        return f"component {(*map(int, lead), int(rows[row])) if lead else int(rows[row])}"

    while True:
        q = _weighted_sum(vals, w)
        if not (finite := np.isfinite(q)).all():
            raise ValueError(f"integrand produced a non-finite value in {component(np.argmin(finite))}")
        mass = _weighted_sum(np.abs(vals), w)
        floor, d = 50.0 * _EPS * mass, np.abs(q - coarse)
        err = d + floor + np.where((d <= 0.1 * step) | (d <= floor), 0.0, 2.0 * mass)
        target = tol * np.maximum(np.abs(q), 1.0)
        if np.any(floor > target):
            i = int(np.argmax(floor / target))
            raise ToleranceNotReached(f"error floor {floor.flat[i]:.3e} of {component(i)} "
                                      f"exceeds its target {target.flat[i]:.3e}: rounding")
        done = np.all(err <= target, axis=tuple(range(err.ndim - 1)))
        value[..., rows[done]], error[..., rows[done]] = q[..., done], err[..., done]
        used[..., rows[done]] = n - 1 if w[0] == 0.0 else n + 1  # an open rule skips both ends
        if done.all():
            return QuadratureResult(value, error, used)
        i, more, unsettled = int(np.argmax(err / target)), ~done, int(np.count_nonzero(err > target))
        worst = f"error estimate {err.flat[i]:.3e} of {component(i)}"
        rows, vals, coarse, step = rows[more], vals[..., more, :], q[..., more], d[..., more]
        if 2 * n > _DOUBLING_MAX:
            raise ToleranceNotReached(f"{unsettled} component(s) unsettled at n = {n} ({worst})")
        if evals + coarse.size * n > max_evals:
            raise ToleranceNotReached(f"evaluation budget {max_evals} exhausted ({worst})")
        n *= 2
        s, w = rule(n)
        fresh = np.asarray(f(s[1::2], rows))
        evals += fresh.size
        both = np.empty(vals.shape[:-1] + (n + 1,), np.result_type(vals, fresh))
        both[..., ::2], both[..., 1::2] = vals, fresh
        vals = both


def integrate_nested(outer: Callable, integrand: Callable, inner: Callable, tol: float,
                     max_evals: int, what: tuple[str, ...]) -> tuple[QuadratureResult, ...]:
    """The nested integrals of the three deterministic reconstruction
    routes and of the field energy, the one place that splits ``tol``:
    ``outer(g, 0.5 tol)`` runs the outer rule on ``g``, and for the outer
    nodes x of one call of ``g`` (all initial panels, then the 30 of a
    bisection) ``inner(integrand(x), 0.05 tol, budget)`` runs the inner
    rule within ``budget`` values, returning components with a leading
    axis of the routes ``what`` names and x last; g sums each route's over
    the others.  Routes on shared nodes share each call and refinement.
    The outer rule integrates each route's inner estimates as a further
    component, and a route's estimate adds that outer-weighted sum to the
    outer rule's; one above its target max(tol |value|, tol) raises
    ToleranceNotReached naming the route.  Returns one result per route,
    a float value for a real integrand, ``evaluations`` counting its inner
    values; ``max_evals`` bounds each route's, and the routes share
    len(what) max_evals.  A failure or a non-finite integrand is raised
    once, naming the routes: an overflow in the integrand or the inner
    rule is reported as a non-finite value, never warned by numpy.
    """
    routes, names = len(what), " and ".join(what)
    evals = np.zeros(routes, dtype=int)

    def g(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            res = inner(integrand(x), 0.05 * tol, routes * max_evals - int(evals.sum()))
            evals[:] += np.reshape(res.evaluations, (routes, -1)).sum(axis=1)
            return np.reshape([res.value, res.error_estimate], (2, routes, -1, x.size)).sum(axis=2)

    try:
        res = outer(g, 0.5 * tol)
    except ToleranceNotReached as exc:
        raise ToleranceNotReached(f"{names} (route budget {max_evals}): {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{names}: {exc}") from exc
    value, estimate = res.value[0], res.error_estimate[0] + res.value[1].real
    for name, e, target in zip(what, estimate, np.maximum(tol * np.abs(value), tol)):
        if e > target:
            raise ToleranceNotReached(f"{name} (route budget {max_evals}): error estimate "
                                      f"{e:.3e} with the inner ones exceeds its target {target:.3e}")
    return tuple(QuadratureResult(v.item(), float(e), int(n)) for v, e, n in zip(value, estimate, evals))


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
