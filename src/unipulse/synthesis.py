"""Reconstruction of the field from its plane-wave decomposition and spectra.

Routes back to u(t, R), each named by its ``compare`` key:

* ``hemisphere``: the forward-hemisphere superposition of nonstationary
  plane waves, in the variable mu = cos of the plane-wave polar angle,
* ``fourier_bessel``: a Fourier-Bessel double integral over (k, k_z)
  driven by the waveform spectrum,
* ``from_weight``: the same double integral in (omega, k_z) driven by the
  spectral weight A(k_z, omega) that ``spectrum`` prints: the previous
  route under omega = c k, an integral-level check of that table, not an
  independent route,
* ``mc_estimate``: a Monte-Carlo estimate of the equivalent 3-D Cartesian
  k-space integral, drawn from the lekner spectrum's own density so that
  every sample has the same weight, in mirrored pairs of k-points (k_perp
  and -k_perp) that share one phase, in float32 trigonometry on arguments
  reduced in float64, with that rounding's bound as a floor of its stderr.

Each deterministic route takes an explicit tolerance and returns a
QuadratureResult reporting the achieved error estimate; nothing
degrades silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import PulseParams, SpacetimePoint
from .numerics import (
    QuadratureResult,
    bessel_j0,
    fejer2,
    integrate_adaptive,
    integrate_doubling,
    integrate_nested,
    integrate_semi_infinite,
    trapezoid,
)
from .waveforms import Waveform

#: inner values a route may spend (``integrate_nested``'s ``max_evals``): the
#: hemisphere route, and each of the two spectral routes, which share twice that
HEMISPHERE_BUDGET = 2_000_000
SPECTRAL_BUDGET = 4_000_000


def spectral_weight(params: PulseParams, w: Waveform, kz, omega) -> complex:
    """Spectral weight of the quasi-spherical wave built on ``w``,

        A(k_z, omega) = -(i/c) exp(-(omega/c - k_z) b) fhat(k_z),

    at floats or broadcastable arrays, and 0 outside the support
    0 <= k_z <= omega/c (the continuation reconstruction integrals use).
    """
    with np.errstate(over="ignore"):  # past the float range omega/c and the exponent are infinite: A is 0
        top = np.asarray(omega, dtype=float) / params.c
        inside = (kz >= 0.0) & (kz <= top)
        kz = np.clip(kz, 0.0, top)
        value = np.where(inside, (-1j / params.c) * np.exp((kz - top) * params.b) * w.spectrum(kz), 0j)
    return value[()]


def reconstruct_hemisphere(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    tol: float,
) -> QuadratureResult:
    """Forward-hemisphere superposition of nonstationary plane waves.

    With mu = cos of the plane-wave polar angle,

        u = - integral_0^1 dmu (1/mu^2) *
              <f'(((ct+ib) - (z+ib) mu - rho cos(psi) sqrt(1-mu^2)) / mu)>_psi

    where <.>_psi is the azimuthal mean.  Averaging over a full period
    makes the result independent of the observation azimuth, so psi can
    be measured from it, and the integrand is even in psi: the mean is
    an integral over psi = pi s, s in [0, 1], inner to the mu integral,
    on the trapezoid with both ends halved.  The mu integral has panel
    edges seeded geometrically toward mu = 0, where the integrand
    develops a boundary layer controlled by the waveform decay at i*inf.
    """
    ct_ib = complex(params.c * p.t, params.b)
    z_ib = complex(p.z, params.b)

    def integrand(mu: np.ndarray) -> Callable:
        mu = mu[:, None]
        base = ct_ib - z_ib * mu
        amp = p.rho * np.sqrt(1.0 - mu * mu)

        def f(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
            theta = (base[rows] - amp[rows] * np.cos(math.pi * s)) / mu[rows]
            return w.deriv(theta) / (mu[rows] * mu[rows])

        return f

    seeds = (1.0 / 4096, 1.0 / 1024, 1.0 / 256, 1.0 / 64, 1.0 / 16, 0.25)
    (res,) = integrate_nested(lambda g, t: integrate_adaptive(g, 0.0, 1.0, t, 120_000, seeds),
                              integrand, lambda f, t, n: integrate_doubling(f, trapezoid, t, n),
                              tol, HEMISPHERE_BUDGET, ("hemisphere reconstruction",))
    return QuadratureResult(-res.value, res.error_estimate, res.evaluations)


def reconstruct_spectral(params: PulseParams, w: Waveform, p: SpacetimePoint,
                         tol: float) -> dict[str, QuadratureResult]:
    """Both spectral routes, by ``compare`` key, in one nested quadrature
    on shared (k, k_z) nodes: each route's double integral

        integral_start^inf dk e^{i k ct} integral_start^k dk_z
            spectral(k_z, k) J0(rho sqrt(k^2 - k_z^2)) e^{-i k_z z},

    on the spectrum's support alone: it is 0 below start = ``w.K``, so no
    value is taken there.  The outer integral runs in x = k - start on
    [0, inf), where every node carries a k_z piece
    [start, start + x] of width x, however far start lies.  Through
    ``integrate_nested``, each outer node is one row of inner integrals in
    s = (k_z - start) / x on [0, 1], with the routes as its components,
    which Fejer's second rule refines together, node by node: the integrand
    is entire in k_z there, and the open rule never samples the ends, where
    the spectrum's Heaviside sits.  The kernel J0 e^{-i k_z z} and the
    outer factor x e^{i k ct} are computed once per node, and each route
    multiplies in its spectral factor, which holds e^{(k_z - k) b} <= 1:
    -i fhat(k_z) e^{(k_z - k) b} for ``fourier_bessel``, and
    c ``spectral_weight`` at omega = c k (d omega = c dk) for
    ``from_weight``, where both factors agree to rounding.
    The outer integrand decays like exp(-x min(a, b)), a = w.a;
    half that rate as the hint leaves the mapped outer integrand ~(1-u)^1
    at u = 1, where 0.9 of it left ~(1-u)^(1/9): the J0 oscillations piled
    up there and the error estimate no longer bounded the error.
    """
    start, b, c = w.K, params.b, params.c

    def integrand(x: np.ndarray) -> Callable:
        x = x[:, None]
        k = start + x
        outer = x * np.exp(k * complex(0.0, c * p.t))

        def f(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
            kz, kr = start + x[rows] * s, k[rows]
            chi = np.sqrt(np.maximum(kr ** 2 - kz * kz, 0.0))
            kernel = bessel_j0(p.rho * chi) * np.exp(kz * complex(0.0, -p.z)) * outer[rows]
            return np.stack([kernel * (-1j * w.spectrum(kz) * np.exp((kz - kr) * b)),
                             kernel * (c * spectral_weight(params, w, kz, c * kr))])

        return f

    decay = 0.5 * min(w.a, b)
    fourier_bessel, from_weight = integrate_nested(
        lambda g, t: integrate_semi_infinite(g, t, decay, 160_000), integrand,
        lambda f, t, n: integrate_doubling(f, fejer2, t, n), tol, SPECTRAL_BUDGET,
        ("Fourier-Bessel reconstruction", "spectral-weight reconstruction"))
    return {"fourier_bessel": fourier_bessel, "from_weight": from_weight}


def reconstruct_fourier_bessel(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    tol: float,
) -> QuadratureResult:
    """Fourier-Bessel double integral driven by the waveform spectrum,
    ``reconstruct_spectral``'s ``fourier_bessel`` entry:

        u = -i integral_0^inf dk e^{i k (ct + i b)}
               integral_0^k dk_z fhat(k_z) J0(rho sqrt(k^2 - k_z^2))
                                  e^{-i k_z (z + i b)}.

    It runs both spectral routes, so it costs what that call costs (about
    1.2 times one route alone), and a spent budget names both routes.
    """
    return reconstruct_spectral(params, w, p, tol)["fourier_bessel"]


def reconstruct_from_weight(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    tol: float,
) -> QuadratureResult:
    """``reconstruct_fourier_bessel`` under omega = c k, on ``spectral_weight``,
    ``reconstruct_spectral``'s ``from_weight`` entry:

        u = integral_0^inf domega e^{i omega t}
              integral_0^{omega/c} dk_z spectral_weight(k_z, omega)
                 e^{-i k_z z} J0(rho sqrt(omega^2/c^2 - k_z^2)).

    Like ``reconstruct_fourier_bessel`` it runs both spectral routes.
    """
    return reconstruct_spectral(params, w, p, tol)["from_weight"]


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: complex
    stderr: float
    n_samples: int


_MC_CHUNK = 704 * 1024 // 88  # draws (pairs) a chunk: 0.7 MB of temporaries at 88 bytes a draw
#: fewer samples than this give no usable standard error
MC_MIN_SAMPLES = 10_000
#: at 0.019-0.023 us a k-point (PCG64, 2 CPUs), this many take about 20 s per point
MC_MAX_SAMPLES = 10**9
#: bound on numpy's float32 cos and sin errors at float32 arguments in [-pi, pi]
_TRIG32_ERR = 2.0**-21


def _reduced(x: np.ndarray) -> np.ndarray:
    """x - 2 pi rint(x / 2 pi), in [-pi, pi] up to rounding, reduced in float64
    and cast to float32, where numpy's float32 cos and sin run in SIMD code."""
    return (x - 2.0 * math.pi * np.rint(x / (2.0 * math.pi))).astype(np.float32)


def reconstruct_cartesian_mc(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    n_samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Importance-sampled Monte Carlo for the 3-D Cartesian k-integral

        u = -(i/2pi) * integral over R^3 of H(k_z) fhat(k_z)
              e^{i [k (ct + i b) - k_z (z + i b) - k_x x - k_y y]} / k  d^3k.

    In (k_z, q = k - k_z, phi), d^3k / k = dk_z dq dphi, and
    the integrand's modulus is e^{-a (k_z - K)} e^{-q b}: drawing
    k_z - K ~ Exp(a), q ~ Exp(b) (standard exponentials over a and b) and
    phi uniform leaves every sample the constant weight -1/(a b).  Then
    k = k_z + q and k_perp = sqrt(q (q + 2 k_z)).  The azimuth is measured
    from the point's own, so k_x x + k_y y = k_perp rho cos(phi), and
    (x, y) enter through rho alone.  Each draw (k_z, q, phi) gives two
    k-points, k_perp and its mirror -k_perp (antithetic variates), whose
    mean is v = cos(x_m) e^{i x_p}, with x_m = k_perp rho cos(phi) and
    x_p = k ct - k_z z; ``n_samples`` counts k-points, so ceil(n/2) pairs
    run and ``MonteCarloEstimate.n_samples`` is twice that.  The estimate
    and its stderr are taken over the pair means, which are iid; on the
    axis the two members coincide, and the stderr is sqrt(2) times that of
    n independent samples.
    Trigonometry: x_m and x_p are formed in float64, reduced to
    r = x - 2 pi rint(x / 2 pi) in [-pi, pi] in float64, and cast to
    float32, where numpy's cos and sin run in SIMD code (past |x| ~ 7e4
    they would drop to scalar code); v and all sums are float64.
    cos(phi) is the float32 cosine of 2 pi u.  It is a variate, so its
    rounding biases the estimate only at second order in 2^-24, but for a
    term of order 2^-36 k_perp rho near cos(phi) = +-1, where its density
    peaks within one float32 step.  The rest of a pair's float32 error is
    at most B = min(r_m^2, 2^-21) + min(r_p^2, 2^-21)
    + 2^-21 min(|r_p|, 1), 0 where both arguments are 0.
    The stderr is the largest of the statistical one, eps sqrt(sum |v|^2)
    (the rounding of the summed pair means, for integrands constant up to
    rounding: every member at R = 0, t = 0) and sum(B) / n_pairs (for
    integrands whose float32 cosines all round to 1), so it covers the
    rounding as well as the sampling.
    Variates: numpy's default generator (PCG64), one stream drawn in order
    in chunks of 2^13 draws, whose temporaries (0.7 MB) stay in cache; one
    seed and n give the same estimate bit for bit on one numpy build and
    CPU dispatch path (the float32 sin and cos change their bits with AVX2
    off), and each full chunk draws the same variates whatever n, point or
    pulse.
    """
    if not MC_MIN_SAMPLES <= n_samples <= MC_MAX_SAMPLES:
        raise ValueError(f"need {MC_MIN_SAMPLES} to {MC_MAX_SAMPLES} samples, got {n_samples}")
    scale = w.a * params.b
    ct = params.c * p.t
    rng = np.random.default_rng(seed)
    n_pairs = (n_samples + 1) // 2

    total = 0.0 + 0.0j
    total_sq = bound = 0.0
    done = 0
    while done < n_pairs:
        m = min(_MC_CHUNK, n_pairs - done)
        e_z, e_q = rng.standard_exponential((2, m))
        kz, q = w.K + e_z / w.a, e_q / params.b
        cos_phi = np.cos((2.0 * math.pi * rng.random(m)).astype(np.float32))
        r_m = _reduced(np.sqrt(q * (q + 2.0 * kz)) * cos_phi * p.rho)
        r_p = _reduced((kz + q) * ct - kz * p.z)
        vals = np.empty(m, complex)
        vals.real, vals.imag = np.cos(r_p), np.sin(r_p)
        vals *= np.cos(r_m)
        total += complex(np.sum(vals))
        total_sq += float(np.einsum("i,i->", vals.view(float), vals.view(float)))
        terms = (np.minimum(r_m * r_m, _TRIG32_ERR) + np.minimum(r_p * r_p, _TRIG32_ERR)
                 + _TRIG32_ERR * np.minimum(np.abs(r_p), 1.0))
        bound += float(terms.sum(dtype=float))
        done += m

    mean = total / n_pairs
    var = max(total_sq - n_pairs * abs(mean) ** 2, 0.0) / (n_pairs - 1)
    stderr = max(math.sqrt(var / n_pairs), np.finfo(float).eps * math.sqrt(total_sq), bound / n_pairs)
    return MonteCarloEstimate(-mean / scale, stderr / scale, 2 * n_pairs)
