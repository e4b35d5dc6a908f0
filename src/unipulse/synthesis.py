"""Reconstruction of the field from far-field data and spectra.

Four independent routes back to u(t, R):

* a sphere integral of the far-field s-derivative (superposition of
  nonstationary plane waves),
* its forward-hemisphere specialization in the variable p = cos(angle),
* a Fourier-Bessel double integral over (k, k_z) driven by the waveform
  spectrum,
* the same double integral in (omega, k_z) driven by a spectral weight
  A(k_z, omega), plus a Monte-Carlo estimate of the equivalent 3-D
  Cartesian k-space integral.

Each deterministic route takes an explicit tolerance and returns a
QuadratureResult reporting the achieved error estimate; nothing
degrades silently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .farfield import Direction
from .fields import PulseParams, SpacetimePoint
from .numerics import (
    QuadratureResult,
    ToleranceNotReached,
    bessel_j0,
    integrate_adaptive,
    integrate_semi_infinite,
)
from .waveforms import Waveform


class OutOfSupport(Exception):
    """Spectral weight requested outside 0 <= k_z <= omega/c."""


@dataclass(frozen=True)
class SpectralWeight:
    """Density A(k_z, omega) of the Fourier-Bessel representation.

    ``func`` must return 0 outside the support 0 <= k_z <= omega/c
    (Heaviside continuation).  ``omega_decay`` is the exponential decay
    rate in omega used as a quadrature hint; ``kz_breakpoints`` mark
    kinks of the k_z dependence.
    """

    func: Callable[[float, float], complex]
    c: float
    omega_decay: float
    kz_breakpoints: tuple[float, ...] = ()

    def __call__(self, kz: float, omega: float) -> complex:
        return self.func(kz, omega)


def spectral_weight(kz: float, omega: float, params: PulseParams, w: Waveform) -> complex:
    """A(k_z, omega) = -(i/c) exp(-(omega/c - k_z) b) fhat(k_z)."""
    c = params.c
    if kz < 0.0 or kz > omega / c:
        raise OutOfSupport(f"k_z={kz} outside [0, omega/c={omega / c}]")
    return (-1j / c) * math.exp(-(omega / c - kz) * params.b) * complex(w.spectrum(kz))


def make_spectral_weight(params: PulseParams, w: Waveform) -> SpectralWeight:
    """Spectral weight of the quasi-spherical wave built on ``w``.

    Outside the support the closure returns 0, which is the natural
    continuation for use inside reconstruction integrals.
    """
    c = params.c

    def func(kz: float, omega: float) -> complex:
        if kz < 0.0 or kz > omega / c:
            return 0.0 + 0.0j
        return spectral_weight(kz, omega, params, w)

    decay = 0.9 * min(w.decay_rate, params.b) / c
    return SpectralWeight(func, c, decay, w.spectrum_breakpoints)


def _budgeted(counter: list, budget: int, what: str):
    counter[0] += 1
    if counter[0] > budget:
        raise ToleranceNotReached(f"{what}: evaluation budget {budget} exhausted")


def reconstruct_from_farfield(
    f_deriv: Callable[[float, Direction], complex],
    p: SpacetimePoint,
    params: PulseParams,
    tol: float,
    max_refine: int = 8,
) -> QuadratureResult:
    """Sphere integral u = (1/2pi) * integral of F'(N.R - ct, N) over |N|=1.

    Product quadrature: Gauss-Legendre in the polar angle on each
    hemisphere separately (the integrand may jump across the equator
    for unidirectional profiles) times a periodic trapezoid in azimuth,
    refined by doubling until two levels agree within tol.
    """
    ct = params.c * p.t
    evals = 0
    prev = None
    for level in range(max_refine):
        n_polar = 8 << level
        n_phi = 2 * n_polar
        nodes, weights = np.polynomial.legendre.leggauss(n_polar)
        total = 0.0 + 0.0j
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        for lo, hi in ((0.0, 0.5 * math.pi), (0.5 * math.pi, math.pi)):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            for xi, wi in zip(nodes, weights):
                ang = mid + half * xi
                sin_a, cos_a = math.sin(ang), math.cos(ang)
                acc = 0.0 + 0.0j
                for phi in phis:
                    d = Direction(ang, float(phi))
                    ndotr = sin_a * (p.x * math.cos(phi) + p.y * math.sin(phi)) + cos_a * p.z
                    acc += complex(f_deriv(ndotr - ct, d))
                    evals += 1
                total += wi * half * sin_a * acc * (2.0 * math.pi / n_phi)
        total /= 2.0 * math.pi
        if prev is not None:
            diff = abs(total - prev)
            if diff <= 0.5 * max(tol * abs(total), tol):
                return QuadratureResult(total, diff, evals)
        prev = total
    raise ToleranceNotReached(
        f"sphere quadrature did not settle after {max_refine} refinements"
    )


def reconstruct_hemisphere(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    tol: float,
    max_evals: int = 2_000_000,
) -> QuadratureResult:
    """Forward-hemisphere superposition of nonstationary plane waves.

    With mu = cos of the plane-wave polar angle,

        u = - integral_0^1 dmu (1/mu^2) *
              <f'(((ct+ib) - (z+ib) mu - rho cos(psi) sqrt(1-mu^2)) / mu)>_psi

    where <.>_psi is the azimuthal mean.  Averaging over a full period
    makes the result independent of the observation azimuth, so psi can
    be measured from it directly.  The mean is a spectrally convergent
    periodic trapezoid; the mu integral is adaptive with panel edges
    seeded geometrically toward mu = 0, where the integrand develops a
    boundary layer controlled by the waveform decay at i*inf.
    """
    ct_ib = complex(params.c * p.t, params.b)
    z_ib = complex(p.z, params.b)
    rho = p.rho
    counter = [0]

    def phi_mean(mu: float) -> complex:
        root = math.sqrt(max(1.0 - mu * mu, 0.0))
        base = ct_ib - z_ib * mu

        def integrand(psi: float) -> complex:
            _budgeted(counter, max_evals, "hemisphere reconstruction")
            return complex(w.deriv((base - rho * math.cos(psi) * root) / mu))

        if rho == 0.0:
            return integrand(0.0)
        # trapezoid over half the period (integrand even in psi)
        m = 8
        total = 0.5 * (integrand(0.0) + integrand(math.pi))
        total += sum(integrand(math.pi * j / m) for j in range(1, m))
        t_prev = total / m
        while m < 8192:
            m *= 2
            total += sum(integrand(math.pi * j / m) for j in range(1, m, 2))
            t_new = total / m
            if abs(t_new - t_prev) <= 0.05 * max(tol, tol * abs(t_new)):
                return t_new
            t_prev = t_new
        raise ToleranceNotReached(
            f"hemisphere reconstruction: azimuthal mean at mu={mu:.17g} "
            f"not settled with {m} trapezoid nodes"
        )

    def outer(mu: float) -> complex:
        return phi_mean(mu) / (mu * mu)

    seeds = (1.0 / 4096, 1.0 / 1024, 1.0 / 256, 1.0 / 64, 1.0 / 16, 0.25)
    res = integrate_adaptive(outer, 0.0, 1.0, 0.5 * tol, max_evals=60_000,
                             breakpoints=seeds)
    return QuadratureResult(-res.value, res.error_estimate, counter[0])


def reconstruct_fourier_bessel(
    params: PulseParams,
    w: Waveform,
    p: SpacetimePoint,
    tol: float,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Fourier-Bessel double integral driven by the waveform spectrum:

        u = -i integral_0^inf dk e^{i k (ct + i b)}
               integral_0^k dk_z fhat(k_z) J0(rho sqrt(k^2 - k_z^2))
                                  e^{-i k_z (z + i b)}.

    The outer integrand decays like exp(-k * min(decay_rate, b)) thanks
    to the e^{-k b} envelope, so the outer integral runs through the
    semi-infinite transform with that hint.
    """
    b = params.b
    ct = params.c * p.t
    rho = p.rho
    counter = [0]
    inner_tol = 0.05 * tol

    def inner(k: float) -> complex:
        if k <= 0.0:
            return 0.0 + 0.0j

        def integrand(kz: float) -> complex:
            _budgeted(counter, max_evals, "Fourier-Bessel reconstruction")
            chi = math.sqrt(max(k * k - kz * kz, 0.0))
            return (
                complex(w.spectrum(kz))
                * bessel_j0(rho * chi)
                * cmath.exp(complex(kz * b, -kz * p.z))
            )

        bps = tuple(q for q in w.spectrum_breakpoints if 0.0 < q < k)
        return integrate_adaptive(
            integrand, 0.0, k, inner_tol, max_evals=400_000, breakpoints=bps
        ).value

    def outer(k: float) -> complex:
        return cmath.exp(complex(-k * b, k * ct)) * inner(k)

    hint = 0.9 * min(w.decay_rate, b)
    bps = tuple(w.spectrum_breakpoints)
    res = integrate_semi_infinite(outer, 0.5 * tol, hint, max_evals=40_000,
                                  breakpoints=bps)
    return QuadratureResult(-1j * res.value, res.error_estimate, counter[0])


def reconstruct_from_weight(
    weight: SpectralWeight,
    p: SpacetimePoint,
    tol: float,
    kz_min: float = 0.0,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Generic Fourier-Bessel synthesis from a spectral weight:

        u = integral_0^inf domega e^{i omega t}
              integral_{kz_min}^{omega/c} dk_z A(k_z, omega)
                 e^{-i k_z z} J0(rho sqrt(omega^2/c^2 - k_z^2)).

    ``kz_min`` may be pushed below zero; weights vanish there, so the
    result must not change (the integrand is continued with zero).
    """
    c = weight.c
    rho = p.rho
    counter = [0]
    inner_tol = 0.05 * tol

    def inner(omega: float) -> complex:
        top = omega / c
        if top <= kz_min:
            return 0.0 + 0.0j

        def integrand(kz: float) -> complex:
            _budgeted(counter, max_evals, "spectral-weight reconstruction")
            chi = math.sqrt(max(top * top - kz * kz, 0.0))
            return (
                complex(weight(kz, omega))
                * bessel_j0(rho * chi)
                * cmath.exp(complex(0.0, -kz * p.z))
            )

        bps = tuple(q for q in weight.kz_breakpoints if kz_min < q < top)
        if kz_min < 0.0:
            bps = (0.0,) + bps
        return integrate_adaptive(
            integrand, kz_min, top, inner_tol, max_evals=400_000, breakpoints=bps
        ).value

    def outer(omega: float) -> complex:
        return cmath.exp(1j * omega * p.t) * inner(omega)

    bps = tuple(c * q for q in weight.kz_breakpoints)
    res = integrate_semi_infinite(outer, 0.5 * tol, weight.omega_decay,
                                  max_evals=40_000, breakpoints=bps)
    return QuadratureResult(res.value, res.error_estimate, counter[0])


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: complex
    stderr: float
    n_samples: int
    seed: int


_MC_CHUNK = 1 << 18


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

    Radius k is drawn from the exponential density b e^{-b k} (matching
    the e^{-k b} envelope) and the direction uniformly over the forward
    hemisphere, which cancels the 1/k amplitude and the k^2 volume
    factor up to k/b.  The counter-based Philox generator makes the
    stream reproducible and chunk-order independent of n.
    """
    if n_samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n_samples}")
    b = params.b
    ct = params.c * p.t
    rng = np.random.Generator(np.random.Philox(seed))

    total = 0.0 + 0.0j
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        k = rng.exponential(scale=1.0 / b, size=m)
        mu = rng.random(m)
        phi = 2.0 * math.pi * rng.random(m)
        kz = k * mu
        kperp = k * np.sqrt(1.0 - mu * mu)
        kx = kperp * np.cos(phi)
        ky = kperp * np.sin(phi)
        phase = k * ct - kz * p.z - kx * p.x - ky * p.y
        vals = (
            -1j
            * np.asarray(w.spectrum(kz), dtype=np.complex128)
            * (k / b)
            * np.exp(kz * b + 1j * phase)
        )
        total += complex(np.sum(vals))
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m

    mean = total / n_samples
    var = max(total_sq - n_samples * abs(mean) ** 2, 0.0) / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    return MonteCarloEstimate(mean, stderr, n_samples, seed)
