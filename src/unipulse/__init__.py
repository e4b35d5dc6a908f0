"""Localized unidirectional pulses of the 3-D wave equation.

Closed-form evaluation of a quasi-spherical pulse family, u = f(theta)/S
with f one ``Waveform(a, K=0.0)``, extraction of its large-time
directional amplitude, a unidirectionality certificate, and numerically
cross-validated reconstructions through two independent integral
representations, the forward-hemisphere plane-wave superposition and a
Fourier-Bessel integral over the waveform spectrum (a third is the
second under omega = c k), plus a Monte-Carlo estimate.
"""

__version__ = "0.1.0"

from .farfield import (
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_numeric,
)
from .fields import (
    AxisSpec,
    FieldGrid,
    GridSpec,
    PulseParams,
    SingularPoint,
    SpacetimePoint,
    complex_distance,
    energy_estimate,
    eval_quasi_spherical,
    eval_simple_pulse,
    eval_spherical_reference,
    sample_grid,
)
from .numerics import (
    ExtrapolationResult,
    QuadratureResult,
    ToleranceNotReached,
    bessel_j0,
    complex_sqrt_upper,
    integrate_adaptive,
    integrate_semi_infinite,
    limit_extrapolate,
)
from .pdecheck import ResidualReport, convergence_order, wave_residual
from .synthesis import (
    MonteCarloEstimate,
    reconstruct_cartesian_mc,
    reconstruct_from_weight,
    reconstruct_fourier_bessel,
    reconstruct_hemisphere,
    spectral_weight,
)
from .waveforms import Waveform, parse_waveform
