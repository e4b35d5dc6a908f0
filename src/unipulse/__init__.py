"""Localized unidirectional pulses of the 3-D wave equation.

Closed-form evaluation of a quasi-spherical pulse family, extraction of
its large-time directional amplitude, a unidirectionality certificate,
and numerically cross-validated reconstructions through four
independent integral representations plus a Monte-Carlo estimate.
"""

__version__ = "0.1.0"

from .farfield import (
    CERTIFICATE_SCHEDULE_CT,
    DEFAULT_SCHEDULE_CT,
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_deriv,
    farfield_numeric,
    radiation_schedule,
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
    quasi_spherical_evaluator,
    sample_grid,
    simple_pulse_evaluator,
    spherical_reference_evaluator,
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
from .pdecheck import BelowNoiseFloor, ResidualReport, convergence_order, wave_residual
from .synthesis import (
    MonteCarloEstimate,
    SpectralWeight,
    make_spectral_weight,
    reconstruct_cartesian_mc,
    reconstruct_from_farfield,
    reconstruct_from_weight,
    reconstruct_fourier_bessel,
    reconstruct_hemisphere,
)
from .waveforms import LeknerWaveform, Waveform, parse_waveform
