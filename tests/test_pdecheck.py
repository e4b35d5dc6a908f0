import math

import numpy as np
import pytest

from unipulse.fields import (
    PulseParams,
    SingularPoint,
    SpacetimePoint,
    eval_quasi_spherical,
    eval_simple_pulse,
)
from unipulse.pdecheck import convergence_order, wave_residual
from unipulse.waveforms import Waveform

POINT = SpacetimePoint(0.3, 0.2, 0.1, -0.4)
H_LADDER = (4e-3, 2e-3, 1e-3)


def oblique_plane_wave(params, kx=0.3, ky=0.4, kz=0.5):
    k = math.sqrt(kx * kx + ky * ky + kz * kz)
    omega = params.c * k

    def ev(p: SpacetimePoint) -> complex:
        return np.exp(1j * (kx * p.x + ky * p.y + kz * p.z - omega * p.t))

    return ev


class TestWaveResidual:
    def test_plane_wave_is_a_solution(self, params):
        rep = wave_residual(oblique_plane_wave(params), POINT, 1e-3, params)
        assert rep.normalized <= 1e-5

    def test_simple_pulse_quadratic_truncation(self, params):
        r_2h = wave_residual(lambda p: eval_simple_pulse(p, params), POINT, 2e-3, params)
        r_h = wave_residual(lambda p: eval_simple_pulse(p, params), POINT, 1e-3, params)
        ratio = abs(r_2h.residual) / abs(r_h.residual)
        assert 3.5 <= ratio <= 4.5

    def test_static_quadratic_detector(self, params):
        # known Laplacian: u = x^2 leaves residual 2 at any h
        rep = wave_residual(lambda p: p.x * p.x + 0j, SpacetimePoint(0, 1.0, 0.5, 0.2), 1e-3, params)
        assert rep.residual == pytest.approx(2.0, abs=1e-6)
        assert rep.normalized == pytest.approx(1.0, abs=1e-6)

    def test_field_scale_positive(self, params):
        rep = wave_residual(lambda p: eval_simple_pulse(p, params), POINT, 1e-3, params)
        assert rep.field_scale > 0.0
        assert rep.h == 1e-3

    def test_one_evaluator_call_for_all_points_and_steps(self, params, rng):
        calls = []

        def counting(p):
            calls.append(p.shape)
            return eval_simple_pulse(p, params)

        t, x, y, z = (rng.uniform(-1.2, 1.2, (5, 1)) for _ in range(4))
        rep = wave_residual(counting, SpacetimePoint(t, x, y, z), np.array(H_LADDER), params)
        assert calls == [(5, 3, 9)]
        assert rep.residual.shape == rep.normalized.shape == (5, 3)
        for i in range(5):
            p = SpacetimePoint(float(t[i, 0]), float(x[i, 0]), float(y[i, 0]), float(z[i, 0]))
            for j, h in enumerate(H_LADDER):
                one = wave_residual(counting, p, h, params)
                assert rep.residual[i, j] == one.residual
                assert rep.field_scale[i, j] == one.field_scale

    def test_pole_in_the_stencil_raises(self):
        # zeta = b puts the simple pulse's pole at the origin at t = 0
        bad = PulseParams(1.0, 1.0, 1.0)
        with pytest.raises(SingularPoint, match=r"t=0.0, x=0.0, y=0.0, z=0.0"):
            wave_residual(lambda p: eval_simple_pulse(p, bad), SpacetimePoint(0.0, 0.0, 0.0, 0.0),
                          1e-3, bad)

    def test_rejects_bad_step(self, params):
        with pytest.raises(ValueError):
            wave_residual(lambda p: eval_simple_pulse(p, params), POINT, 0.0, params)


class TestConvergenceOrder:
    def test_simple_pulse_order_two(self, params, rng):
        ev = lambda p: eval_simple_pulse(p, params)
        for _ in range(20):
            p = SpacetimePoint(*rng.uniform(-1.2, 1.2, 4))
            assert 1.8 <= convergence_order(ev, p, H_LADDER, params) <= 2.2

    def test_lekner_order_two(self, params, rng):
        ev = lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 1.0))
        for _ in range(20):
            p = SpacetimePoint(*rng.uniform(-1.2, 1.2, 4))
            assert 1.8 <= convergence_order(ev, p, H_LADDER, params) <= 2.2

    def test_non_solution_order_zero(self, params):
        def gaussian(p: SpacetimePoint) -> complex:
            return np.exp(-(p.x**2 + p.y**2 + p.z**2)) + 0j

        order = convergence_order(gaussian, SpacetimePoint(0.0, 0.4, 0.2, 0.3), H_LADDER, params)
        assert abs(order) <= 0.05

    def test_axis_aligned_plane_wave_hits_floor(self, params):
        # with steps equal in ct units the truncation cancels exactly and
        # only rounding remains: no order exists
        def ev(p: SpacetimePoint) -> complex:
            return np.exp(1j * (p.z - params.c * p.t))

        assert np.isnan(convergence_order(ev, POINT, H_LADDER, params))

    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_late_rational_pulse_hits_floor(self, params, rational, t):
        # late on, each second difference is its own rounding, 4 eps |u0| / h^2,
        # far above 40 eps field_scale: no order exists
        ev = lambda p: eval_quasi_spherical(p, params, rational)
        assert np.isnan(convergence_order(ev, SpacetimePoint.from_cylindrical(t, 0.5, 0.2), H_LADDER, params))

    def test_array_points_give_one_order_each(self, params, rng):
        ev = lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 1.0))
        coords = rng.uniform(-1.2, 1.2, (4, 6))
        orders = convergence_order(ev, SpacetimePoint(*coords), H_LADDER, params)
        assert orders.shape == (6,)
        for k in range(6):
            p = SpacetimePoint(*(float(v) for v in coords[:, k]))
            # the fit's dot products may round differently in a batch
            assert orders[k] == pytest.approx(convergence_order(ev, p, H_LADDER, params), rel=1e-14)

    def test_floored_point_among_many_reads_nan(self, params):
        # only the second point sits where the residual is pure rounding
        def ev(p: SpacetimePoint) -> complex:
            return np.exp(1j * (p.z - params.c * p.t)) + (p.x > 0.5) * p.x**4

        points = SpacetimePoint(0.3, np.array([1.0, 0.2]), 0.1, -0.4)
        orders = convergence_order(ev, points, H_LADDER, params)
        assert np.isfinite(orders[0]) and np.isnan(orders[1])

    @pytest.mark.parametrize("floored", [False, True])
    def test_is_the_residual_reports_order(self, params, rng, floored):
        # the residual command's fitted_order: the ladder on a trailing axis
        lekner = lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 1.0))
        ev = (lambda p: np.exp(1j * (p.z - params.c * p.t))) if floored else lekner
        coords = rng.uniform(-1.2, 1.2, (4, 5))
        orders = convergence_order(ev, SpacetimePoint(*coords), H_LADDER, params)
        ladder = SpacetimePoint(*coords[:, :, None])
        expect = wave_residual(ev, ladder, np.array(H_LADDER), params).order()
        assert orders.shape == (5,)
        assert (np.isnan(orders) if floored else np.isfinite(orders)).all()
        assert orders.tobytes() == expect.tobytes()

    def test_requires_decreasing_ladder(self, params):
        ev = lambda p: eval_simple_pulse(p, params)
        with pytest.raises(ValueError):
            convergence_order(ev, POINT, (1e-3, 2e-3, 4e-3), params)
        with pytest.raises(ValueError):
            convergence_order(ev, POINT, (2e-3, 1e-3), params)
