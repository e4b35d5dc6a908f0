import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unipulse.cli import main
from unipulse.fields import (
    PulseParams,
    SpacetimePoint,
    eval_quasi_spherical,
    eval_simple_pulse,
)
from unipulse.numerics import ToleranceNotReached
from unipulse.synthesis import (
    MC_MAX_SAMPLES,
    reconstruct_cartesian_mc,
    reconstruct_from_weight,
    reconstruct_fourier_bessel,
    reconstruct_hemisphere,
    reconstruct_spectral,
    spectral_weight,
)
import unipulse.synthesis as synthesis
from unipulse.waveforms import Waveform


REGULAR_POINTS = [
    SpacetimePoint.from_cylindrical(0.0, 0.5, 0.2),
    SpacetimePoint.from_cylindrical(0.5, 0.4, 0.3),
    SpacetimePoint.from_cylindrical(0.3, 0.8, -0.4),
    SpacetimePoint.from_cylindrical(1.0, 0.3, 0.6),
    SpacetimePoint.from_cylindrical(0.7, 1.1, 0.1),
]


class TestHemisphere:
    @pytest.mark.parametrize("p", REGULAR_POINTS)
    def test_reproduces_simple_pulse(self, params, rational, p):
        res = reconstruct_hemisphere(params, rational, p, 1e-6)
        exact = eval_simple_pulse(p, params)
        assert abs(res.value - exact) <= 1e-6
        assert res.error_estimate <= 1e-5 and res.evaluations > 0

    @pytest.mark.parametrize("p", REGULAR_POINTS)
    def test_reproduces_lekner_wave(self, params, p):
        w = Waveform(1.0, 1.0)
        res = reconstruct_hemisphere(params, w, p, 1e-5)
        exact = eval_quasi_spherical(p, params, w)
        assert abs(res.value - exact) <= 1e-5

    def test_on_axis_reduces_to_single_azimuth(self, params, rational):
        # the azimuthal mean of a constant settles on one panel at rho = 0
        p = SpacetimePoint(0.4, 0.0, 0.0, 0.3)
        res = reconstruct_hemisphere(params, rational, p, 1e-8)
        exact = eval_simple_pulse(p, params)
        assert abs(res.value - exact) <= 1e-8

    def test_budget_exhaustion(self, params, rational, monkeypatch):
        monkeypatch.setattr(synthesis, "HEMISPHERE_BUDGET", 200)
        with pytest.raises(ToleranceNotReached, match="route budget 200"):
            reconstruct_hemisphere(params, rational, REGULAR_POINTS[0], 1e-12)

    @pytest.mark.parametrize("tol", [1e-30, 1e-15, 1e-14])
    def test_target_below_error_floor_names_the_route(self, params, rational, tol):
        # the Gauss-Kronrod error floor keeps the azimuthal means or the mu
        # integral above their targets, so the route raises after its
        # initial panels, well inside its budgets
        with pytest.raises(ToleranceNotReached) as exc:
            reconstruct_hemisphere(params, rational, REGULAR_POINTS[0], tol)
        assert str(exc.value).startswith("hemisphere reconstruction (route budget 2000000): "
                                         "error floor")

    def test_counts_one_evaluation_per_derivative_value(self, params):
        w = Waveform(1.0, 1.0)
        nodes = []

        class Counting(Waveform):
            def deriv(self, theta):
                nodes.append(np.size(theta))
                return super().deriv(theta)

        res = reconstruct_hemisphere(params, Counting(1.0, 1.0), REGULAR_POINTS[1], 1e-6)
        assert res.evaluations == sum(nodes) > 0
        assert res.value == reconstruct_hemisphere(params, w, REGULAR_POINTS[1], 1e-6).value

    # random draws whose estimate fell below the true error while the
    # azimuthal mean was a trapezoid rule of its own: (c, tau, (t, rho, z),
    # a, tol) with a = b = c tau, coordinates as in from_cylindrical
    @pytest.mark.parametrize("c, tau, where, a, tol", [
        (0.9736896587696661, 1.1142921147590725,
         (0.6841836069233465, 1.5869375471372946, -1.4419283626785642), 1.084974708989491, 1e-7),
        (1.2371685671127906, 0.7025725809571268,
         (0.4246831310721064, 1.0897393559952744, -0.3236833646355837), 0.8692007132754637, 1e-7),
        (0.9596377212467952, 1.011825193740755,
         (0.33931219353548053, 1.3605800664969645, -0.9836295390511235), 0.9709856232214753, 1e-6),
        (0.5495974452050796, 1.9656723531589055,
         (-1.7402782053758459, 1.6084056085797371, 1.3652032400442988), 1.0803285034063914, 1e-6),
    ])
    def test_estimate_bounds_the_distance_from_the_closed_form(self, c, tau, where, a, tol):
        params = PulseParams(c, tau)
        w = Waveform(a)
        p = SpacetimePoint.from_cylindrical(*where)
        res = reconstruct_hemisphere(params, w, p, tol)
        exact = eval_quasi_spherical(p, params, w)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.error_estimate <= max(tol * abs(res.value), tol)


class TestFourierBessel:
    def test_reproduces_simple_pulse(self, params, rational):
        p = SpacetimePoint.from_cylindrical(0.0, 0.5, 0.2)
        res = reconstruct_fourier_bessel(params, rational, p, 1e-6)
        exact = eval_simple_pulse(p, params)
        assert abs(res.value - exact) <= 1e-6

    def test_on_axis_matches_hemisphere(self, params, rational):
        p = SpacetimePoint(0.6, 0.0, 0.0, -0.2)
        fb = reconstruct_fourier_bessel(params, rational, p, 1e-7)
        hemi = reconstruct_hemisphere(params, rational, p, 1e-7)
        assert abs(fb.value - hemi.value) <= 2e-7

    @pytest.mark.parametrize("p", REGULAR_POINTS[:3])
    def test_reproduces_lekner_wave(self, params, p):
        w = Waveform(1.0, 2.0)
        res = reconstruct_fourier_bessel(params, w, p, 1e-5)
        exact = eval_quasi_spherical(p, params, w)
        assert abs(res.value - exact) <= 1e-5

    def test_nonunit_wave_speed(self):
        p = PulseParams(2.0, 0.5)  # b = 1
        w = Waveform(p.b)
        pt = SpacetimePoint.from_cylindrical(0.25, 0.5, 0.2)
        res = reconstruct_fourier_bessel(p, w, pt, 1e-6)
        exact = eval_simple_pulse(pt, p)
        assert abs(res.value - exact) <= 1e-6


    def test_budget_names_the_route(self, params, rational, monkeypatch):
        monkeypatch.setattr(synthesis, "SPECTRAL_BUDGET", 1000)
        with pytest.raises(ToleranceNotReached, match="Fourier-Bessel reconstruction"):
            reconstruct_fourier_bessel(params, rational, REGULAR_POINTS[1], 1e-6)

    @pytest.mark.parametrize("w, most", [
        (Waveform(1.0), 10_245), (Waveform(1.0, 1.0), 10_245),
    ])
    def test_spends_no_more_than_one_integral_per_k(self, params, w, most):
        # the counts of solving each inner k_z integral of rational(1) alone at
        # tol 1e-6; lekner(1, 1) integrates over its support k_z >= K alone,
        # so it spends no more
        res = reconstruct_fourier_bessel(params, w, REGULAR_POINTS[1], 1e-6)
        assert res.evaluations <= most

    @pytest.mark.parametrize("K", [0.5, 1.0, 2.5])
    def test_takes_no_value_below_the_support(self, params, K, monkeypatch):
        # the spectrum is 0 on k_z < K: neither route asks for it there
        spectra, weights = [], []

        class Spying(Waveform):
            def spectrum(self, kappa):
                spectra.append(np.min(kappa))
                return super().spectrum(kappa)

        def weight(params, w, kz, omega):
            weights.append(np.min(kz))
            return spectral_weight(params, w, kz, omega)

        monkeypatch.setattr(synthesis, "spectral_weight", weight)
        w, p = Spying(1.0, K), REGULAR_POINTS[1]
        both = reconstruct_spectral(params, w, p, 1e-6)
        assert spectra and weights and min(spectra + weights) >= K
        for res in both.values():
            assert abs(res.value - eval_quasi_spherical(p, params, w)) <= res.error_estimate

    def test_counts_one_evaluation_per_spectral_value(self, params, monkeypatch):
        values = []

        class Counting(Waveform):
            def spectrum(self, kappa):
                values.append(np.size(kappa))
                return super().spectrum(kappa)

        p = REGULAR_POINTS[1]
        for lek in ((1.0,), (1.0, 1.0)):
            values.clear()
            res = reconstruct_fourier_bessel(params, Counting(*lek), p, 1e-6)
            # the seeded outer panels settle in one call, and so do the inner
            # ones: one inner call where ten bisections toward k = inf were,
            # in which each route's spectral factor takes the spectrum once
            assert values == [res.evaluations] * 2 and res.evaluations > 0
            # the count is the budget the result needs: that budget is enough
            with monkeypatch.context() as m:
                m.setattr(synthesis, "SPECTRAL_BUDGET", res.evaluations)
                again = reconstruct_fourier_bessel(params, Counting(*lek), p, 1e-6)
            assert again.value == res.value


class TestSpectralWeight:
    def test_edge_of_support(self, params, rational):
        # at kz = omega/c the exponential factor is exactly 1
        omega = 1.7
        a = spectral_weight(params, rational, omega / params.c, omega)
        assert a == pytest.approx(-1j / params.c * rational.spectrum(omega / params.c))
        assert isinstance(a, np.complex128)  # a scalar, not a 0-d array

    def test_rational_closed_form(self, rng):
        # symbolic substitution oracle: for a = b - zeta the weight is
        # -(1/c) e^{-omega b / c} e^{zeta kz}
        p = PulseParams(1.0, 1.0, 0.5)
        w = Waveform(p.b - p.zeta)
        for _ in range(50):
            omega = rng.uniform(0.1, 4.0)
            kz = rng.uniform(0.0, omega / p.c)
            a = spectral_weight(p, w, kz, omega)
            expect = -(1.0 / p.c) * math.exp(-omega * p.b / p.c) * math.exp(p.zeta * kz)
            assert a == pytest.approx(expect, rel=1e-14)

    def test_out_of_support(self, params, rational):
        # the weight continues by zero outside 0 <= k_z <= omega/c
        assert spectral_weight(params, rational, -0.1, 1.0) == 0.0
        assert spectral_weight(params, rational, 1.5, 1.0) == 0.0

    def test_weight_closure_is_zero_outside(self, params, rational):
        assert spectral_weight(params, rational, -0.5, 1.0) == 0.0
        assert spectral_weight(params, rational, 1.2, 1.0) == 0.0

    def test_weight_closure_takes_arrays(self, params):
        w = Waveform(1.0, 0.5)
        kz = np.linspace(-0.5, 2.5, 31)
        omega = np.array([[0.3], [1.0], [2.0]])
        got = spectral_weight(params, w, kz, omega)
        assert got.shape == (3, 31)
        for i, om in enumerate(omega[:, 0]):
            for j, k in enumerate(kz):
                inside = 0.0 <= k <= om / params.c
                # oracle: A = -(i/c) exp(-(omega/c - k_z) b) fhat(k_z) on the support
                want = -1j / params.c * math.exp(-(om / params.c - k) * params.b) \
                    * w.spectrum(k) if inside else 0.0
                assert got[i, j] == pytest.approx(want, rel=1e-15, abs=0.0)


class TestFromWeight:
    def test_reproduces_simple_pulse(self, params, rational):
        p = SpacetimePoint.from_cylindrical(0.0, 0.3, 0.1)
        res = reconstruct_from_weight(params, rational, p, 1e-6)
        exact = eval_simple_pulse(p, params)
        assert abs(res.value - exact) <= 1e-6

    def test_agrees_with_fourier_bessel(self, params, rational):
        # same integral after the omega = c k relabeling: mutual oracle
        for p in REGULAR_POINTS[:3]:
            wt = reconstruct_from_weight(params, rational, p, 1e-9)
            fb = reconstruct_fourier_bessel(params, rational, p, 1e-9)
            assert abs(wt.value - fb.value) <= 1e-8

    def test_lekner_weight(self, params):
        w = Waveform(1.0, 1.5)
        p = SpacetimePoint.from_cylindrical(0.2, 0.4, 0.3)
        res = reconstruct_from_weight(params, w, p, 1e-6)
        exact = eval_quasi_spherical(p, params, w)
        assert abs(res.value - exact) <= 1e-5

    def test_budget_names_the_route(self, params, rational, monkeypatch):
        monkeypatch.setattr(synthesis, "SPECTRAL_BUDGET", 1000)
        with pytest.raises(ToleranceNotReached, match="spectral-weight reconstruction"):
            reconstruct_from_weight(params, rational, REGULAR_POINTS[1], 1e-6)

    def test_counts_one_evaluation_per_weight_value(self, params):
        values = []

        class Counting(Waveform):
            def spectrum(self, kappa):
                values.append(np.size(kappa))
                return super().spectrum(kappa)

        for lek in ((1.0,), (1.0, 1.0)):
            values.clear()
            res = reconstruct_from_weight(params, Counting(*lek), REGULAR_POINTS[1], 1e-6)
            # one inner call: the seeded panels settle at once, and the weight
            # takes the spectrum once in it, as the other route's factor does
            assert values == [res.evaluations] * 2 and res.evaluations > 0
            # at c = 1 route (3) takes the same nodes, and so the same count
            fb = reconstruct_fourier_bessel(params, Waveform(*lek), REGULAR_POINTS[1], 1e-6)
            assert res.evaluations == fb.evaluations


class TestSharedSpectralQuadrature:
    def test_from_weight_integrand_equals_fourier_bessel_under_omega_is_ck(self, rng):
        # the two routes' spectral factors at seeded (k_z, k) = (K + x s, K + x),
        # in the expressions the shared quadrature takes: one integrand up to
        # rounding, which is why they can share nodes and the outer factor x e^{i k ct}
        for _ in range(50):
            params = PulseParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.4))
            w = Waveform(rng.uniform(0.5, 2.0), rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            x = rng.uniform(0.0, 8.0, 20)[:, None]
            k, kz = w.K + x, w.K + x * rng.uniform(0.0, 1.0, (20, 15))
            fb_spectral = -1j * w.spectrum(kz) * np.exp((kz - k) * params.b)
            wt_spectral = params.c * spectral_weight(params, w, kz, params.c * k)
            assert np.allclose(wt_spectral, fb_spectral, rtol=1e-13, atol=0.0)

    def test_shared_call_reports_each_route(self, params):
        w, p = Waveform(1.0, 1.0), REGULAR_POINTS[1]
        both = reconstruct_spectral(params, w, p, 1e-6)
        exact = eval_quasi_spherical(p, params, w)
        assert list(both) == ["fourier_bessel", "from_weight"]
        for route, alone in zip(both, (reconstruct_fourier_bessel, reconstruct_from_weight)):
            res = both[route]
            assert abs(res.value - exact) <= res.error_estimate <= 1e-6
            assert res.evaluations == alone(params, w, p, 1e-6).evaluations

    @pytest.mark.parametrize("lek", [(1.0,), (1.0, 1.0)])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_one_route_entry_points_return_the_shared_entries(self, lek, c):
        # each is the shared call's entry, value, estimate and count, bit for bit
        params, w, p = PulseParams(c, 1.0 / c), Waveform(*lek), REGULAR_POINTS[1]
        both = reconstruct_spectral(params, w, p, 1e-6)
        for route, alone in zip(both, (reconstruct_fourier_bessel, reconstruct_from_weight)):
            got, want = alone(params, w, p, 1e-6), both[route]
            assert (repr(got.value), repr(got.error_estimate)) == (repr(want.value), repr(want.error_estimate))
            assert got.evaluations == want.evaluations > 0

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_both_routes_count_equal_values_at_any_c(self, c):
        # the integrands differ by rounding at c != 1, and each outer node's
        # row refines both routes together
        params, w = PulseParams(c, 1.0 / c), Waveform(1.0, 2.0)
        for p in REGULAR_POINTS:
            both = reconstruct_spectral(params, w, SpacetimePoint(p.t / c, p.x, p.y, p.z), 1e-6)
            assert both["fourier_bessel"].evaluations == both["from_weight"].evaluations > 0


class TestRouteAgreement:
    @pytest.mark.parametrize("w", [Waveform(1.0), Waveform(1.0, 1.0)])
    def test_all_routes_agree(self, params, w):
        tol = 1e-6
        for p in REGULAR_POINTS:
            exact = eval_quasi_spherical(p, params, w)
            hemi = reconstruct_hemisphere(params, w, p, tol)
            fb = reconstruct_fourier_bessel(params, w, p, tol)
            wt = reconstruct_from_weight(params, w, p, tol)
            assert abs(hemi.value - fb.value) <= 2 * (tol + tol)
            assert abs(wt.value - fb.value) <= 2 * (tol + tol)
            for res in (hemi, fb, wt):
                assert abs(res.value - exact) <= 10 * tol


class TestSpectralRoutesOracle:
    @given(
        st.floats(0.5, 2.0),
        st.floats(0.7, 1.5),
        st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.0, 1.5)),
        st.one_of(st.just(None), st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2.0))),
        st.sampled_from([1e-5, 1e-6, 1e-7]),
    )
    @settings(max_examples=40, deadline=None)
    # points where a decay hint of 0.9 min(a, b) left the estimate below the error
    @example(1.0, 1.0, (0.0, 0.0, 0.917674744772695), None, 1e-7)
    @example(1.0, 1.203125, (0.0, 0.0, 0.917674744772695), (1.90625, 0.0), 1e-7)
    # the origin, where an estimate of the outer rule alone, without the inner
    # errors, fell below the error (2.2e-14 against 2.4e-12)
    @example(1.0, 1.0, (0.0, 0.0, 0.0), (0.5, 0.0), 1e-5)
    def test_estimates_bound_the_distance_from_the_closed_form(self, c, b, where, lek, tol):
        # coordinates in units of b; lek is None for rational(a = b), else (a, K)
        params = PulseParams(c, b / c)
        w = Waveform(b) if lek is None else Waveform(*lek)
        ct, z, rho = (b * q for q in where)
        p = SpacetimePoint.from_cylindrical(ct / c, rho, z)
        exact = eval_quasi_spherical(p, params, w)
        fb = reconstruct_fourier_bessel(params, w, p, tol)
        wt = reconstruct_from_weight(params, w, p, tol)
        for res in (fb, wt):
            assert abs(res.value - exact) <= res.error_estimate
            assert res.error_estimate <= max(tol * abs(res.value), tol)


class TestSpectralRoutesAtExtremeSpectra:
    @pytest.mark.parametrize("K", [60.0, 80.0, 100.0, 300.0, 800.0])
    def test_a_far_carrier_is_reached(self, params, K):
        # lekner(a = 1, K): an outer map u = 1 - e^{-lambda k} from k = 0 would
        # put the whole support within rounding of u = 1 once lambda K ~ 37,
        # where no node falls; in x = k - K every node carries part of it
        tol = 1e-6
        w = Waveform(1.0, K)
        points = [SpacetimePoint.from_cylindrical(0.0, 0.0, 0.5),
                  SpacetimePoint.from_cylindrical(0.3, 0.0, -0.2), *REGULAR_POINTS[:3]]
        for p in points:
            exact = eval_quasi_spherical(p, params, w)
            for route, res in reconstruct_spectral(params, w, p, tol).items():
                assert res.evaluations > 0, (route, p)
                assert abs(res.value - exact) <= res.error_estimate <= max(tol * abs(res.value), tol), (route, p)

    def test_an_outer_factor_past_the_float_range_is_reported(self):
        # c t = 1e309 overflows: the outer factor e^{i k ct} is non-finite, and
        # the inner rule reports it as a ValueError, not numpy as a RuntimeWarning
        p = SpacetimePoint.from_cylindrical(1e307, 0.5, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="integrand produced a non-finite value"):
                reconstruct_spectral(PulseParams(100.0, 0.01), Waveform(1.0), p, 1e-6)

    @pytest.mark.parametrize("w", [Waveform(0.01), Waveform(0.01, 1.0)])
    def test_a_slow_spectral_decay_raises_or_meets_its_estimate(self, params, w):
        # a = 0.01 runs the outer nodes out to k ~ 1e4, where a factor e^{k_z b}
        # would overflow; e^{(k_z - k) b} <= 1 does not, so each call either
        # raises ToleranceNotReached or meets its estimate, with no RuntimeWarning
        tol = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in REGULAR_POINTS[:3]:
                try:
                    both = reconstruct_spectral(params, w, p, tol)
                except ToleranceNotReached:
                    continue
                exact = eval_quasi_spherical(p, params, w)
                for res in both.values():
                    assert abs(res.value - exact) <= res.error_estimate <= max(tol * abs(res.value), tol)


# each route as compare runs it: the spectral ones in one shared quadrature
ROUTES = {
    "hemisphere": reconstruct_hemisphere,
    "fourier_bessel": lambda *args: reconstruct_spectral(*args)["fourier_bessel"],
    "from_weight": lambda *args: reconstruct_spectral(*args)["from_weight"],
}


class TestNestedEstimateOracle:
    @pytest.mark.parametrize("route", ROUTES)
    def test_seeded_sweep_estimates_bound_the_distance_from_the_closed_form(self, route):
        # 300 draws over TestSpectralRoutesOracle's box, every other one
        # rational(a = b), the tolerances in turn: each estimate, outer and
        # outer-weighted inner errors, bounds the error and meets its tolerance
        rng = np.random.default_rng(20)
        misses, worst = [], 0.0
        for i in range(300):
            c, b = rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.5)
            ct, z, rho = rng.uniform(-1.5, 1.5) * b, rng.uniform(-1.5, 1.5) * b, rng.uniform(0.0, 1.5) * b
            w = Waveform(b) if i % 2 else Waveform(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0))
            tol = (1e-5, 1e-6, 1e-7)[i % 3]
            params, p = PulseParams(c, b / c), SpacetimePoint.from_cylindrical(ct / c, rho, z)
            res = ROUTES[route](params, w, p, tol)
            err = abs(res.value - eval_quasi_spherical(p, params, w))
            worst = max(worst, err / res.error_estimate)
            if not err <= res.error_estimate <= max(tol * abs(res.value), tol):
                misses.append((i, err, res.error_estimate))
        assert not misses, f"{route}: worst error/estimate {worst:.3g}, misses {misses[:10]}"


class TestMonteCarlo:
    def test_matches_closed_form_within_three_sigma(self, params, rational):
        p = SpacetimePoint.from_cylindrical(0.0, 0.5, 0.0)
        exact = eval_simple_pulse(p, params)
        mc = reconstruct_cartesian_mc(params, rational, p, 1_000_000, 20260808)
        assert abs(mc.value - exact) <= 3.0 * mc.stderr
        assert mc.stderr < 0.01

    def test_seed_reproducibility(self, params, rational):
        p = SpacetimePoint.from_cylindrical(0.0, 0.4, 0.2)
        a = reconstruct_cartesian_mc(params, rational, p, 50_000, 7)
        b = reconstruct_cartesian_mc(params, rational, p, 50_000, 7)
        assert a.value == b.value and a.stderr == b.stderr
        c = reconstruct_cartesian_mc(params, rational, p, 50_000, 8)
        assert c.value != a.value

    def test_stderr_scaling(self, params, rational):
        # quadrupling the sample count halves the standard error (within 20%)
        p = SpacetimePoint.from_cylindrical(0.0, 0.5, 0.0)
        small = reconstruct_cartesian_mc(params, rational, p, 250_000, 11)
        big = reconstruct_cartesian_mc(params, rational, p, 1_000_000, 11)
        ratio = big.stderr / small.stderr
        assert 0.4 <= ratio <= 0.6

    def test_rejects_tiny_sample_counts(self, params, rational):
        with pytest.raises(ValueError):
            reconstruct_cartesian_mc(params, rational, REGULAR_POINTS[0], 100, 1)

    def test_rejects_oversized_sample_counts(self, params, rational):
        with pytest.raises(ValueError, match="got 1000000001"):
            reconstruct_cartesian_mc(params, rational, REGULAR_POINTS[0], MC_MAX_SAMPLES + 1, 1)

    def test_seeded_sweep_misses_three_sigma_near_the_normal_rate(self):
        # 200 (pulse, point) draws over route_crosscheck's box, with a/b
        # log-uniform in [1e-3, 1e4] and K b in [0, 3].
        # A normal estimator misses 3 sigma in 0.3% of draws; allow 2%.
        # The pulls |error| / stderr must also have an RMS near 1, so that
        # a standard error several times too wide fails too.
        rng = np.random.default_rng(16)
        pulls = []
        for i in range(200):
            params = PulseParams(*rng.uniform(0.5, 2.0, 2))
            b = params.b
            w = Waveform(10.0 ** rng.uniform(-3.0, 4.0) * b, rng.uniform(0.0, 3.0) / b if i % 2 else 0.0)
            t, z = rng.uniform(-1.5, 1.5, 2) * b
            rho, phi = rng.uniform(0.0, 1.5) * b, rng.uniform(0.0, 2.0 * math.pi)
            p = SpacetimePoint(t / params.c, rho * math.cos(phi), rho * math.sin(phi), z)
            mc = reconstruct_cartesian_mc(params, w, p, 20_000, 1000 + i)
            pulls.append(abs(mc.value - eval_quasi_spherical(p, params, w)) / mc.stderr)
        pulls = np.array(pulls)
        assert np.count_nonzero(pulls > 3.0) <= 4
        assert 0.8 <= math.sqrt(np.mean(pulls**2)) <= 1.25

    def test_seeded_sweep_on_the_axis_misses_three_sigma_near_the_normal_rate(self):
        # as the sweep above, but at rho <= 0.01 b, where the two members
        # of a pair (nearly) coincide: the stderr over the pair means must
        # stay honest there too
        rng = np.random.default_rng(19)
        pulls = []
        for i in range(200):
            params = PulseParams(*rng.uniform(0.5, 2.0, 2))
            b = params.b
            w = Waveform(10.0 ** rng.uniform(-3.0, 4.0) * b, rng.uniform(0.0, 3.0) / b if i % 2 else 0.0)
            t, z = rng.uniform(-1.5, 1.5, 2) * b
            rho, phi = rng.uniform(0.0, 0.01) * b, rng.uniform(0.0, 2.0 * math.pi)
            p = SpacetimePoint(t / params.c, rho * math.cos(phi), rho * math.sin(phi), z)
            mc = reconstruct_cartesian_mc(params, w, p, 20_000, 3000 + i)
            pulls.append(abs(mc.value - eval_quasi_spherical(p, params, w)) / mc.stderr)
        pulls = np.array(pulls)
        assert np.count_nonzero(pulls > 3.0) <= 4
        assert 0.8 <= math.sqrt(np.mean(pulls**2)) <= 1.25

    @pytest.mark.parametrize(("a", "K", "b"), [(0.7, 0.0, 0.7), (1.0, 0.0, 1.0), (1.3, 0.0, 1.3),
                                               (0.3, 0.0, 1.0), (2.5, 1.7, 0.8)],
                             ids=["0.7", "1.0", "1.3", "a=0.3b", "a=3.1b,K=1.4/b"])
    def test_constant_integrand_keeps_a_rounding_error_bar(self, a, K, b, tmp_path):
        # every member at the origin, t = 0: every sample is -1/(a b) up to
        # rounding, so only the rounding floor keeps the n-sigma check from
        # failing on it
        params, w = PulseParams(1.0, b), Waveform(a, K)
        origin = SpacetimePoint(0.0, 0.0, 0.0, 0.0)
        mc = reconstruct_cartesian_mc(params, w, origin, 20_000, 3)
        assert 0.0 < mc.stderr <= 1e-12
        assert abs(mc.value - eval_quasi_spherical(origin, params, w)) <= 3.0 * mc.stderr
        cfg = {"pulse": {"c": 1.0, "tau": b}, "waveform": f"lekner(a={a},K={K})",
               "points": [{"t": 0.0, "rho": 0.0, "z": 0.0}], "tolerance": 1e-6,
               "max_discrepancy": 1e-5, "mc": {"n_samples": 20_000, "seed": 3, "sigma": 3.0}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert main(["compare", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["mc_stderr"] > 0.0

    def test_estimate_depends_on_the_azimuth_through_rho_alone(self, params):
        w = Waveform(1.2, 0.5)
        p = SpacetimePoint(0.3, -0.4, 0.5, -0.2)
        turned = SpacetimePoint(0.3, math.hypot(-0.4, 0.5), 0.0, -0.2)
        a = reconstruct_cartesian_mc(params, w, p, 30_000, 9)
        assert a == reconstruct_cartesian_mc(params, w, turned, 30_000, 9)

    @staticmethod
    def trig32(x):
        # cos and sin of float64 arguments as the sampler takes them: x
        # reduced to r = x - 2 pi rint(x / 2 pi) in float64, then numpy's
        # float32 cos and sin at float32(r); returns cos, sin and that r, as
        # float64
        r = (x - 2.0 * math.pi * np.rint(x / (2.0 * math.pi))).astype(np.float32)
        return np.cos(r).astype(float), np.sin(r).astype(float), r.astype(float)

    @staticmethod
    def bound(r_m, r_p):
        # the float32 error bound B of each pair mean
        f = 2.0**-21
        return np.minimum(r_m**2, f) + np.minimum(r_p**2, f) + f * np.minimum(np.abs(r_p), 1.0)

    @staticmethod
    def arguments(params, p, kz, q, u):
        # each draw's mirror argument x_m = k_perp rho cos(phi), with
        # k_perp = sqrt(q (q + 2 k_z)) and cos(phi) the float32 cosine of
        # 2 pi u, and its phase x_p = k ct - k_z z with k = k_z + q, float64
        cos_phi = np.cos((2.0 * math.pi * u).astype(np.float32)).astype(float)
        x_m = np.sqrt(q * (q + 2.0 * kz)) * cos_phi * p.rho
        return x_m, (kz + q) * (params.c * p.t) - kz * p.z

    @classmethod
    def mirrored(cls, params, p, kz, q, u):
        # the two k-points of each draw, k_perp and its mirror -k_perp, each
        # with its own phase x_p -+ x_m, in the sampler's float32 trigonometry
        x_m, x_p = cls.arguments(params, p, kz, q, u)
        (cos_m, sin_m, _), (cos_p, sin_p, _) = cls.trig32(x_m), cls.trig32(x_p)
        return tuple((cos_p + 1j * sin_p) * (cos_m - s * 1j * sin_m) for s in (1.0, -1.0))

    @staticmethod
    def draws(rng, params, w, m):
        # one chunk of the sampler's variates: k_z - K ~ Exp(a), q ~ Exp(b),
        # then u
        e_z, e_q = rng.standard_exponential((2, m))
        return w.K + e_z / w.a, e_q / params.b, rng.random(m)

    @classmethod
    def chunks(cls, params, w, pairs, seed):
        # the sampler's chunk loop on numpy's default generator: its chunks of
        # draws, in order from one stream
        rng = np.random.default_rng(seed)
        for done in range(0, pairs, synthesis._MC_CHUNK):
            yield cls.draws(rng, params, w, min(synthesis._MC_CHUNK, pairs - done))

    @classmethod
    def replay(cls, params, w, p, n, seed):
        # ceil(n/2) draws, chunk by chunk, with every pair evaluated as the mean
        # of its two mirrored samples: -mean / (a b) and its standard error over
        # the pair means
        pairs = (n + 1) // 2
        vals = np.concatenate([sum(cls.mirrored(params, p, *draws)) / 2.0
                               for draws in cls.chunks(params, w, pairs, seed)])
        mean, scale = vals.mean(), w.a * params.b
        stderr = math.sqrt(np.sum(np.abs(vals - mean) ** 2) / (pairs - 1) / pairs)
        return vals, -mean / scale, stderr / scale

    def test_draws_from_the_default_generator_in_chunks(self, params, rational):
        # two full chunks and a partial one
        p, n = REGULAR_POINTS[2], 2 * synthesis._MC_CHUNK + 1_234
        mc = reconstruct_cartesian_mc(params, rational, p, n, 29)
        _, value, stderr = self.replay(params, rational, p, n, 29)
        assert abs(mc.value - value) <= 1e-15 * abs(mc.value)
        assert abs(mc.stderr - stderr) <= 1e-15 * mc.stderr

    def test_odd_n_runs_ceil_n_over_2_pairs(self, params):
        # n counts k-points: an odd n rounds up to whole pairs, one chunk of
        # 2^13 draws and a partial one of 618; the partial chunk's size sets
        # its variates, so a replay of 617 pairs does not match
        w, p, n = Waveform(1.0), REGULAR_POINTS[4], 2 * synthesis._MC_CHUNK + 1_235
        mc = reconstruct_cartesian_mc(params, w, p, n, 31)
        assert mc.n_samples == 2 * math.ceil(n / 2) == n + 1
        vals, value, stderr = self.replay(params, w, p, n, 31)
        assert vals.size == synthesis._MC_CHUNK + 618 == math.ceil(n / 2)
        assert abs(mc.value - value) <= 1e-15 * abs(mc.value)
        assert abs(mc.stderr - stderr) <= 1e-15 * mc.stderr
        _, fewer, _ = self.replay(params, w, p, n - 1, 31)
        assert abs(mc.value - fewer) > 1e-6 * abs(mc.value)

    @pytest.mark.parametrize("index", [0, 1, 2_345, 4_999])
    @pytest.mark.parametrize("p", [REGULAR_POINTS[2], SpacetimePoint(0.4, 0.0, 0.0, -0.3)],
                             ids=["off-axis", "on-axis"])
    def test_a_pair_is_the_mean_of_its_two_mirrored_samples(self, params, p, index):
        # the sampler's pair mean cos(r_m) (cos r_p + i sin r_p), at the draw
        # ``index``, is the mean of its two mirrored samples, and the
        # estimate is that of the replay, which takes every pair as that mean
        w, n, pairs = Waveform(1.1, 0.5), synthesis.MC_MIN_SAMPLES, synthesis.MC_MIN_SAMPLES // 2
        mc = reconstruct_cartesian_mc(params, w, p, n, 23)
        kz, q, u = (a[index] for a in self.draws(np.random.default_rng(23), params, w, pairs))
        plus, minus = self.mirrored(params, p, kz, q, u)
        (cos_m, _, _), (cos_p, sin_p, _) = (self.trig32(x) for x in self.arguments(params, p, kz, q, u))
        assert abs(cos_m * (cos_p + 1j * sin_p) - (plus + minus) / 2.0) <= 1e-14 * abs(plus)
        vals, value, _ = self.replay(params, w, p, n, 23)
        assert vals[index] == (plus + minus) / 2.0
        assert abs(mc.value - value) <= 1e-15 * abs(mc.value)
        if p.rho == 0.0:
            assert plus == minus

    def test_float32_trigonometry_meets_the_bound_terms(self):
        # numpy's float32 cos and sin at float32(r), r in [-pi, pi], against
        # float64 at r itself: |cos32 - cos| <= min(r^2, 2^-21) and
        # |sin32 - sin| <= 2^-21 min(|r|, 1).  The float64 cosine is taken as
        # 1 - 2 sin^2(r/2), without cancellation, so a tiny r is held to r^2
        # and not to float64's rounding next to 1.
        f, edge = 2.0**-21, math.pi - np.logspace(-16, 0, 20_000)
        tiny = np.logspace(-30, 0, 20_000)
        r = np.concatenate([np.random.default_rng(30).uniform(-math.pi, math.pi, 1_000_000),
                            edge, -edge, tiny, -tiny, [0.0, math.pi, np.nextafter(math.pi, 4.0)]])
        r32 = r.astype(np.float32)
        cos_err = np.abs((np.cos(r32).astype(float) - 1.0) + 2.0 * np.sin(0.5 * r) ** 2)
        sin_err = np.abs(np.sin(r32).astype(float) - np.sin(r))
        assert np.all(cos_err <= np.minimum(r * r, f))
        assert np.all(sin_err <= f * np.minimum(np.abs(r), 1.0))

    @pytest.mark.parametrize("p", [SpacetimePoint(0.4, 0.0, 0.0, -0.3), REGULAR_POINTS[2],
                                   SpacetimePoint(1_000.0, 0.3, 0.5, -0.5)],
                             ids=["on-axis", "off-axis", "ct=1e3 b"])
    def test_a_pair_lies_within_its_bound_of_float64_trigonometry(self, params, p):
        # on the sampler's draws, each pair mean in float32 trigonometry lies
        # within its bound B of cos(x_m) e^{i x_p} in float64 on the same
        # cos(phi), up to the float64 rounding eps (1 + |x_m| + |x_p|) that
        # both formulas' arguments carry; at ct = 10^3 b the phases run to
        # ~10^4 and pass through the reduction
        w = Waveform(1.1, 0.5)
        kz, q, u = self.draws(np.random.default_rng(37), params, w, 4 * synthesis._MC_CHUNK)
        value = sum(self.mirrored(params, p, kz, q, u)) / 2.0
        x_m, x_p = self.arguments(params, p, kz, q, u)
        exact = np.cos(x_m) * np.exp(1j * x_p)
        bound = self.bound(self.trig32(x_m)[2], self.trig32(x_p)[2])
        rounding = np.finfo(float).eps * (1.0 + np.abs(x_m) + np.abs(x_p))
        assert np.all(np.abs(value - exact) <= bound + rounding)
        assert np.max(np.abs(x_p)) > (1e4 if p.t > 100.0 else math.pi)
        assert np.count_nonzero(bound) > 0.5 * kz.size

    def test_stderr_covers_the_float32_bound(self):
        # rational(a = b) at t = z = 0, rho = 1e-5 b: x_p = 0 and |x_m| <= 1e-5
        # k_perp b, so float32 cos(x_m) is 1 at nearly every pair and the pair means
        # are constant, while cos(x_m) lies up to x_m^2 / 2 below 1.  The
        # statistical error misses that, and only the floor sum(B) / n_pairs
        # covers it; the sampler squares r in float32, so its floor may differ
        # from this one by 2^-22 relative.
        params, w, n = PulseParams(1.0, 1.3), Waveform(1.3), 30_000
        p = SpacetimePoint(0.0, 1.3e-5, 0.0, 0.0)
        mc = reconstruct_cartesian_mc(params, w, p, n, 5)
        kz, q, u = (np.concatenate(v) for v in zip(*self.chunks(params, w, n // 2, 5)))
        x_m, x_p = self.arguments(params, p, kz, q, u)
        floor = np.sum(self.bound(self.trig32(x_m)[2], self.trig32(x_p)[2])) / (n // 2) / (w.a * params.b)
        _, _, stderr = self.replay(params, w, p, n, 5)
        error = abs(mc.value - eval_quasi_spherical(p, params, w))
        assert 3.0 * stderr < error <= 3.0 * mc.stderr
        assert abs(mc.stderr - floor) <= 2.0**-22 * floor

    def test_memory_grows_with_the_chunk_not_with_n(self, params, rational):
        reconstruct_cartesian_mc(params, rational, REGULAR_POINTS[1], 10_000, 4)  # warm-up
        peaks = []
        for n in (100_000, 1_000_000):
            tracemalloc.start()
            reconstruct_cartesian_mc(params, rational, REGULAR_POINTS[1], n, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0] and peaks[1] <= 750_000
