import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.numerics import (
    ToleranceNotReached,
    bessel_j0,
    complex_sqrt_upper,
    integrate_adaptive,
    integrate_semi_infinite,
    limit_extrapolate,
)

mp.mp.dps = 40


def sqrt_oracle(w: complex) -> complex:
    """Arbitrary-precision principal square root, flipped into Im >= 0."""
    r = mp.sqrt(mp.mpc(w.real, w.imag))
    if r.imag < 0:
        r = -r
    return complex(r)


class TestComplexSqrtUpper:
    def test_negative_real_axis(self):
        assert complex_sqrt_upper(-1.0) == 1j
        assert complex_sqrt_upper(complex(-4.0, -0.0)) == 2j
        # arrays: np.sqrt alone would put -0.0j below the cut
        r = complex_sqrt_upper(np.array([-1.0 + 0j, complex(-4.0, -0.0)]))
        assert np.array_equal(r, [1j, 2j]) and not np.signbit(r.real).any()

    def test_on_axis_branch(self):
        # (ct + i c tau)^2 with c=1, t=2, tau=1 must return ct + i c tau
        w = (2 + 1j) ** 2
        assert complex_sqrt_upper(w) == 2 + 1j

    def test_nonnegative_real(self):
        r = complex_sqrt_upper(9.0)
        assert r == 3.0 and r.imag == 0.0
        assert isinstance(r, np.complex128)  # a scalar, not a 0-d array

    def test_lower_half_plane_input(self):
        # oracle: mpmath principal sqrt then flip sign if Im < 0
        assert abs(complex_sqrt_upper(3 - 4j) - sqrt_oracle(3 - 4j)) < 1e-15
        assert complex_sqrt_upper(3 - 4j) == pytest.approx(-2 + 1j)

    def test_non_finite_propagates(self):
        with np.errstate(invalid="ignore"):
            r = complex_sqrt_upper(np.array([complex(math.inf, 0.0), complex(0.0, math.nan)]))
        assert r[0].real == math.inf
        assert np.isnan(r[1])

    @given(
        st.complex_numbers(
            min_magnitude=1e-150, max_magnitude=1e150,
            allow_nan=False, allow_infinity=False,
        )
    )
    @settings(max_examples=300)
    def test_square_and_branch_invariant(self, w):
        r = complex_sqrt_upper(w)
        assert r.imag >= 0.0
        assert abs(r * r - w) <= 1e-14 * abs(w)
        assert complex_sqrt_upper(np.array([w]))[0] == r


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_reference_value(self):
        # oracle: mpmath power series, J0(1) = 0.765197686557966551...
        assert abs(bessel_j0(1.0) - 0.7651976865579666) < 1e-14

    def test_first_zero(self):
        assert abs(bessel_j0(2.404825557695773)) <= 1e-12

    def test_even(self):
        for x in (0.3, 1.7, 9.4, 123.0):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_absolute_error_budget(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            [rng.uniform(0, 16, 400), rng.uniform(16, 1e4, 400),
             [7.999, 8.0, 8.001, 1e4]]
        )
        worst = max(abs(bessel_j0(float(x)) - float(mp.besselj(0, float(x)))) for x in xs)
        assert worst <= 1e-12

    def test_ode_residual(self):
        # 5-point stencils; h balances the O(h^4) truncation against the
        # 1/h^2 amplification of evaluation noise near the regime switch
        h = 1e-2
        for x in np.linspace(0.5, 50.0, 120):
            f = [bessel_j0(x + k * h) for k in (-2, -1, 0, 1, 2)]
            d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            assert abs(d2 + d1 / x + f[2]) <= 1e-8


    def test_array_matches_mpmath_and_scalar_calls(self):
        rng = np.random.default_rng(6)
        below, above = [8.0], [8.0]
        for _ in range(20):  # x = 8, the regime switch, and its neighbouring floats
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 16.0))
        xs = np.concatenate(
            [rng.uniform(0, 16, 400), np.geomspace(16, 1e4, 400), below, above,
             [0.0, 1e4]]
        )
        values = bessel_j0(xs)
        ref = np.array([float(mp.besselj(0, float(x))) for x in xs])
        assert np.max(np.abs(values - ref)) <= 1e-12
        assert all(v == bessel_j0(float(x)) for x, v in zip(xs, values))
        assert np.array_equal(bessel_j0(-xs.reshape(4, -1)), values.reshape(4, -1))

    def test_array_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, math.inf]))

    def test_in_place_horner_equals_the_plain_recurrence(self):
        from unipulse.numerics import _J0_SERIES, _QP, _polevl

        xs = np.linspace(0.0, 8.0, 450)
        for coef in (_J0_SERIES, _QP):
            plain = coef[0]
            for c in coef[1:]:
                plain = plain * xs + c
            assert np.array_equal(_polevl(xs, coef), plain)
            assert _polevl(xs[7], coef) == plain[7]


class TestIntegrateAdaptive:
    def test_constant(self):
        res = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-10)
        assert abs(res.value - 1.0) <= 1e-12
        assert res.error_estimate >= 0.0 and res.evaluations > 0

    def test_complex_exponential(self):
        # antiderivative oracle: (e^{i pi} - 1)/i = 2i
        res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, math.pi, 1e-12)
        assert abs(res.value - 2j) <= 1e-12

    def test_bessel_laplace_transform(self):
        # known transform: integral_0^inf J0(x) e^{-x} dx = 1/sqrt(2);
        # the [0, 40] truncation error is ~e^{-40}, far below tolerance
        res = integrate_adaptive(
            lambda x: bessel_j0(x) * np.exp(-x), 0.0, 40.0, 1e-9
        )
        assert abs(res.value - 1.0 / math.sqrt(2.0)) <= 1e-9

    def test_linearity(self, rng):
        f = lambda x: np.exp(1j * x)
        g = lambda x: 1.0 / (1.0 + x * x)
        alpha, beta = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
        combo = integrate_adaptive(
            lambda x: alpha * f(x) + beta * g(x), 0.0, 3.0, 1e-11
        ).value
        parts = (
            alpha * integrate_adaptive(f, 0.0, 3.0, 1e-11).value
            + beta * integrate_adaptive(g, 0.0, 3.0, 1e-11).value
        )
        assert abs(combo - parts) <= 1e-9

    def test_budget_exhaustion_carries_best_value(self):
        with pytest.raises(ToleranceNotReached) as exc:
            integrate_adaptive(
                lambda x: np.sin(50.0 / (x + 1e-3)), 0.0, 1.0, 1e-14, max_evals=600
            )
        best = exc.value.result
        assert best is not None
        assert best.evaluations <= 600
        assert best.error_estimate > 0.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: 1.0, 1.0, 0.0, 1e-6)

    def test_non_finite_integrand_is_an_error(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: math.nan, 0.0, 1.0, 1e-6)

    def test_breakpoint_seeding_helps_kinks(self):
        f = lambda x: abs(x - 1.0 / 3.0)
        exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
        res = integrate_adaptive(f, 0.0, 1.0, 1e-12, breakpoints=(1.0 / 3.0,))
        assert abs(res.value - exact) <= 1e-12


class TestIntegrateSemiInfinite:
    def test_pure_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 1e-10, 1.0)
        assert abs(res.value - 1.0) <= 1e-10

    def test_damped_cosine(self):
        # antiderivative oracle: integral e^{-x} cos x dx = 1/2
        res = integrate_semi_infinite(lambda x: np.exp(-x) * np.cos(x), 1e-10, 0.9)
        assert abs(res.value - 0.5) <= 1e-10

    def test_linear_times_exponential(self):
        # antiderivative oracle: integral x e^{-2x} dx = 1/4
        res = integrate_semi_infinite(lambda x: x * np.exp(-2.0 * x), 1e-10, 1.5)
        assert abs(res.value - 0.25) <= 1e-10

    def test_requires_positive_decay(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: math.exp(-x), 1e-8, 0.0)


class TestVectorIntegrand:
    """Integrands called on the array of a panel's 15 nodes that return
    one row of values per component."""

    FREQS = np.array([0.5, 1.0, 2.0, 5.0, 20.0])

    def test_components_match_scalar_integrals_and_closed_form(self):
        # antiderivative oracle: integral_0^pi e^{iax} dx = (e^{i a pi} - 1)/(ia)
        tol = 1e-12
        res = integrate_adaptive(
            lambda x: np.exp(1j * self.FREQS[:, None] * x), 0.0, math.pi, tol
        )
        exact = (np.exp(1j * self.FREQS * math.pi) - 1.0) / (1j * self.FREQS)
        assert res.value.shape == res.error_estimate.shape == (5,)
        for a, v, e, want in zip(self.FREQS, res.value, res.error_estimate, exact):
            alone = integrate_adaptive(lambda x: np.exp(1j * a * x), 0.0, math.pi, tol)
            assert abs(v - want) <= e <= max(tol * abs(v), tol)
            assert abs(alone.value - want) <= alone.error_estimate
            assert abs(v - alone.value) <= 2 * tol

    def test_bessel_laplace_transform_over_a_vector_of_rates(self):
        # known transform: integral_0^inf J0(x) e^{-sx} dx = 1/sqrt(1 + s^2)
        s = np.array([0.5, 1.0, 2.0, 4.0, 9.0])
        tol = 1e-10
        res = integrate_semi_infinite(
            lambda x: bessel_j0(x) * np.exp(-s[:, None] * x), tol, 0.45
        )
        exact = 1.0 / np.sqrt(1.0 + s * s)
        assert np.all(np.abs(res.value - exact) <= res.error_estimate)
        assert np.all(res.error_estimate <= np.maximum(tol * np.abs(res.value), tol))
        for rate, v in zip(s, res.value):
            alone = integrate_semi_infinite(
                lambda x: bessel_j0(x) * np.exp(-rate * x), tol, 0.45
            )
            assert abs(v - alone.value) <= 2 * tol

    @given(
        st.lists(st.floats(0.05, 40.0), min_size=1, max_size=6),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 6.0),
        st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_estimate_bounds_true_error(self, freqs, a, width, tol):
        freqs = np.array(freqs)
        b = a + width
        res = integrate_adaptive(lambda x: np.exp(1j * freqs[:, None] * x), a, b, tol)
        # (e^{ifb} - e^{ifa})/(if), written without cancellation
        exact = np.exp(0.5j * freqs * (a + b)) * 2.0 * np.sin(0.5 * freqs * (b - a)) / freqs
        assert np.all(np.abs(res.value - exact) <= res.error_estimate)
        assert np.all(res.error_estimate <= np.maximum(tol * np.abs(res.value), tol))

    def test_called_once_per_panel_on_its_nodes(self):
        # all initial panels in one call, then both halves of a bisection in one
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.sin(self.FREQS[:, None] * x)

        res = integrate_adaptive(f, 0.0, 3.0, 1e-10, breakpoints=(1.0, 2.0))
        assert shapes[0] == (45,) and set(shapes[1:]) == {(30,)}
        assert res.evaluations == sum(n for n, in shapes) * self.FREQS.size

    def test_scalar_integrand_keeps_scalar_result(self):
        res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-10)
        assert type(res.value) is complex and type(res.error_estimate) is float

    def test_non_finite_component_is_an_error(self):
        def f(x):
            return np.stack([np.exp(x), np.where(x > 0.5, np.nan, x)])

        with pytest.raises(ValueError, match="component"):
            integrate_adaptive(f, 0.0, 1.0, 1e-6)

    def test_wrong_node_axis_is_an_error(self):
        with pytest.raises(ValueError, match="15"):
            integrate_adaptive(lambda x: np.ones(3), 0.0, 1.0, 1e-6)

    def test_budget_exhaustion_carries_partial_vector(self):
        rates = np.array([[50.0], [80.0]])
        with pytest.raises(ToleranceNotReached) as exc:
            integrate_adaptive(
                lambda x: np.sin(rates / (x + 1e-3)), 0.0, 1.0, 1e-14, max_evals=600
            )
        best = exc.value.result
        assert best.value.shape == best.error_estimate.shape == (2,)
        assert best.evaluations <= 600 and best.evaluations % 30 == 0
        assert np.all(best.error_estimate > 0.0)

    def test_error_floor_above_the_target_raises_after_the_initial_panels(self):
        # 50 eps resabs ~ 1.9e-14 for e^x on [0, 1]; the target is ~1.7e-17
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(x)

        with pytest.raises(ToleranceNotReached, match="error floor") as exc:
            integrate_adaptive(f, 0.0, 1.0, 1e-17)
        assert calls == [15] and exc.value.result.evaluations == 15
        assert abs(exc.value.result.value - (math.e - 1.0)) <= 1e-14

    def test_error_floor_found_by_bisection_raises(self):
        # the first panel's nodes miss the spike at 1/3; once bisection has
        # resolved it, the summed floor 50 eps * 1.77e-3 ~ 2e-17 exceeds the
        # 1e-17 target long before the budget is spent
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-((x - 1.0 / 3.0) / 1e-3) ** 2) + 1e-6 * np.abs(x - 1.0 / 3.0)

        with pytest.raises(ToleranceNotReached, match="error floor") as exc:
            integrate_adaptive(f, 0.0, 1.0, 1e-17, max_evals=20_000)
        assert len(calls) > 1 and exc.value.result.evaluations < 20_000

    def test_error_floor_names_the_component(self):
        # 1e-6 x has a floor of ~5.6e-21, far below its 1e-17 target
        with pytest.raises(ToleranceNotReached, match=r"component \(1,\)"):
            integrate_adaptive(lambda x: np.stack([1e-6 * x, np.exp(x)]), 0.0, 1.0, 1e-17)

    def test_initial_panels_count_against_the_budget(self):
        with pytest.raises(ToleranceNotReached, match="initial panels"):
            integrate_adaptive(lambda x: np.stack([x, x * x]), 0.0, 1.0, 1e-6,
                               max_evals=50, breakpoints=(0.5,))


class TestLimitExtrapolate:
    H = (0.1, 0.05, 0.025)

    def test_constant_sequence(self):
        res = limit_extrapolate(self.H, [5.0] * 3)
        assert abs(res.value - 5.0) <= 1e-14
        assert not res.diverged

    def test_linear_model_eliminated_exactly(self):
        res = limit_extrapolate(self.H, [1.0 + h for h in self.H])
        assert abs(res.value - 1.0) <= 1e-12

    def test_exponential_limit(self):
        # analytic-limit oracle: lim e^h = 1.  Four samples leave the
        # h^4 remainder e^xi * h0 h1 h2 h3 / 4! ~ 1.12e-6, which no
        # polynomial scheme on these nodes can beat.
        hs = (0.2, 0.1, 0.05, 0.025)
        res = limit_extrapolate(hs, [math.exp(h) for h in hs])
        assert abs(res.value - 1.0) <= 1.3e-6
        assert res.stability > 0.0

    def test_diverging_sequence_is_flagged(self):
        res = limit_extrapolate(self.H, [1.0, 10.0, 100.0])
        assert res.diverged
        assert res.stability == pytest.approx(228.0)

    def test_trailing_axis_flags_each_entry(self):
        # each row extrapolates on its own, as a call per row would
        rows = np.array([[5.0, 5.0, 5.0], [1.0, 10.0, 100.0], [1.1, 1.05, 1.025]])
        res = limit_extrapolate(self.H, rows[None, :, :] * [[[1.0]], [[1j]]])
        assert res.value.shape == res.diverged.shape == (2, 3)
        assert res.diverged.tolist() == [[False, True, False]] * 2
        for k, row in enumerate(rows):
            one = limit_extrapolate(self.H, row)
            assert res.value[0, k] == one.value and res.stability[0, k] == one.stability
            assert res.stability[1, k] == one.stability and res.diverged[1, k] == one.diverged

    def test_needs_three_decreasing_samples(self):
        with pytest.raises(ValueError):
            limit_extrapolate((0.1, 0.05), [1.0, 1.0])
        with pytest.raises(ValueError):
            limit_extrapolate((0.1, 0.2, 0.05), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            limit_extrapolate(self.H, [1.0, 1.0])
