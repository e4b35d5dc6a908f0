import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.numerics import (
    _NODES,
    _W_Q5,
    QuadratureResult,
    ToleranceNotReached,
    _gk15,
    bessel_j0,
    complex_sqrt_upper,
    fejer2,
    integrate_adaptive,
    integrate_doubling,
    integrate_nested,
    integrate_semi_infinite,
    limit_extrapolate,
    trapezoid,
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

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match=f"^tolerance must be positive, got {tol}$"):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0, tol)

    def test_non_finite_integrand_is_an_error(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: math.nan, 0.0, 1.0, 1e-6)

    def test_integer_values_are_integrated_as_floats(self):
        # a step of integer values, 2 then 5, with its edge at a breakpoint
        res = integrate_adaptive(lambda x: np.where(x < 1.0, 2, 5), 0.0, 3.0, 1e-10, breakpoints=(1.0,))
        assert isinstance(res.value, complex) and res.value == pytest.approx(12.0, abs=1e-12)

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

    @staticmethod
    def _initial_panels(f, *args):
        """The result and the number of panels of the first integrand call."""
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return f(x)

        res = integrate_semi_infinite(counted, *args)
        return res, sizes[0] // 15

    def test_seeds_edges_toward_the_end_of_the_map(self):
        # tol 1e-6: seeds 1 - 2^-k for k = 1 ... ceil(log2(1e6)/2) + 2 = 12
        res, panels = self._initial_panels(lambda x: x * np.exp(-0.5 * x), 1e-6, 0.25)
        assert panels == 13
        assert abs(res.value - 4.0) <= res.error_estimate <= 4e-6

    @pytest.mark.parametrize("tol", [1.0, 4.0])
    def test_loose_tolerance_gets_no_seeds(self, tol):
        # antiderivative oracle: integral x e^{-x/2} dx = 4
        res, panels = self._initial_panels(lambda x: x * np.exp(-0.5 * x), tol, 0.25)
        assert panels == 1
        assert abs(res.value - 4.0) <= res.error_estimate <= max(tol * abs(res.value), tol)

    def test_tiny_tolerance_caps_the_seeds_and_raises_on_the_floor(self):
        # 1e-300 asks for ~500 seeds; they stop before the last panel's
        # outermost node rounds to u = 1 (x = inf), and the rounding
        # floor raises after that one call
        nodes = []

        def f(x):
            nodes.append(x)
            return np.exp(-x)

        start = time.perf_counter()
        with pytest.raises(ToleranceNotReached, match="error floor"):
            integrate_semi_infinite(f, 1e-300, 1.0)
        assert time.perf_counter() - start < 1.0
        assert len(nodes) == 1 and nodes[0].size // 15 - 1 <= 53
        assert np.isfinite(nodes[0]).all()

    def test_bisection_below_the_seeds_ends_short_of_tolerance(self):
        # a hint of twice the true decay leaves a (1 - u)^(-1/2) singularity
        # at u = 1; bisection toward it reaches panels narrower than 2^-46,
        # whose outermost node rounds to u = 1, where x would be infinite;
        # the error left on those panels ends the call long before the budget
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ToleranceNotReached,
                               match="error floor .* too narrow to bisect") as exc:
                integrate_semi_infinite(lambda x: np.exp(-x) * np.cos(x), 1e-10, 2.0, 200_000)
        best = exc.value.result
        assert best.evaluations <= 2_000
        assert abs(best.value - 0.5) <= best.error_estimate


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


class TestThreeRuleEstimate:
    """The 5-point rule Q5 on the Kronrod nodes +-0.9491, +-0.4058 and 0,
    and the panel estimate of ``_gk15`` it sharpens."""

    @pytest.mark.parametrize("k", range(7))
    def test_q5_is_exact_through_degree_5_and_not_6(self, k):
        moment = float(np.dot(_W_Q5, _NODES**k)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)
        if k <= 5:
            assert abs(moment) <= 1e-15
        else:
            assert abs(moment) > 1e-2

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-3.0, 3.0), width=st.floats(1e-3, 4.0), freq=st.floats(0.0, 40.0))
    def test_lies_between_the_floor_and_quadpacks(self, a, width, freq):
        def f(x):
            return np.stack([np.exp(freq * x / 10.0), np.cos(freq * x), 1.0 / (1.0 + (freq * x) ** 2),
                             np.sqrt(np.abs(x - a - width / 3.0)), np.exp(1j * freq * x)])

        lo, hi = np.array([a, a + width / 2.0]), np.array([a + width / 2.0, a + width])
        value, sharp, floor = _gk15(f, lo, hi, sharp=True)
        same, quadpack, same_floor = _gk15(f, lo, hi)
        assert np.array_equal(value, same) and np.array_equal(floor, same_floor)
        assert np.all(floor <= sharp) and np.all(sharp <= quadpack)

    def test_geometric_convergence_lowers_the_estimate_and_still_bounds_the_error(self):
        # cos(6x) on [0, 1]: K15 errs by 3e-17, QUADPACK's estimate is 1e-9
        value, sharp, floor = _gk15(lambda x: np.cos(6.0 * x), np.array([0.0]), np.array([1.0]), sharp=True)
        quadpack = _gk15(lambda x: np.cos(6.0 * x), np.array([0.0]), np.array([1.0]))[1]
        assert abs(value[0] - math.sin(6.0) / 6.0) <= sharp[0] == floor[0] < 1e-5 * quadpack[0]


class TestIntegrateDoubling:
    """Each component of ``f(s, rows)`` refined on its own by a doubling rule."""

    @staticmethod
    def counted(g, components: int):
        """``g(s, rows)``, with the values it computes counted per component."""
        counts = np.zeros(components, dtype=int)

        def f(s, rows):
            counts[rows] += s.size
            return g(s, rows)

        return f, counts

    def test_trapezoid_bounds_its_error_on_analytic_periodic_integrands(self):
        # the mean of 1/(a - cos 2 pi s) over a period is 1/sqrt(a^2 - 1)
        a = np.array([1.05, 1.25, 2.0, 5.0])
        tol = 1e-10
        res = integrate_doubling(lambda s, rows: 1.0 / (a[rows][:, None] - np.cos(2.0 * math.pi * s)),
                                 trapezoid, tol, 10**6)
        err = np.abs(res.value - 1.0 / np.sqrt(a * a - 1.0))
        assert res.value.shape == res.error_estimate.shape == (4,)
        assert np.all(err <= res.error_estimate)
        assert np.all(res.error_estimate <= tol * np.maximum(np.abs(res.value), 1.0))

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_fejer2_is_exact_below_degree_n(self, n):
        s, w = fejer2(n)
        assert w[0] == w[n] == 0.0 and np.all(w[1:n] > 0.0)
        for k in range(n):
            assert abs(float(np.dot(w, s**k)) - 1.0 / (k + 1)) <= 1e-15
        if n == 16:  # and not at degree n
            assert abs(float(np.dot(w, s**n)) - 1.0 / (n + 1)) > 1e-12

    def test_fejer2_settles_a_cubic_on_its_first_nodes(self):
        f, counts = self.counted(lambda s, rows: np.stack([s**3, 1.0 - s * s])[rows], 2)
        res = integrate_doubling(f, fejer2, 1e-12, 10**6)
        assert np.allclose(res.value, [0.25, 2.0 / 3.0], rtol=0.0, atol=1e-15)
        # the open rule never evaluates s = 0 or 1; the result counts per component
        assert counts.tolist() == res.evaluations.tolist() == [15, 15]

    def test_a_settled_component_is_not_evaluated_again(self):
        # a constant settles at n = 16; 1/(1.01 - cos 2 pi s) at n = 512
        f, counts = self.counted(
            lambda s, rows: np.stack([np.ones_like(s), 1.0 / (1.01 - np.cos(2.0 * math.pi * s))])[rows], 2)
        res = integrate_doubling(f, trapezoid, 1e-10, 10**6)
        exact = 1.0 / math.sqrt(1.01**2 - 1.0)
        assert res.value[0] == 1.0 and abs(res.value[1] - exact) <= res.error_estimate[1] <= 1e-10 * exact
        assert counts.tolist() == res.evaluations.tolist() == [17, 513]

    @staticmethod
    def one_row(*components):
        """``g(s, rows)`` of one row whose components are ``components(s)``."""
        return lambda s, rows: np.stack([g(s) for g in components])[:, None, :][:, rows]

    def test_a_row_refines_until_all_its_components_settle(self):
        # the constant alone settles at n = 16 and the pole at n = 512; in one
        # row both go on to n = 512 and report its Q
        pole = lambda s: 1.0 / (1.01 - np.cos(2.0 * math.pi * s))
        res = integrate_doubling(self.one_row(np.ones_like, pole), trapezoid, 1e-10, 10**6)
        alone = integrate_doubling(self.one_row(pole), trapezoid, 1e-10, 10**6)
        assert res.value.shape == res.error_estimate.shape == res.evaluations.shape == (2, 1)
        assert res.value[0, 0] == 1.0 and res.value[1, 0] == alone.value[0, 0]
        assert res.error_estimate[1, 0] == alone.error_estimate[0, 0]
        assert res.evaluations.tolist() == [[513], [513]]

    def test_a_row_out_of_budget_or_rules_names_its_component(self):
        # STEP's two components as one row
        row = self.one_row(np.ones_like, lambda s: (s < 1.0 / 3.0) * 1.0)
        with pytest.raises(ToleranceNotReached,
                           match=r"^evaluation budget 100 exhausted \(error estimate .* of component \(1, 0\)\)"):
            integrate_doubling(row, trapezoid, 1e-6, 100)
        with pytest.raises(ToleranceNotReached, match=r"^1 component\(s\) unsettled at n = 16384 "
                                                      r"\(error estimate .* of component \(1, 0\)\)"):
            integrate_doubling(row, trapezoid, 1e-6, 10**6)

    # a constant, and a step the trapezoid never resolves: its differences
    # only halve per doubling
    STEP = staticmethod(lambda s, rows: np.stack([np.ones_like(s), (s < 1.0 / 3.0) * 1.0])[rows])

    def test_budget_exhaustion_names_the_component(self):
        with pytest.raises(ToleranceNotReached,
                           match=r"^evaluation budget 100 exhausted \(error estimate .* of component 1\)"):
            integrate_doubling(self.STEP, trapezoid, 1e-6, 100)

    def test_n_past_the_largest_rule_names_the_component(self):
        f, counts = self.counted(self.STEP, 2)
        with pytest.raises(ToleranceNotReached,
                           match=r"^1 component\(s\) unsettled at n = 16384 \(error estimate .* of component 1\)"):
            integrate_doubling(f, trapezoid, 1e-6, 10**6)
        assert counts.tolist() == [17, 16385]

    def test_floor_above_its_target_names_the_component(self):
        # 50 eps sum |w f| ~ 1.9e-14 for e^s, far above a 1e-17 target; 1e-6 s
        # has a floor of ~5.6e-21
        with pytest.raises(ToleranceNotReached, match=r"^error floor .* of component 1 exceeds its target"):
            integrate_doubling(lambda s, rows: np.stack([1e-6 * s, np.exp(s)])[rows], fejer2, 1e-17, 10**6)


class TestDoublingEstimate:
    """Seeded draws of analytic integrands with closed forms: every
    estimate of ``integrate_doubling`` bounds the error."""

    @staticmethod
    def fejer2_draw(rng):
        # entire (e^{zs}, and J0(lam sqrt(1 - s^2)) cos(mu s), the shape of the
        # spectral routes' kernel), and a branch point just left of s = 0; with
        # lam and mu up to 40 the 15 first nodes can alias the kernel and settle
        # it at n = 16 under its error
        z, (lam, mu) = complex(rng.uniform(-3, 3), rng.uniform(0, 60)), rng.uniform(0, 20, 2)
        delta, k = 10 ** rng.uniform(-3, 0), math.hypot(lam, mu)
        exact = [(np.exp(z) - 1.0) / z, math.sin(k) / k, 2.0 / 3.0 * ((delta + 1.0) ** 1.5 - delta**1.5)]
        return (lambda s, rows: np.stack([np.exp(z * s),
                                          bessel_j0(lam * np.sqrt(1.0 - s * s)) * np.cos(mu * s) + 0j,
                                          np.sqrt(delta + s) + 0j])[rows]), exact

    @staticmethod
    def trapezoid_draw(rng):
        # means over psi = pi s of periodic analytic integrands: a real and a
        # complex pole of 1/(a - cos psi), and exp(kappa cos psi)
        a, ac = 1.0 + 10 ** rng.uniform(-3, 0.6), complex(rng.uniform(-2, 2), 10 ** rng.uniform(-2.5, 0))
        kappa = rng.uniform(0, 30)
        exact = [1.0 / math.sqrt((a - 1.0) * (a + 1.0)), 1.0 / (np.sqrt(ac - 1.0) * np.sqrt(ac + 1.0)),
                 float(np.i0(kappa))]
        return (lambda s, rows: np.stack([1.0 / (a - np.cos(math.pi * s)) + 0j,
                                          1.0 / (ac - np.cos(math.pi * s)),
                                          np.exp(kappa * np.cos(math.pi * s)) + 0j])[rows]), exact

    @pytest.mark.parametrize("rule", [fejer2, trapezoid], ids=["fejer2", "trapezoid"])
    def test_seeded_estimates_bound_the_error(self, rule):
        rng = np.random.default_rng(26)
        draw = self.fejer2_draw if rule is fejer2 else self.trapezoid_draw
        worst, misses = 0.0, []
        for i in range(300):
            f, exact = draw(rng)
            tol = (1e-5, 1e-7, 1e-9, 1e-11)[i % 4]
            res = integrate_doubling(f, rule, tol, 10**7)
            err = np.abs(res.value - exact)
            worst = max(worst, float(np.max(err / res.error_estimate)))
            misses += [(i, j) for j in np.flatnonzero(err > res.error_estimate)]
            assert np.all(res.error_estimate <= tol * np.maximum(np.abs(res.value), 1.0))
        assert not misses, f"worst error/estimate {worst:.3g} at (draw, component) {misses[:10]}"


class TestIntegrateNested:
    @staticmethod
    def outer(g, tol):
        return integrate_adaptive(g, 0.0, 1.0, tol)

    @staticmethod
    def inner(error: float):
        """An inner rule whose integral at x is x^2, with estimate ``error`` x
        and 7 values per node, recording the tolerance and budget it gets."""
        calls = []

        def run(x, tol, budget):
            calls.append((tol, budget))
            return QuadratureResult(x * x, error * x, 7 * x.size)

        return run, calls

    def test_estimate_adds_the_outer_weighted_inner_estimates(self):
        # inner integrals x^2 with estimates 1e-3 x: the outer rule
        # integrates both, and the estimate carries int_0^1 1e-3 x dx
        inner, calls = self.inner(1e-3)
        (res,) = integrate_nested(self.outer, lambda x: x, inner, 1e-2, 10**6, ("test",))
        assert isinstance(res.value, float)  # a real integrand gives a float
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert res.error_estimate == pytest.approx(5e-4, rel=1e-9)
        assert res.evaluations == 7 * 15
        # each inner integral runs to 0.05 tol on the budget left
        assert calls == [(0.05 * 1e-2, 10**6)]

    def test_inner_estimates_above_the_target_raise(self):
        with pytest.raises(ToleranceNotReached,
                           match=r"^test \(route budget 1000\): error estimate 5\.000e-02 "
                                 r"with the inner ones exceeds its target 1\.000e-02"):
            integrate_nested(self.outer, lambda x: x, self.inner(0.1)[0], 1e-2, 1000, ("test",))

    def test_sums_the_components_at_each_node(self):
        # two components per node, x on the last axis: g integrates their sum
        (res,) = integrate_nested(
            self.outer, lambda x: np.stack([x, 2.0 * x]),
            lambda f, tol, budget: QuadratureResult(f, 1e-3 * np.abs(f), f.size), 1e-2, 10**6, ("test",))
        assert res.value == pytest.approx(1.5, abs=1e-15)
        assert res.error_estimate == pytest.approx(1.5e-3, rel=1e-9)
        assert res.evaluations == 2 * 15

    @staticmethod
    def two_routes(f, tol, budget):
        # components (route, piece, x): route 0 holds x and 2x with estimates
        # 1e-3 |f|, route 1 holds x^2 with 0.4 |f| and no second piece; values
        # counted per component, 3 for route 0's, 5 for route 1's
        estimates = np.stack([1e-3 * f[0], 0.4 * f[1]])
        return QuadratureResult(f.reshape(-1, f.shape[-1]), estimates.reshape(-1, f.shape[-1]),
                                np.repeat([3, 5], 2 * f.shape[-1]))

    def test_routes_keep_their_own_values_estimates_and_counts(self):
        res = integrate_nested(self.outer, lambda x: np.stack([[x, 2.0 * x], [x * x, 0.0 * x]]),
                               self.two_routes, 1.0, 10**6, ("first", "second"))
        assert res[0].value == pytest.approx(1.5, abs=1e-15)
        assert res[1].value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert res[0].error_estimate == pytest.approx(1.5e-3, rel=1e-9)
        assert res[1].error_estimate == pytest.approx(0.4 / 3.0, rel=1e-9)
        assert [r.evaluations for r in res] == [2 * 3 * 15, 2 * 5 * 15]

    def test_the_route_over_its_target_is_named(self):
        # at tol 0.1 route 1's estimate 0.4/3 exceeds its target 0.1; route 0's passes
        with pytest.raises(ToleranceNotReached, match=r"^second \(route budget 1000000\): error estimate "
                                                      r"1\.333e-01 with the inner ones exceeds its target "
                                                      r"1\.000e-01"):
            integrate_nested(self.outer, lambda x: np.stack([[x, 2.0 * x], [x * x, 0.0 * x]]),
                             self.two_routes, 0.1, 10**6, ("first", "second"))


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
        # the limit at h = 0 does not see the steps' scale, up to rounding
        # (these rows are O(1) to O(100)), so the far field runs one step
        # vector for entries whose steps differ by a factor
        one = limit_extrapolate(self.H, rows)
        for scale in (1e-7, 0.37, 3.0, 1e9):
            scaled = limit_extrapolate(np.multiply(scale, self.H), rows)
            assert np.allclose(scaled.value, one.value, rtol=1e-13, atol=1e-13)
            assert np.allclose(scaled.stability, one.stability, rtol=1e-13, atol=1e-13)
            assert np.array_equal(scaled.diverged, one.diverged)

    def test_needs_three_decreasing_samples(self):
        with pytest.raises(ValueError):
            limit_extrapolate((0.1, 0.05), [1.0, 1.0])
        with pytest.raises(ValueError):
            limit_extrapolate((0.1, 0.2, 0.05), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            limit_extrapolate(self.H, [1.0, 1.0])
