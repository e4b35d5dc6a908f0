import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.farfield import (
    CERTIFICATE_SCHEDULE_CT,
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_deriv,
    farfield_numeric,
    radiation_schedule,
)
from unipulse.fields import (
    PulseParams,
    SingularPoint,
    SpacetimePoint,
    quasi_spherical_evaluator,
    simple_pulse_evaluator,
    spherical_reference_evaluator,
)
from unipulse.numerics import ToleranceNotReached
from unipulse.waveforms import LeknerWaveform


class TestDirection:
    def test_unit_vector(self):
        for chi in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
            for phi in (0.0, 1.0, 4.0):
                n = Direction(chi, phi)
                assert abs(sum(c * c for c in n.unit_vector) - 1.0) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            Direction(-0.1)
        with pytest.raises(ValueError):
            Direction(1.0, 7.0)
        with pytest.raises(ValueError):
            Direction(np.array([0.5, 4.0]))

    def test_fan_stacks_along_a_leading_axis(self):
        fan = Direction.fan([Direction(0.3, 1.0), Direction(2.0)])
        assert fan.chi.shape == fan.phi.shape == (2, 1)
        x, y, z = fan.unit_vector
        assert np.allclose(np.hstack([x, y, z]), [Direction(0.3, 1.0).unit_vector,
                                                  Direction(2.0).unit_vector], rtol=0, atol=1e-16)


class TestFarfieldNumeric:
    def test_spherical_reference_is_isotropic(self, params):
        # closed-form oracle: along R = ct + s the retarded argument is s,
        # so the limit is f(s + i b_ref) for every direction
        w = LeknerWaveform(1.0)
        ev = spherical_reference_evaluator(params, w, b_ref=0.5)
        sched = radiation_schedule(params)
        expect = w.eval(0.5 + 0.5j)
        for d in (Direction(0.2), Direction(1.9, 2.0), Direction(math.pi)):
            f = farfield_numeric(ev, 0.5, d, sched, params.c).value
            assert abs(f - expect) <= 1e-9

    def test_backward_axis_vanishes(self, params):
        ev = simple_pulse_evaluator(params)
        sched = radiation_schedule(params)
        f = farfield_numeric(ev, 0.3, Direction(math.pi), sched, params.c).value
        assert abs(f) <= 1e-8

    def test_forward_axis_matches_analytic(self, params, rational):
        ev = simple_pulse_evaluator(params)
        sched = radiation_schedule(params)
        f = farfield_numeric(ev, 0.0, Direction(0.0), sched, params.c).value
        assert abs(f - farfield_analytic(0.0, Direction(0.0), params, rational)) <= 1e-9
        # at chi=0 the closed form collapses to f(-s) = 1/(-s + i a)
        assert f == pytest.approx(1.0 / 1j, rel=1e-8)

    def test_agreement_across_s_range(self, params, rational):
        # the h^3 extrapolation remainder stays below 1e-6 relative over
        # the whole s in [-2, 2] band for the polynomial-decay family
        sched = radiation_schedule(params)
        ev = quasi_spherical_evaluator(params, rational)
        for chi in (0.0, math.pi / 6, math.pi / 3):
            for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
                n = Direction(chi)
                fn = farfield_numeric(ev, s, n, sched, params.c).value
                fa = farfield_analytic(s, n, params, rational)
                assert abs(fn - fa) <= 1e-6 * abs(fa)

    def test_agreement_with_analytic_both_pulses(self, params):
        sched = radiation_schedule(params)
        for w in (LeknerWaveform(1.0), LeknerWaveform(1.0, 1.0)):
            ev = quasi_spherical_evaluator(params, w)
            for chi in (0.0, math.pi / 6, math.pi / 3):
                for s in (-1.0, 0.0, 1.0):
                    n = Direction(chi)
                    fn = farfield_numeric(ev, s, n, sched, params.c).value
                    fa = farfield_analytic(s, n, params, w)
                    assert abs(fn - fa) <= 1e-6 * abs(fa)

    def test_backward_decay_halves_with_doubled_ct(self, params):
        # raw |ct u| halves when ct doubles on the backward hemisphere
        n = Direction(3 * math.pi / 4)
        for w in (LeknerWaveform(1.0), LeknerWaveform(1.0, 1.0)):
            ev = quasi_spherical_evaluator(params, w)
            mags = []
            for ct in (1e3, 2e3, 4e3):
                r = ct + 0.5
                nx, ny, nz = n.unit_vector
                from unipulse.fields import SpacetimePoint

                u = ev(SpacetimePoint(ct / params.c, r * nx, r * ny, r * nz))
                mags.append(ct * abs(u))
            assert mags[1] <= 0.55 * mags[0]
            assert mags[2] <= 0.55 * mags[1]

    def test_one_evaluator_call_for_every_direction_and_s(self, params, rational):
        calls = []

        def counting(p):
            calls.append(p.shape)
            return quasi_spherical_evaluator(params, rational)(p)

        sched = radiation_schedule(params)
        s = np.array([-1.0, 0.0, 1.0])
        dirs = [Direction(0.0), Direction(0.4, 1.0), Direction(1.0, 2.0), Direction(2.5)]
        res = farfield_numeric(counting, s, Direction.fan(dirs), sched, params.c)
        assert calls == [(4, 3, 3)]
        assert res.value.shape == res.stability.shape == res.diverged.shape == (4, 3)
        for i, d in enumerate(dirs):
            for j, sj in enumerate(s):
                one = farfield_numeric(counting, sj, d, sched, params.c)
                assert res.value[i, j] == one.value and res.diverged[i, j] == one.diverged

    def test_pole_on_the_ladder_names_the_node(self, params):
        def holey(p):  # NaN at the largest ct of the ladder
            return np.where(p.t > 5e3, np.nan, 1.0 + 0j) * np.ones(p.shape)

        with pytest.raises(SingularPoint, match=r"singular at SpacetimePoint\(t=10000.0"):
            farfield_numeric(holey, 0.0, Direction(0.0), radiation_schedule(params), params.c)

    def test_schedule_validation(self, params, rational):
        ev = quasi_spherical_evaluator(params, rational)
        with pytest.raises(ValueError):
            farfield_numeric(ev, 0.0, Direction(0.0), [1.0, 2.0], params.c)
        with pytest.raises(ValueError):
            farfield_numeric(ev, -200.0, Direction(0.0), [100.0, 150.0, 180.0], params.c)


class TestFarfieldAnalytic:
    def test_forward_axis_formula(self, params):
        w = LeknerWaveform(0.7)
        f = farfield_analytic(1.3, Direction(0.0), params, w)
        assert f == pytest.approx(1.0 / (-1.3 + 0.7j))

    def test_rational_general_angle_simplifies(self, params, rng):
        # symbolic simplification oracle: for f = 1/(theta + i a) with
        # a = b - zeta, F = 1/(-s + i(b - zeta cos chi)) on the forward side
        for zeta in (0.0, 0.4):
            from unipulse.fields import PulseParams

            p = PulseParams(1.0, 1.0, zeta)
            w = LeknerWaveform(p.b - zeta)
            for _ in range(50):
                chi = rng.uniform(0.0, math.pi / 2 - 1e-6)
                s = rng.uniform(-2.0, 2.0)
                f = farfield_analytic(s, Direction(chi), p, w)
                expect = 1.0 / complex(-s, p.b - zeta * math.cos(chi))
                assert f == pytest.approx(expect, rel=1e-14)

    def test_backward_hemisphere_exactly_zero(self, params, rational):
        for chi in (math.pi / 2, 2.0, 3 * math.pi / 4, math.pi):
            assert farfield_analytic(0.7, Direction(chi), params, rational) == 0.0

    def test_azimuth_independence(self, params, rational):
        f1 = farfield_analytic(0.4, Direction(0.8, 0.0), params, rational)
        f2 = farfield_analytic(0.4, Direction(0.8, 5.1), params, rational)
        assert f1 == f2


class TestFarfieldArrays:
    def test_arrays_match_single_calls(self, params):
        w = LeknerWaveform(1.0, 1.0)
        s = np.linspace(-2.0, 2.0, 5)
        chi = np.array([[0.0], [0.7], [math.pi / 2], [2.5]])
        n = Direction(chi, np.zeros_like(chi))
        for f in (farfield_analytic, farfield_deriv):
            got = f(s, n, params, w)
            assert got.shape == (4, 5)
            for i, j in np.ndindex(got.shape):
                one = f(float(s[j]), Direction(float(chi[i, 0])), params, w)
                assert isinstance(one, np.complex128)
                assert got[i, j] == one
            assert not got[2:].any()  # the equator and behind it


class TestFarfieldDeriv:
    def test_matches_finite_difference(self, params, rng):
        h = 1e-6
        for w in (LeknerWaveform(1.0), LeknerWaveform(1.0, 2.0)):
            for _ in range(100):
                chi = rng.uniform(0.0, math.pi / 2 - 0.05)
                s = rng.uniform(-2.0, 2.0)
                n = Direction(chi)
                fd = (
                    farfield_analytic(s + h, n, params, w)
                    - farfield_analytic(s - h, n, params, w)
                ) / (2 * h)
                d = farfield_deriv(s, n, params, w)
                assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))

    def test_backward_zero(self, params, rational):
        assert farfield_deriv(0.1, Direction(2.5), params, rational) == 0.0

    def test_forward_axis_sign(self, params):
        # symbolic differentiation oracle: d/ds [1/(-s + ia)] = 1/(-s + ia)^2
        w = LeknerWaveform(1.0)
        d = farfield_deriv(0.5, Direction(0.0), params, w)
        assert d == pytest.approx(1.0 / complex(-0.5, 1.0) ** 2, rel=1e-14)


class TestUnidirectionalityCertificate:
    def test_simple_pulse_passes(self, params):
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        rep = check_unidirectional(
            simple_pulse_evaluator(params),
            [-2.0, -1.0, 0.0, 1.0, 2.0],
            backward_direction_grid(8),
            1e-6,
            sched,
            params.c,
        )
        assert rep.passed and rep.max_abs <= 1e-6
        assert len(rep.directions) == 8
        assert {d["status"] for d in rep.directions} == {"OK"}

    def test_lekner_pulse_passes(self, params):
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        evaluator = quasi_spherical_evaluator(params, LeknerWaveform(1.0, 1.0))
        s = [-2.0, -1.0, 0.0, 1.0, 2.0]
        rep = check_unidirectional(evaluator, s, backward_direction_grid(8), 1e-6, sched, params.c)
        assert rep.passed
        # each direction's entry is what a certificate of that direction
        # alone reports, and the worst entry is the largest of them
        for d, entry in zip(backward_direction_grid(8), rep.directions):
            one = check_unidirectional(evaluator, s, [d], 1e-6, sched, params.c)
            assert one.directions == (entry,)
        worst = max(rep.directions, key=lambda e: e["max_abs_farfield"])
        assert rep.max_abs == worst["max_abs_farfield"]
        assert rep.worst == {"chi": worst["chi"], "phi": worst["phi"], "s": worst["worst_s"]}

    def test_spherical_reference_fails(self, params):
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        rep = check_unidirectional(
            spherical_reference_evaluator(params, LeknerWaveform(1.0), b_ref=1.0),
            [-2.0, -1.0, 0.0, 1.0, 2.0],
            backward_direction_grid(8),
            1e-6,
            sched,
            params.c,
        )
        assert not rep.passed
        assert rep.max_abs > 0.1
        assert rep.as_dict()["pass"] is False

    def test_turning_carrier_just_past_the_equator(self, params):
        # lekner(a=1, K=0.04) at chi = 0.505 pi: ct*u ~ A h e^{i K theta(ct)}
        # turns between ladder steps, so extrapolating ct*u itself left
        # |F| ~ 8.5e-6 > tol on a far field that is exactly zero; its
        # modulus extrapolates cleanly, and the spherical reference keeps
        # its |F| = |f(2i)| = 0.5
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        dirs = [Direction(0.505 * math.pi)]
        lekner = check_unidirectional(
            quasi_spherical_evaluator(params, LeknerWaveform(1.0, 0.04)),
            [-1.0, 0.0, 1.0], dirs, 1e-6, sched, params.c,
        )
        assert lekner.passed and lekner.max_abs <= 1e-8
        spherical = check_unidirectional(
            spherical_reference_evaluator(params, LeknerWaveform(1.0), b_ref=1.0),
            [-1.0, 0.0, 1.0], dirs, 1e-6, sched, params.c,
        )
        assert not spherical.passed
        assert spherical.max_abs == pytest.approx(0.5, rel=1e-9)

    def test_undecided_entry_raises_naming_it(self, params):
        # an evaluator growing like 1/h^2 cannot be extrapolated, and its
        # spread dwarfs tol: nothing FAILs, so the certificate is undecided
        def wild(p: SpacetimePoint) -> complex:
            return p.t * p.t + 0j

        sched = radiation_schedule(params)
        with pytest.raises(ToleranceNotReached, match=r"far field along chi=3\.0, s=0\.0: "
                           r"extrapolants do not settle \(spread "):
            check_unidirectional(wild, [0.0], [Direction(3.0)], 1e-6, sched, params.c)

    def test_one_evaluator_call_and_undecided_entry_named(self, params):
        # a term growing like t^2 where y > 0 spoils the second direction
        # only; the first settles below tol, so the spoiled one is named
        calls = []

        def mixed(p):
            calls.append(p.shape)
            return simple_pulse_evaluator(params)(p) + p.t * p.t * (p.y > 0.0)

        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        dirs = [Direction(3.0), Direction(2.0, 1.0)]
        with pytest.raises(ToleranceNotReached, match=r"chi=2\.0, s=-1\.0: extrapolants"):
            check_unidirectional(mixed, [-1.0, 0.0, 1.0], dirs, 1e-6, sched, params.c)
        assert calls == [(2, 3, 3)]

    def test_spread_below_tol_does_not_block_a_pass(self, params):
        # lekner(a=1, K=1) at chi = 0.505 pi: |ct*u| ~ 1e-30 along the
        # ladder, so its extrapolants' relative spread grows on rounding
        # noise far below tol; the certificate passes
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        rep = check_unidirectional(
            quasi_spherical_evaluator(params, LeknerWaveform(1.0, 1.0)),
            [-2.0, -1.0, 0.0, 1.0, 2.0], [Direction(0.505 * math.pi)], 1e-6, sched, params.c,
        )
        assert rep.passed and rep.max_abs == pytest.approx(1.2e-30, rel=0.1)

    def test_accepts_an_array_of_s_samples(self, params):
        s = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        sched = radiation_schedule(params, CERTIFICATE_SCHEDULE_CT)
        args = (backward_direction_grid(4), 1e-6, sched, params.c)
        rep = check_unidirectional(simple_pulse_evaluator(params), s, *args)
        assert rep.as_dict() == check_unidirectional(
            simple_pulse_evaluator(params), list(s), *args).as_dict()
        assert rep.passed and type(rep.worst["s"]) is float

    # exactly unidirectional lekner pulses never FAIL or raise, and their
    # spherical reference (b_ref = b) never PASSes.  Directions start at
    # 0.507 pi: just past the equator the 1e5..1e7 b ladder is too short,
    # and what it leaves of |F| grows as 1/b; for rational(a=b) at
    # b = 0.25, s = 2b it reads 1.27e-6 at 0.505 pi and 1.6e-7 at 0.507 pi.
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.5, 2.0), kb=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           c=st.floats(0.5, 2.0), tau=st.floats(0.5, 2.0),
           chi=st.floats(0.507 * math.pi, math.pi),
           s=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    def test_oracle_lekner_passes_and_spherical_reference_fails(self, a, kb, c, tau, chi, s):
        params = PulseParams(c, tau)
        b = params.b
        w = LeknerWaveform(a * b, kb / b)
        args = ([x * b for x in s], [Direction(chi)], 1e-6,
                radiation_schedule(params, CERTIFICATE_SCHEDULE_CT), c)
        rep = check_unidirectional(quasi_spherical_evaluator(params, w), *args)
        assert rep.passed, rep.as_dict()
        ref = check_unidirectional(spherical_reference_evaluator(params, w, b_ref=b), *args)
        assert not ref.passed, ref.as_dict()

    def test_rejects_forward_directions(self, params):
        with pytest.raises(ValueError):
            check_unidirectional(
                simple_pulse_evaluator(params), [0.0], [Direction(0.3)],
                1e-6, radiation_schedule(params), params.c,
            )
