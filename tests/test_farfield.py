import math

import numpy as np
import pytest

from unipulse.farfield import (
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_numeric,
)
from unipulse.fields import (
    PulseParams,
    SingularPoint,
    SpacetimePoint,
    eval_quasi_spherical,
    eval_simple_pulse,
    eval_spherical_reference,
)
from unipulse.numerics import ToleranceNotReached
from unipulse.waveforms import Waveform


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


def draw_pulse(rng) -> tuple[PulseParams, Waveform]:
    """A random lekner pulse: c, tau in [0.5, 2], a/b in [0.5, 2] and
    Kb = 0 for a quarter of the draws, else in [0, 3]."""
    params = PulseParams(*rng.uniform(0.5, 2.0, 2))
    b = params.b
    kb = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
    return params, Waveform(rng.uniform(0.5, 2.0) * b, kb / b)


class TestFarfieldNumeric:
    def test_spherical_reference_is_isotropic(self, params):
        # closed-form oracle: along R = ct + s the retarded argument is s,
        # so the limit is f(s + i b_ref) for every direction
        w = Waveform(1.0)
        ev = lambda p: eval_spherical_reference(p, params, w, b_ref=0.5)
        expect = w.eval(0.5 + 0.5j)
        for d in (Direction(0.2), Direction(1.9, 2.0), Direction(math.pi)):
            f = farfield_numeric(ev, 0.5, d, params).value
            assert abs(f - expect) <= 1e-9

    def test_backward_axis_vanishes(self, params):
        ev = lambda p: eval_simple_pulse(p, params)
        f = farfield_numeric(ev, 0.3, Direction(math.pi), params).value
        assert abs(f) <= 1e-8

    def test_forward_axis_matches_analytic(self, params, rational):
        ev = lambda p: eval_simple_pulse(p, params)
        f = farfield_numeric(ev, 0.0, Direction(0.0), params).value
        assert abs(f - farfield_analytic(0.0, Direction(0.0), params, rational)) <= 1e-9
        # at chi=0 the closed form collapses to f(-s) = 1/(-s + i a)
        assert f == pytest.approx(1.0 / 1j, rel=1e-8)

    def test_agreement_across_s_range(self, params, rational):
        # the h^3 extrapolation remainder stays below 1e-6 relative over
        # the whole s in [-2, 2] band for the polynomial-decay family
        ev = lambda p: eval_quasi_spherical(p, params, rational)
        for chi in (0.0, math.pi / 6, math.pi / 3):
            for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
                n = Direction(chi)
                fn = farfield_numeric(ev, s, n, params).value
                fa = farfield_analytic(s, n, params, rational)
                assert abs(fn - fa) <= 1e-6 * abs(fa)

    def test_agreement_with_analytic_both_pulses(self, params):
        for w in (Waveform(1.0), Waveform(1.0, 1.0)):
            ev = lambda p: eval_quasi_spherical(p, params, w)
            for chi in (0.0, math.pi / 6, math.pi / 3):
                for s in (-1.0, 0.0, 1.0):
                    n = Direction(chi)
                    fn = farfield_numeric(ev, s, n, params).value
                    fa = farfield_analytic(s, n, params, w)
                    assert abs(fn - fa) <= 1e-6 * abs(fa)

    def test_backward_decay_halves_with_doubled_ct(self, params):
        # raw |ct u| halves when ct doubles on the backward hemisphere
        n = Direction(3 * math.pi / 4)
        for w in (Waveform(1.0), Waveform(1.0, 1.0)):
            ev = lambda p: eval_quasi_spherical(p, params, w)
            mags = []
            for ct in (1e3, 2e3, 4e3):
                r = ct + 0.5
                nx, ny, nz = n.unit_vector
                from unipulse.fields import SpacetimePoint

                u = ev(SpacetimePoint(ct / params.c, r * nx, r * ny, r * nz))
                mags.append(ct * abs(u))
            assert mags[1] <= 0.55 * mags[0]
            assert mags[2] <= 0.55 * mags[1]

    def test_oracle_matches_the_closed_form_off_axis(self):
        # every forward direction up to 0.4995 pi and |s| <= 10 b: within
        # 1e-6 of max(|F|, 1/b).  A ladder fixed in units of b missed 221
        # of these 600 draws (worst 0.16), and flagged 9 of them diverged.
        rng = np.random.default_rng(23)
        for _ in range(600):
            params, w = draw_pulse(rng)
            s = rng.uniform(-10.0, 10.0) * params.b
            n = Direction(rng.uniform(0.0, 0.4995 * math.pi))
            res = farfield_numeric(lambda p: eval_quasi_spherical(p, params, w), s, n, params)
            fa = farfield_analytic(s, n, params, w)
            assert not res.diverged
            assert abs(res.value - fa) <= 1e-6 * max(abs(fa), 1.0 / params.b), (params, w, s, n)

    def test_one_evaluator_call_for_every_direction_and_s(self, params, rational):
        calls = []

        def counting(p):
            calls.append(p.shape)
            return eval_quasi_spherical(p, params, rational)

        s = np.array([-1.0, 0.0, 1.0])
        dirs = [Direction(0.0), Direction(0.4, 1.0), Direction(1.0, 2.0), Direction(2.5)]
        res = farfield_numeric(counting, s, Direction.fan(dirs), params)
        assert calls == [(4, 3, 3)]
        assert res.value.shape == res.stability.shape == res.diverged.shape == (4, 3)
        for i, d in enumerate(dirs):
            for j, sj in enumerate(s):
                one = farfield_numeric(counting, sj, d, params)
                assert res.value[i, j] == one.value and res.diverged[i, j] == one.diverged

    def test_pole_on_the_ladder_names_the_node(self, params):
        def holey(p):  # NaN at the largest ct of the ladder
            return np.where(p.t > 5e3, np.nan, 1.0 + 0j) * np.ones(p.shape)

        with pytest.raises(SingularPoint, match=r"non-finite u at SpacetimePoint\(t=10000.0"):
            farfield_numeric(holey, 0.0, Direction(0.0), params)

    def test_schedule_validation(self, params, rational):
        # the ladder runs in units of 1/cos^2 chi: within 1e-3 of the
        # equator in |cos chi| it would pass ct = 1e10 max(b, |s|)
        ev = lambda p: eval_quasi_spherical(p, params, rational)
        fan = Direction.fan([Direction(0.3), Direction(0.4997 * math.pi, 1.0)])
        with pytest.raises(ValueError, match=r"direction chi=1\.5698\d* has \|cos chi\| < 0\.001"):
            farfield_numeric(ev, [0.0, 1.0], fan, params)
        with pytest.raises(ValueError, match=r"\|cos chi\| < 0\.001"):
            check_unidirectional(ev, [0.0], [Direction(0.5003 * math.pi)], 1e-6, params)
        # ct >= 100 |s| keeps ct + s > 0, however negative s
        res = farfield_numeric(ev, -1e3, Direction(0.0), params)
        fa = farfield_analytic(-1e3, Direction(0.0), params, rational)
        assert abs(res.value - fa) <= 1e-6 * abs(fa)

    def test_ladder_scales_with_the_entry(self, params):
        # ct = (1e2, 1e3, 1e4) max(b, |s|)/cos^2 chi, for every entry of a fan
        ts = []

        def recording(p):
            ts.append(p.t)
            return np.ones(p.shape, dtype=complex)

        p = PulseParams(2.0, 0.25)  # b = 0.5, c = 2
        chi = np.array([0.0, 1.0, 2.5])
        s = np.array([-3.0, 0.1, 0.5])
        farfield_numeric(recording, s, Direction.fan([Direction(x) for x in chi]), p)
        scale = np.maximum(p.b, np.abs(s)) / np.cos(chi)[:, None] ** 2
        assert np.allclose(p.c * ts[0], scale[..., None] * [1e2, 1e3, 1e4], rtol=1e-15, atol=0)


class TestFarfieldAnalytic:
    def test_forward_axis_formula(self, params):
        w = Waveform(0.7)
        f = farfield_analytic(1.3, Direction(0.0), params, w)
        assert f == pytest.approx(1.0 / (-1.3 + 0.7j))

    def test_rational_general_angle_simplifies(self, params, rng):
        # symbolic simplification oracle: for f = 1/(theta + i a) with
        # a = b - zeta, F = 1/(-s + i(b - zeta cos chi)) on the forward side
        for zeta in (0.0, 0.4):
            from unipulse.fields import PulseParams

            p = PulseParams(1.0, 1.0, zeta)
            w = Waveform(p.b - zeta)
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
        w = Waveform(1.0, 1.0)
        s = np.linspace(-2.0, 2.0, 5)
        chi = np.array([[0.0], [0.7], [math.pi / 2], [2.5]])
        n = Direction(chi, np.zeros_like(chi))
        got = farfield_analytic(s, n, params, w)
        assert got.shape == (4, 5)
        for i, j in np.ndindex(got.shape):
            one = farfield_analytic(float(s[j]), Direction(float(chi[i, 0])), params, w)
            assert isinstance(one, np.complex128)
            assert got[i, j] == one
        assert not got[2:].any()  # the equator and behind it


class TestUnidirectionalityCertificate:
    def test_simple_pulse_passes(self, params):
        rep = check_unidirectional(
            lambda p: eval_simple_pulse(p, params),
            [-2.0, -1.0, 0.0, 1.0, 2.0],
            backward_direction_grid(),
            1e-6,
            params,
        )
        assert rep.passed and rep.max_abs <= 1e-6
        assert len(rep.directions) == 8
        assert {d["status"] for d in rep.directions} == {"OK"}

    def test_lekner_pulse_passes(self, params):
        evaluator = lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 1.0))
        s = [-2.0, -1.0, 0.0, 1.0, 2.0]
        rep = check_unidirectional(evaluator, s, backward_direction_grid(), 1e-6, params)
        assert rep.passed
        # each direction's entry is what a certificate of that direction
        # alone reports, and the worst entry is the largest of them
        for d, entry in zip(backward_direction_grid(), rep.directions):
            one = check_unidirectional(evaluator, s, [d], 1e-6, params)
            assert one.directions == (entry,)
        worst = max(rep.directions, key=lambda e: e["max_abs_farfield"])
        assert rep.max_abs == worst["max_abs_farfield"]
        assert rep.worst == {"chi": worst["chi"], "phi": worst["phi"], "s": worst["worst_s"]}

    def test_spherical_reference_fails(self, params):
        rep = check_unidirectional(
            lambda p: eval_spherical_reference(p, params, Waveform(1.0), b_ref=1.0),
            [-2.0, -1.0, 0.0, 1.0, 2.0],
            backward_direction_grid(),
            1e-6,
            params,
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
        dirs = [Direction(0.505 * math.pi)]
        lekner = check_unidirectional(
            lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 0.04)),
            [-1.0, 0.0, 1.0], dirs, 1e-6, params,
        )
        assert lekner.passed and lekner.max_abs <= 1e-8
        spherical = check_unidirectional(
            lambda p: eval_spherical_reference(p, params, Waveform(1.0), b_ref=1.0),
            [-1.0, 0.0, 1.0], dirs, 1e-6, params,
        )
        assert not spherical.passed
        assert spherical.max_abs == pytest.approx(0.5, rel=1e-9)

    def test_undecided_entry_raises_naming_it(self, params):
        # an evaluator growing like 1/h^2 cannot be extrapolated, and its
        # spread dwarfs tol: nothing FAILs, so the certificate is undecided
        def wild(p: SpacetimePoint) -> complex:
            return p.t * p.t + 0j

        with pytest.raises(ToleranceNotReached, match=r"far field along chi=3\.0, s=0\.0: "
                           r"extrapolants do not settle \(spread "):
            check_unidirectional(wild, [0.0], [Direction(3.0)], 1e-6, params)

    def test_one_evaluator_call_and_undecided_entry_named(self, params):
        # a term growing like t^2 where y > 0 spoils the second direction
        # only; the first settles below tol, so the spoiled one is named
        calls = []

        def mixed(p):
            calls.append(p.shape)
            return eval_simple_pulse(p, params) + p.t * p.t * (p.y > 0.0)

        dirs = [Direction(3.0), Direction(2.0, 1.0)]
        with pytest.raises(ToleranceNotReached, match=r"chi=2\.0, s=-1\.0: extrapolants"):
            check_unidirectional(mixed, [-1.0, 0.0, 1.0], dirs, 1e-6, params)
        assert calls == [(2, 3, 3)]

    def test_fail_report_marks_an_undecided_direction(self, params):
        # the first direction settles at |F| = 0.01 > tol; a term growing
        # like t^2 spoils the second at s = 1 only, and its settled
        # entries read what a certificate of them alone reports
        def mixed(p):
            s = np.sqrt(p.x**2 + p.y**2 + p.z**2) - params.c * p.t
            return (eval_simple_pulse(p, params) + 0.01 / (params.c * p.t) * (p.y <= 0.0)
                    + p.t * p.t * ((p.y > 0.0) & (s > 0.5)))

        spoiled = Direction(2.0, 1.0)
        rep = check_unidirectional(mixed, [-1.0, 0.0, 1.0], [Direction(3.0), spoiled],
                                   1e-6, params)
        # |F| = 0.01 up to the ladder's h^3 remainder, far below tol
        assert not rep.passed and rep.max_abs == pytest.approx(0.01, abs=1e-9)
        assert [d["status"] for d in rep.directions] == ["FAIL", "UNDECIDED"]
        settled = check_unidirectional(mixed, [-1.0, 0.0], [spoiled], 1e-6, params)
        assert settled.passed
        assert rep.directions[1] == {**settled.directions[0], "status": "UNDECIDED"}

    def test_spread_below_tol_does_not_block_a_pass(self, params):
        # lekner(a=1, K=1) at chi = 0.505 pi: |ct*u| ~ 1e-30 along the
        # ladder, so its extrapolants' relative spread grows on rounding
        # noise far below tol; the certificate passes
        rep = check_unidirectional(
            lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 1.0)),
            [-2.0, -1.0, 0.0, 1.0, 2.0], [Direction(0.505 * math.pi)], 1e-6, params,
        )
        assert rep.passed and rep.max_abs == pytest.approx(1.2e-30, rel=0.1)

    def test_accepts_an_array_of_s_samples(self, params):
        s = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        args = (backward_direction_grid(), 1e-6, params)
        rep = check_unidirectional(lambda p: eval_simple_pulse(p, params), s, *args)
        assert rep.as_dict() == check_unidirectional(
            lambda p: eval_simple_pulse(p, params), list(s), *args).as_dict()
        assert rep.passed and type(rep.worst["s"]) is float

    # exactly unidirectional lekner pulses never FAIL or raise, and their
    # spherical reference (b_ref = b) never PASSes, from 0.5005 pi (where
    # the ladder reaches ct = 4e9 max(b, |s|)) to the -z axis.  The fixed
    # ladder 1e5..1e7 b FAILed 4 of these 2,000 draws (worst |F| 1.1e-5),
    # and its oracle had to start at 0.507 pi.
    def test_oracle_lekner_passes_and_spherical_reference_fails(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            params, w = draw_pulse(rng)
            b = params.b
            args = (rng.uniform(-10.0, 10.0, 3) * b,
                    [Direction(rng.uniform(0.5005 * math.pi, math.pi), rng.uniform(0.0, 6.28))],
                    1e-6, params)
            rep = check_unidirectional(lambda p: eval_quasi_spherical(p, params, w), *args)
            assert rep.passed, rep.as_dict()
            ref = check_unidirectional(lambda p: eval_spherical_reference(p, params, w, b), *args)
            assert not ref.passed, ref.as_dict()

    @pytest.mark.parametrize("s_samples", [[], [[0.0, 1.0]]])
    def test_rejects_no_s_samples(self, params, s_samples):
        with pytest.raises(ValueError, match="^need at least one s sample$"):
            check_unidirectional(lambda p: eval_simple_pulse(p, params), s_samples,
                                 [Direction(2.5)], 1e-6, params)

    def test_rejects_forward_directions(self, params):
        with pytest.raises(ValueError):
            check_unidirectional(
                lambda p: eval_simple_pulse(p, params), [0.0], [Direction(0.3)],
                1e-6, params,
            )
