import math
import warnings

import numpy as np
import pytest

from unipulse.numerics import integrate_semi_infinite
from unipulse import waveforms
from unipulse.waveforms import Waveform, parse_waveform


def spectrum_roundtrip(w, theta, tol=1e-11):
    """Independent reconstruction of eval(theta) by quadrature of the
    spectrum, in x = kappa - K on its support."""
    k0 = w.K
    res = integrate_semi_infinite(
        lambda x: w.spectrum(k0 + x) * np.exp(1j * (k0 + x) * theta),
        tol,
        w.a + 0.9 * theta.imag,
    )
    return res.value


class TestRational:
    def test_eval_at_origin(self):
        assert Waveform(1.0).eval(0.0) == -1j

    def test_eval_at_i(self):
        assert Waveform(1.0).eval(1j) == -0.5j

    def test_eval_general(self):
        # exact complex division: 1/(1 + 1.5i)
        v = Waveform(0.5).eval(1 + 1j)
        assert v == pytest.approx(0.3076923076923077 - 0.46153846153846156j)

    def test_spectrum_values(self):
        w = Waveform(1.0)
        assert w.spectrum(0.0) == -1j
        assert abs(w.spectrum(2.0) - (-1j * math.exp(-2.0))) < 1e-16

    def test_spectrum_roundtrip_at_i(self):
        w = Waveform(1.0)
        assert abs(spectrum_roundtrip(w, 1j) - (-0.5j)) <= 1e-10

    def test_requires_positive_a(self):
        with pytest.raises(ValueError):
            Waveform(0.0)


class TestLekner:
    def test_reduces_to_rational_at_zero_carrier(self):
        # the rational descriptor is the K = 0 member, bit for bit
        w = parse_waveform("rational(a=0.8)")
        rng = np.random.default_rng(3)
        theta = rng.uniform(-5, 5, 50) + 1j * rng.uniform(0, 5, 50)
        kappa = np.concatenate([[0.0], rng.uniform(0, 40, 49)])
        assert np.array_equal(w.eval(theta), 1 / (theta + 0.8j))
        assert np.array_equal(w.deriv(theta), -1 / (theta + 0.8j) ** 2)
        assert np.array_equal(w.spectrum(kappa), -1j * np.exp(-0.8 * kappa))

    def test_eval_value(self):
        # e^{i*1*i}/(i + i) = e^{-1}/(2i)
        v = Waveform(1.0, 1.0).eval(1j)
        assert abs(v - (-0.5j * math.exp(-1.0))) < 1e-16

    def test_spectrum_support(self):
        w = Waveform(1.0, 2.0)
        assert w.spectrum(1.999) == 0.0
        assert w.spectrum(2.0) == -1j
        arr = w.spectrum(np.array([0.0, 2.0, 3.0]))
        assert arr[0] == 0.0 and arr[1] == -1j
        assert abs(arr[2] - (-1j * math.exp(-1.0))) < 1e-16

    def test_spectrum_far_below_K_is_0_without_overflow(self):
        # a (K - kappa) = 1000 would overflow exp; no RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Waveform(10.0, 100.0).spectrum(np.array([0.0, 100.0])).tolist() == [0.0, -1j]

    def test_spectrum_roundtrip(self):
        w = Waveform(1.0, 2.0)
        theta = 0.3 + 0.7j
        assert abs(spectrum_roundtrip(w, theta) - w.eval(theta)) <= 1e-10

    def test_rejects_negative_carrier(self):
        with pytest.raises(ValueError):
            Waveform(1.0, -0.5)


@pytest.mark.parametrize("w", [Waveform(1.0), Waveform(1.0, 2.0)])
class TestWaveformContract:
    def test_spectrum_roundtrip_random_points(self, w, rng):
        worst = 0.0
        for _ in range(100):
            r = math.sqrt(rng.uniform(0.0, 1.0)) * 10.0
            ang = rng.uniform(0.0, math.pi)
            theta = complex(r * math.cos(ang), max(r * math.sin(ang), 0.1))
            worst = max(worst, abs(spectrum_roundtrip(w, theta) - w.eval(theta)))
        assert worst <= 1e-8

    def test_deriv_matches_finite_differences(self, w, rng):
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            theta = complex(rng.uniform(-8, 8), rng.uniform(0.1, 8))
            fd = (w.eval(theta + h) - w.eval(theta - h)) / (2 * h)
            worst = max(worst, abs(w.deriv(theta) - fd) / abs(w.deriv(theta)))
        assert worst <= 1e-6

    def test_theta_times_eval_stays_bounded(self, w):
        # decay no slower than 1/|theta| along rays in the upper half-plane
        for ang in (0.0, 0.3, 1.0, 2.0, math.pi - 1e-3):
            for r in (10.0, 100.0, 1000.0, 10000.0):
                theta = r * complex(math.cos(ang), math.sin(ang))
                assert abs(theta * w.eval(theta)) <= 2.0

    def test_eval_decays_like_one_over_theta(self, w):
        # doubling |Re theta| at fixed height halves the modulus
        for re in (50.0, 200.0, 800.0):
            for sign in (1.0, -1.0):
                a = abs(w.eval(complex(sign * re, 2.0)))
                b = abs(w.eval(complex(sign * 2 * re, 2.0)))
                assert 0.45 <= b / a <= 0.55


class TestRegistryAndGrammar:
    def test_registry_contents(self):
        # the descriptor table: every name builds the one class; rational takes a alone
        assert waveforms._DESCRIPTOR_ARGS == {"rational": ("a",), "lekner": ("a", "K")}
        assert parse_waveform("rational(a=2)").K == 0.0

    def test_parse_rational(self):
        w = parse_waveform("rational(a=0.75)")
        assert isinstance(w, Waveform) and w.a == 0.75 and w.K == 0.0

    def test_parse_lekner(self):
        w = parse_waveform("lekner(a=1.5, K=2)")
        assert isinstance(w, Waveform) and w.a == 1.5 and w.K == 2.0

    @pytest.mark.parametrize(
        "bad",
        ["gauss(a=1)", "rational", "rational(a=x)", "rational(1.0)", "lekner(q=1)",
         "rational(a=1,K=2)", "lekner(K=1)"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_waveform(bad)

    @pytest.mark.parametrize("bad, message", [
        ("gauss(a=1)", "unknown waveform 'gauss' (known: lekner, rational)"),
        ("rational(a=1,K=2)", "waveform 'rational' does not accept arguments ['K', 'a']"),
        ("lekner(K=1)", "waveform 'lekner' does not accept arguments ['K']"),
        ("lekner(a=1,q=2)", "waveform 'lekner' does not accept arguments ['a', 'q']"),
        ("rational()", "waveform 'rational' does not accept arguments []"),
    ])
    def test_parse_error_messages(self, bad, message):
        with pytest.raises(ValueError) as exc:
            parse_waveform(bad)
        assert str(exc.value) == message
