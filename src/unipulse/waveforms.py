"""Waveform families selecting members of the quasi-spherical pulse class.

A waveform is an analytic function on the closed upper half-plane that
decays at least as 1/|argument| and has a spectral representation
supported on nonnegative frequencies:

    f(theta) = integral_0^inf  fhat(kappa) exp(i kappa theta) dkappa.

Two concrete families ship: a simple rational pole below the real axis,
and the same pole modulated by a positive-frequency carrier, which
sharpens angular localization.  New families plug in by subclassing
:class:`Waveform` and registering a constructor.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod

import numpy as np


class Waveform(ABC):
    """Interface shared by all waveforms.

    ``decay_rate`` bounds the spectrum, |spectrum(kappa)| <= C exp(-decay_rate*kappa),
    and is used as the decay hint for semi-infinite quadrature.
    ``spectrum_breakpoints`` lists kink locations of the spectrum so
    quadratures can seed panel edges there.
    """

    decay_rate: float
    spectrum_breakpoints: tuple[float, ...] = ()

    @abstractmethod
    def eval(self, theta: complex) -> complex:
        """Value at ``theta`` (imaginary part must be >= 0).

        Must accept a numpy array as well and return the matching shape;
        the closed forms pass whole grids through it.
        """

    @abstractmethod
    def deriv(self, theta: complex) -> complex:
        """Derivative at ``theta``; accepts arrays like :meth:`eval`."""

    @abstractmethod
    def spectrum(self, kappa):
        """Positive-frequency spectral density at kappa >= 0.

        Accepts a scalar or a numpy array; returns the matching shape.
        """

    @abstractmethod
    def describe(self) -> str:
        """Round-trippable constructor string, e.g. ``rational(a=1)``."""


class RationalWaveform(Waveform):
    """f(theta) = 1 / (theta + i a), a > 0.

    The pole sits at -i a, outside the closed upper half-plane, and the
    spectrum is -i exp(-a kappa).
    """

    def __init__(self, a: float):
        a = float(a)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"rational waveform requires a > 0, got a={a}")
        self.a = a
        self.decay_rate = a

    def eval(self, theta):
        return 1.0 / (theta + 1j * self.a)

    def deriv(self, theta):
        d = theta + 1j * self.a
        return -1.0 / (d * d)

    def spectrum(self, kappa):
        return -1j * np.exp(-self.a * np.asarray(kappa, dtype=float))

    def describe(self) -> str:
        return f"rational(a={self.a:.17g})"

    def __repr__(self):
        return f"RationalWaveform(a={self.a!r})"


class LeknerWaveform(Waveform):
    """f(theta) = exp(i K theta) / (theta + i a), a > 0, K >= 0.

    The carrier shifts the spectral support to kappa >= K, so K must be
    nonnegative to keep the spectrum on the positive half-line.
    """

    def __init__(self, a: float, K: float = 0.0):
        a = float(a)
        K = float(K)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"lekner waveform requires a > 0, got a={a}")
        if not (math.isfinite(K) and K >= 0.0):
            raise ValueError(f"lekner waveform requires K >= 0, got K={K}")
        self.a = a
        self.K = K
        self.decay_rate = a
        self.spectrum_breakpoints = (K,) if K > 0.0 else ()

    def eval(self, theta):
        return np.exp(1j * self.K * theta) / (theta + 1j * self.a)

    def deriv(self, theta):
        d = theta + 1j * self.a
        return (1j * self.K - 1.0 / d) * np.exp(1j * self.K * theta) / d

    def spectrum(self, kappa):
        arr = np.asarray(kappa, dtype=float)
        return np.where(arr >= self.K, -1j * np.exp(-self.a * (arr - self.K)), 0j)[()]

    def describe(self) -> str:
        return f"lekner(a={self.a:.17g},K={self.K:.17g})"

    def __repr__(self):
        return f"LeknerWaveform(a={self.a!r}, K={self.K!r})"


WAVEFORM_REGISTRY: dict[str, type] = {
    "rational": RationalWaveform,
    "lekner": LeknerWaveform,
}

_CALL_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*\((.*)\)\s*\Z", re.DOTALL)


def parse_waveform(text: str) -> Waveform:
    """Build a waveform from a descriptor like ``lekner(a=1.0,K=2)``.

    Raises ValueError with a message naming the offending fragment.
    """
    m = _CALL_RE.match(text)
    if m is None:
        raise ValueError(
            f"waveform descriptor {text!r} does not match name(key=value,...)"
        )
    name, argstr = m.group(1), m.group(2)
    cls = WAVEFORM_REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(WAVEFORM_REGISTRY))
        raise ValueError(f"unknown waveform {name!r} (known: {known})")
    kwargs = {}
    for frag in filter(None, (s.strip() for s in argstr.split(","))):
        key, sep, val = frag.partition("=")
        if not sep:
            raise ValueError(f"waveform argument {frag!r} is not key=value")
        try:
            kwargs[key.strip()] = float(val)
        except ValueError:
            raise ValueError(f"waveform argument {frag!r} has a non-numeric value") from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise ValueError(
            f"waveform {name!r} does not accept arguments {sorted(kwargs)}"
        ) from None
