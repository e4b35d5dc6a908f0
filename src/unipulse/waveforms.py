"""The waveform selecting a member of the quasi-spherical pulse class.

A waveform is an analytic function on the closed upper half-plane that
decays at least as 1/|argument| and has a spectral representation
supported on nonnegative frequencies:

    f(theta) = integral_0^inf  fhat(kappa) exp(i kappa theta) dkappa.

One class ships, :class:`Waveform`, Lekner's pole below the real axis
modulated by a positive-frequency carrier, which sharpens angular
localization as K grows.  Descriptors spell it ``lekner(a=...,K=...)``,
and its K = 0 member, the simple rational pole, ``rational(a=...)``.
"""

from __future__ import annotations

import math
import re

import numpy as np


class Waveform:
    """f(theta) = exp(i K theta) / (theta + i a), a > 0, K >= 0.

    The spectrum is -i exp(-a (kappa - K)) on kappa >= K and 0 below, so
    ``a`` is the decay hint of semi-infinite quadratures, which integrate
    over kappa - K on [0, inf).  ``eval``, ``deriv`` and ``spectrum``
    accept a scalar or a numpy array and return the matching shape: the
    closed forms pass whole grids through them.
    """

    def __init__(self, a: float, K: float = 0.0):
        a = float(a)
        K = float(K)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"waveform requires a > 0, got a={a}")
        if not (math.isfinite(K) and K >= 0.0):
            raise ValueError(f"waveform requires K >= 0, got K={K}")
        self.a = a
        self.K = K

    # At K = 0 the carrier is 1; skipping its exp keeps the rational
    # pole's values exact and the energy integral at its cost.
    def eval(self, theta):
        """Value at ``theta`` (imaginary part must be >= 0)."""
        if self.K == 0.0:
            return 1.0 / (theta + 1j * self.a)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow: the caller reports it
            return np.exp(1j * self.K * theta) / (theta + 1j * self.a)

    def deriv(self, theta):
        """Derivative at ``theta``.  At K = 0 past |d| ~ 1e154, d = theta + i a,
        d*d overflows and numpy warns: -1/(d*d) is then the true 0, or NaN
        where d*d is inf + nan i, for the caller to report."""
        d = theta + 1j * self.a
        if self.K == 0.0:
            return -1.0 / (d * d)
        return (1j * self.K - 1.0 / d) * np.exp(1j * self.K * theta) / d

    def spectrum(self, kappa):
        """Positive-frequency spectral density at kappa >= 0."""
        arr = np.asarray(kappa, dtype=float)
        return np.where(arr >= self.K, -1j * np.exp(-self.a * np.maximum(arr - self.K, 0.0)), 0j)[()]

    def __repr__(self):
        carrier = f", K={self.K!r}" if self.K else ""
        return f"Waveform(a={self.a!r}{carrier})"


#: the arguments each descriptor name takes; ``a`` is required
_DESCRIPTOR_ARGS = {"rational": ("a",), "lekner": ("a", "K")}

_CALL_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*\((.*)\)\s*\Z")


def parse_waveform(text: str) -> Waveform:
    """Build a waveform from a descriptor like ``lekner(a=1.0,K=2)``.

    Raises ValueError with a message naming the offending fragment.
    """
    m = _CALL_RE.match(text)
    if m is None or not text.isprintable():  # it is echoed into reports and CSV comments
        raise ValueError(
            f"waveform descriptor {text!r} does not match name(key=value,...) in printable text"
        )
    name, argstr = m.group(1), m.group(2)
    accepted = _DESCRIPTOR_ARGS.get(name)
    if accepted is None:
        known = ", ".join(sorted(_DESCRIPTOR_ARGS))
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
    if "a" not in kwargs or not set(kwargs) <= set(accepted):
        raise ValueError(f"waveform {name!r} does not accept arguments {sorted(kwargs)}")
    return Waveform(**kwargs)
