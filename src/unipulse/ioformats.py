"""Deterministic text serialization for command outputs.

CSV cells and comments spell floats with C's ``%.16e``, one layout for every
finite value (``1.0000000000000001e-01``).  A JSON report is one line of
the standard library's JSON, its floats in Python's shortest round-trip
spelling; ``python -m json.tool <file>`` pretty-prints it.  Either way a
value reads back bit for bit, and identical runs write byte-identical files
on one numpy build and CPU dispatch path.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

CSV_CHUNK_BYTES = 5 << 18  #: 1.25 MiB: the bytes a chunk holds, 32 a cell and 192 a spelled float


def fmt_float(x: float) -> str:
    """C's ``%.16e``, with nan and inf spelled NaN and Infinity."""
    return ("%.16e" % float(x)).replace("nan", "NaN").replace("inf", "Infinity")


def _complex_parts(v: Any) -> dict:
    """``json.dumps``'s hook for the values it has no spelling of: a complex as {"re", "im"}."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(obj: Any) -> str:
    """One line of JSON: floats in their shortest round-trip spelling, NaN and
    the infinities as NaN, Infinity and -Infinity, keys in insertion order, and
    complex numbers as {"re", "im"}."""
    return json.dumps(obj, ensure_ascii=False, default=_complex_parts)


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def write_csv(path, comments: Sequence[str], columns: dict[str, Any], keep=None) -> None:
    """``# comment`` lines, a header of the column names, then one row
    per element of the columns' broadcast shape in row-major order, or
    per element where the boolean mask ``keep`` of that shape is true.

    Cells read as ``fmt_float`` spells them; a complex column fills three,
    re, im and their ``np.hypot``, under a name that heads all three (say
    ``"re,im,abs"``).  A column that repeats under broadcasting (a grid
    axis, a constant) is spelled once per value, all such values in one
    pass, and its cells are taken per row.  The other columns' cells are
    derived and spelled ``CSV_CHUNK_BYTES`` at a time, and ``keep`` is read
    a chunk at a time, so memory stays flat in the row count, masked or not.
    """
    arrays = [np.asarray(c, complex if np.iscomplexobj(c) else float) for c in columns.values()]
    # a complex column is three: views of its re and im, then itself, spelled as its magnitude
    arrays = [p for a in arrays for p in ((a.real, a.imag, a) if a.dtype == complex else (a,))]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = math.prod(shape)
    fresh = [(j, a.reshape(-1)) for j, a in enumerate(arrays) if a.size == rows]
    repeat, start = [], 0
    for j, a in enumerate(arrays):
        if a.size < rows:  # row r's cell: the column's first, plus r // inner % length * stride
            dims = (1,) * (len(shape) - a.ndim) + a.shape  # per axis the column runs along
            repeat.append((j, start, [(math.prod(shape[d + 1:]), k, math.prod(dims[d + 1:]))
                                      for d, k in enumerate(dims) if k > 1]))
            start += a.size
    if repeat:
        spelled = _spell(np.concatenate([_floats(arrays[j]).ravel() for j, _, _ in repeat])).view(_VOID)
    kept = None if keep is None else np.broadcast_to(keep, shape).flat  # read a chunk at a time
    step = max(1, CSV_CHUNK_BYTES // (_CELL * len(arrays) + 192 * len(fresh)))
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n").encode())
        for lo in range(0, rows, step):
            r = np.arange(lo, min(lo + step, rows))
            r = r if kept is None else r[kept[lo:lo + step]]
            void = np.empty((r.size, len(arrays)), _VOID)
            if fresh:  # one stacked gather, one pass
                own = _spell(np.stack([_floats(f[r]) for _, f in fresh], axis=1).ravel()).view(_VOID)
                for k, (j, _) in enumerate(fresh):
                    void[:, j] = own[k::len(fresh), 0]
            for j, first, axes in repeat:
                void[:, j] = spelled[sum((r // inner % k * stride for inner, k, stride in axes), first), 0]
            void.view(np.uint8)[:, _CELL - 1::_CELL] = list(b"," * (len(arrays) - 1) + b"\n")
            fh.write(void.tobytes().translate(None, b"\0"))


def _floats(x: np.ndarray) -> np.ndarray:
    """The floats a column's cells spell: ``x``, or a complex ``x``'s ``np.hypot`` of its parts."""
    return np.hypot(x.real, x.imag) if np.iscomplexobj(x) else x


# --- fmt_float for whole arrays -------------------------------------------
#
# A cell is four little-endian words holding a %.16e spelling's bytes, the others NUL:
# 0 sign, 6 d0, 7 ".", 8-23 d1..d16, 24-28 "e+XX" or "e+XXX", 31 the separator.  NaN
# and inf are words of their own.  |x| = D 10**(e - 16), the 17-digit D being the
# double-double product of |x| and 10**(16 - e) (Dekker), rounded; zero is D = 0 at
# e = 0.  Where 10**(16 - e) is a double the product is exact and rint's ties-to-even is
# %e's; elsewhere it errs by under 1e-14, and D within 2**-30 of a tie is left to
# fmt_float, as is any other |x| outside [2**-929, 2**930).

_CELL, _VOID = 32, np.dtype("V32")  # a cell's bytes, and the cell as one element
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split
_POW10_FILE = Path(__file__).with_name("pow10.bin")


@functools.cache
def _tables() -> tuple:
    # 10**k, k = -300 ... 300, by row k + 300, as hi + lo, each correctly rounded
    # from exact integers (tests/test_ioformats.py rebuilds them)
    hi, lo = np.fromfile(_POW10_FILE, "<f8").reshape(2, 601)
    scale = np.stack([hi, lo, hh := hi * _SPLIT - (hi * _SPLIT - hi), hi - hh])
    # by biased binary exponent: |x| in [2**(b-1023), 2**(b-1022)) has the decimal
    # exponent e_low, or e_low + 1 from next_decade, the smallest double >= 10**(e_low + 1)
    b = np.arange(2048)
    e_low = np.floor((np.clip(b, 94, 1952) - 1023) * math.log10(2.0)).astype(np.int64)
    k = e_low + 301
    next_decade = np.where(lo[k] > 0, np.nextafter(hi[k], math.inf), hi[k])
    # the text of each group of four digits, 1000 d0 + ... + d3, in the low half of a word
    quad = np.zeros((10, 10, 10, 10, 8), np.uint8)
    digit = 48 + np.arange(10, dtype=np.uint8)
    for j, axis in enumerate(np.ix_(digit, digit, digit, digit)):
        quad[..., j] = axis
    # the first word per leading digit, 10 being a carry to 10**17
    lead = np.array([b"\0" * 6 + b"%d." % (i % 9 if i > 9 else i) for i in range(11)])
    # by e + 300, "e+XX" or "e+XXX", NUL-padded to a word
    e = np.arange(-300, 301)
    expo = np.zeros((e.size, 8), np.uint8)
    expo[:, 0], expo[:, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2:5] = 48 + abs(e)[:, None] // (100, 10, 1) % 10
    short = abs(e) < 100
    expo[short, 2:5] = expo[short, 3:6]  # "e+XX" below 100
    # the words after the first of NaN and of inf
    special = np.frombuffer(b"NaN".ljust(24, b"\0") + b"Infinity".ljust(24, b"\0"), "<u8").reshape(2, 3)
    return (scale, abs(b - 1023) <= 929, e_low, next_decade, quad.view("<u8").ravel(),
            lead.view("<u8"), expo.view("<u8").ravel(), special)


def _spell(x: np.ndarray) -> np.ndarray:
    """The cells of the 1-D floats ``x``, (x.size, _CELL) uint8, each
    reading as ``fmt_float`` spells it once its NULs are dropped."""
    scale, normal, e_low, next_decade, quad, lead, expo, special = _tables()
    a = np.abs(x)
    b = a.view(np.int64) >> 52
    if not (every := (ok := normal[b]).all()):
        a = np.where(ok | (a == 0), a, 1.0)  # zero is D = 0 at b = 1023, so at e = 0
        b = np.where(a == 0, 1023, a.view(np.int64) >> 52)
    e = e_low[b] + (a >= next_decade[b])  # the decimal exponent, exactly
    hi, lo, hh, hl = scale.take(316 - e, axis=1)  # 10**(16 - e), in row 16 - e + 300
    ah = (c := a * _SPLIT) - (c - a)
    al = a - ah
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo  # a 10**(16 - e) - p
    r = np.rint(t)
    doubt = (np.abs(t - r) > 0.5 - 2.0 ** -30) & (lo != 0)
    d = p.astype(np.int64) + r.astype(np.int64)
    del hi, lo, hh, hl, c, ah, al, p, t, r  # before the words take their room
    d -= (first := d // 10 ** 16) * 10 ** 16  # d0, and d1..d16 left in d
    e += first > 9
    words = np.empty((x.size, _CELL // 8), "<u8")  # little-endian, as the tables
    words[:, 0] = lead[first] + np.signbit(x) * np.uint64(ord("-"))
    for k, half in enumerate((high := d // 10 ** 8, d - high * 10 ** 8), 1):
        group = half // 10 ** 4  # d1..d8, then d9..d16, as text
        words[:, k] = quad.take(group) | quad.take(half - group * 10 ** 4) << np.uint64(32)
    words[:, 3] = expo[e + 300]
    if not every:  # NaN and inf as words; subnormal and huge |x| to fmt_float
        i = np.flatnonzero(~ok & (x != 0))
        inf = np.isinf(v := x[i])
        words[i, 0] &= inf * np.uint64(0xFF)  # inf keeps its sign, NaN has none
        words[i, 1:] = special[inf.astype(int)]
        doubt[i] = np.isfinite(v)
    cells = words.view(np.uint8)
    if doubt.any():
        i = np.flatnonzero(doubt)
        cells[i] = np.frombuffer(b"".join(fmt_float(v).encode().ljust(_CELL, b"\0")
                                          for v in x[i].tolist()), np.uint8).reshape(-1, _CELL)
    return cells
