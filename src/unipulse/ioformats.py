"""Deterministic text serialization for command outputs.

Floats are printed with up to 17 significant digits (exact double
round-trip), so identical runs produce byte-identical files and other
implementations can reproduce values exactly.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Sequence

import numpy as np

#: rows spelled and written at once
CSV_CHUNK_ROWS = 1024


def fmt_float(x: float) -> str:
    """C's ``%.17g``, with nan and inf spelled NaN and Infinity."""
    return ("%.17g" % float(x)).replace("nan", "NaN").replace("inf", "Infinity")


def _quoted(s: str) -> str:
    """``s`` as a JSON string literal, with ``%`` doubled for the ``%`` pass."""
    return encode_basestring(s).replace("%", "%%")


def render_json(obj: Any) -> str:
    """JSON text with 17-significant-digit floats, stable key order, and
    complex numbers as {"re", "im"}.  One traversal collects the text around
    the values, with a ``%.17g`` slot per finite float; one ``%`` fills them."""
    text, floats, keys = [], [], {}
    put, slot, finite = text.append, floats.append, math.isfinite

    def emit(v, pad: str) -> None:  # pad: a newline and the indentation
        if isinstance(v, float) and finite(v):
            put("%.17g")
            slot(v)
        elif isinstance(v, dict):
            inner, sep = pad + "  ", "{" + pad + "  "
            for k, x in v.items():
                put(sep + (keys.get(k) or keys.setdefault(k, _quoted(str(k)) + ": ")))
                emit(x, inner)
                sep = "," + inner
            put(pad + "}" if v else "{}")
        elif isinstance(v, complex):
            emit({"re": v.real, "im": v.imag}, pad)
        elif isinstance(v, (list, tuple)):
            inner, sep = pad + "  ", "[" + pad + "  "
            for x in v:
                put(sep)
                emit(x, inner)
                sep = "," + inner
            put(pad + "]" if v else "[]")
        elif isinstance(v, str):
            put(_quoted(v))
        elif v is None or isinstance(v, bool):
            put("null" if v is None else "true" if v else "false")
        elif isinstance(v, (int, float)):  # the floats left are not finite
            put(str(v) if isinstance(v, int) else fmt_float(v))
        else:
            raise TypeError(f"cannot serialize {type(v).__name__}")

    emit(obj, "\n")
    return "".join(text) % tuple(floats)


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def write_csv(path, comments: Sequence[str], columns: dict[str, Any], keep=None) -> None:
    """``# comment`` lines, a header of the column names, then one row
    per element of the columns' broadcast shape in row-major order, or
    per element where the boolean mask ``keep`` of that shape is true.

    Cells read as ``fmt_float`` spells them.  A column that repeats under
    broadcasting (a grid axis, a constant) is spelled once per value, all
    such values in one pass, and its cells are gathered per row.  The
    other columns are spelled a chunk of rows at a time, in one pass per
    chunk, so memory stays flat in the row count.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = math.prod(shape)
    fresh = [j for j, a in enumerate(arrays) if a.size == rows]
    repeat = [j for j, a in enumerate(arrays) if a.size < rows]
    if repeat:
        spelled = _spell(np.concatenate([arrays[j].ravel() for j in repeat]))
        ends = np.cumsum([arrays[j].size for j in repeat])
        # each repeated cell's row in ``spelled``
        where = [np.broadcast_to(np.arange(end - arrays[j].size, end).reshape(arrays[j].shape), shape)
                 for j, end in zip(repeat, ends.tolist())]
    take = None if keep is None else np.flatnonzero(np.broadcast_to(keep, shape))
    n = rows if take is None else take.size
    sep = np.frombuffer(b"," * (len(arrays) - 1) + b"\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n").encode())
        for lo in range(0, n, CSV_CHUNK_ROWS):
            at = slice(lo, lo + CSV_CHUNK_ROWS) if take is None else take[lo:lo + CSV_CHUNK_ROWS]
            m = min(CSV_CHUNK_ROWS, n - lo)
            cells = np.empty((m, len(arrays), _CELL), np.uint8)
            if fresh:
                cells[:, fresh] = _spell(np.concatenate([arrays[j].flat[at] for j in fresh])).reshape(
                    len(fresh), m, _CELL).swapaxes(0, 1)
            if repeat:
                cells[:, repeat] = spelled[np.stack([w.flat[at] for w in where], axis=1)]
            cells[:, :, -1] = sep
            fh.write(cells.tobytes().translate(None, b"\0"))


# --- fmt_float for whole arrays -------------------------------------------
#
# A cell is a 48-byte row holding every byte a %.17g spelling can use, in
# order, with the bytes it does not use set to NUL: 0 sign, 1-5 "0.000",
# 6-39 the digits d0..d16 each followed by ".", 40-44 "e+XXX", 47 the
# separator.  A mask per code (layout x significant digits) keeps the bytes.
# |x| = D 10**(e - 16), the 17-digit D being the double-double product of
# |x| and 10**(16 - e) (Dekker), rounded.  Where 10**(16 - e) is a double
# the product is exact and rint's ties-to-even is %g's; elsewhere it errs by
# under 1e-14, and D within 2**-30 of a tie is left to fmt_float, as is any
# |x| outside [2**-929, 2**930).

_CELL = 48
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split
_ZERO = 23 * 17  # the codes after 23 layouts x 17 digit counts: zero, NaN, inf
_POW10_FILE = Path(__file__).with_name("pow10.bin")


def _masks() -> np.ndarray:
    """Per code, the bytes of a cell it keeps: layout x significant digits s,
    then zero, NaN and inf."""
    layout, s, at = np.arange(23)[:, None, None], np.arange(1, 18)[:, None], np.arange(_CELL)
    digit = np.where((at >= 6) & (at <= 38) & (at % 2 == 0), (at - 6) // 2, _CELL)
    sci, fixed = layout > 20, (layout > 3) & (layout <= 20)  # d.ddde+XX; ddd.ddd for e = layout - 4
    digits = np.where(fixed, np.maximum(s, layout - 3), s)
    point = np.where(sci, np.where(s > 1, 7, -1),  # the point after the first digit, or after digit e
                     np.where(fixed & (s > layout - 3), 2 * layout - 1, -1))
    word = ((at == 0) | sci & (at >= 40) & (at <= 44) & ((at != 42) | (layout == 22))
            | (layout <= 3) & (at >= 1) & (at <= 5 - layout))  # sign, e+XXX, or 0.000
    keep = (digit < digits) | (at == point) | word
    # zero: sign and "0"; NaN: "NaN" in the special word; inf: sign and "Infinity"
    special = np.zeros((3, _CELL), bool)
    special[0, :2] = special[1, 8:11] = special[2, 0] = special[2, 8:16] = True
    return np.concatenate([keep.reshape(_ZERO, _CELL), special]).astype(np.uint8) * np.uint8(255)


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
    # "d.d.d.d." per group of four digits d0 d1 d2 d3, the group 1000 d0 + ... + d3
    quad = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    digit = 48 + np.arange(10, dtype=np.uint8)
    for j, axis in enumerate(np.ix_(digit, digit, digit, digit)):
        quad[..., 2 * j] = axis
    # the trailing zeros of a group (4 if all), and of the 17 digits keyed by
    # those of their four groups as base-5 digits
    zeros = np.zeros(10000, np.int64)
    for j in (10, 100, 1000, 10000):
        zeros[::j] += 1
    trailing = 0
    for z in np.ix_(*[np.arange(5)] * 4):  # the groups' base-5 digits, first group first
        trailing = np.where(z == 4, trailing + 4, z)
    trailing = trailing.ravel()
    e = np.arange(-300, 301)
    layout_code = np.where((e >= -4) & (e < 17), e + 4, 21 + (abs(e) >= 100)) * 17 + 16
    # the first word per leading digit, 10 being a carry to 10**17
    lead = np.array([b"\0" + b"0.000" + b"%d." % (i % 9 if i > 9 else i) for i in range(11)])
    # "e+XXX", NUL-padded to a word
    expo = np.zeros((e.size, 8), np.uint8)
    expo[:, 0], expo[:, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2:5] = 48 + abs(e)[:, None] // (100, 10, 1) % 10
    special = np.frombuffer(b"\0" * 8 + b"NaN\0\0\0\0\0Infinity", "<u8")
    return (scale, abs(b - 1023) <= 929, e_low, next_decade, quad.view("<u8").ravel(), zeros,
            trailing, lead.view("<u8"), expo.view("<u8").ravel(), special, _masks(), layout_code)


def _spell(x: np.ndarray) -> np.ndarray:
    """The cells of the 1-D floats ``x``, (x.size, _CELL) uint8, each
    reading as ``fmt_float`` spells it once its NULs are dropped."""
    (scale, normal, e_low, next_decade, quad, zeros, trailing, lead, expo, special, masks,
     layout_code) = _tables()
    a = np.abs(x)
    b = a.view(np.int64) >> 52
    if not (every := (ok := normal[b]).all()):
        a = np.where(ok, a, 1.0)
        b = a.view(np.int64) >> 52
    e = e_low[b] + (a >= next_decade[b])  # the decimal exponent, exactly
    hi, lo, hh, hl = scale.take(316 - e, axis=1)  # 10**(16 - e), in row 16 - e + 300
    ah = (c := a * _SPLIT) - (c - a)
    al = a - ah
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo  # a 10**(16 - e) - p
    r = np.rint(t)
    doubt = (np.abs(t - r) > 0.5 - 2.0 ** -30) & (lo != 0)
    first, rest = np.divmod(p.astype(np.int64) + r.astype(np.int64), 10 ** 16)
    groups = [g for half in np.divmod(rest, 10 ** 8) for g in np.divmod(half, 10 ** 4)]
    e += first > 9
    key = 0
    for g in groups:
        key = key * 5 + zeros[g]
    code = layout_code[e + 300] - trailing[key]
    words = np.empty((x.size, _CELL // 8), "<u8")  # little-endian, as the tables
    words[:, 0] = lead[first] + np.signbit(x) * np.uint64(ord("-"))
    for j, g in enumerate(groups, 1):
        words[:, j] = quad[g]
    words[:, 5] = expo[e + 300]
    if not every:  # zero, NaN and inf by their codes; subnormal and huge |x| to fmt_float
        i = np.flatnonzero(~ok)
        kind = np.where(x[i] == 0, 0, np.where(np.isnan(x[i]), 1, 2))
        code[i], words[i, 1] = _ZERO + kind, special[kind]
        doubt[i] = np.isfinite(x[i]) & (x[i] != 0)
    cells = words.view(np.uint8)
    cells &= masks.take(code, axis=0)
    if doubt.any():
        i = np.flatnonzero(doubt)
        cells[i] = np.frombuffer(b"".join(fmt_float(v).encode().ljust(_CELL, b"\0")
                                          for v in x[i].tolist()), np.uint8).reshape(-1, _CELL)
    return cells
