"""Deterministic text serialization for command outputs.

Floats are printed with up to 17 significant digits (exact double
round-trip), so identical runs produce byte-identical files and other
implementations can reproduce values exactly.
"""

from __future__ import annotations

import math
from itertools import islice
from json.encoder import encode_basestring
from typing import Any, Sequence

import numpy as np

#: rows formatted by one format string and written at once
CSV_CHUNK_ROWS = 4096


def fmt_float(x: float) -> str:
    return _respell("%.17g" % float(x))


def _respell(text: str) -> str:
    """``%g`` text with its nan and inf as NaN and Infinity, which hold neither."""
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _quoted(s: str) -> str:
    """``s`` as a JSON string literal, with ``%`` doubled for the ``%`` pass."""
    return encode_basestring(s).replace("%", "%%")


def render_json(obj: Any, indent: int = 0) -> str:
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

    emit(obj, "\n" + "  " * indent)
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
    such columns in one ``%`` pass.  Rows are formatted a chunk at a time
    from broadcast views of the columns, so text stays flat in the row count.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = math.prod(shape)
    repeated = [v for a in arrays if a.size < rows for v in a.ravel().tolist()]
    spelled = iter(_respell("%.17g," * len(repeated) % tuple(repeated)).split(","))
    arrays = [a if a.size >= rows else
              np.array(list(islice(spelled, a.size)), dtype=object).reshape(a.shape)
              for a in arrays]
    cols = [np.broadcast_to(a, shape) for a in arrays]
    take = np.flatnonzero(np.broadcast_to(True if keep is None else keep, shape))
    row = ",".join("%s" if a.dtype == object else "%.17g" for a in arrays) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        for lo in range(0, take.size, CSV_CHUNK_ROWS):
            cells = np.stack([c.flat[take[lo:lo + CSV_CHUNK_ROWS]] for c in cols], axis=-1)
            fh.write(_respell(row * len(cells) % tuple(cells.ravel().tolist())))
