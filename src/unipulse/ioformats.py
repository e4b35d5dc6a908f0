"""Deterministic text serialization for command outputs.

Floats are printed with up to 17 significant digits (exact double
round-trip), so identical runs produce byte-identical files and other
implementations can reproduce values exactly.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

#: rows formatted by one format string and written at once
CSV_CHUNK_ROWS = 4096


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def complex_fields(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def render_json(obj: Any, indent: int = 0) -> str:
    """JSON text with 17-significant-digit floats, stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, complex):
        return render_json(complex_fields(obj), indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def write_csv(path, comments: Sequence[str], columns: dict[str, Any]) -> None:
    """``# comment`` lines, a header of the column names, then one row
    per element of the columns' broadcast shape, in row-major order.

    Cells read as ``fmt_float`` spells them.  A column that repeats under
    broadcasting (a grid axis, a constant) is spelled once per value.
    Rows are formatted a chunk at a time from broadcast views of the
    columns, so memory stays flat in the row count.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = math.prod(shape)
    arrays = [a if a.size >= rows else
              np.array([fmt_float(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape)
              for a in arrays]
    cols = [np.broadcast_to(a, shape) for a in arrays]
    row = ",".join("%s" if a.dtype == object else "%.17g" for a in arrays) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            cells = np.stack([c.flat[lo:lo + CSV_CHUNK_ROWS] for c in cols], axis=-1)
            text = row * len(cells) % tuple(cells.ravel().tolist())
            # %g spells non-finite values nan, inf and -inf; fmt_float's cells hold neither
            fh.write(text.replace("nan", "NaN").replace("inf", "Infinity"))
