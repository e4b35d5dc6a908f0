import json
import math
import os
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.ioformats import (
    _CELL,
    _SPLIT,
    CSV_CHUNK_BYTES,
    _spell,
    _tables,
    fmt_float,
    render_json,
    write_csv,
)


def chunk_rows(cells, spelled):
    """The rows ``write_csv`` spells and writes at once for ``cells`` cells a
    row, ``spelled`` of them from full-size columns (192 bytes a spelled float)."""
    return CSV_CHUNK_BYTES // (_CELL * cells + 192 * spelled)


def read_rows(path):
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == ""  # every line ends in a newline
    return lines[:-1]


def parsed(doc):
    """``doc`` as ``json.loads`` reads its report: complex values as {"re", "im"},
    tuples as lists and float subclasses as floats."""
    if isinstance(doc, float):
        return float(doc)
    if isinstance(doc, complex):
        return {"re": doc.real, "im": doc.imag}
    if isinstance(doc, (list, tuple)):
        return [parsed(v) for v in doc]
    if isinstance(doc, dict):
        return {k: parsed(v) for k, v in doc.items()}
    return doc


def assert_same(got, want):
    """``got == want`` with the types equal, floats bit for bit and NaN by isnan."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            assert_same(got[k], want[k])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
    else:
        assert got == want


class TestRenderJson:
    def test_every_branch_as_exact_text(self):
        doc = {
            "nested": {"list": [1, 2.5, (True, False)], "empty": {}, "none": [], "tuple": ()},
            "bool": True, "int": -7, "null": None,
            "floats": [np.float64(0.1), -0.0, 5e-324, 1e300, 1 / 3],
            "special": [math.nan, math.inf, -math.inf],
            "z": complex(1.5, -0.0), "z_special": complex(math.nan, -math.inf),
            '100% "k" \\ \té': 'a %s %% "q" \\ \n%.17g\x01\x7fé',
        }
        assert render_json(doc) == (
            '{"nested": {"list": [1, 2.5, [true, false]], "empty": {}, "none": [], "tuple": []}, '
            '"bool": true, "int": -7, "null": null, '
            '"floats": [0.1, -0.0, 5e-324, 1e+300, 0.3333333333333333], '
            '"special": [NaN, Infinity, -Infinity], '
            '"z": {"re": 1.5, "im": -0.0}, "z_special": {"re": NaN, "im": -Infinity}, '
            '"100% \\"k\\" \\\\ \\té": "a %s %% \\"q\\" \\\\ \\n%.17g\\u0001\x7fé"}')
        assert_same(json.loads(render_json(doc)), parsed(doc))

    def test_bare_values(self):
        assert render_json({}) == "{}" and render_json(()) == "[]"
        assert render_json(1 / 3) == "0.3333333333333333"
        assert render_json(1e-6) == "1e-06" and render_json(-math.inf) == "-Infinity"
        assert render_json("%") == '"%"'

    @pytest.mark.parametrize("value", [np.float32(1.0), np.int64(1), object()])
    def test_unknown_types_raise(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            render_json({"a": [value]})


json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.complex_numbers(allow_nan=True, allow_infinity=True) | st.text())
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40)


class TestRenderJsonProperty:
    @given(doc=json_docs)
    @settings(max_examples=200, deadline=None)
    def test_parses_back_bit_for_bit(self, doc):
        text = render_json(doc)
        back = json.loads(text)
        assert_same(back, parsed(doc))
        assert render_json(back) == text


class TestWriteCsv:
    def test_cells_read_as_fmt_float_across_chunks(self, tmp_path, rng):
        # random magnitudes over the whole double range, then the special values
        n = chunk_rows(3, 3) + 37
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(
            -300, 300, n)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
        re = np.concatenate([z.real, special, np.zeros(len(special))])
        im = np.concatenate([z.imag, np.zeros(len(special)), special])
        path = tmp_path / "t.csv"
        write_csv(path, ["one", "two: 2"], {"re": re, "im": im, "abs": np.hypot(re, im)})
        lines = read_rows(path)
        assert lines[:3] == ["# one", "# two: 2", "re,im,abs"]
        rows = lines[3:]
        assert len(rows) == re.size > chunk_rows(3, 3)
        for row, x, y in zip(rows, re.tolist(), im.tolist()):
            # the magnitude bit for bit as Python's abs(complex) gives it
            assert row == ",".join(map(fmt_float, (x, y, abs(complex(x, y)))))

    @pytest.mark.parametrize("masked", [False, True])
    def test_complex_columns_read_as_re_im_and_hypot(self, tmp_path, rng, masked):
        # a full-size complex column, with NaN, the infinities and the signed zeros
        # in each part, and a repeated one, beside an axis; across chunks
        m = chunk_rows(7, 3)
        x = np.linspace(-1.0, 1.0, m)[:, None]
        z = (rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))) * 10.0 ** rng.integers(
            -300, 300, (m, 3))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        z.real.flat[:25], z.imag.flat[:25] = np.repeat(special, 5), np.tile(special, 5)
        w = np.array([complex(-0.0, np.inf), complex(np.nan, -0.0), 3.0 - 4.0j])
        keep = rng.random(z.shape) < 0.5 if masked else None
        path = tmp_path / "c.csv"
        write_csv(path, ["c"], {"x": x, "re,im,abs": z, "w_re,w_im,w_abs": w}, keep)
        cols = np.broadcast_arrays(x, z, w)
        cells = zip(*(c.ravel().tolist() if keep is None else c[keep].tolist() for c in cols))
        want = [",".join(fmt_float(v) for v in (a, u.real, u.imag, abs(u), v.real, v.imag, abs(v)))
                for a, u, v in cells]
        assert len(want) > chunk_rows(7, 3)
        assert read_rows(path) == ["# c", "x,re,im,abs,w_re,w_im,w_abs", *want]

    def test_columns_broadcast_in_row_major_order(self, tmp_path):
        path = tmp_path / "b.csv"
        write_csv(path, [], {"a": np.array([[1.0], [2.0]]), "b": np.array([0.5, -0.25, 3.0]),
                             "c": 7.0})
        rows = [(1, 0.5, 7), (1, -0.25, 7), (1, 3, 7), (2, 0.5, 7), (2, -0.25, 7), (2, 3, 7)]
        assert read_rows(path) == ["a,b,c", *(",".join("%.16e" % v for v in row) for row in rows)]

    def test_kept_rows_across_a_chunk_boundary(self, tmp_path, rng):
        # repeated axis cells (NaN and the infinities among them) and full-size
        # cells; the kept rows run past a chunk
        a = np.array([np.nan, np.inf, -np.inf, -0.0, 0.1] * 20)[:, None]
        b = np.linspace(-1.0, 1.0, 90)
        full = rng.standard_normal((a.size, b.size))
        full[rng.random(full.shape) < 0.05] = np.nan
        keep = rng.random(full.shape) < 0.5
        assert keep.sum() > chunk_rows(4, 1)
        path = tmp_path / "m.csv"
        write_csv(path, ["masked"], {"a": a, "b": b, "c": 2.0, "full": full}, keep)
        cols = np.broadcast_arrays(a, b, np.float64(2.0), full)
        want = [",".join(fmt_float(c[i]) for c in cols) for i in zip(*np.nonzero(keep))]
        assert read_rows(path) == ["# masked", "a,b,c,full", *want]

    def test_no_kept_rows_leave_the_header(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv(path, [], {"x": np.arange(3.0), "y": 1.0}, np.zeros(3, dtype=bool))
        assert read_rows(path) == ["x,y"]

    def test_no_rows_leaves_the_header(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["empty"], {"x": np.array([]), "y": np.array([])})
        assert read_rows(path) == ["# empty", "x,y"]

    def test_forty_columns_across_chunks(self, tmp_path, rng):
        # a chunk holds fewer rows the more columns there are
        columns = {f"c{k}": rng.standard_normal(600) * 10.0 ** (k - 20) for k in range(40)}
        assert 600 > 2 * chunk_rows(40, 40)
        path = tmp_path / "w.csv"
        write_csv(path, [], columns)
        cols = list(columns.values())
        assert read_rows(path) == [",".join(columns),
                                   *(",".join(fmt_float(c[i]) for c in cols) for i in range(600))]

    def test_residual_layout(self, tmp_path, rng):
        # per-point (40, 1) columns against an (h,) column and full (40, h) ones,
        # as the residual command writes them
        point = rng.standard_normal((40, 1))
        h = np.array([4e-3, 2e-3, 1e-3])
        full = rng.standard_normal((40, 3))
        path = tmp_path / "r.csv"
        write_csv(path, ["r"], {"t": point, "h": h, "res": full, "order": 2.0 + point})
        want = [",".join(map(fmt_float, (point[i, 0], h[j], full[i, j], 2.0 + point[i, 0])))
                for i in range(40) for j in range(3)]
        assert read_rows(path) == ["# r", "t,h,res,order", *want]

    def test_memory_stays_flat_in_the_row_count(self, rng):
        # the writer's own allocations peak at a chunk, whatever the rows
        write_csv(os.devnull, [], {"x": np.arange(3.0)})  # the tables, made once
        peaks = []
        for n in (10 ** 5, 4 * 10 ** 5):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            columns = {"x": np.linspace(0.0, 1.0, n), "t": 0.5, "re": z.real, "im": z.imag,
                       "abs": np.abs(z)}
            tracemalloc.start()
            try:
                write_csv(os.devnull, [], columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_masked_memory_stays_flat_in_the_row_count(self, rng):
        # a mask is read a chunk at a time, with no index of the kept rows
        write_csv(os.devnull, [], {"x": np.arange(3.0)})  # the tables, made once
        peaks = []
        for n in (10 ** 5, 4 * 10 ** 5):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            columns = {"x": np.linspace(0.0, 1.0, n), "t": 0.5, "re": z.real, "im": z.imag,
                       "abs": np.abs(z)}
            keep = rng.random(n) < 0.5
            tracemalloc.start()
            try:
                write_csv(os.devnull, [], columns, keep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_a_1d_table_peaks_no_higher_than_a_2d_one(self):
        # a chunk holds as many rows as CSV_CHUNK_BYTES holds: a 1-D grid's axis is
        # spelled with each chunk, a 2-D grid's axes once, so a 1-D chunk holds fewer
        write_csv(os.devnull, [], {"x": np.arange(3.0)})  # the tables, made once
        u = np.exp(1j * np.linspace(0.0, 3.0, 300 * 300))
        peaks = []
        for columns in ({"t": np.linspace(-1.0, 1.0, u.size), "re,im,abs": u},
                        {"rho": np.linspace(0.0, 1.0, 300)[:, None], "z": np.linspace(-1.0, 1.0, 300),
                         "re,im,abs": u.reshape(300, 300)}):
            tracemalloc.start()
            try:
                write_csv(os.devnull, [], columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] <= 1.5 * CSV_CHUNK_BYTES, peaks


# a few values per axis, NaN and the infinities included
axis_values = st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                       min_size=1, max_size=6)


@st.composite
def broadcast_columns(draw):
    """Axis-like columns of shape (n, 1, ...) with one of them long enough
    that some row counts cross a chunk, a 0-d scalar, and full-size
    columns carrying NaN and the infinities; in a drawn column order."""
    ndim = draw(st.integers(1, 3))
    long_axis = draw(st.integers(0, ndim - 1))
    shape = tuple(draw(st.integers(chunk_rows(5, 2) // 40, chunk_rows(5, 2) // 4)) if i == long_axis
                  else draw(st.integers(1, 12)) for i in range(ndim))
    columns = {}
    for i, n in enumerate(shape):
        values = np.resize(draw(axis_values), n)  # n = 1 gives a length-1 axis
        columns[f"axis{i}"] = values.reshape((n,) + (1,) * (ndim - 1 - i))
    columns["scalar"] = np.array(draw(st.floats(allow_nan=True, allow_infinity=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for name in ("re", "im"):
        full = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        full[rng.random(shape) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
        columns[name] = full
    order = draw(st.permutations(list(columns)))
    return {name: columns[name] for name in order}


class TestWriteCsvProperty:
    @given(columns=broadcast_columns(), share=st.sampled_from([None, 0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_file_equals_a_per_cell_reference(self, tmp_path_factory, columns, share):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns.values()))
        # no mask, or one keeping about ``share`` of the rows
        keep = None if share is None else np.random.default_rng(7).random(cols[0].shape) < share
        write_csv(path, ["one"], columns, keep)
        cells = zip(*(c.ravel().tolist() if keep is None else c[keep].tolist() for c in cols))
        assert read_rows(path) == ["# one", ",".join(columns),
                                   *(",".join(fmt_float(v) for v in row) for row in cells)]


def spelled(x):
    """The kernel's cells of the floats ``x`` as strings."""
    return [bytes(c).replace(b"\0", b"").decode() for c in _spell(np.asarray(x, dtype=float))]


def neighbours(v, n=3):
    """``v`` and the ``n`` doubles on either side of it."""
    out = [v]
    for toward in (0.0, math.inf):
        w = v
        for _ in range(n):
            out.append(w := math.nextafter(w, toward))
    return out


def near_ties():
    """Doubles x = m 2**-q below 1e-6 whose 17-digit scaling x 10**(16-e)
    lies 2**-(q-k) from a half-integer, k = 16 - e >= 23: 10**k is not a
    double there, so only an exact spelling resolves them."""
    xs = []
    for k in range(23, 30):
        for q in range(60, 120):
            mod = 2 ** (q - k)
            for target in (mod // 2 + 1, mod // 2 - 1):
                m = target * pow(5 ** k, -1, mod) % mod
                m += max(0, -((m - 2 ** 52) // mod)) * mod  # the least m >= 2**52 in its class
                if m < 2 ** 53 and 10 ** 16 * mod <= m * 5 ** k < 10 ** 17 * mod:
                    xs.append(m / 2 ** q)
    return xs


def decade_carries():
    """(x, k): the doubles x just below 10**k whose 17 digits round up to
    10**k, so that %.16e spells them 1.0000000000000000e+k."""
    out = []
    for k in range(-307, 309):
        x = float(Fraction(10) ** k)
        x = math.nextafter(x, 0.0) if Fraction(x) >= Fraction(10) ** k else x
        if "%.16e" % x == "1.0000000000000000e%+03d" % k:
            out.append((x, k))
    return out


class TestSpellKernel:
    def test_edge_values(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 math.nan, math.inf, -math.inf, 1e23, 2251799813685247.75, 0.5, 1.5, 2.5]
        for v in (1e-5, 1e-4, 1e16, 1e17, 2.0 ** -929, 2.0 ** 930):
            edges += neighbours(v)
        for k in range(-300, 301):
            edges += neighbours(float(10 ** k) if k >= 0 else 1 / 10 ** -k)
        for k in range(57, 1024):  # 2**57 > 1e17
            edges += neighbours(2.0 ** k, 1)
        edges += [-v for v in edges]
        assert spelled(edges) == [fmt_float(v) for v in edges]

    def test_one_layout(self):
        # a digit, a point, 16 digits and the exponent, whatever the value
        xs = [0.1, 1.0, 123.456, 1e16, 1e17, 2.0 ** 53 + 2, 1e-5, -6e22]
        assert spelled(xs) == [
            "1.0000000000000001e-01", "1.0000000000000000e+00", "1.2345600000000000e+02",
            "1.0000000000000000e+16", "1.0000000000000000e+17", "9.0071992547409940e+15",
            "1.0000000000000001e-05", "-6.0000000000000000e+22"]

    def test_exponent_width(self):
        # two exponent digits up to 99, three from 100, on either side of each decade
        xs = [v for k in (99, 100) for x in (10.0 ** k, 10.0 ** -k) for v in neighbours(x, 1)]
        xs += [-v for v in xs]
        got = spelled(xs)
        assert got == [fmt_float(v) for v in xs]
        for text in got:
            digits = text.split("e")[1][1:]
            assert len(digits) == (3 if int(digits) >= 100 else 2), text
        assert {t[-4:] for t in got} >= {"e+99", "e-99", "+100", "-100"}

    def test_carry_to_the_next_decade(self):
        # the rounded 17 digits reach 10**17: the exponent steps up and d0 is 1
        carries = decade_carries()
        assert len(carries) >= 10
        xs = [x for x, _ in carries] + [-x for x, _ in carries]
        want = ["1.0000000000000000e%+03d" % k for _, k in carries]
        assert spelled(xs) == want + ["-" + w for w in want] == [fmt_float(v) for v in xs]

    def test_near_ties_of_an_inexact_scale(self):
        xs = near_ties()
        assert len(xs) >= 5
        assert spelled(xs) == [fmt_float(v) for v in xs]

    def test_zeros_subnormals_huge_and_non_finite(self):
        # each kind beside normal values and alone, where no value takes the product
        odd = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.0 ** 930, -1.7976931348623157e308,
               math.nan, -math.nan, math.inf, -math.inf]
        want = ["0.0000000000000000e+00", "-0.0000000000000000e+00", "4.9406564584124654e-324",
                "-2.2250738585072009e-308", "9.0760309355333439e+279", "-1.7976931348623157e+308",
                "NaN", "NaN", "Infinity", "-Infinity"]
        assert spelled(odd) == want == [fmt_float(v) for v in odd]
        assert spelled([0.5, *odd, -3.0]) == ["5.0000000000000000e-01", *want, "-3.0000000000000000e+00"]
        for v, w in zip(odd, want):
            assert spelled([v]) == [w]

    def test_random_bit_patterns(self):
        """10**6 doubles of random bits, NaN, infinities and subnormals
        among them, against one ``%`` pass per quarter."""
        rng = np.random.default_rng(20240518)
        for _ in range(4):
            x = rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64)
            cells = _spell(x)
            cells[:, -1] = ord("\n")
            want = ("%.16e\n" * x.size % tuple(x.tolist())).replace("nan", "NaN")
            assert cells.tobytes().translate(None, b"\0").decode() == want.replace(
                "inf", "Infinity")

    @given(x=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_equals_fmt_float(self, x):
        assert spelled(x) == [fmt_float(v) for v in x]

    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns_equal_fmt_float(self, bits):
        x = np.array(bits, np.uint64).view(np.float64)
        assert spelled(x) == [fmt_float(v) for v in x.tolist()]


def exact_pow10(k):
    """10**k as hi + lo, each correctly rounded from exact integers."""
    n, d = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    num, den = (n / d).as_integer_ratio()
    return n / d, (n * den - num * d) / (d * den)


def reference_tables():
    """The spelling kernel's tables built entry by entry: Python integers
    for the powers of ten and byte strings for the text."""
    hi, lo = np.array([exact_pow10(k) for k in range(-300, 301)]).T
    scale = np.stack([hi, lo, hh := hi * _SPLIT - (hi * _SPLIT - hi), hi - hh])
    b = np.arange(2048)
    e_low = np.floor((np.clip(b, 94, 1952) - 1023) * math.log10(2.0)).astype(np.int64)
    k = e_low + 301
    next_decade = np.where(lo[k] > 0, np.nextafter(hi[k], math.inf), hi[k])
    quad = np.array([b"%04d" % d for d in range(10000)], "S8")
    lead = np.array([b"\0" * 6 + str(i)[0].encode() + b"." for i in range(11)])
    expo = np.array([b"e%+03d" % e for e in range(-300, 301)], "S8")
    special = np.array([b"NaN", b"Infinity"], "S24").view("<u8").reshape(2, 3)
    return (scale, abs(b - 1023) <= 929, e_low, next_decade, quad.view("<u8"),
            lead.view("<u8"), expo.view("<u8"), special)


class TestSpellTables:
    def test_equal_the_entry_by_entry_construction(self):
        # the stored powers of ten and the vectorized tables, bit for bit
        for got, want in zip(_tables(), reference_tables(), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
