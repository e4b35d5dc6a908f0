import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.ioformats import CSV_CHUNK_ROWS, fmt_float, write_csv


def read_rows(path):
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == ""  # every line ends in a newline
    return lines[:-1]


class TestWriteCsv:
    def test_cells_read_as_fmt_float_across_chunks(self, tmp_path, rng):
        # random magnitudes over the whole double range, then the special values
        n = CSV_CHUNK_ROWS + 37
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
        assert len(rows) == re.size > CSV_CHUNK_ROWS
        for row, x, y in zip(rows, re.tolist(), im.tolist()):
            # the magnitude bit for bit as Python's abs(complex) gives it
            assert row == ",".join(map(fmt_float, (x, y, abs(complex(x, y)))))

    def test_columns_broadcast_in_row_major_order(self, tmp_path):
        path = tmp_path / "b.csv"
        write_csv(path, [], {"a": np.array([[1.0], [2.0]]), "b": np.array([0.5, -0.25, 3.0]),
                             "c": 7.0})
        assert read_rows(path) == ["a,b,c", "1,0.5,7", "1,-0.25,7", "1,3,7",
                                   "2,0.5,7", "2,-0.25,7", "2,3,7"]

    def test_no_rows_leaves_the_header(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["empty"], {"x": np.array([]), "y": np.array([])})
        assert read_rows(path) == ["# empty", "x,y"]


# a few values per axis, NaN and the infinities included
axis_values = st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                       min_size=1, max_size=6)


@st.composite
def broadcast_columns(draw):
    """Axis-like columns of shape (n, 1, ...) with one of them long enough
    that some row counts cross CSV_CHUNK_ROWS, a 0-d scalar, and full-size
    columns carrying NaN and the infinities; in a drawn column order."""
    ndim = draw(st.integers(1, 3))
    long_axis = draw(st.integers(0, ndim - 1))
    shape = tuple(draw(st.integers(CSV_CHUNK_ROWS // 40, CSV_CHUNK_ROWS // 4)) if i == long_axis
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
    @given(columns=broadcast_columns())
    @settings(max_examples=40, deadline=None)
    def test_file_equals_a_per_cell_reference(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        write_csv(path, ["one"], columns)
        cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns.values()))
        cells = zip(*(c.ravel().tolist() for c in cols))
        assert read_rows(path) == ["# one", ",".join(columns),
                                   *(",".join(fmt_float(v) for v in row) for row in cells)]
