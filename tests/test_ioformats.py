import numpy as np

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
