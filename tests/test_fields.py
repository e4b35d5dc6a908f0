import errno
import json
import math
import os
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipulse.cli import main
from unipulse.fields import (
    AxisSpec,
    FieldGrid,
    GridSpec,
    PulseParams,
    SingularPoint,
    BATCH_BLOCK_BYTES,
    SpacetimePoint,
    complex_distance,
    energy_estimate,
    evaluate_batch,
    eval_quasi_spherical,
    eval_simple_pulse,
    eval_spherical_reference,
    sample_grid,
)
from unipulse.ioformats import fmt_float
from unipulse.numerics import ToleranceNotReached, complex_sqrt_upper
from unipulse.waveforms import Waveform

mp.mp.dps = 40


def pulse_oracle(t, rho, z, c, tau, zeta):
    """Arbitrary-precision composition of the closed form."""
    tstar = mp.mpc(t, tau)
    s = mp.sqrt((c * tstar) ** 2 - rho**2)
    if s.imag < 0:
        s = -s
    return complex(1 / (s * (s - mp.mpc(z, zeta))))


class TestPulseParams:
    def test_derived_b(self):
        p = PulseParams(2.0, 0.5, 0.1)
        assert p.b == 1.0 and p.regular

    def test_regularity_flag(self):
        assert not PulseParams(1.0, 1.0, 1.5).regular

    @pytest.mark.parametrize("kw", [{"c": 0.0}, {"tau": -1.0}, {"zeta": math.inf}])
    def test_validation(self, kw):
        base = {"c": 1.0, "tau": 1.0, "zeta": 0.0}
        with pytest.raises(ValueError):
            PulseParams(**{**base, **kw})


class TestComplexDistance:
    def test_on_axis_branch(self, params):
        assert complex_distance(SpacetimePoint(2, 0, 0, 0), params) == 2 + 1j

    def test_negative_radicand(self, params):
        s = complex_distance(SpacetimePoint(0, 1, 0, 0), params)
        assert s == pytest.approx(1j * math.sqrt(2.0))

    def test_oracle_point(self):
        # oracle: high-precision sqrt with Im >= 0 at t=1, rho=0.5, tau=0.3
        p = PulseParams(1.0, 0.3)
        s = complex_distance(SpacetimePoint(1, 0.5, 0, 0), p)
        assert s == pytest.approx(0.8808984404683409 + 0.3405613930256264j, abs=1e-15)

    @given(
        t=st.floats(-10, 10), rho=st.floats(0, 10),
        c=st.floats(0.1, 5), tau=st.floats(0.05, 4),
    )
    @settings(max_examples=300)
    def test_branch_inequality(self, t, rho, c, tau):
        p = PulseParams(c, tau)
        s = complex_distance(SpacetimePoint(t, rho, 0, 0), p)
        assert s.imag >= c * tau - 1e-12


def pulse_phase(p: SpacetimePoint, params: PulseParams) -> complex:
    """The phase theta = S - z - i b that the closed forms feed to f."""
    return complex_distance(p, params) - p.z - 1j * params.b


class TestPulsePhase:
    def test_on_axis_is_real(self, params):
        th = pulse_phase(SpacetimePoint(1.5, 0, 0, 0.4), params)
        assert th == pytest.approx(1.1)  # ct - z
        assert abs(th.imag) <= 1e-12

    def test_origin(self, params):
        assert pulse_phase(SpacetimePoint(0, 0, 0, 0), params) == 0.0

    def test_oracle_point(self, params):
        # composition of the oracle square root at t=1, rho=1, z=0.5
        th = pulse_phase(SpacetimePoint(1, 1, 0, 0.5), params)
        assert th == pytest.approx(
            0.2861513777574233 + 0.272019649514069j, abs=1e-15
        )
        assert th.imag > 0.0

    def test_imaginary_part_nonnegative(self, params, rng):
        for _ in range(2000):
            t, z = rng.uniform(-10, 10, 2)
            rho = rng.uniform(0, 10)
            th = pulse_phase(SpacetimePoint.from_cylindrical(t, rho, z), params)
            assert th.imag >= -1e-12


class TestSimplePulse:
    def test_origin_t0(self, params):
        assert eval_simple_pulse(SpacetimePoint(0, 0, 0, 0), params) == -1.0

    def test_axis_t1(self, params):
        # S = 1 + i, u = 1/(1+i)^2 = -i/2
        assert eval_simple_pulse(SpacetimePoint(1, 0, 0, 0), params) == -0.5j

    def test_oracle_point(self):
        p = PulseParams(1.0, 0.8, 0.2)
        u = eval_simple_pulse(SpacetimePoint.from_cylindrical(0.7, 1.2, -0.4), p)
        assert u == pytest.approx(
            -0.3047022594859845 - 0.4133117616624564j, abs=1e-15
        )

    def test_singular_only_for_non_regular(self):
        bad = PulseParams(1.0, 1.0, 1.0)  # zeta = b: pole at the origin at t=0
        with np.errstate(divide="ignore", invalid="ignore"):  # a direct call divides by 0 there
            assert np.isnan(eval_simple_pulse(SpacetimePoint(0, 0, 0, 0), bad))
        assert np.isfinite(eval_simple_pulse(SpacetimePoint(0, 0, 0, 0.1), bad))

    def test_axisymmetry(self, params, rng):
        for _ in range(200):
            t, z = rng.uniform(-3, 3, 2)
            rho = rng.uniform(0, 3)
            ang = rng.uniform(0, 2 * math.pi)
            u1 = eval_simple_pulse(
                SpacetimePoint(t, rho * math.cos(ang), rho * math.sin(ang), z), params
            )
            u2 = eval_simple_pulse(SpacetimePoint(t, rho, 0.0, z), params)
            assert abs(u1 - u2) <= 4e-16 + 2e-15 * abs(u2)


class TestQuasiSpherical:
    def test_rational_reproduces_simple_pulse(self, rng):
        for zeta in (0.0, 0.5):
            p = PulseParams(1.0, 1.0, zeta)
            w = Waveform(p.b - zeta)
            worst = 0.0
            for _ in range(1000):
                t, x, y, z = rng.uniform(-3, 3, 4)
                pt = SpacetimePoint(t, x, y, z)
                u1 = eval_simple_pulse(pt, p)
                u2 = eval_quasi_spherical(pt, p, w)
                worst = max(worst, abs(u1 - u2) / abs(u1))
            assert worst <= 1e-13

    def test_zero_carrier_matches_rational(self, params, rng):
        # a vanishing carrier runs the exp path; K = 0 skips it
        wl = Waveform(params.b, 1e-300)
        wr = Waveform(params.b)
        for _ in range(100):
            pt = SpacetimePoint(*rng.uniform(-2, 2, 4))
            assert eval_quasi_spherical(pt, params, wl) == pytest.approx(
                eval_quasi_spherical(pt, params, wr), rel=1e-15
            )

    def test_lekner_origin_oracle(self, params):
        # theta = 0 there, so u = e^0 / (i * i) = -1
        u = eval_quasi_spherical(SpacetimePoint(0, 0, 0, 0), params, Waveform(1.0, 2.0))
        assert u == pytest.approx(-1.0, abs=1e-15)


class TestSphericalReference:
    def test_basic_value(self, params):
        u = eval_spherical_reference(
            SpacetimePoint(0, 1, 0, 0), params, Waveform(1.0)
        )
        assert u == pytest.approx((1 - 1j) / 2)

    def test_zero_retarded_argument(self, params):
        w = Waveform(1.0)
        u = eval_spherical_reference(
            SpacetimePoint(2, 0, 0, 2), params, w, b_ref=0.5
        )
        assert u == pytest.approx(w.eval(0.5j) / 2.0)

    def test_origin_is_singular(self, params):
        with np.errstate(invalid="ignore"):
            u = eval_spherical_reference(SpacetimePoint(0, 0, 0, 0), params, Waveform(1.0))
        assert np.isnan(u)


class TestSpacetimePoint:
    def test_array_coordinates(self):
        p = SpacetimePoint.from_cylindrical(np.array([0.0, 1.0]), np.array([[0.0], [3.0]]), 0.5)
        assert p.shape == (2, 2)
        assert np.array_equal(p.rho, [[0.0], [3.0]])
        assert p.node((1, 0)) == SpacetimePoint(0.0, 3.0, 0.0, 0.5)
        q = SpacetimePoint(0.0, np.array([3.0, -3.0]), np.array([4.0, 0.0]), 0.0)
        assert np.array_equal(q.rho, [5.0, 3.0])

    def test_any_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="rho must be >= 0, got -0.5"):
            SpacetimePoint.from_cylindrical(0.0, np.array([1.0, -0.5, 0.0]), 0.0)
        with pytest.raises(ValueError, match="rho"):
            SpacetimePoint.from_cylindrical(0.0, -1.0, 0.0)


class TestArrayKernel:
    """A point with array coordinates gives, node for node, the scalar call."""

    @given(
        t=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
        rho=st.lists(st.floats(0, 10), max_size=3),
        z=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
        c=st.floats(0.1, 5),
        tau=st.floats(0.05, 4),
        zeta_gap=st.sampled_from([1.0, 0.5, 1e-3, 1e-9, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_nodes_match_scalar_calls(self, t, rho, z, c, tau, zeta_gap):
        params = PulseParams(c, tau, (1.0 - zeta_gap) * c * tau)  # zeta up to b
        b = params.b
        t = np.array([0.0, -0.0, *t])
        light_cone = abs(c * t[-1])  # |ct| = rho, and just off it
        rho = np.array([0.0, light_cone, light_cone * (1 + 1e-9), *rho])
        z = np.array([0.0, *z])
        point = SpacetimePoint(t[:, None, None], rho[None, :, None], 0.0, z[None, None, :])

        s = complex_distance(point, params)
        assert np.all(s.imag >= b - 1e-15 * np.abs(s))  # Im S >= b up to rounding
        kernels = (
            lambda q: complex_distance(q, params),
            lambda q: eval_simple_pulse(q, params),
            lambda q: eval_quasi_spherical(q, params, Waveform(0.5 * b)),
            lambda q: eval_quasi_spherical(q, params, Waveform(b, 1.0)),
            lambda q: eval_spherical_reference(q, params, Waveform(b), 0.5),
        )
        shape = (t.size, rho.size, z.size)
        for kernel in kernels:
            with np.errstate(all="ignore"):  # a pole is NaN, a value past the float range inf
                values = np.broadcast_to(kernel(point), shape)
                for i, j, k in np.ndindex(shape):
                    node = SpacetimePoint(float(t[i]), float(rho[j]), 0.0, float(z[k]))
                    expect = kernel(node)
                    assert isinstance(expect, np.complex128)  # a scalar, not a 0-d array
                    if not np.isfinite(expect):
                        got = values[i, j, k]
                        assert (np.isnan(got), np.isinf(got)) == (np.isnan(expect), np.isinf(expect))
                    else:
                        assert abs(values[i, j, k] - expect) <= 1e-14 * abs(expect)

    @given(
        size=st.sampled_from([2**14, 2**15, 2**16]).flatmap(lambda m: st.integers(m - 2, m + 2)),
        kernel=st.sampled_from(["simple_pulse", "quasi_spherical", "spherical_reference"]),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.1, 5),
        tau=st.floats(0.05, 4),
        zeta_gap=st.sampled_from([1.0, 0.5, 1e-3]),
        picks=st.lists(st.integers(0, 2**16 + 2), min_size=3, max_size=3),
    )
    @settings(max_examples=1000, deadline=None)
    def test_batches_across_the_elision_sizes_equal_scalar_calls_bit_for_bit(
            self, size, kernel, seed, c, tau, zeta_gap, picks):
        # numpy computes a temporary of 256 KiB or more (2^14 complex nodes) in place;
        # a node's bits depend neither on that nor on evaluate_batch's blocks
        params = PulseParams(c, tau, (1.0 - zeta_gap) * c * tau)
        b, w = params.b, Waveform(params.b, 0.7 / params.b)
        evaluator = {"simple_pulse": lambda p: eval_simple_pulse(p, params),
                     "quasi_spherical": lambda p: eval_quasi_spherical(p, params, w),
                     "spherical_reference": lambda p: eval_spherical_reference(p, params, w)}[kernel]
        t, rho, z = np.random.default_rng(seed).uniform((-10 * tau, 0.0, -10 * b), (10 * tau, 10 * b, 10 * b),
                                                        (size, 3)).T
        whole = evaluator(SpacetimePoint(t, rho, 0.0, z))
        assert evaluate_batch(evaluator, SpacetimePoint(t, rho, 0.0, z)).tobytes() == whole.tobytes()
        for i in (*(k % size for k in picks), size - 1):
            node = evaluator(SpacetimePoint(float(t[i]), float(rho[i]), 0.0, float(z[i])))
            assert whole[i].tobytes() == node.tobytes(), (i, whole[i], node)


class TestOverflowFallback:
    def test_finite_nodes_keep_their_bits(self, rng):
        # 20,000 nodes of normal range: S, simple_pulse and quasi_spherical are
        # bit for bit the direct formulas, which overflow nowhere there; simple_pulse
        # divides twice, 1 / (S - z - i zeta) / S, and forms no product
        for c, tau, zeta in ((1.0, 1.0, 0.0), (0.7, 1.9, 0.5), (2.3, 0.4, 0.9), (1.3, 0.8, -0.4)):
            params = PulseParams(c, tau, zeta * c * tau)
            t, x, y, z = rng.standard_normal((4, 5000)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, 5000))
            ct, b = c * t, params.b
            s = complex_sqrt_upper((ct * ct - b * b - (x * x + y * y)) + 2j * ct * b)
            w = Waveform(1.1 * b, 0.7)
            point = SpacetimePoint(t, x, y, z)
            for got, want in ((complex_distance(point, params), s),
                              (eval_simple_pulse(point, params), 1.0 / (s - z - 1j * params.zeta) / s),
                              (eval_quasi_spherical(point, params, w), w.eval(s - z - 1j * b) / s)):
                assert np.isfinite(want).all() and got.tobytes() == want.tobytes()


def provenance(params: PulseParams) -> dict:
    """The provenance ``sample`` hands a simple-pulse grid."""
    return {"params": params, "waveform_desc": f"rational(a={params.b - params.zeta!r})",
            "evaluator_desc": "simple_pulse"}


class TestGrid:
    def test_single_point(self, params):
        spec = GridSpec((AxisSpec("rho", 0.3, 0.3, 1),), {"t": 0.0, "z": 0.1})
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        expect = eval_simple_pulse(SpacetimePoint.from_cylindrical(0.0, 0.3, 0.1), params)
        assert grid.values.shape == (1,)
        # array and scalar division may differ in the last ulp
        assert abs(grid.values[0] - expect) <= 1e-14 * abs(expect)

    def test_2x2_matches_direct_calls(self, params):
        spec = GridSpec(
            (AxisSpec("rho", 0.0, 1.0, 2), AxisSpec("z", -1.0, 1.0, 2)), {"t": 0.5}
        )
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        for (i, rho) in enumerate((0.0, 1.0)):
            for (j, z) in enumerate((-1.0, 1.0)):
                direct = eval_simple_pulse(
                    SpacetimePoint.from_cylindrical(0.5, rho, z), params
                )
                assert abs(grid.values[i, j] - direct) <= 1e-14 * abs(direct)

    def test_snapshot_peaks_at_origin(self, params):
        # brute-force scan: the t=0 snapshot with zeta=0 attains max |u| at rho=z=0
        spec = GridSpec(
            (AxisSpec("rho", 0.0, 5.0, 101), AxisSpec("z", -5.0, 5.0, 101)), {"t": 0.0}
        )
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        flat = np.abs(grid.values)
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        assert (i, j) == (0, 50)
        assert flat[i, j] == pytest.approx(1.0)

    def test_evaluator_called_once_per_grid(self, params):
        points = []

        def counting(p):
            points.append(p)
            return eval_simple_pulse(p, params)

        spec = GridSpec(
            (AxisSpec("t", -1.0, 1.0, 4), AxisSpec("rho", 0.0, 2.0, 5),
             AxisSpec("z", -2.0, 2.0, 6)), {}
        )
        grid = sample_grid(spec, counting, **provenance(params))
        assert len(points) == 1
        assert grid.values.shape == (4, 5, 6)
        t, rho, z = (a.values() for a in spec.axes)
        expect = eval_simple_pulse(
            SpacetimePoint.from_cylindrical(t[1], rho[3], z[3]), params
        )
        assert abs(grid.values[1, 3, 3] - expect) <= 1e-14 * abs(expect)

    def test_error_carries_grid_index(self, params):
        def broken(p):
            # the kernels' contract: u is NaN at a pole
            return np.where(p.t + p.z > 0.9, np.nan, 1.0 + 0j)

        # nodes (0, 2), (1, 1) and (1, 2) fail; (0, 2) is first in row-major order
        spec = GridSpec((AxisSpec("t", 0.0, 1.0, 2), AxisSpec("z", -1.0, 1.0, 3)), {})
        with pytest.raises(SingularPoint) as exc:
            sample_grid(spec, broken, **provenance(params))
        assert exc.value.index == (0, 2)
        assert exc.value.point == SpacetimePoint(0.0, 0.0, 0.0, 1.0)

    def test_singular_node_is_named(self):
        # zeta = b puts a pole of the simple pulse at the origin at t = 0
        spec = GridSpec((AxisSpec("z", -1.0, 1.0, 3),), {"t": 0.0, "rho": 0.0})
        params = PulseParams(1.0, 1.0, 1.0)
        with pytest.raises(SingularPoint) as exc:
            sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        assert exc.value.index == (1,)
        assert exc.value.point == SpacetimePoint(0.0, 0.0, 0.0, 0.0)
        assert "index (1,): non-finite u at" in str(exc.value)

    def test_single_node_axis_is_its_start_bit_for_bit(self):
        # linspace(start, stop, 1) gives 0.0 for -0.0 and NaN on overflow of stop - start
        for start, stop in ((-0.0, 1.0), (-1e308, 1e308), (0.3, -5.0)):
            values = AxisSpec("t", start, stop, 1).values()
            assert values.tobytes() == np.array([start]).tobytes()

    def test_axis_wider_than_the_largest_float_has_finite_nodes(self, tmp_path):
        # stop - start overflows linspace's step: the nodes are those of the
        # halved ends, doubled, and the quasi-spherical kernel is finite there
        assert AxisSpec("z", -1e308, 1e308, 3).values().tolist() == [-1e308, 0.0, 1e308]
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"grid": {"axes": [{"name": "z", "min": -1e308, "max": 1e308, "count": 3}]}}))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "wide.csv")]) == 0
        rows = [line.split(",") for line in (tmp_path / "wide.csv").read_text().splitlines()[4:]]
        assert [row[0] for row in rows] == [fmt_float(z) for z in (-1e308, 0.0, 1e308)]
        assert all(cell == fmt_float(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize("evaluator", ["simple_pulse", "quasi_spherical"])
    @pytest.mark.parametrize("t", [1e155, -1e155, 1e300, -1e300, 1e308, -1e308])
    def test_huge_times_sample_a_finite_field(self, tmp_path, evaluator, t):
        # (ct)^2, 2 ct b or |S|^2 overflows there, and the field is still finite
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"evaluator": evaluator, "grid": {
            "axes": [{"name": "t", "min": t, "max": t, "count": 1}], "fixed": {"rho": 0.5, "z": 0.2}}}))
        out = tmp_path / "far.csv"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[0]) == t and all(math.isfinite(float(v)) for v in row)
        # and a scalar point, whose first try overflows as the grid's does
        params, point = PulseParams(1.0, 1.0), SpacetimePoint(t, 0.5, 0.0, 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            for u in (eval_simple_pulse(point, params),
                      eval_quasi_spherical(point, params, Waveform(1.0))):
                assert isinstance(u, np.complex128) and np.isfinite(u)

    def test_negative_rho_rejected(self):
        # rho enters the kernel only as rho^2, so the grid must refuse the sign
        with pytest.raises(ValueError, match="rho"):
            AxisSpec("rho", -1.0, 1.0, 3)
        with pytest.raises(ValueError, match="rho"):
            GridSpec((AxisSpec("z", 0.0, 1.0, 2),), {"rho": -0.5})

    def test_library_refusals(self, params):
        # each is refused before the config reaches it, so only a library caller meets it
        with pytest.raises(ValueError, match=r"^axis z: count must be >= 1, got 0$"):
            AxisSpec("z", 0.0, 1.0, 0)
        with pytest.raises(ValueError, match=r"^fixed coordinate 'w' is not one of "):
            GridSpec((AxisSpec("z", 0.0, 1.0, 2),), {"w": 0.0})
        spec = GridSpec((AxisSpec("z", 0.0, 1.0, 2),))
        with pytest.raises(ValueError, match=r"^values shape \(3,\) != grid shape \(2,\)$"):
            FieldGrid(spec, np.zeros(3, complex), **provenance(params))

    def test_rho_conflicts_with_xy(self):
        with pytest.raises(ValueError):
            GridSpec((AxisSpec("rho", 0, 1, 2), AxisSpec("x", 0, 1, 2)), {})

    def test_csv_roundtrip_shape(self, params, tmp_path):
        spec = GridSpec((AxisSpec("rho", 0.0, 1.0, 3),), {"t": 0.0})
        grid = sample_grid(
            spec, lambda p: eval_simple_pulse(p, params),
            params=params, waveform_desc="rational(a=1)", evaluator_desc="simple_pulse",
        )
        path = tmp_path / "grid.csv"
        grid.write_csv(path)
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "rho,re,im,abs"
        assert len(data) == 4

    def test_binary_roundtrip(self, params, tmp_path):
        import json

        spec = GridSpec((AxisSpec("z", -1.0, 1.0, 5),), {"t": 0.2})
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        jpath = tmp_path / "grid.json"
        grid.write_binary(jpath)
        header = json.loads(jpath.read_text())
        raw = (tmp_path / header["data_file"]).read_bytes()
        values = np.frombuffer(raw, dtype="<c16").reshape(header["shape"])
        assert np.array_equal(values, grid.values)

    def test_files_carry_the_provenance(self, tmp_path):
        # every grid carries its pulse, waveform and evaluator: CSV comments in
        # that order, then the fixed coordinates; the header's keys in one order
        params = PulseParams(1.5, 0.5, 0.25)
        spec = GridSpec((AxisSpec("z", -1.0, 1.0, 3),), {"t": 0.2, "rho": 0.1})
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        grid.write_csv(tmp_path / "grid.csv")
        comments = [l for l in (tmp_path / "grid.csv").read_text().splitlines() if l.startswith("#")]
        assert comments == [
            "# pulse: c=1.5000000000000000e+00 tau=5.0000000000000000e-01 zeta=2.5000000000000000e-01",
            "# waveform: rational(a=0.5)", "# evaluator: simple_pulse",
            "# fixed: rho=1.0000000000000001e-01", "# fixed: t=2.0000000000000001e-01"]
        grid.write_binary(tmp_path / "grid.json")
        header = json.loads((tmp_path / "grid.json").read_text())
        assert list(header) == ["axes", "fixed", "waveform", "evaluator", "pulse", "dtype",
                                "byte_order", "order", "shape", "data_file"]
        assert header["pulse"] == {"c": 1.5, "tau": 0.5, "zeta": 0.25}
        assert (header["waveform"], header["evaluator"]) == ("rational(a=0.5)", "simple_pulse")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_data_write_leaves_no_bin(self, params, tmp_path):
        spec = GridSpec((AxisSpec("z", -1.0, 1.0, 5),), {"t": 0.2})
        grid = sample_grid(spec, lambda p: eval_simple_pulse(p, params), **provenance(params))
        jpath, bpath = tmp_path / "grid.json", tmp_path / "grid.json.bin"
        bpath.symlink_to("/dev/full")  # every write to it fails with ENOSPC
        with pytest.raises(OSError) as err:
            grid.write_binary(jpath)
        assert err.value.errno == errno.ENOSPC
        assert not os.path.lexists(bpath) and not jpath.exists()


class TestEvaluateBatch:
    """Blocks of whole slices of the first axis whose trailing slice fits:
    the values of one kernel call, in block-sized memory."""

    @pytest.mark.parametrize("axes, fixed, kernel", [
        ((("t", -3.0, 3.0, 50_001),), {"rho": 0.4, "z": 0.1}, "simple"),
        ((("rho", 0.0, 3.0, 316), ("z", -3.0, 3.0, 316)), {"t": 0.2}, "simple"),
        ((("x", -2.0, 2.0, 31), ("y", -2.0, 2.0, 37), ("z", -2.0, 2.0, 41)), {"t": 0.1}, "lekner"),
        ((("t", -3.0, 3.0, 40_000), ("z", -1.0, 1.0, 2)), {"rho": 0.4}, "simple"),
        # an axis of one node leads: the blocks cut the next one
        ((("t", 0.2, 0.2, 1), ("rho", 0.0, 3.0, 300), ("z", -3.0, 3.0, 300)), {}, "lekner"),
        ((("t", -3.0, 3.0, 2**15),), {"rho": 0.4, "z": 0.1}, "simple"),
        ((("z", -3.0, 3.0, 2**16 - 1),), {"t": 0.1, "rho": 0.4}, "simple"),
        ((("t", -3.0, 3.0, 2**16),), {"rho": 0.4, "z": 0.1}, "simple"),
        ((("z", -3.0, 3.0, 2**16 + 1),), {"t": 0.1, "rho": 0.4}, "lekner"),
    ])
    def test_values_are_one_kernel_call_bit_for_bit(self, axes, fixed, kernel):
        params = PulseParams(1.0, 1.0, 0.2)
        evaluator = {"simple": lambda p: eval_simple_pulse(p, params),
                     "lekner": lambda p: eval_quasi_spherical(p, params, Waveform(1.0, 2.0))}[kernel]
        point = GridSpec(tuple(AxisSpec(*a) for a in axes), fixed).broadcast_point()
        sizes = []
        values = evaluate_batch(lambda p: sizes.append(math.prod(p.shape)) or evaluator(p), point)
        with np.errstate(invalid="ignore"):
            whole = np.broadcast_to(evaluator(point), point.shape)
        assert values.shape == point.shape and values.tobytes() == whole.tobytes()
        # a block holds the whole leading-axis slices that BATCH_BLOCK_BYTES holds at
        # 80 bytes a node, every block but the last as many; a batch that fits is one call
        n, fits = math.prod(point.shape), BATCH_BLOCK_BYTES // 80
        assert sum(sizes) == n and (len(sizes) == 1) == (n <= fits)
        assert all(size <= fits for size in sizes) and all(size == sizes[0] for size in sizes[:-1])

    def test_singular_point_in_a_later_block_keeps_its_batch_index(self):
        spec = GridSpec((AxisSpec("t", 0.0, 1.0, 300), AxisSpec("z", -1.0, 1.0, 300)), {"rho": 0.5})
        t, z = (a.values() for a in spec.axes)
        blocks = []

        def broken(p):
            # NaN from node (150, 7) on; rows 150 and later lie past the first block
            blocks.append(p.shape)
            return np.where((p.t >= t[150]) & ((p.t > t[150]) | (p.z >= z[7])), np.nan, 1.0 + 0j)

        with pytest.raises(SingularPoint) as exc:
            evaluate_batch(broken, spec.broadcast_point())
        assert len(blocks) > 1 and sum(b[0] for b in blocks[:-1]) <= 150 < sum(b[0] for b in blocks)
        assert exc.value.index == (150, 7)
        assert exc.value.point == SpacetimePoint(float(t[150]), 0.5, 0.0, float(z[7]))

    def test_a_leading_axis_too_wide_for_a_block_is_cut_past(self, params):
        # 2 x 20,000: a row's 20,000 nodes overfill a block, so the blocks cut
        # the z axis, row by row, and the first NaN in row-major order is named
        fits = BATCH_BLOCK_BYTES // 80
        t, z = np.array([0.1, 0.3]), np.linspace(-3.0, 3.0, 20_000)
        point = SpacetimePoint(t[:, None], 0.4, 0.0, z)
        blocks = []
        values = evaluate_batch(lambda p: blocks.append(p.shape) or eval_simple_pulse(p, params), point)
        assert values.tobytes() == eval_simple_pulse(point, params).tobytes()
        runs = [(1, fits)] * (20_000 // fits) + [(1, 20_000 % fits)]
        assert blocks == runs + runs

        def broken(p):
            return np.where(((p.t > 0.2) & (p.z >= z[5])) | ((p.t < 0.2) & (p.z >= z[19_999])), np.nan, 1.0 + 0j)

        with pytest.raises(SingularPoint) as exc:
            evaluate_batch(broken, point)
        assert exc.value.index == (0, 19_999)
        assert exc.value.point == SpacetimePoint(0.1, 0.4, 0.0, float(z[19_999]))

    def test_two_long_rows_peak_near_16_bytes_a_node(self, params):
        # the values array (16 B a node) and one block's kernel temporaries, even
        # where a row of the leading axis holds more nodes than a block
        point = SpacetimePoint(np.array([[0.1], [0.3]]), 0.4, 0.0, np.linspace(-3.0, 3.0, 200_000))
        evaluate_batch(lambda p: eval_simple_pulse(p, params), point)
        tracemalloc.start()
        try:
            evaluate_batch(lambda p: eval_simple_pulse(p, params), point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 400_000, peak / 400_000

    def test_one_block_is_the_kernels_own_array(self, params):
        # the output is allocated after the first block's call: a batch of one
        # block holds no second copy of its values
        point = SpacetimePoint(np.linspace(-3.0, 3.0, 4000), 0.4, 0.0, 0.1)
        peaks = []
        for call in (lambda: eval_simple_pulse(point, params),
                     lambda: evaluate_batch(lambda p: eval_simple_pulse(p, params), point)):
            call()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096, peaks

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_sample_peaks_near_16_bytes_a_node(self, tmp_path, fmt):
        # the values array (16 B a node), a block's kernel temporaries (0.6 MB) and
        # a CSV chunk (1.3 MB); no full-size copy of the values, their parts or bytes
        bound = {"csv": 20.5, "binary": 18.0}[fmt]
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"evaluator": "simple_pulse", "format": fmt, "grid": {
            "axes": [{"name": "rho", "min": 0.0, "max": 3.0, "count": 600},
                     {"name": "z", "min": -3.0, "max": 3.0, "count": 600}], "fixed": {"t": 0.2}}}))
        out = str(tmp_path / f"grid.{fmt}")
        assert main(["sample", "--config", str(cfg), "--out", out]) == 0  # tables made once
        tracemalloc.start()
        try:
            assert main(["sample", "--config", str(cfg), "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 600 * 600, peak / 600 / 600


class _Scaled:
    """Amplitude-scaled wrapper used to probe quadratic functionals."""

    def __init__(self, inner: Waveform, factor: float):
        self.inner = inner
        self.factor = factor

    def eval(self, theta):
        return self.factor * self.inner.eval(theta)

    def deriv(self, theta):
        return self.factor * self.inner.deriv(theta)

    def spectrum(self, kappa):
        return self.factor * self.inner.spectrum(kappa)


class TestEnergy:
    def test_finite_and_conserved(self, params, rational):
        e0 = energy_estimate(0.0, params, rational)
        e1 = energy_estimate(1.0, params, rational)
        assert math.isfinite(e0.value) and e0.value > 0.0
        assert abs(e0.value - e1.value) / e0.value <= 1e-3

    @settings(max_examples=30, deadline=None)
    @given(
        b=st.floats(0.5, 4.0),
        K=st.floats(0.0, 3.0),
        c=st.floats(0.5, 2.0),
        t_over_tau=st.floats(-300.0, 300.0),
        tol=st.sampled_from([1e-2, 1e-4, 1e-6]),
    )
    def test_error_estimate_bounds_the_closed_form(self, b, K, c, t_over_tau, tol):
        # lekner(a=b, K) carries the field energy 2 pi^2 (1 + K b) / b^3
        params = PulseParams(c, b / c)
        b = params.b
        est = energy_estimate(t_over_tau * params.tau, params, Waveform(b, K), tol)
        exact = 2.0 * math.pi**2 * (1.0 + K * b) / b**3
        assert abs(est.value - exact) <= est.error_estimate <= max(tol * est.value, tol)

    def test_seeded_sweep_estimates_bound_the_closed_form(self):
        # lekner(a = b, K) with b in [0.25, 4] and K b = 0 or in [0, 3]; one
        # draw in three at |t| <= 300 tau, the others at |t| <= 3 tau, where
        # the inner estimate switches from three rules to QUADPACK's at
        # c|t| = 2b; the tolerances in turn
        rng = np.random.default_rng(21)
        misses = []
        for i in range(150):
            c, b = rng.uniform(0.5, 2.0), rng.uniform(0.25, 4.0)
            kb = 0.0 if i % 2 else rng.uniform(0.0, 3.0)
            t_over_tau = rng.uniform(-1.0, 1.0) * (300.0 if (i // 3) % 3 == 0 else 3.0)
            tol = (1e-2, 1e-4, 1e-6)[i % 3]
            params = PulseParams(c, b / c)
            b = params.b
            est = energy_estimate(t_over_tau * params.tau, params, Waveform(b, kb / b), tol)
            err = abs(est.value - 2.0 * math.pi**2 * (1.0 + kb) / b**3)
            if not err <= est.error_estimate <= max(tol * est.value, tol):
                misses.append((i, err, est.error_estimate))
        assert not misses

    def test_outer_edge_inside_the_shell_bounds_a_seeded_late_time_miss(self):
        # at c t = 14.2 b the outer rule alone estimated 1.61e-4 for an
        # error of 2.36e-4; its panel edge at y = 1.5 settles the shell
        params, tol = PulseParams(1.2695513468728576, 1.3046170778695991), 1e-4
        w = Waveform(1.6562783683626814, 0.9367434317040895)
        b = params.b
        est = energy_estimate(18.53438233572413, params, w, tol)
        exact = 2.0 * math.pi**2 * (1.0 + w.K * b) / b**3
        assert abs(est.value - exact) <= est.error_estimate <= max(tol * est.value, tol)

    @pytest.mark.parametrize("t", [30.0, -100.0, 300.0, 1000.0])
    @pytest.mark.parametrize("w", [Waveform(1.0), Waveform(1.0, 1.0)], ids=repr)
    def test_late_times_bound_the_error_or_raise(self, params, w, t):
        # the pulse is a shell of width b at radius c|t| with thin on-axis
        # tails; the estimate settles there and bounds its error
        exact = 2.0 * math.pi**2 * (1.0 + w.K)
        est = energy_estimate(t, params, w, 1e-4)
        assert abs(est.value - exact) <= est.error_estimate <= 1e-4 * est.value

    def test_counts_one_evaluation_per_density_value(self, params):
        nodes = []

        class Counting(Waveform):
            def deriv(self, theta):
                nodes.append(np.size(theta))
                return super().deriv(theta)

        # one radial range at t = 0, two after
        for t in (0.0, 1.0, 30.0):
            nodes.clear()
            est = energy_estimate(t, params, Counting(1.0), 1e-4)
            assert est.evaluations == sum(nodes) > 0
            assert est.value == energy_estimate(t, params, Waveform(1.0), 1e-4).value

    def test_inner_edges_spare_the_bisections_toward_the_axis(self, params):
        # at t = -0.45 tau every inner polar range bisects toward the axis,
        # 0.5 -> 0.25 -> 0.125, one density call per level when it starts
        # on one panel (16 calls); it starts on those edges instead
        calls = []

        class Counting(Waveform):
            def deriv(self, theta):
                calls.append(np.size(theta))
                return super().deriv(theta)

        est = energy_estimate(-0.45 * params.tau, params, Counting(1.0), 1e-4)
        assert len(calls) <= 10
        assert abs(est.value - 2.0 * math.pi**2) <= est.error_estimate

    def test_memory_stays_flat_at_late_times(self, params, rational):
        # 1.7M density values at t = 1000 tau would take 27 MB held at once
        tracemalloc.start()
        try:
            est = energy_estimate(1000.0, params, rational, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.evaluations > 1_000_000
        assert peak < 4e6

    def test_unreachable_tolerance_names_the_energy(self, params, rational):
        with pytest.raises(ToleranceNotReached, match=r"^energy at t=0\.0 \(route budget"):
            energy_estimate(0.0, params, rational, 1e-300)

    def test_non_finite_density_raises_at_once(self, params, rational):
        with pytest.raises(ValueError, match=r"^energy at t=0\.0: integrand produced a non-finite"):
            energy_estimate(0.0, params, _Scaled(rational, math.nan))

    def test_quadratic_scaling(self, params, rational):
        base = energy_estimate(0.0, params, rational)
        doubled = energy_estimate(0.0, params, _Scaled(rational, 2.0))
        assert doubled.value == pytest.approx(4.0 * base.value, rel=1e-6)

    def test_zeta_leaves_the_energy_unchanged(self):
        # u = f(theta)/S reads b and c, never zeta: zeta = 2 >= b gives the
        # zeta = 0 energy bit for bit
        beyond = energy_estimate(0.0, PulseParams(1.0, 1.0, 2.0), Waveform(1.0))
        assert beyond == energy_estimate(0.0, PulseParams(1.0, 1.0, 0.0), Waveform(1.0))
