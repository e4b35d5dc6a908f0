import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from unipulse import cli
from unipulse.cli import _build_parser, main
from unipulse.config import parse_random_points
from unipulse.fields import PulseParams, SpacetimePoint, eval_simple_pulse
from unipulse.ioformats import fmt_float, render_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out_name, extra=()):
    cfg_path = write_cfg(tmp_path, f"{command}.json", cfg)
    out = tmp_path / out_name
    rc = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return rc, out


def read_json(path) -> dict:
    """A JSON output, which must be one line of the standard library's JSON:
    the text ``json.dumps`` gives for the values it loads to."""
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, ensure_ascii=False) + "\n"
    return doc


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """A CSV output's column names and rows of cells: every line above the
    header is a ``#`` comment, and every cell reads as ``fmt_float`` spells
    its value."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert re.fullmatch(r"[A-Za-z_]+(,[A-Za-z_]+)*", lines[start])
    rows = [line.split(",") for line in lines[start + 1:]]
    assert all(cell == fmt_float(float(cell)) for row in rows for cell in row)
    return lines[start].split(","), rows


def assert_routes_meet_their_estimates(doc: dict) -> None:
    """Each of a compare report's three deterministic routes lies within its
    error_estimate of the closed form, and that estimate meets the tolerance."""
    tol = doc["tolerance"]
    for i, row in enumerate(doc["rows"]):
        closed = complex(row["closed_form"]["re"], row["closed_form"]["im"])
        assert len(row["error_estimate"]) == 3
        for route, est in row["error_estimate"].items():
            err = abs(complex(row[route]["re"], row[route]["im"]) - closed)
            assert err <= est <= max(tol * abs(closed), tol), (i, route, err, est)


class TestSample:
    def test_single_point_grid(self, tmp_path):
        cfg = {
            "grid": {"axes": [{"name": "rho", "min": 0.3, "max": 0.3, "count": 1}],
                     "fixed": {"t": 0.0, "z": 0.1}},
            "evaluator": "simple_pulse",
        }
        rc, out = run(tmp_path, "sample", cfg, "one.csv")
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2  # header + one sample

    def test_snapshot_max_at_origin(self, tmp_path):
        cfg = {
            "grid": {"axes": [{"name": "rho", "min": 0.0, "max": 5.0, "count": 101},
                              {"name": "z", "min": -5.0, "max": 5.0, "count": 101}],
                     "fixed": {"t": 0.0}},
            "evaluator": "simple_pulse",
        }
        rc, out = run(tmp_path, "sample", cfg, "snap.csv")
        assert rc == 0
        best = None
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("rho"):
                continue
            rho, z, re, im, mag = (float(v) for v in line.split(","))
            if best is None or mag > best[2]:
                best = (rho, z, mag)
        assert best[:2] == (0.0, 0.0)

    def test_malformed_tau_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = {"pulse": {"c": 1.0, "tau": -1.0},
               "grid": {"axes": [{"name": "z", "min": 0, "max": 1, "count": 2}]}}
        rc, _ = run(tmp_path, "sample", cfg, "x.csv")
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = {"grdi": {}}
        rc, _ = run(tmp_path, "sample", cfg, "x.csv")
        assert rc == 2

    @pytest.mark.parametrize(
        "grid",
        [{"axes": [{"name": "rho", "min": -1.0, "max": 1.0, "count": 3}]},
         {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}],
          "fixed": {"rho": -0.5}}],
    )
    def test_negative_rho_exits_2(self, tmp_path, capsys, grid):
        rc, out = run(tmp_path, "sample", {"grid": grid}, "neg.csv")
        assert rc == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_grid_exits_3_and_names_index(self, tmp_path, capsys):
        # at zeta = b the simple pulse is the singular rational(a = 0) pole: it
        # runs without a waveform, which it would not read
        cfg = {
            "pulse": {"c": 1.0, "tau": 1.0, "zeta": 1.0},
            "evaluator": "simple_pulse",
            "grid": {"axes": [{"name": "z", "min": -1.0, "max": 1.0, "count": 3}],
                     "fixed": {"t": 0.0, "rho": 0.0}},
        }
        rc, _ = run(tmp_path, "sample", cfg, "sing.csv")
        assert rc == 3
        assert "index (1,): non-finite u at" in capsys.readouterr().err

    def test_snapshot_config_matches_per_node_calls(self, tmp_path):
        # the shipped snapshot, evaluated in one array call and streamed,
        # against the file a scalar call per node writes: same header and
        # coordinates, values equal up to last-ulp rounding
        cfg = json.loads((CONFIGS / "sample_snapshot.json").read_text())
        rc, out = run(tmp_path, "sample", cfg, "snapshot.csv")
        assert rc == 0
        text = out.read_bytes().decode("utf-8")
        assert text.endswith("\n")
        lines = text.split("\n")[:-1]
        assert lines[:5] == [
            "# pulse: c=1.0000000000000000e+00 tau=1.0000000000000000e+00 zeta=0.0000000000000000e+00",
            "# waveform: rational(a=1)", "# evaluator: simple_pulse",
            "# fixed: t=0.0000000000000000e+00", "rho,z,re,im,abs",
        ]
        params = PulseParams(1.0, 1.0, 0.0)
        nodes = itertools.product(np.linspace(0.0, 5.0, 101), np.linspace(-5.0, 5.0, 101))
        rows = lines[5:]
        assert len(rows) == 101 * 101
        for row, (rho, z) in zip(rows, nodes):
            cells = row.split(",")
            assert cells[:2] == ["%.16e" % rho, "%.16e" % z]
            u = eval_simple_pulse(SpacetimePoint(0.0, rho, 0.0, z), params)
            for cell, expect in zip(cells[2:], (u.real, u.imag, abs(u))):
                assert cell == "%.16e" % float(cell)
                assert abs(float(cell) - expect) <= 1e-14 * abs(u)

    BINARY = {"grid": {"axes": [{"name": "z", "min": -1, "max": 1, "count": 4}],
                       "fixed": {"t": 0.0}},
              "format": "binary"}

    def test_binary_format(self, tmp_path):
        rc, out = run(tmp_path, "sample", self.BINARY, "grid.json")
        assert rc == 0
        header = json.loads(out.read_text())
        data = (tmp_path / header["data_file"]).read_bytes()
        assert len(data) == 4 * 16
        assert header["dtype"] == "complex128"

    def test_binary_header_stays_json_with_a_tab_in_the_data_file_name(self, tmp_path):
        rc, out = run(tmp_path, "sample", self.BINARY, "grid\t1.json")
        assert rc == 0
        assert json.loads(out.read_text())["data_file"] == "grid\t1.json.bin"


class TestCompare:
    CFG = {
        "points": [{"t": 0.0, "rho": 0.5, "z": 0.2}],
        "tolerance": 1e-6,
        "max_discrepancy": 1e-5,
    }

    def test_demo_point_passes(self, tmp_path):
        rc, out = run(tmp_path, "compare", self.CFG, "cmp.json")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["worst_discrepancy"] <= 1e-5
        row = doc["rows"][0]
        assert set(row) >= {"point", "closed_form", "hemisphere",
                            "fourier_bessel", "max_discrepancy"}

    def test_route_disagreement_exits_4_and_writes_the_report(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "compare_demo.json").read_text())
        del cfg["mc"]
        cfg["max_discrepancy"] = 1e-300
        rc, out = run(tmp_path, "compare", cfg, "disagree.json")
        assert rc == 4 and json.loads(out.read_text())["pass"] is False
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("check failed: route disagreement ")

    def test_rows_report_each_route_error_and_evaluations(self, tmp_path):
        rc, out = run(tmp_path, "compare", self.CFG, "e.json")
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert list(row) == ["point", "closed_form", "hemisphere", "fourier_bessel",
                             "from_weight", "max_discrepancy", "error_estimate",
                             "evaluations"]
        closed = complex(row["closed_form"]["re"], row["closed_form"]["im"])
        for route in ("hemisphere", "fourier_bessel", "from_weight"):
            got = complex(row[route]["re"], row[route]["im"])
            assert abs(got - closed) <= row["error_estimate"][route]
            assert isinstance(row["evaluations"][route], int)
            assert row["evaluations"][route] > 0

    def test_spent_spectral_budget_exits_3_and_names_both_routes(self, tmp_path, capsys, monkeypatch):
        # fourier_bessel and from_weight run in one quadrature, so its budget
        # failure names both
        import unipulse.synthesis as synthesis

        monkeypatch.setattr(synthesis, "SPECTRAL_BUDGET", 1000)
        rc, _ = run(tmp_path, "compare", self.CFG, "f.json")
        assert rc == 3
        assert ("Fourier-Bessel reconstruction and spectral-weight reconstruction (route budget 1000): "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("route, name", [
        ("reconstruct_fourier_bessel", "Fourier-Bessel reconstruction"),
        ("reconstruct_from_weight", "spectral-weight reconstruction"),
    ])
    def test_spent_route_budget_exits_3(self, tmp_path, capsys, monkeypatch, route, name):
        # a one-route entry point in compare's place runs the shared spectral
        # call, whose spent budget names both routes, its own among them
        import unipulse.synthesis as synthesis

        def one_route(*args):
            return {route.removeprefix("reconstruct_"): getattr(synthesis, route)(*args)}

        monkeypatch.setattr(synthesis, "SPECTRAL_BUDGET", 1000)
        monkeypatch.setattr(cli, "reconstruct_spectral", one_route)
        rc, _ = run(tmp_path, "compare", self.CFG, "f.json")
        assert rc == 3
        err = capsys.readouterr().err
        assert name in err
        assert ("Fourier-Bessel reconstruction and spectral-weight reconstruction (route budget 1000): "
                in err)

    def test_byte_identical_reruns(self, tmp_path):
        rc1, out1 = run(tmp_path, "compare", self.CFG, "a.json")
        rc2, out2 = run(tmp_path, "compare", self.CFG, "b.json")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unreachable_tolerance_exits_3(self, tmp_path, capsys):
        cfg = dict(self.CFG, tolerance=1e-15)
        rc, _ = run(tmp_path, "compare", cfg, "c.json")
        assert rc == 3
        # 5e-17 is below the Gauss-Kronrod error floor of the azimuthal means
        assert "hemisphere reconstruction (route budget" in capsys.readouterr().err

    def test_spent_hemisphere_budget_exits_3_and_names_the_route(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "compare", dict(self.CFG, tolerance=1e-14), "g.json")
        assert rc == 3
        err = capsys.readouterr().err
        assert "hemisphere reconstruction (route budget 2000000): error floor" in err

    def test_slow_spectral_decay_exits_3_without_overflow(self, tmp_path, capsys):
        # rational(a = 0.01) at compare_demo's points: the spectral factors hold
        # e^{(k_z - k) b} <= 1, so no RuntimeWarning escapes as exit 1, and a
        # route whose estimate misses its target exits 3 on one stderr line
        demo = json.loads((CONFIGS / "compare_demo.json").read_text())
        cfg = {key: demo[key] for key in ("pulse", "points", "tolerance", "max_discrepancy")}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "compare", dict(cfg, waveform="rational(a=0.01)"), "s.json")
        err = capsys.readouterr().err
        assert rc == 3 and not out.exists()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_huge_time_exits_3_without_overflow(self, tmp_path, capsys):
        # at t = 1e155 the hemisphere route's d*d and the first try of S
        # overflow, where the code expects it; the spectral budget then runs
        # out, which exits 3 on one stderr line, not 1 on a RuntimeWarning
        cfg = {"points": [{"t": 1e155, "rho": 0.5, "z": 0.2}], "tolerance": 1e-6}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "compare", cfg, "huge_t.json")
        err = capsys.readouterr().err
        assert rc == 3 and not out.exists()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cfg, expected", [
        # the hemisphere route's d*d is inf + nan i
        ({"points": [{"t": 1e300, "rho": 0.5, "z": 0.2}]}, 3),
        # its (base - amp cos pi s) / mu overflows
        ({"points": [{"t": 1e306, "rho": 0.5, "z": 0.2}]}, 3),
        # J0's x*x overflows: 25 / inf is q's limit 0
        ({"points": [{"t": 1e200, "rho": 1e200, "z": 0.2}]}, 0),
        # the closed form's lekner carrier exp(i K theta) overflows
        ({"pulse": {"c": 0.0016965951274896488, "tau": 71485.26317234198},
          "waveform": "lekner(a=65457104.95604772,K=2794732.311204652)",
          "points": [{"t": 2.576714230778537e+230, "rho": 1.3580827538512259e+303,
                      "z": -1.1062941941408545e+300}]}, 3),
        # the spectral routes' kernel e^{-i k_z z} overflows at |z| ~ 1e306
        ({"pulse": {"c": 0.19649967035372803, "tau": 4.864588686132386e-05},
          "waveform": "rational(a=1.2739923141454446)",
          "points": [{"t": 1.5177002005506317e+65, "rho": 3.714383859611194e+218,
                      "z": 1.414200823263778e+306}]}, 3),
        # c t = 1e309 overflows: the closed form is non-finite, which evaluate_batch reports
        ({"pulse": {"c": 100.0, "tau": 0.01}, "points": [{"t": 1e307, "rho": 0.5, "z": 0.2}]}, 3),
    ], ids=["point0-3", "point1-3", "point2-0", "carrier_overflow-3", "spectral_kernel_overflow-3",
            "ct_overflow-3"])
    def test_far_end_of_the_float_range_keeps_the_exit_code(self, tmp_path, capsys, cfg,
                                                            expected):
        cfg = dict(cfg, tolerance=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "compare", cfg, "far.json")
        err = capsys.readouterr().err
        assert rc == expected and out.exists() == (expected == 0) and err.count("\n") == 1
        assert err.startswith("wrote " if expected == 0 else "numerical failure: ")

    def test_empty_point_list_exits_2(self, tmp_path):
        rc, _ = run(tmp_path, "compare", dict(self.CFG, points=[]), "d.json")
        assert rc == 2

    def test_monte_carlo_miss_is_named(self, tmp_path, capsys):
        # routes agree, but no estimate lies within 1e-9 standard errors
        cfg = dict(self.CFG, mc={"n_samples": 10_000, "seed": 3, "sigma": 1e-9})
        rc, out = run(tmp_path, "compare", cfg, "mcmiss.json")
        assert rc == 4
        assert json.loads(out.read_text())["pass"] is False
        err = capsys.readouterr().err
        assert "Monte-Carlo estimate off the closed form" in err
        assert "route disagreement" not in err

    def test_with_monte_carlo(self, tmp_path):
        cfg = dict(self.CFG, mc={"n_samples": 50_000, "seed": 3, "sigma": 5.0})
        rc, out = run(tmp_path, "compare", cfg, "mc.json")
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["mc_stderr"] > 0.0

    @pytest.mark.parametrize("cfg", [
        # a spectrum that starts at K = 2, on and off the axis, at c = 1 and 1.5
        *({"pulse": {"c": c, "tau": 1.0}, "waveform": "lekner(a=1,K=2)",
           "points": [{"t": 0.3, "rho": 0.0, "z": 0.2}, {"t": 0.5, "rho": 0.7, "z": -0.3}]}
          for c in (1.0, 1.5)),
        # one that starts at K = 80, far beyond the reach of an outer map from k = 0
        {"waveform": "lekner(a=1,K=80)",
         "points": [{"t": 0.0, "rho": 0.0, "z": 0.5}, {"t": 0.5, "rho": 0.4, "z": 0.3}]},
    ], ids=["K2-c1", "K2-c1.5", "K80"])
    def test_lekner_routes_meet_their_estimates(self, tmp_path, cfg):
        # and the two spectral routes, refined together on shared nodes, count equal values
        rc, out = run(tmp_path, "compare", dict(cfg, tolerance=1e-6, max_discrepancy=1e-5), "l.json")
        doc = read_json(out)
        assert rc == 0 and len(doc["rows"]) == 2
        assert_routes_meet_their_estimates(doc)
        for row in doc["rows"]:
            assert row["evaluations"]["fourier_bessel"] == row["evaluations"]["from_weight"]

    def test_lekner_monte_carlo_pulls_and_reseeds(self, tmp_path):
        # lekner(a=1, K=0.5) off and on the axis; at t = 30 tau, where the phases
        # k ct run to hundreds and pass through the float64 reduction ahead of the
        # float32 trigonometry; and at the origin, where every sample is -1/(a b)
        # and the stderr is rounding alone; at an odd n_samples (whole mirrored pairs)
        cfg = {"waveform": "lekner(a=1,K=0.5)",
               "points": [{"t": 0.4, "rho": 0.6, "z": -0.2}, {"t": 0.4, "rho": 0.0, "z": -0.2},
                          {"t": 30.0, "rho": 0.6, "z": -0.2}, {"t": 0.0, "rho": 0.0, "z": 0.0}],
               "tolerance": 1e-6, "max_discrepancy": 1e-5,
               "mc": {"n_samples": 100_001, "seed": 11, "sigma": 5.0}}
        outs = []
        for seed in ("11", "11", "12"):
            rc, out = run(tmp_path, "compare", cfg, f"mc{len(outs)}.json", extra=["--seed", seed])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows, reseeded = (read_json(out)["rows"] for out in (outs[0], outs[2]))
        for row in rows:
            closed = complex(row["closed_form"]["re"], row["closed_form"]["im"])
            mc = complex(row["mc_estimate"]["re"], row["mc_estimate"]["im"])
            assert abs(mc - closed) <= 5.0 * row["mc_stderr"]
        assert rows[3]["mc_stderr"] <= 1e-12
        # another seed changes every estimate but the origin's
        assert all(r["mc_estimate"] != q["mc_estimate"] for r, q in zip(rows[:3], reseeded))


class TestUnidir:
    def test_pulse_passes(self, tmp_path):
        rc, out = run(tmp_path, "unidir", {"tolerance": 1e-6}, "u.json")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["max_abs_farfield"] <= 1e-6
        assert len(doc["directions"]) == 8

    def test_spherical_reference_fails_with_exit_4(self, tmp_path):
        cfg = {"evaluator": "spherical_reference", "b_ref": 1.0, "tolerance": 1e-6}
        rc, out = run(tmp_path, "unidir", cfg, "usph.json")
        assert rc == 4
        assert json.loads(out.read_text())["pass"] is False

    def test_margin_follows_max_abs_farfield(self, tmp_path):
        rc, out = run(tmp_path, "unidir", {"tolerance": 1e-6}, "u.json")
        doc = json.loads(out.read_text())
        keys = list(doc)
        assert rc == 0 and keys[keys.index("max_abs_farfield") + 1] == "margin"
        assert doc["margin"] == doc["tol"] / doc["max_abs_farfield"] >= 1.0

    def test_counterexample_margin_is_below_one(self, tmp_path):
        cfg = {"evaluator": "spherical_reference", "b_ref": 1.0, "tolerance": 1e-6}
        rc, out = run(tmp_path, "unidir", cfg, "usph.json")
        doc = json.loads(out.read_text())
        assert rc == 4 and doc["margin"] == doc["tol"] / doc["max_abs_farfield"] < 1.0

    @staticmethod
    def _spoil_where_y_positive(monkeypatch, name):
        # adds a term growing like t^2 where y > 0: no limit to extrapolate there
        from unipulse import cli

        kernel = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p, *args: kernel(p, *args) + p.t * p.t * (p.y > 0.0))

    def test_undecided_direction_exits_3_and_names_it(self, tmp_path, capsys, monkeypatch):
        self._spoil_where_y_positive(monkeypatch, "eval_quasi_spherical")
        cfg = {"s_values": [0.0, 1.0],
               "backward_directions": [{"chi": 3.0}, {"chi": 2.0, "phi": 1.0}]}
        rc, out = run(tmp_path, "unidir", cfg, "uwild.json")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "far field along chi=2.0, s=0.0: extrapolants do not settle (spread " in err

    def test_settled_fail_exits_4_beside_an_undecided_direction(self, tmp_path, monkeypatch):
        self._spoil_where_y_positive(monkeypatch, "eval_spherical_reference")
        cfg = {"evaluator": "spherical_reference", "b_ref": 1.0,
               "backward_directions": [{"chi": 3.0}, {"chi": 2.0, "phi": 1.0}]}
        rc, out = run(tmp_path, "unidir", cfg, "umixed.json")
        doc = json.loads(out.read_text())
        assert rc == 4 and doc["pass"] is False and doc["worst"]["chi"] == 3.0
        assert [d["status"] for d in doc["directions"]] == ["FAIL", "UNDECIDED"]

    def test_zero_far_field_has_infinite_margin(self):
        from unipulse.farfield import UnidirectionalityReport

        report = UnidirectionalityReport(True, 1e-6, 0.0, {"chi": 3.0, "phi": 0.0, "s": 0.0}, ())
        assert report.margin == math.inf
        assert '"margin": Infinity' in render_json(report.as_dict())


class TestFarfieldCmd:
    def test_rows_and_agreement(self, tmp_path):
        cfg = {"s_values": [-1.0, 0.0, 1.0],
               "directions": [{"chi": 0.0}, {"chi": math.pi / 6}]}
        rc, out = run(tmp_path, "farfield", cfg, "ff.json")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 6
        for row in doc["rows"]:
            mag = math.hypot(row["analytic"]["re"], row["analytic"]["im"])
            assert row["abs_diff"] <= 1e-6 * mag

    def test_largest_offsets_keep_the_ladder_finite(self, tmp_path):
        # |s| = 1e100 at |cos chi| just above 1e-3 puts ct near 1e110: S^2 stays finite
        cfg = {"s_values": [-1e100, 1e100],
               "directions": [{"chi": 0.0}, {"chi": math.acos(1.001e-3)}]}
        rc, out = run(tmp_path, "farfield", cfg, "ffbig.json")
        assert rc == 0
        for row in json.loads(out.read_text())["rows"]:
            mag = math.hypot(row["analytic"]["re"], row["analytic"]["im"])
            assert row["abs_diff"] <= 1e-5 * mag

    def test_diverging_extrapolation_exits_3_and_names_the_entry(self, tmp_path, capsys,
                                                                 monkeypatch):
        from unipulse import cli

        # grows like t^2 off the forward axis: no limit to extrapolate there
        monkeypatch.setattr(cli, "eval_quasi_spherical",
                            lambda p, *args: p.t * p.t * (p.x > 0.0) + 1.0 / p.t)
        cfg = {"s_values": [0.0, 1.0], "directions": [{"chi": 0.0}, {"chi": 0.5}]}
        rc, out = run(tmp_path, "farfield", cfg, "ffwild.json")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "far field along chi=0.5, s=0.0: extrapolants do not settle (spread " in err

    @pytest.mark.parametrize("command", ["farfield", "unidir"])
    def test_ladder_past_the_float_range_exits_3(self, tmp_path, capsys, command):
        # t = ct/c overflows at c = 1e-300: the ladder's nodes are refused
        # before any evaluation, on one stderr line, not as exit 1 on a warning
        cfg = {"pulse": {"c": 1e-300, "tau": 1e300}, "waveform": "rational(a=1e-300)",
               "s_values": [1e100, -1e100]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, command, cfg, "far.json")
        err = capsys.readouterr().err
        assert rc == 3 and not out.exists() and err.count("\n") == 1
        assert err.startswith("numerical failure: far field along chi=")
        assert "s=1e+100: the ladder node at t = inf, " in err and err.endswith(" leaves the float range\n")


class TestSpectrumCmd:
    def test_table_matches_closed_form(self, tmp_path):
        cfg = {"kz": {"min": 0.0, "max": 1.0, "count": 3},
               "omega": {"min": 1.0, "max": 2.0, "count": 2}}
        rc, out = run(tmp_path, "spectrum", cfg, "spec.csv")
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kz")]
        # support-restricted: kz <= omega/c for every row
        for row in rows:
            kz, omega, re, im, mag = (float(v) for v in row.split(","))
            assert kz <= omega
            expect = -math.exp(-(omega - kz)) * math.exp(-kz)
            assert re == pytest.approx(expect, abs=1e-15)
            assert im == pytest.approx(0.0, abs=1e-15)

    def test_rows_cover_the_support_in_omega_major_order(self, tmp_path):
        from unipulse.synthesis import spectral_weight
        from unipulse.waveforms import Waveform

        cfg = {"pulse": {"c": 2.0, "tau": 0.5}, "waveform": "lekner(a=1,K=0.5)",
               "kz": {"min": 0.0, "max": 1.0, "count": 3},
               "omega": {"min": 1.0, "max": 2.0, "count": 2}}
        rc, out = run(tmp_path, "spectrum", cfg, "spec.csv")
        assert rc == 0
        rows = [[float(v) for v in l.split(",")] for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kz")]
        # kz = omega/c = 0.5 and 1.0 lie on the edge of the support
        assert [r[:2] for r in rows] == [[0.0, 1.0], [0.5, 1.0],
                                         [0.0, 2.0], [0.5, 2.0], [1.0, 2.0]]
        params, w = PulseParams(2.0, 0.5), Waveform(1.0, 0.5)
        for kz, omega, re, im, _ in rows:
            want = spectral_weight(params, w, kz, omega)
            assert complex(re, im) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("waveform", ["rational(a=0.8)", "lekner(a=0.8,K=1.3)"])
    def test_bytes_equal_the_raveled_meshgrid_table(self, tmp_path, waveform):
        # the table as built before write_csv took a row mask: a raveled
        # omega-major meshgrid, masked to the support, every cell full-size
        from unipulse.ioformats import write_csv
        from unipulse.synthesis import spectral_weight
        from unipulse.waveforms import parse_waveform

        cfg = {"pulse": {"c": 1.3, "tau": 0.7}, "waveform": waveform,
               "kz": {"min": 0.0, "max": 4.1, "count": 64},
               "omega": {"min": 0.6, "max": 6.2, "count": 20}}
        rc, out = run(tmp_path, "spectrum", cfg, "spec.csv")
        assert rc == 0
        params = PulseParams(1.3, 0.7)
        omega, kz = (a.ravel() for a in np.meshgrid(np.linspace(0.6, 6.2, 20),
                                                     np.linspace(0.0, 4.1, 64), indexing="ij"))
        keep = kz <= omega / params.c
        kz, omega = kz[keep], omega[keep]
        a = spectral_weight(params, parse_waveform(waveform), kz, omega)
        ref = tmp_path / "ref.csv"
        write_csv(ref, ["pulse: c=1.3000000000000000e+00 tau=6.9999999999999996e-01"
                        " zeta=0.0000000000000000e+00", f"waveform: {waveform}"],
                  {"kz": kz, "omega": omega, "re": a.real, "im": a.imag,
                   "abs": np.hypot(a.real, a.imag)})
        assert 64 < kz.size < 64 * 20
        assert out.read_bytes() == ref.read_bytes()


    @pytest.mark.parametrize("cfg, rows", [
        # the float-range fuzz's case: omega/c overflows, and every k_z lies inside
        ({"pulse": {"c": 0.009017376135537202, "tau": 13.235502448953195},
          "waveform": "lekner(a=0.834665874264746,K=0.009030067206657347)",
          "kz": {"min": 0.0, "max": 1.5100255760341987e+105, "count": 5},
          "omega": {"min": 0.020456738115701024, "max": 6.300836445896414e+306, "count": 4}}, 16),
        # (k_z - omega/c) b overflows in the weight's exponent
        ({"pulse": {"c": 1.0, "tau": 1e10}, "waveform": "rational(a=1)",
          "kz": {"min": 0.0, "max": 3.0, "count": 4},
          "omega": {"min": 1e290, "max": 1e300, "count": 3}}, 12),
        # lekner(a=10, K=100): the default table lies below K, where the weight is 0
        ({"waveform": "lekner(a=10,K=100)"}, 235),
    ], ids=["omega_over_c", "weight_exponent", "far_carrier"])
    def test_overflow_past_the_float_range_writes_zero_weights(self, tmp_path, capsys, cfg, rows):
        # under RuntimeWarning as an error, exit 0 with the weight's limit, 0,
        # and the one "wrote" line on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "spectrum", cfg, "spec.csv")
        err = capsys.readouterr().err
        assert rc == 0 and err.startswith("wrote ") and err.count("\n") == 1
        _, table = read_csv(out)
        assert len(table) == rows and all([float(v) for v in row[2:]] == [0.0] * 3 for row in table)


class TestResidualCmd:
    def test_orders_near_two(self, tmp_path):
        cfg = {"evaluator": "simple_pulse",
               "points": [{"t": 0.3, "x": 0.2, "y": 0.1, "z": -0.4}]}
        rc, out = run(tmp_path, "residual", cfg, "res.csv")
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        assert len(rows) == 3
        order = float(rows[0][-1])
        assert 1.8 <= order <= 2.2

    def test_comments_name_the_pulse(self, tmp_path):
        # the pulse line as sample and spectrum write it, then the evaluator and waveform
        cfg = {"pulse": {"c": 1.5, "tau": 0.5, "zeta": 0.25}, "evaluator": "simple_pulse",
               "points": [{"t": 0.3, "x": 0.2, "y": 0.1, "z": -0.4}]}
        rc, out = run(tmp_path, "residual", cfg, "res.csv")
        assert rc == 0
        assert out.read_text().splitlines()[:4] == [
            "# pulse: c=1.5000000000000000e+00 tau=5.0000000000000000e-01 zeta=2.5000000000000000e-01",
            "# evaluator: simple_pulse", "# waveform: rational(a=0.5)", "t,x,y,z,h,abs_residual,"
            "normalized_residual,fitted_order"]

    def test_pole_exits_3_and_names_the_node(self, tmp_path, capsys):
        cfg = {"evaluator": "spherical_reference",
               "points": [{"t": 0.3, "x": 0.2, "y": 0.1, "z": -0.4},
                          {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}]}
        rc, out = run(tmp_path, "residual", cfg, "pole.csv")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "non-finite u at SpacetimePoint(t=0.0, x=0.0, y=0.0, z=0.0)" in err

    def test_random_points_block(self, tmp_path):
        cfg = {"evaluator": "quasi_spherical",
               "waveform": "lekner(a=1,K=1)",
               "random_points": {"n": 3, "seed": 11}}
        rc, out = run(tmp_path, "residual", cfg, "res2.csv")
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        assert len(rows) == 9

    def test_random_points_are_the_per_point_draws(self):
        # one (n, 4) draw reads the generator's stream as n draws of 4 do
        rng = np.random.default_rng(11)
        expect = [rng.uniform(-2.0, 2.0, 4).tolist() for _ in range(40)]
        points = parse_random_points({"random_points": {"n": 40, "seed": 11, "extent": 2.0}}, 1.0)
        assert [[p.t, p.x, p.y, p.z] for p in points] == expect

    def test_random_points_past_the_largest_array_exit_3(self, tmp_path, capsys):
        # 2^62 points pass the count cap, and numpy refuses their (2^62, 4)
        # draw before allocating it, where one draw a point ran until killed
        rc, out = run(tmp_path, "residual", {"random_points": {"n": 2**62}}, "big.csv")
        err = capsys.readouterr().err
        assert rc == 3 and not out.exists() and err.count("\n") == 1
        assert err.startswith("numerical failure: array is too big")

    @pytest.mark.parametrize("where, coordinate", [
        ({"t": 1e17, "rho": 0.5, "z": 0.2}, "t +/- h/c = 1e+17"),
        ({"t": 0.1, "x": 0.2, "y": 3e15, "z": 0.2}, "y +/- h = 3000000000000000.0"),
        ({"t": 0.1, "rho": 0.5, "z": -1e16}, "z +/- h = -1e+16"),
    ])
    def test_step_below_the_resolution_exits_2(self, tmp_path, capsys, where, coordinate):
        # t +/- h/c (or x, y, z +/- h) rounds to the centre: the second
        # difference is 0 at every step, and no residual would be measured
        cfg = {"waveform": "rational(a=1)", "points": [{"t": 0.1, "rho": 0.5, "z": 0.2}, where]}
        rc, out = run(tmp_path, "residual", cfg, "sub_ulp.csv")
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == f"config error: h_values: step 0.004 rounds away at point 1: {coordinate}\n"

    def test_step_over_a_tiny_wave_speed_exits_2(self, tmp_path, capsys):
        # h/c overflows: the time steps would be inf, and the stencil's nodes NaN
        cfg = {"pulse": {"c": 1e-310, "tau": 1.0}, "waveform": "rational(a=1)",
               "h_values": [1.0, 0.5, 0.25], "points": [{"t": 0.1, "rho": 0.5, "z": 0.2}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "residual", cfg, "tiny_c.csv")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "config error: h_values: step 1.0 overflows h/c at c = 1e-310\n"

    def test_step_past_the_float_range_exits_2(self, tmp_path, capsys):
        # t + h/c overflows: the stencil's node would be inf, under a RuntimeWarning
        cfg = {"waveform": "rational(a=1)", "h_values": [1e307, 5e306, 2.5e306],
               "points": [{"t": 0.1, "rho": 0.5, "z": 0.2}, {"t": 1.7e308, "rho": 0.5, "z": 0.2}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "residual", cfg, "far.csv")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == ("config error: h_values: step 1e+307 leaves the float "
                                           "range at point 1: t +/- h/c = 1.7e+308\n")

    def test_late_rational_pulse_has_no_order(self, tmp_path):
        # at t = 1000 each second difference is its own rounding: exit 0, and
        # every fitted_order is NaN
        cfg = {"waveform": "rational(a=1)", "points": [{"t": 1000.0, "rho": 0.5, "z": 0.2}]}
        rc, out = run(tmp_path, "residual", cfg, "late.csv")
        names, rows = read_csv(out)
        assert rc == 0 and len(rows) == 3
        assert all(math.isnan(float(row[names.index("fitted_order")])) for row in rows)


class TestOneEvaluation:
    """farfield, unidir and residual evaluate the field in one call each."""

    @pytest.mark.parametrize("command, cfg", [
        ("farfield", {"s_values": [-1.0, 0.0, 1.0, 2.0],
                      "directions": [{"chi": 0.0}, {"chi": 0.5}]}),
        ("unidir", {"tolerance": 1e-6}),
        ("unidir", {"evaluator": "spherical_reference", "b_ref": 1.0}),
        ("residual", {"random_points": {"n": 20, "seed": 7}}),
    ])
    def test_one_evaluator_call(self, tmp_path, monkeypatch, command, cfg):
        from unipulse import cli

        shapes = []
        for name in ("eval_quasi_spherical", "eval_spherical_reference"):
            def kernel(p, *args, _kernel=getattr(cli, name)):
                return shapes.append(p.shape) or _kernel(p, *args)
            monkeypatch.setattr(cli, name, kernel)
        rc, _ = run(tmp_path, command, cfg, "one.out")
        assert rc in (0, 4)
        assert len(shapes) == 1
        assert {"farfield": (2, 4, 3), "unidir": (8, 5, 3),
                "residual": (20, 3, 9)}[command] == shapes[0]


class TestEnergyCmd:
    def test_energy_row(self, tmp_path):
        cfg = {"t_values": [0.0], "tolerance": 1e-3}
        rc, out = run(tmp_path, "energy", cfg, "en.json")
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert list(row) == ["t", "energy", "error_estimate", "evaluations"]
        assert row["energy"] > 0.0
        assert 0.0 < row["error_estimate"] <= 1e-3 * row["energy"]
        assert isinstance(row["evaluations"], int) and row["evaluations"] > 0

    def test_cutoff_radius_is_an_unknown_key(self, tmp_path, capsys):
        cfg = {"t_values": [0.0], "cutoff_radius": 15.0}
        rc, _ = run(tmp_path, "energy", cfg, "en3.json")
        assert rc == 2
        assert "cutoff_radius" in capsys.readouterr().err

    def test_zeta_leaves_the_energy_rows_unchanged(self, tmp_path):
        # the energy reads b, c and the waveform alone: zeta = 2 >= c tau
        # gives the zeta = 0 rows bit for bit
        rows = []
        for zeta in (2.0, 0.0):
            cfg = {"pulse": {"c": 1.0, "tau": 1.0, "zeta": zeta},
                   "waveform": "rational(a=1)", "t_values": [0.0]}
            rc, out = run(tmp_path, "energy", cfg, f"en_zeta{zeta}.json")
            assert rc == 0
            rows.append(json.loads(out.read_text())["rows"])
        assert rows[0] == rows[1]

    def test_density_past_the_float_range_exits_3(self, tmp_path, capsys):
        # past c|t| ~ 1e102 the radial weight r^2 dr overflows: the integrand
        # is non-finite, which exits 3 naming the time, not 1 on a RuntimeWarning
        cfg = {"waveform": "rational(a=1)", "t_values": [1e110], "tolerance": 1e-3}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, "energy", cfg, "far.json")
        err = capsys.readouterr().err
        assert rc == 3 and not out.exists() and err.count("\n") == 1
        assert err.startswith("numerical failure: energy at t=1e+110: ")


class TestSeedOverride:
    def test_seed_flag_changes_mc_stream(self, tmp_path):
        cfg = {
            "points": [{"t": 0.0, "rho": 0.5, "z": 0.0}],
            "mc": {"n_samples": 20_000, "seed": 3},
        }
        _, out1 = run(tmp_path, "compare", cfg, "s1.json")
        _, out2 = run(tmp_path, "compare", cfg, "s2.json", extra=["--seed", "99"])
        v1 = json.loads(out1.read_text())["rows"][0]["mc_estimate"]
        v2 = json.loads(out2.read_text())["rows"][0]["mc_estimate"]
        assert v1 != v2

    def test_seed_flag_with_monte_carlo_off_exits_0(self, tmp_path):
        # --seed is one flag for every command; with no samples it has nothing to seed
        cfg = {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3}
        rc, out = run(tmp_path, "compare", cfg, "c.json", extra=["--seed", "5"])
        assert rc == 0 and "mc_estimate" not in out.read_text()

    def test_seed_flag_overrides_the_random_points_seed(self, tmp_path):
        cfg = {"random_points": {"n": 2, "seed": 7}}
        outs = [run(tmp_path, "residual", cfg, f"r{i}.csv", extra=["--seed", seed])[1]
                for i, seed in enumerate(["1", "2", "1"])]
        points = [[row.split(",")[:4] for row in out.read_text().splitlines()[3:]]
                  for out in outs]
        assert points[0] != points[1]
        assert outs[0].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("command,cfg", [
        ("residual", {"random_points": {"n": 2, "seed": 7}}),
        ("compare", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.0}],
                     "mc": {"n_samples": 20_000, "seed": 3}}),
    ])
    def test_negative_seed_exits_2_and_names_the_flag(self, tmp_path, capsys, command, cfg):
        # it reached the random generator and exited 3 as a numerical failure
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, cfg, "neg.out", extra=["--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer, got '-1'" in err


class TestUnwritableOutput:
    # each exited 1 with a traceback from the writer
    @pytest.mark.parametrize("command, cfg, out_name", [
        ("energy", {}, "e.json"),
        ("spectrum", {"kz": {"min": 0.0, "max": 1.0, "count": 3}}, "s.csv"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": -1, "max": 1, "count": 4}]},
                    "format": "binary"}, "g.json"),
    ])
    @pytest.mark.parametrize("where", ["missing directory", "existing directory"])
    def test_exits_2_and_names_the_path(self, tmp_path, capsys, command, cfg, out_name, where):
        out = tmp_path / "missing" / out_name
        if where == "existing directory":
            out.mkdir(parents=True)
        assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot write {out}: ")
        assert "Traceback" not in err

    def test_binary_sample_leaves_no_data_file(self, tmp_path):
        # the .bin was written before the header and outlived its failure
        out = tmp_path / "outdir"
        out.mkdir()
        cfg = {"grid": {"axes": [{"name": "z", "min": -1, "max": 1, "count": 4}]},
               "format": "binary"}
        assert main(["sample", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "outdir"]


class TestRepeatedCalls:
    """``main`` builds its parser once per process; no call may leave
    state that the next one reads."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_seed_flag_does_not_outlive_its_call(self, tmp_path):
        cfg = {"random_points": {"n": 2, "seed": 3}}
        outs = [run(tmp_path, "residual", cfg, f"r{i}.csv", extra=extra)[1]
                for i, extra in enumerate([(), ["--seed", "7"], ()])]
        assert outs[0].read_bytes() != outs[1].read_bytes()
        assert outs[2].read_bytes() == outs[0].read_bytes()

    def test_out_flag_does_not_outlive_its_call(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, "s.json", {"kz": {"min": 0.0, "max": 1.0, "count": 3}})
        assert main(["spectrum", "--config", cfg, "--out", "first.csv"]) == 0
        assert main(["spectrum", "--config", cfg]) == 0
        assert (tmp_path / "unipulse_spectrum.csv").read_bytes() == \
            (tmp_path / "first.csv").read_bytes()

    def test_version_exit_leaves_the_next_call_working(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("unipulse ")
        rc, out = run(tmp_path, "spectrum", {}, "s.csv")
        assert rc == 0 and out.stat().st_size > 0


class TestConfigMistakes:
    # each exited 3 as a numerical failure, or printed wrong values, once
    # the computation reached it; the ct ladder is no longer a config key
    @pytest.mark.parametrize("command, cfg, field", [
        ("energy", {"t_values": [math.nan]}, "t_values[0]"),
        ("farfield", {"s_values": [math.nan]}, "s_values[0]"),
        ("compare", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3,
                     "mc": {"n_samples": 9_999}}, "mc.n_samples"),
        ("residual", {"random_points": {"n": 1}, "h_values": [4e-3, 2e-3]}, "h_values"),
        ("residual", {"random_points": {"n": 1}, "h_values": [4e-3, 2e-3, 2e-3]}, "h_values"),
        ("farfield", {"schedule_ct": [1e2, 1e3, 1e4]}, "config"),
        ("unidir", {"schedule_ct": [1e5, 1e6, 1e7]}, "config"),
        ("unidir", {"backward_directions": [{"chi": 3.0}, {"chi": 1.5}]},
         "backward_directions[1].chi"),
        ("unidir", {"backward_directions": [{"chi": 0.5 * math.pi}]},
         "backward_directions[0].chi"),
        # |cos chi| < 1e-3: the ladder would pass ct = 1e10 max(b, |s|)
        ("farfield", {"directions": [{"chi": 0.0}, {"chi": 0.4997 * math.pi}]},
         "directions[1].chi"),
        # a descriptor is echoed into the reports and CSV comment lines: raw,
        # a newline splits the comment line
        ("energy", {"waveform": "lekner(a=1,\tK=2)"}, "waveform"),
        ("spectrum", {"waveform": "lekner(a=1,\nK=2)"}, "waveform"),
        ("unidir", {"waveform": "rational(a=1)\r"}, "waveform"),
        ("unidir", {"backward_directions": [{"chi": 3.0}, {"chi": 0.5003 * math.pi}]},
         "backward_directions[1].chi"),
        # |s| > 1e100: the ladder's ct = 1e10 |s| would overflow S^2
        ("farfield", {"s_values": [0.0, 1e200]}, "s_values[1]"),
        ("unidir", {"s_values": [-1e101]}, "s_values[0]"),
        # an integer literal beyond the float range raised OverflowError
        ("energy", {"tolerance": 10**400}, "tolerance"),
        ("energy", {"t_values": [0.0, -10**400]}, "t_values[1]"),
        # more nodes than one array can hold: "Maximum allowed size exceeded"
        ("spectrum", {"kz": {"count": 10**21}}, "kz.count"),
        ("spectrum", {"omega": {"min": 1.0, "max": 2.0, "count": 2**63}}, "omega.count"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 10**21}]}},
         "grid.axes[0].count"),
        # each axis fits, their 9.3e18 nodes do not: "broadcast dimensions too large"
        ("sample", {"grid": {"axes": [{"name": n, "min": 0.0, "max": 1.0, "count": k} for n, k in
                                      (("x", 3_100_000), ("y", 3_000_000), ("z", 1_000_000))]}},
         "grid.axes"),
        # each was read, then ignored: the run exited 0
        ("residual", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}],
                      "random_points": {"n": -5, "seed": "x"}}, "random_points"),
        ("unidir", {"evaluator": "quasi_spherical", "b_ref": 7.0}, "b_ref"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}]},
                    "b_ref": 1.0}, "b_ref"),
        ("compare", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3,
                     "mc": {"seed": 5}}, "mc.seed"),
        ("compare", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3,
                     "mc": {"n_samples": 0, "sigma": 1e-3}}, "mc.sigma"),
        # the simple pulse is rational(a = b - zeta) whatever the waveform
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}]},
                    "evaluator": "simple_pulse", "waveform": "lekner(a=0.3,K=2)"}, "waveform"),
        ("unidir", {"evaluator": "simple_pulse", "waveform": "rational(a=1)"}, "waveform"),
        ("residual", {"evaluator": "simple_pulse", "waveform": "rational(a=1)",
                      "random_points": {"n": 1}}, "waveform"),
        # a block, a number, an integer, a string or a list of the wrong kind
        ("energy", {"pulse": 5}, "pulse"),
        ("farfield", {"directions": [{"phi": 0.0}]}, "directions[0].chi"),
        ("energy", {"tolerance": "1e-6"}, "tolerance"),
        ("compare", {"points": [{"t": 0.0, "rho": -0.5, "z": 0.2}]}, "points[0].rho"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0}]}},
         "grid.axes[0].count"),
        ("residual", {"random_points": {"n": 1.5}}, "random_points.n"),
        ("residual", {"random_points": {"n": 0}}, "random_points.n"),
        ("sample", {"grid": {"axes": [{"min": 0.0, "max": 1.0, "count": 2}]}}, "grid.axes[0].name"),
        ("sample", {"grid": {"axes": [{"name": 3, "min": 0.0, "max": 1.0, "count": 2}]}},
         "grid.axes[0].name"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}]},
                    "format": "png"}, "format"),
        ("energy", {"t_values": 1.0}, "t_values"),
        ("energy", {"t_values": ["0.5"]}, "t_values[0]"),
        ("energy", {"pulse": {"zeta": 1.0}}, "waveform"),
        ("energy", {"waveform": 1}, "waveform"),
        ("farfield", {"directions": []}, "directions"),
        ("farfield", {"directions": [{"chi": 0.5, "phi": 7.0}]}, "directions[0]"),
        ("spectrum", {"kz": {"min": 1.0, "max": 0.5, "count": 3}}, "kz"),
        # a grid its axes cannot span
        ("sample", {"grid": {"axes": []}}, "grid.axes"),
        ("sample", {"grid": {"axes": [{"name": "w", "min": 0.0, "max": 1.0, "count": 2}]}},
         "grid.axes[0]"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 1.0, "max": 0.0, "count": 2}]}},
         "grid.axes[0]"),
        ("sample", {"grid": {"axes": [{"name": n, "min": 0.0, "max": 1.0, "count": 1}
                                      for n in "txyz"]}}, "grid"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}] * 2}},
         "grid"),
        ("sample", {"grid": {"axes": [{"name": "z", "min": 0.0, "max": 1.0, "count": 2}],
                             "fixed": {"z": 0.0}}}, "grid"),
        # 10^21 random points, drawn one a time, ran until killed
        ("residual", {"random_points": {"n": 10**21}}, "random_points.n"),
        # b = c*tau is inf or 0: the weights were NaN, or near 1e300, or the
        # default steps 0
        ("spectrum", {"pulse": {"c": 1e300, "tau": 1e300}, "waveform": "rational(a=1)"}, "pulse"),
        ("residual", {"pulse": {"c": 1e-300, "tau": 1e-300}, "waveform": "rational(a=1)"}, "pulse"),
        # the span 2e308 of the draws overflowed numpy's uniform; the step then
        # rounds away at points near 1e308
        ("residual", {"waveform": "rational(a=1)", "random_points": {"n": 3, "extent": 1e308}},
         "h_values"),
    ])
    def test_exits_2_and_names_the_field(self, tmp_path, capsys, command, cfg, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out = run(tmp_path, command, cfg, "mistake.out")
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and err.count("\n") == 1

    def test_oversized_mc_sample_count_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        # 10^21 samples ran until killed; the config refuses them before any route runs
        def sampler(*args):
            raise AssertionError("drew Monte-Carlo samples")

        monkeypatch.setattr(cli, "reconstruct_cartesian_mc", sampler)
        cfg = {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3,
               "mc": {"n_samples": 10**21}}
        rc, out = run(tmp_path, "compare", cfg, "mistake.out")
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: mc.n_samples: must be <= 1000000000,")
        assert err.count("\n") == 1

    # each exited 3 as a numerical failure, 1 with a traceback, or 0 on
    # the last of the repeated values
    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{", "'utf-8' codec can't decode"),
        (b'{"tolerance": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth"),
        (b'{"tolerance": 1e-4, "tolerance": 1e-2}', "duplicate key 'tolerance'"),
        (b'{"pulse": {"c": 1, "c": 2}}', "duplicate key 'c'"),
        (b'{"tolerance": }', "line 1, column 15: Expecting value"),
        (b"[1.0]", "top level must be a JSON object"),
    ], ids=["not-utf8", "5000-digits", "nested-too-deep", "duplicate-key", "duplicate-pulse-key",
            "not-json", "not-an-object"])
    def test_malformed_file_exits_2_and_names_it(self, tmp_path, capsys, text, message):
        path = tmp_path / "malformed.json"
        path.write_bytes(text)
        out = tmp_path / "mistake.out"
        assert main(["energy", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {message}") and err.count("\n") == 1

    def test_missing_file_exits_2_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        out = tmp_path / "mistake.out"
        assert main(["energy", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1


class TestOutOfMemory:
    # a request that fits the config but not in memory (a sample grid of three
    # 10^6-node axes, spectrum's kz.count 10^12) exited 1 with a traceback; the
    # runner raises in place of the allocation, so the test allocates nothing
    @pytest.mark.parametrize("command", ["sample", "spectrum"])
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_exits_3_on_one_line(self, tmp_path, capsys, monkeypatch, command, exc, message):
        def runner(cfg, setup, seed):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, command, (runner, *cli._COMMANDS[command][1:]))
        rc, out = run(tmp_path, command, {}, "big.out")
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == f"numerical failure: {message}\n"


class TestHelp:
    @pytest.mark.parametrize(
        "command,key",
        [("sample", "grid"), ("compare", "max_discrepancy"), ("unidir", "tolerance"),
         ("spectrum", "omega"), ("residual", "h_values"), ("energy", "tolerance"),
         ("farfield", "directions")],
    )
    def test_help_lists_config_keys(self, command, key, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert key in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sample", "compare", "farfield", "unidir", "spectrum",
                                         "residual", "energy"])
    def test_help_lists_the_common_keys(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        keys = text.split("Config keys read by this command: ")[1].split(". ")[0].split(", ")
        assert {"pulse", "waveform", "out"} <= set(keys)


class TestShippedConfigs:
    # each config's command, output suffix and documented exit code
    RUNS = {
        "sample_snapshot": ("sample", "csv", 0),
        "compare_demo": ("compare", "json", 0),
        "unidir_pulse": ("unidir", "json", 0),
        "unidir_counterexample": ("unidir", "json", 4),
        "farfield_scan": ("farfield", "json", 0),
        "spectrum_table": ("spectrum", "csv", 0),
        "residual_scan": ("residual", "csv", 0),
        "energy_conservation": ("energy", "json", 0),
    }

    def test_every_config_exits_with_its_documented_code(self, tmp_path):
        assert {p.stem for p in CONFIGS.glob("*.json")} == set(self.RUNS)
        for name, (command, suffix, code) in self.RUNS.items():
            out = tmp_path / f"{name}.{suffix}"
            rc = main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)])
            assert rc == code, name
            assert out.stat().st_size > 0, name

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_reruns_are_byte_identical(self, tmp_path, name):
        command, suffix, code = self.RUNS[name]
        outs = [tmp_path / f"{k}.{suffix}" for k in "ab"]
        for out in outs:
            rc = main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)])
            assert rc == code
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_energy_conservation_reruns_identically_at_the_closed_form(self, tmp_path):
        outs = [tmp_path / "e1.json", tmp_path / "e2.json"]
        for out in outs:
            cfg = str(CONFIGS / "energy_conservation.json")
            assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        tol, rows = doc["tolerance"], doc["rows"]
        assert [row["t"] for row in rows] == [0.0, 1.0]
        for row in rows:
            assert row["energy"] == pytest.approx(2.0 * math.pi**2, rel=1e-6)
            # and each row lies within its error_estimate of 2 pi^2, which meets the tolerance
            err = abs(row["energy"] - 2.0 * math.pi**2)
            assert err <= row["error_estimate"] <= max(tol * row["energy"], tol)

    def _run(self, tmp_path, name):
        command, suffix, code = self.RUNS[name]
        out = tmp_path / f"{name}.{suffix}"
        assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == code
        return out

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_outputs_keep_their_layout(self, tmp_path, name):
        out = self._run(tmp_path, name)
        (read_json if out.suffix == ".json" else read_csv)(out)

    def test_compare_demo_routes_meet_their_estimates(self, tmp_path):
        doc = read_json(self._run(tmp_path, "compare_demo"))
        assert len(doc["rows"]) == 3
        assert_routes_meet_their_estimates(doc)

    def test_farfield_scan_lies_within_1e_8_of_the_closed_form(self, tmp_path):
        rows = read_json(self._run(tmp_path, "farfield_scan"))["rows"]
        assert len(rows) == 9 and max(row["abs_diff"] for row in rows) <= 1e-8

    def test_residual_scan_orders_lie_in_the_acceptance_band(self, tmp_path):
        # acceptance criterion 3's band [1.8, 2.2]; a NaN fails
        names, rows = read_csv(self._run(tmp_path, "residual_scan"))
        assert len(rows) == 60
        assert all(1.8 <= float(row[names.index("fitted_order")]) <= 2.2 for row in rows)

    def test_binary_snapshot_reads_back_the_csv_bit_for_bit(self, tmp_path):
        names, rows = read_csv(self._run(tmp_path, "sample_snapshot"))
        cfg = json.loads((CONFIGS / "sample_snapshot.json").read_text())
        rc, out = run(tmp_path, "sample", dict(cfg, format="binary"), "snapshot.json")
        header = read_json(out)
        data = np.fromfile(tmp_path / header["data_file"], "<c16")
        assert rc == 0 and len(rows) == data.size == math.prod(header["shape"])
        cells = np.array([[float(row[names.index(part)]) for part in ("re", "im")] for row in rows])
        assert np.array_equal(cells.view(np.uint64), data.view("<f8").reshape(-1, 2).view(np.uint64))
