import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from unipulse.cli import _build_parser, main
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
        cfg = {
            "pulse": {"c": 1.0, "tau": 1.0, "zeta": 1.0},
            "waveform": "rational(a=1)",
            "evaluator": "simple_pulse",
            "grid": {"axes": [{"name": "z", "min": -1.0, "max": 1.0, "count": 3}],
                     "fixed": {"t": 0.0, "rho": 0.0}},
        }
        rc, _ = run(tmp_path, "sample", cfg, "sing.csv")
        assert rc == 3
        assert "index (1,): singular at" in capsys.readouterr().err

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
            "# pulse: c=1 tau=1 zeta=0", "# waveform: rational(a=1)",
            "# evaluator: simple_pulse", "# fixed: t=0", "rho,z,re,im,abs",
        ]
        params = PulseParams(1.0, 1.0, 0.0)
        nodes = itertools.product(np.linspace(0.0, 5.0, 101), np.linspace(-5.0, 5.0, 101))
        rows = lines[5:]
        assert len(rows) == 101 * 101
        for row, (rho, z) in zip(rows, nodes):
            cells = row.split(",")
            assert cells[:2] == [fmt_float(rho), fmt_float(z)]
            u = eval_simple_pulse(SpacetimePoint(0.0, rho, 0.0, z), params)
            for cell, expect in zip(cells[2:], (u.real, u.imag, abs(u))):
                assert cell == fmt_float(float(cell))
                assert abs(float(cell) - expect) <= 1e-14 * abs(u)

    def test_binary_format(self, tmp_path):
        cfg = {
            "grid": {"axes": [{"name": "z", "min": -1, "max": 1, "count": 4}],
                     "fixed": {"t": 0.0}},
            "format": "binary",
        }
        rc, out = run(tmp_path, "sample", cfg, "grid.json")
        assert rc == 0
        header = json.loads(out.read_text())
        data = (tmp_path / header["data_file"]).read_bytes()
        assert len(data) == 4 * 16
        assert header["dtype"] == "complex128"


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

    @pytest.mark.parametrize("route, name", [
        ("reconstruct_fourier_bessel", "Fourier-Bessel reconstruction"),
        ("reconstruct_from_weight", "spectral-weight reconstruction"),
    ])
    def test_spent_route_budget_exits_3(self, tmp_path, capsys, monkeypatch, route, name):
        import functools

        import unipulse.cli as cli

        small = functools.partial(getattr(cli, route), max_evals=1000)
        monkeypatch.setattr(cli, route, small)
        rc, _ = run(tmp_path, "compare", self.CFG, "f.json")
        assert rc == 3
        assert name in capsys.readouterr().err

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

        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: lambda p: build(*args)(p)
                            + p.t * p.t * (p.y > 0.0))

    def test_undecided_direction_exits_3_and_names_it(self, tmp_path, capsys, monkeypatch):
        self._spoil_where_y_positive(monkeypatch, "quasi_spherical_evaluator")
        cfg = {"s_values": [0.0, 1.0],
               "backward_directions": [{"chi": 3.0}, {"chi": 2.0, "phi": 1.0}]}
        rc, out = run(tmp_path, "unidir", cfg, "uwild.json")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "far field along chi=2.0, s=0.0: extrapolants do not settle (spread " in err

    def test_settled_fail_exits_4_beside_an_undecided_direction(self, tmp_path, monkeypatch):
        self._spoil_where_y_positive(monkeypatch, "spherical_reference_evaluator")
        cfg = {"evaluator": "spherical_reference", "b_ref": 1.0,
               "backward_directions": [{"chi": 3.0}, {"chi": 2.0, "phi": 1.0}]}
        rc, out = run(tmp_path, "unidir", cfg, "umixed.json")
        doc = json.loads(out.read_text())
        assert rc == 4 and doc["pass"] is False and doc["worst"]["chi"] == 3.0
        assert [d["status"] for d in doc["directions"]] == ["FAIL", "OK"]

    def test_zero_far_field_has_infinite_margin(self):
        from unipulse.farfield import UnidirectionalityReport

        report = UnidirectionalityReport(True, 1e-6, 0.0, {"chi": 3.0, "phi": 0.0, "s": 0.0},
                                         (1.0,), ())
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


    def test_diverging_extrapolation_exits_3_and_names_the_entry(self, tmp_path, capsys,
                                                                 monkeypatch):
        from unipulse import cli

        # grows like t^2 off the forward axis: no limit to extrapolate there
        monkeypatch.setattr(cli, "quasi_spherical_evaluator",
                            lambda *args: lambda p: p.t * p.t * (p.x > 0.0) + 1.0 / p.t)
        cfg = {"s_values": [0.0, 1.0], "directions": [{"chi": 0.0}, {"chi": 0.5}]}
        rc, out = run(tmp_path, "farfield", cfg, "ffwild.json")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "far field along chi=0.5, s=0.0: extrapolants do not settle (spread " in err


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
        from unipulse.synthesis import make_spectral_weight
        from unipulse.waveforms import LeknerWaveform

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
        weight = make_spectral_weight(PulseParams(2.0, 0.5), LeknerWaveform(1.0, 0.5))
        for kz, omega, re, im, _ in rows:
            want = weight(kz, omega)
            assert complex(re, im) == pytest.approx(want, rel=1e-15, abs=0.0)


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

    def test_pole_exits_3_and_names_the_node(self, tmp_path, capsys):
        cfg = {"evaluator": "spherical_reference",
               "points": [{"t": 0.3, "x": 0.2, "y": 0.1, "z": -0.4},
                          {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}]}
        rc, out = run(tmp_path, "residual", cfg, "pole.csv")
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert "singular at SpacetimePoint(t=0.0, x=0.0, y=0.0, z=0.0)" in err

    def test_random_points_block(self, tmp_path):
        cfg = {"evaluator": "quasi_spherical",
               "waveform": "lekner(a=1,K=1)",
               "random_points": {"n": 3, "seed": 11}}
        rc, out = run(tmp_path, "residual", cfg, "res2.csv")
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        assert len(rows) == 9


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
        for name in ("quasi_spherical_evaluator", "spherical_reference_evaluator"):
            def factory(*args, _make=getattr(cli, name)):
                ev = _make(*args)
                return lambda p: shapes.append(p.shape) or ev(p)
            monkeypatch.setattr(cli, name, factory)
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

    def test_non_regular_family_rejected(self, tmp_path):
        cfg = {"pulse": {"c": 1.0, "tau": 1.0, "zeta": 2.0},
               "waveform": "rational(a=1)", "t_values": [0.0]}
        rc, _ = run(tmp_path, "energy", cfg, "en2.json")
        assert rc == 2


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
    # each exited 3 as a numerical failure once the computation reached it
    @pytest.mark.parametrize("command, cfg, field", [
        ("energy", {"t_values": [math.nan]}, "t_values[0]"),
        ("farfield", {"s_values": [math.nan]}, "s_values[0]"),
        ("compare", {"points": [{"t": 0.0, "rho": 0.5, "z": 0.2}], "tolerance": 1e-3,
                     "mc": {"n_samples": 9_999}}, "mc.n_samples"),
        ("residual", {"random_points": {"n": 1}, "h_values": [4e-3, 2e-3]}, "h_values"),
        ("residual", {"random_points": {"n": 1}, "h_values": [4e-3, 2e-3, 2e-3]}, "h_values"),
        ("farfield", {"schedule_ct": [1e4, 1e3, 1e2]}, "schedule_ct"),
        ("unidir", {"schedule_ct": [1e5, 1e6]}, "schedule_ct"),
        ("unidir", {"backward_directions": [{"chi": 3.0}, {"chi": 1.5}]},
         "backward_directions[1].chi"),
        ("unidir", {"backward_directions": [{"chi": 0.5 * math.pi}]},
         "backward_directions[0].chi"),
        ("farfield", {"s_values": [0.0, -1e9]}, "s_values"),
    ])
    def test_exits_2_and_names_the_field(self, tmp_path, capsys, command, cfg, field):
        rc, out = run(tmp_path, command, cfg, "mistake.out")
        assert rc == 2 and not out.exists()
        assert f"config error: {field}:" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize(
        "command,key",
        [("sample", "grid"), ("compare", "max_discrepancy"), ("unidir", "tolerance"),
         ("spectrum", "omega"), ("residual", "h_values"), ("energy", "tolerance"),
         ("farfield", "schedule_ct")],
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
        rows = json.loads(outs[0].read_text())["rows"]
        assert [row["t"] for row in rows] == [0.0, 1.0]
        for row in rows:
            assert row["energy"] == pytest.approx(2.0 * math.pi**2, rel=1e-6)
