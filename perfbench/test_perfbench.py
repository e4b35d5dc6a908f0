"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repo root.

They check that the generator is a pure function of the seed, that each
reference check flags an output perturbed beyond its tolerance (and
accepts the unperturbed one), that the checks add next to nothing to the
peak RSS of the largest job, that the lekner energy closed form agrees
with an independent quadrature, and that the tracer restores what it
patches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracing
import workloads
from unipulse import cli


def _run_cli(job, tmp_path: Path) -> tuple[str, int]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(job.config))
    out = str(tmp_path / f"out.{job.ext}")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([job.command, "--config", str(cfg), "--out", out])
    return out, code


def _severities(problems) -> set[str]:
    return {severity for severity, _ in problems}


def _job(workload: str, stratum: int, seed: int = 3, **changes) -> workloads.Job:
    job = workloads.make_job(workload, seed, stratum)
    job.config.update(changes)
    return job


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_gives_identical_configs_for_a_seed(workload):
    n = 2 * workloads.WORKLOADS[workload][2]
    first = [workloads.make_job(workload, 5, i) for i in range(n)]
    again = [workloads.make_job(workload, 5, i) for i in range(n)]
    other = [workloads.make_job(workload, 6, i) for i in range(n)]
    assert [j.config for j in first] == [j.config for j in again]
    assert [j.command for j in first] == [j.command for j in again]
    assert [j.config for j in first] != [j.config for j in other]


def test_only_residual_jobs_are_the_same_for_every_seed():
    n = workloads.round_length("certify_mix")
    for i in range(n, 2 * n):
        a, b = workloads.make_job("certify_mix", 1, i), workloads.make_job("certify_mix", 2, i)
        assert (a.config == b.config) == (a.command == "residual")


def test_rounds_repeat_the_strata_with_new_parameters():
    n = workloads.WORKLOADS["route_crosscheck"][2]
    a, b = workloads.make_job("route_crosscheck", 1, 0), workloads.make_job("route_crosscheck", 1, n)
    assert a.label == b.label and a.config != b.config


# --- reference checks ------------------------------------------------------------


def _small_grid_job(fmt: str) -> workloads.Job:
    job = _job("grid_snapshot", 2)  # 2-D x by y, simple_pulse
    for axis in job.config["grid"]["axes"]:
        axis["count"] = 12
    job.config["format"] = fmt
    job.ext = "csv" if fmt == "csv" else "json"
    return job


def test_sample_csv_check_flags_a_perturbed_row(tmp_path):
    job = _small_grid_job("csv")
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    lines = Path(out).read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first].split(",")
    cells[-3] = repr(float(cells[-3]) * (1 + 1e-10))
    lines[first] = ",".join(cells)
    Path(out).write_text("\n".join(lines) + "\n")
    assert _severities(reference.check_job(job, out, code)) == {"soft"}


def test_sample_binary_check_flags_a_perturbed_value(tmp_path):
    job = _small_grid_job("binary")
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    data = np.fromfile(out + ".bin", dtype="<c16")
    data[-1] *= 1 + 1e-11
    data.tofile(out + ".bin")
    assert reference.check_job(job, out, code)


def test_compare_check_flags_routes_and_monte_carlo(tmp_path):
    job = _job("route_crosscheck", 5, points=[{"t": 0.2, "rho": 0.3, "z": -0.1}])
    job.config["mc"] = {"n_samples": 20000, "seed": 3, "sigma": 4.0}
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    doc = json.loads(Path(out).read_text())
    tol = job.config["tolerance"]
    row = doc["rows"][0]
    row["from_weight"]["re"] += 10 * tol * max(1.0, abs(reference._cplx(row["closed_form"])))
    Path(out).write_text(json.dumps(doc))
    assert _severities(reference.check_job(job, out, code)) == {"soft"}
    row["from_weight"]["re"] += 1e4 * tol * max(1.0, abs(reference._cplx(row["closed_form"])))
    row["mc_estimate"]["im"] += 5 * row["mc_stderr"]
    Path(out).write_text(json.dumps(doc))
    reasons = " ".join(r for _, r in reference.check_job(job, out, code))
    assert "from_weight" in reasons and "Monte Carlo" in reasons


@pytest.mark.parametrize("stratum", [0, 2])
def test_energy_check_flags_a_miss_of_the_tolerance(tmp_path, stratum):
    job = _job("energy_budget", stratum)
    ref = reference.energy_reference(job.config)
    tol = job.config["tolerance"]
    out = tmp_path / "energy.json"
    for factor, expect in ((0.5, set()), (3.0, {"soft"}), (3000.0, {"hard"})):
        rows = [{"t": t, "energy": ref + factor * tol * max(1.0, ref), "extra": 1}
                for t in job.config["t_values"]]
        out.write_text(json.dumps({"rows": rows}))
        assert _severities(reference.check_job(job, str(out), 0)) == expect


def test_spectrum_check_flags_perturbed_rows(tmp_path):
    job = _job("certify_mix", 4)
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    lines = Path(out).read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("kz,"))
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-9))
        lines[i] = ",".join(cells)
    Path(out).write_text("\n".join(lines) + "\n")
    assert reference.check_job(job, out, code)


def test_farfield_check_flags_a_perturbed_numeric_value(tmp_path):
    job = _job("certify_mix", 2)
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    doc = json.loads(Path(out).read_text())
    for row in doc["rows"]:
        row["numeric"]["re"] += 3e-6 * abs(reference._cplx(row["analytic"]))
    Path(out).write_text(json.dumps(doc))
    assert _severities(reference.check_job(job, out, code)) == {"soft"}


def test_residual_check_flags_an_order_out_of_range(tmp_path):
    job = _job("certify_mix", 3)
    out, code = _run_cli(job, tmp_path)
    assert code == 0 and reference.check_job(job, out, code) == []
    lines = Path(out).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "2.5"
    lines[-1] = ",".join(cells)
    Path(out).write_text("\n".join(lines) + "\n")
    assert _severities(reference.check_job(job, out, code)) == {"soft"}


def test_unidir_checks_flag_wrong_verdicts(tmp_path):
    passing = _job("certify_mix", 0, waveform="rational(a=1.0)")
    out, code = _run_cli(passing, tmp_path)
    assert code == 0 and reference.check_job(passing, out, code) == []
    doc = json.loads(Path(out).read_text())
    doc["pass"], doc["max_abs_farfield"] = False, 3e-6
    Path(out).write_text(json.dumps(doc))
    assert _severities(reference.check_job(passing, out, 4)) == {"soft"}
    doc["max_abs_farfield"] = 1.0
    Path(out).write_text(json.dumps(doc))
    assert "hard" in _severities(reference.check_job(passing, out, 4))

    counter = _job("certify_mix", 1)
    out, code = _run_cli(counter, tmp_path)
    assert code == 4 and reference.check_job(counter, out, code) == []
    assert _severities(reference.check_job(counter, out, 0)) == {"hard"}


def test_exit_codes_are_classified():
    job = _job("energy_budget", 0)
    assert _severities(reference.check_job(job, "/nonexistent", 3)) == {"soft"}
    assert _severities(reference.check_job(job, "/nonexistent", 2)) == {"hard"}
    assert _severities(reference.check_job(job, "/nonexistent", None)) == {"hard"}


@pytest.mark.parametrize("workload,stratum", [
    ("grid_snapshot", 0), ("route_crosscheck", 0),
    ("certify_mix", 0), ("certify_mix", 2), ("certify_mix", 3), ("certify_mix", 4),
    ("certify_mix", 5),
])
def test_exit_code_3_is_hard_outside_energy(workload, stratum):
    # only energy declares numerical failures with exit 3 at the seed; a
    # kernel that raises on every point must not pass as a soft failure
    job = _job(workload, stratum)
    assert _severities(reference.check_job(job, "/nonexistent", 3)) == {"hard"}


def test_checks_add_next_to_nothing_to_the_peak_rss(tmp_path):
    """The largest grid job, then its check and digest, in a fresh
    interpreter: the peak RSS after the check must be the job's."""
    stratum = max(range(len(workloads._GRID_STRATA)), key=lambda i: workloads._GRID_STRATA[i][1])
    script = f"""
import json, resource, sys
from pathlib import Path
import reference, run, workloads
job = workloads.make_job("grid_snapshot", 1, {stratum})
runner = run.Runner(Path({str(tmp_path)!r}))
_, code, _ = runner.execute(job)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
problems = reference.check_job(job, str(runner.out_path(job)), code)
runner.digest(job)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, problems, before, after]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    code, problems, before, after = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and problems == []
    assert after - before < 2048  # kB


def test_closed_form_reference_matches_known_values():
    cfg = {"pulse": {"c": 1.0, "tau": 1.0, "zeta": 0.0}}
    # on the axis S = c(t + i tau), so u = 1/(S (S - z))
    s = complex(0.3, 1.0)
    assert reference.mp_field(cfg, "simple_pulse", 0.3, 0.0, 0.0, 0.2) == pytest.approx(
        1 / (s * (s - 0.2)), rel=1e-15)


# --- energy closed form --------------------------------------------------------------


def _energy_quadrature(b: float, K: float, ct: float, n: int) -> float:
    """Field energy of lekner(a=b,K) by tensor Gauss-Legendre in (r, chi).

    Analytic gradient of u = f(theta)/S with dS/d(ct) = (ct+ib)/S,
    dS/drho = -rho/S and dtheta/dz = -1; r runs over geometric panels
    and a mapped tail, chi over eight panels.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    scale = max(b, abs(ct))
    edges = [0.0] + [scale * 2.0**k for k in range(-3, 11)]
    r, wr = [], []
    for lo, hi in zip(edges, edges[1:]):
        r.append(lo + (hi - lo) * 0.5 * (x + 1))
        wr.append(w * (hi - lo) * 0.5)
    y = 0.5 * (x + 1)  # tail: r = R / (1 - y)
    r.append(edges[-1] / (1 - y))
    wr.append(0.5 * w * edges[-1] / (1 - y) ** 2)
    r, wr = np.concatenate(r), np.concatenate(wr)
    chi_edges = np.linspace(0.0, math.pi, 9)
    chi = np.concatenate([lo + (hi - lo) * 0.5 * (x + 1) for lo, hi in zip(chi_edges, chi_edges[1:])])
    wc = np.concatenate([w * (hi - lo) * 0.5 for lo, hi in zip(chi_edges, chi_edges[1:])])
    R, C = np.meshgrid(r, chi, indexing="ij")
    rho, z = R * np.sin(C), R * np.cos(C)
    S = np.sqrt((ct + 1j * b) ** 2 - rho**2 + 0j)
    S = np.where(S.imag < 0, -S, S)
    theta = S - z - 1j * b
    d = theta + 1j * b
    f = np.exp(1j * K * theta) / d
    fp = (1j * K - 1 / d) * f
    u_ct = (fp * S - f) * ((ct + 1j * b) / S) / S**2
    u_rho = (fp * S - f) * (-rho / S) / S**2
    u_z = -fp / S
    density = abs(u_ct) ** 2 + abs(u_rho) ** 2 + abs(u_z) ** 2
    return float(np.sum(np.outer(wr, wc) * density * 2 * math.pi * R**2 * np.sin(C)))


@pytest.mark.parametrize("b,K,ct", [(1.0, 0.0, 0.0), (1.0, 1.0, 0.7), (1.0, 2.9, -1.3), (2.0, 0.4, 1.9)])
def test_lekner_energy_closed_form_agrees_with_an_independent_quadrature(b, K, ct):
    cfg = {"pulse": {"c": 1.0, "tau": b}, "waveform": f"lekner(a={b!r},K={K!r})"}
    coarse, fine = _energy_quadrature(b, K, ct, 48), _energy_quadrature(b, K, ct, 64)
    assert abs(fine - coarse) < 1e-9 * fine  # the quadrature has converged
    assert fine == pytest.approx(reference.energy_reference(cfg), rel=1e-8)


# --- harness pieces ------------------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    e2e = {name: unit for name, unit in run.END_TO_END if name != "failed_ratio"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == e2e
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_tail_latency_has_ten_jobs_beyond_it_above_the_median():
    lat = [float(i) for i in range(100)]
    assert run.tail_latency(lat) == (89.0, 90.0, 10)
    assert run.tail_latency(lat[:run.MIN_JOBS])[1] > 50.0
    with pytest.raises(ValueError):
        run.tail_latency(lat[:run.MIN_JOBS - 1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_run_holds_enough_jobs_for_a_tail(workload):
    for seconds in (1e-3, 12.0, 60.0):
        assert run.planned_rounds(workload, seconds) * workloads.round_length(workload) >= run.MIN_JOBS
    assert run.planned_rounds(workload, 1e-3, min_jobs=1) == 1


def test_reference_seconds_scale_wall_time_by_the_calibrations():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.to_reference(2.0, ref, ref) == pytest.approx(2.0)
    # a machine running at half the reference speed takes twice as long
    assert run.to_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert run.to_reference(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert 0.0 < run.calibration_s(2) < 1.0
    reps = {w: run.calibration_reps(w) for w in workloads.WORKLOADS}
    assert reps["certify_mix"] == 1 and all(1 <= r <= 16 for r in reps.values())


def test_tracer_counts_kernel_calls_and_restores_the_package(tmp_path):
    import unipulse.fields as fields

    before = (fields.eval_simple_pulse, fields.FieldGrid.write_csv, cli.sample_grid)
    job = _small_grid_job("csv")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job()
        _, code = _run_cli(job, tmp_path)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (fields.eval_simple_pulse, fields.FieldGrid.write_csv, cli.sample_grid) == before
    metrics = tracer.metrics(overhead=1.0)
    assert metrics["fields.kernel.calls"]["value"] == 144
    assert metrics["fields.sample_grid.calls"]["value"] == 1
    assert metrics["fields.write.bytes"]["value"] == Path(tmp_path / "out.csv").stat().st_size
    assert metrics["trace.missing"]["value"] == 0
    assert all(m["value"] >= 0 for m in metrics.values())


def test_tracer_skips_and_reports_missing_names(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("fields.kernel", "unipulse.fields", "no_such_kernel"),
        ("fields.write", "unipulse.fields", "NoSuchClass.write"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["unipulse.fields.no_such_kernel", "unipulse.fields.NoSuchClass.write"]
