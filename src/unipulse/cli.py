"""Config-driven command line front end.

Every command reads one JSON config, writes one primary output file,
and follows a uniform exit-code contract:

    0  success
    2  config error (message names the field)
    3  numerical failure (tolerance not reached, singular point, ...)
    4  a requested check failed (route disagreement, certificate FAIL)

Outputs contain no timestamps and print floats with 17 significant
digits, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    check_keys,
    get_int,
    get_number,
    get_number_list,
    get_string,
    load_config,
    parse_grid,
    parse_points,
    parse_pulse_setup,
)
from .farfield import (
    CERTIFICATE_SCHEDULE_CT,
    DEFAULT_SCHEDULE_CT,
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_numeric,
    radiation_schedule,
)
from .fields import (
    GridEvaluationError,
    SingularPoint,
    SpacetimePoint,
    energy_estimate,
    eval_quasi_spherical,
    quasi_spherical_evaluator,
    sample_grid,
    simple_pulse_evaluator,
    spherical_reference_evaluator,
)
from .ioformats import complex_fields, fmt_float, render_json, write_text
from .numerics import ExtrapolationUnstable, ToleranceNotReached
from .pdecheck import wave_residual
from .synthesis import (
    make_spectral_weight,
    reconstruct_cartesian_mc,
    reconstruct_from_weight,
    reconstruct_fourier_bessel,
    reconstruct_hemisphere,
)

_EVALUATORS = ("simple_pulse", "quasi_spherical", "spherical_reference")


class CheckFailed(Exception):
    """A requested verification did not hold; output was still written."""


def _build_evaluator(cfg, setup):
    kind = get_string(cfg, "evaluator", "", "quasi_spherical", choices=_EVALUATORS)
    b_ref = get_number(cfg, "b_ref", "", 0.0, ge=0.0)
    if kind == "simple_pulse":
        return simple_pulse_evaluator(setup.params), kind
    if kind == "spherical_reference":
        return spherical_reference_evaluator(setup.params, setup.waveform, b_ref), kind
    return quasi_spherical_evaluator(setup.params, setup.waveform), kind


def _pulse_header(setup) -> dict:
    p = setup.params
    return {"pulse": {"c": p.c, "tau": p.tau, "zeta": p.zeta, "b": p.b, "regular": p.regular},
            "waveform": setup.waveform_desc}


def _point_fields(p: SpacetimePoint) -> dict:
    return {"t": p.t, "x": p.x, "y": p.y, "z": p.z}


# --- commands -----------------------------------------------------------

SAMPLE_KEYS = {"pulse", "waveform", "evaluator", "b_ref", "grid", "format", "out"}


def run_sample(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, SAMPLE_KEYS, "")
    setup = parse_pulse_setup(cfg)
    evaluator, kind = _build_evaluator(cfg, setup)
    grid = parse_grid(cfg)
    fmt = get_string(cfg, "format", "", "csv", choices=("csv", "binary"))
    out = out or cfg.get("out") or ("unipulse_sample.csv" if fmt == "csv" else "unipulse_sample.json")
    field = sample_grid(
        grid, evaluator,
        params=setup.params, waveform_desc=setup.waveform_desc, evaluator_desc=kind,
    )
    if fmt == "csv":
        field.write_csv(out)
    else:
        field.write_binary(out)
    print(f"wrote {field.values.size} samples to {out}", file=sys.stderr)
    return 0


COMPARE_KEYS = {"pulse", "waveform", "points", "tolerance", "max_discrepancy", "mc", "out"}


def run_compare(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, COMPARE_KEYS, "")
    setup = parse_pulse_setup(cfg)
    points = parse_points(cfg)
    tol = get_number(cfg, "tolerance", "", 1e-6, gt=0.0)
    bound = get_number(cfg, "max_discrepancy", "", 1e-5, gt=0.0)
    mc_cfg = cfg.get("mc")
    mc_n, mc_seed, mc_sigma = 0, 1, 4.0
    if mc_cfg is not None:
        if not isinstance(mc_cfg, dict):
            raise ConfigError("mc: expected an object")
        check_keys(mc_cfg, {"n_samples", "seed", "sigma"}, "mc")
        mc_n = get_int(mc_cfg, "n_samples", "mc.", 0, ge=0)
        mc_seed = get_int(mc_cfg, "seed", "mc.", 1, ge=0)
        mc_sigma = get_number(mc_cfg, "sigma", "mc.", 4.0, gt=0.0)
    if seed is not None:
        mc_seed = seed

    rows, worst, mc_misses = [], 0.0, 0
    for p in points:
        closed = eval_quasi_spherical(p, setup.params, setup.waveform)
        hemi = reconstruct_hemisphere(setup.params, setup.waveform, p, tol)
        fb = reconstruct_fourier_bessel(setup.params, setup.waveform, p, tol)
        weight = make_spectral_weight(setup.params, setup.waveform)
        wt = reconstruct_from_weight(weight, p, tol)
        disc = max(abs(r.value - closed) for r in (hemi, fb, wt))
        row = {
            "point": _point_fields(p),
            "closed_form": complex_fields(closed),
            "hemisphere": complex_fields(hemi.value),
            "fourier_bessel": complex_fields(fb.value),
            "from_weight": complex_fields(wt.value),
        }
        if mc_n:
            mc = reconstruct_cartesian_mc(setup.params, setup.waveform, p, mc_n, mc_seed)
            row["mc_estimate"] = complex_fields(mc.value)
            row["mc_stderr"] = mc.stderr
            if abs(mc.value - closed) > mc_sigma * mc.stderr:
                mc_misses += 1
        row["max_discrepancy"] = disc
        routes = {"hemisphere": hemi, "fourier_bessel": fb, "from_weight": wt}
        row["error_estimate"] = {k: r.error_estimate for k, r in routes.items()}
        row["evaluations"] = {k: r.evaluations for k, r in routes.items()}
        rows.append(row)
        worst = max(worst, disc)

    failures = []
    if worst > bound:
        failures.append(f"route disagreement {worst:.3e} exceeds bound {bound:.3e}")
    if mc_misses:
        failures.append(
            f"Monte-Carlo estimate off the closed form by more than {mc_sigma:g}"
            f" standard errors at {mc_misses} of {len(points)} point(s)"
        )

    doc = _pulse_header(setup)
    doc.update({"tolerance": tol, "max_discrepancy_bound": bound, "worst_discrepancy": worst,
                "pass": not failures, "rows": rows})
    out = out or cfg.get("out") or "unipulse_compare.json"
    write_text(out, render_json(doc))
    print(f"wrote route comparison for {len(points)} point(s) to {out}", file=sys.stderr)
    if failures:
        raise CheckFailed("; ".join(failures))
    return 0


FARFIELD_KEYS = {"pulse", "waveform", "s_values", "directions", "schedule_ct", "out"}


def _parse_directions(cfg: dict, key: str = "directions"):
    raw = cfg.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a non-empty array of direction objects")
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{key}[{i}]: expected an object")
        check_keys(item, {"chi", "phi"}, f"{key}[{i}]")
        try:
            out.append(Direction(get_number(item, "chi", f"{key}[{i}]."),
                                 get_number(item, "phi", f"{key}[{i}].", 0.0)))
        except ValueError as exc:
            raise ConfigError(f"{key}[{i}]: {exc}") from exc
    return out


def run_farfield(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, FARFIELD_KEYS, "")
    setup = parse_pulse_setup(cfg)
    s_values = get_number_list(cfg, "s_values", "", (-1.0, 0.0, 1.0))
    directions = _parse_directions(cfg) or [Direction(k * math.pi / 6) for k in range(3)]
    factors = get_number_list(cfg, "schedule_ct", "", DEFAULT_SCHEDULE_CT)
    schedule = radiation_schedule(setup.params, factors)
    evaluator = quasi_spherical_evaluator(setup.params, setup.waveform)

    fan = Direction.fan(directions)
    res = farfield_numeric(evaluator, s_values, fan, schedule, setup.params.c)
    if res.diverged.any():
        i, j = np.argwhere(res.diverged)[0]
        raise ExtrapolationUnstable(f"far field along chi={directions[i].chi!r}, "
                                    f"s={s_values[j]!r}: {res.growth((i, j))}")
    analytic = farfield_analytic(np.array(s_values), fan, setup.params, setup.waveform)
    rows = [{"chi": d.chi, "phi": d.phi, "s": s, "numeric": complex_fields(fn),
             "analytic": complex_fields(fa), "abs_diff": abs(fn - fa)}
            for d, fn_row, fa_row in zip(directions, res.value, analytic)
            for s, fn, fa in zip(s_values, fn_row, fa_row)]
    doc = _pulse_header(setup)
    doc.update({"schedule_ct_over_b": list(factors), "rows": rows})
    out = out or cfg.get("out") or "unipulse_farfield.json"
    write_text(out, render_json(doc))
    print(f"wrote {len(rows)} far-field samples to {out}", file=sys.stderr)
    return 0


UNIDIR_KEYS = {
    "pulse", "waveform", "evaluator", "b_ref", "s_values",
    "backward_directions", "tolerance", "schedule_ct", "out",
}


def run_unidir(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, UNIDIR_KEYS, "")
    setup = parse_pulse_setup(cfg)
    evaluator, kind = _build_evaluator(cfg, setup)
    s_values = get_number_list(cfg, "s_values", "", (-2.0, -1.0, 0.0, 1.0, 2.0))
    directions = _parse_directions(cfg, "backward_directions") or backward_direction_grid(8)
    tol = get_number(cfg, "tolerance", "", 1e-6, gt=0.0)
    factors = get_number_list(cfg, "schedule_ct", "", CERTIFICATE_SCHEDULE_CT)
    schedule = radiation_schedule(setup.params, factors)

    report = check_unidirectional(evaluator, s_values, directions, tol, schedule, setup.params.c)
    doc = _pulse_header(setup)
    doc["evaluator"] = kind
    doc.update(report.as_dict())
    out = out or cfg.get("out") or "unipulse_unidir.json"
    write_text(out, render_json(doc))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"unidirectionality {verdict}: max |F| = {report.max_abs:.3e} (tol {tol:.1e}),"
          f" report in {out}", file=sys.stderr)
    if not report.passed:
        raise CheckFailed(f"backward far field reaches {report.max_abs:.3e} > {tol:.1e}")
    return 0


SPECTRUM_KEYS = {"pulse", "waveform", "kz", "omega", "out"}


def _parse_range(cfg: dict, key: str, lo_default: float, hi_default: float,
                 count_default: int):
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object with keys min, max, count")
    check_keys(block, {"min", "max", "count"}, key)
    lo = get_number(block, "min", f"{key}.", lo_default)
    hi = get_number(block, "max", f"{key}.", hi_default)
    count = get_int(block, "count", f"{key}.", count_default, ge=1)
    if count > 1 and not hi > lo:
        raise ConfigError(f"{key}: max must exceed min for count > 1")
    return np.linspace(lo, hi, count)


def run_spectrum(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, SPECTRUM_KEYS, "")
    setup = parse_pulse_setup(cfg)
    kz_grid = _parse_range(cfg, "kz", 0.0, 3.0, 31)
    omega_grid = _parse_range(cfg, "omega", 0.5, 5.0, 10)
    if np.any(kz_grid < 0.0):
        raise ConfigError("kz.min: must be >= 0")
    if np.any(omega_grid <= 0.0):
        raise ConfigError("omega.min: must be > 0")

    lines = [
        f"# pulse: c={fmt_float(setup.params.c)} tau={fmt_float(setup.params.tau)}"
        f" zeta={fmt_float(setup.params.zeta)}",
        f"# waveform: {setup.waveform_desc}",
        "kz,omega,re,im,abs",
    ]
    # omega-major rows inside the support, all weights in one array call
    omega, kz = (a.ravel() for a in np.meshgrid(omega_grid, kz_grid, indexing="ij"))
    keep = kz <= omega / setup.params.c
    weights = make_spectral_weight(setup.params, setup.waveform)(kz[keep], omega[keep])
    for k, om, a in zip(kz[keep].tolist(), omega[keep].tolist(), weights.tolist()):
        lines.append(",".join((fmt_float(k), fmt_float(om), fmt_float(a.real),
                               fmt_float(a.imag), fmt_float(abs(a)))))
    n_rows = len(weights)
    out = out or cfg.get("out") or "unipulse_spectrum.csv"
    write_text(out, "\n".join(lines))
    print(f"wrote {n_rows} spectral-weight rows to {out}", file=sys.stderr)
    return 0


RESIDUAL_KEYS = {
    "pulse", "waveform", "evaluator", "b_ref", "points", "random_points",
    "h_values", "out",
}


def run_residual(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, RESIDUAL_KEYS, "")
    setup = parse_pulse_setup(cfg)
    evaluator, kind = _build_evaluator(cfg, setup)
    b = setup.params.b
    h_values = sorted(
        get_number_list(cfg, "h_values", "", (4e-3 * b, 2e-3 * b, 1e-3 * b)),
        reverse=True,
    )
    if any(h <= 0 for h in h_values):
        raise ConfigError("h_values: all steps must be > 0")

    if "points" in cfg:
        points = parse_points(cfg)
    else:
        block = cfg.get("random_points", {})
        if not isinstance(block, dict):
            raise ConfigError("random_points: expected an object")
        check_keys(block, {"n", "seed", "extent"}, "random_points")
        n = get_int(block, "n", "random_points.", 20, ge=1)
        pt_seed = get_int(block, "seed", "random_points.", 7, ge=0)
        extent = get_number(block, "extent", "random_points.", 1.2 * b, gt=0.0)
        rng = np.random.default_rng(pt_seed)
        points = [
            SpacetimePoint(*rng.uniform(-extent, extent, 4).tolist()) for _ in range(n)
        ]

    # every point (rows) at every step (columns) in one evaluation
    coords = np.array([(p.t, p.x, p.y, p.z) for p in points]).T[:, :, None]
    rep = wave_residual(evaluator, SpacetimePoint(*coords), np.array(h_values), setup.params)
    orders = rep.order()  # NaN where the residuals sit at the rounding floor
    lines = [
        f"# evaluator: {kind}",
        f"# waveform: {setup.waveform_desc}",
        "t,x,y,z,h,abs_residual,normalized_residual,fitted_order",
    ]
    for i, p in enumerate(points):
        for j, h in enumerate(h_values):
            lines.append(",".join(map(fmt_float, (p.t, p.x, p.y, p.z, h, abs(rep.residual[i, j]),
                                                  rep.normalized[i, j], orders[i]))))
    out = out or cfg.get("out") or "unipulse_residual.csv"
    write_text(out, "\n".join(lines))
    print(f"wrote residuals for {len(points)} point(s) to {out}", file=sys.stderr)
    return 0


ENERGY_KEYS = {"pulse", "waveform", "t_values", "tolerance", "out"}


def run_energy(cfg: dict, out: str | None, seed: int | None) -> int:
    check_keys(cfg, ENERGY_KEYS, "")
    setup = parse_pulse_setup(cfg)
    if not setup.params.regular:
        raise ConfigError("pulse: energy requires a regular family (zeta < c*tau)")
    t_values = get_number_list(cfg, "t_values", "", (0.0,))
    tol = get_number(cfg, "tolerance", "", 1e-4, gt=0.0)

    rows = []
    for t in t_values:
        est = energy_estimate(t, setup.params, setup.waveform, tol)
        rows.append({"t": t, "energy": est.total, "error_estimate": est.error_estimate,
                     "evaluations": est.evaluations})
    doc = _pulse_header(setup)
    doc.update({"tolerance": tol, "rows": rows})
    out = out or cfg.get("out") or "unipulse_energy.json"
    write_text(out, render_json(doc))
    print(f"wrote energy at {len(t_values)} time(s) to {out}", file=sys.stderr)
    return 0


# --- argument parsing ----------------------------------------------------

_COMMANDS = {
    "sample": (run_sample, SAMPLE_KEYS,
               "Sample an evaluator over a structured grid (CSV or JSON+binary)."),
    "compare": (run_compare, COMPARE_KEYS,
                "Cross-check the closed form against hemisphere, Fourier-Bessel "
                "and spectral-weight reconstructions (optional Monte Carlo)."),
    "farfield": (run_farfield, FARFIELD_KEYS,
                 "Tabulate numeric and closed-form directional amplitudes."),
    "unidir": (run_unidir, UNIDIR_KEYS,
               "Certify that the backward-hemisphere far field vanishes."),
    "spectrum": (run_spectrum, SPECTRUM_KEYS,
                 "Tabulate the spectral weight A(k_z, omega) over a grid."),
    "residual": (run_residual, RESIDUAL_KEYS,
                 "Finite-difference wave-equation residuals and convergence order."),
    "energy": (run_energy, ENERGY_KEYS,
               "Field energy by a compactified Gauss-Legendre product rule."),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipulse",
        description="Closed-form localized unidirectional pulses: evaluation, "
        "far-field certificates and cross-validated reconstructions.",
    )
    parser.add_argument("--version", action="version", version=f"unipulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            epilog=f"Config keys read by this command: {', '.join(sorted(keys))}. "
            "Unknown keys are errors.",
        )
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="primary output path (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override any RNG seed in the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner = _COMMANDS[args.command][0]
    try:
        cfg = load_config(args.config)
        return runner(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotReached, ExtrapolationUnstable, SingularPoint,
            GridEvaluationError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
