"""Config-driven command line front end.

Every command reads one JSON config, writes one primary output file,
and follows a uniform exit-code contract:

    0  success
    2  config error (message names the field)
    3  numerical failure (tolerance not reached, non-finite value, ...)
    4  a requested check failed (route disagreement, certificate FAIL)

Outputs contain no timestamps, so identical runs produce byte-identical
files on one numpy build and CPU dispatch path (numpy picks its SIMD
kernels at run time: with AVX-512 off, 3 of the 8 shipped configs write
other bytes).  CSV cells and comments spell floats with ``%.16e``
(``1.0000000000000001e-01``); a JSON report is one line with shortest
round-trip floats (``python -m json.tool`` pretty-prints it).  Either
way every value reads back bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    check_keys,
    get_ladder,
    get_number,
    get_number_list,
    get_string,
    load_config,
    parse_directions,
    parse_grid,
    parse_monte_carlo,
    parse_points,
    parse_pulse_setup,
    parse_random_points,
    parse_range,
)
from .farfield import (
    LADDER,
    MAX_ABS_S,
    Direction,
    backward_direction_grid,
    check_unidirectional,
    farfield_analytic,
    farfield_numeric,
    unsettled,
)
from .fields import (
    SingularPoint,
    SpacetimePoint,
    energy_estimate,
    eval_quasi_spherical,
    eval_simple_pulse,
    eval_spherical_reference,
    evaluate_batch,
    pulse_comment,
    sample_grid,
)
from .ioformats import render_json, write_csv, write_text
from .numerics import ToleranceNotReached
from .pdecheck import StepRefused, wave_residual
from .synthesis import (
    reconstruct_cartesian_mc,
    reconstruct_hemisphere,
    reconstruct_spectral,
    spectral_weight,
)

#: config keys every command reads besides its own
COMMON_KEYS = {"pulse", "waveform", "out"}


@dataclass(frozen=True)
class Output:
    """What a command hands to ``main``: ``write(path)`` writes the
    primary file (by default ``unipulse_<command>.<suffix>``), after
    which ``main`` prints ``wrote <summary> to <path>``.  A non-empty
    ``failure`` names a check that did not hold: the run exits 4."""

    write: Callable[[str], None]
    suffix: str
    summary: str
    failure: str = ""


def _build_evaluator(cfg, setup):
    kind = get_string(cfg, "evaluator", "", "quasi_spherical",
                      choices=("simple_pulse", "quasi_spherical", "spherical_reference"))
    if kind == "spherical_reference":
        b_ref = get_number(cfg, "b_ref", "", 0.0, ge=0.0)
        return lambda p: eval_spherical_reference(p, setup.params, setup.waveform, b_ref), kind
    if "b_ref" in cfg:
        raise ConfigError(f"b_ref: only the spherical_reference evaluator reads it, not {kind}")
    if kind == "simple_pulse":
        if "waveform" in cfg:
            raise ConfigError("waveform: the simple_pulse evaluator does not read it: "
                              "it is rational(a = b - zeta)")
        return lambda p: eval_simple_pulse(p, setup.params), kind
    return lambda p: eval_quasi_spherical(p, setup.params, setup.waveform), kind


def _report(setup, fields: dict, summary: str, failure: str = "") -> Output:
    """A JSON report: the pulse and waveform, then ``fields``."""
    p = setup.params
    doc = {"pulse": {"c": p.c, "tau": p.tau, "zeta": p.zeta, "b": p.b, "regular": p.regular},
           "waveform": setup.waveform_desc, **fields}
    return Output(lambda path: write_text(path, render_json(doc)), "json", summary, failure)


# --- commands: (config, pulse setup, --seed) -> Output --------------------


def run_sample(cfg: dict, setup, seed: int | None) -> Output:
    evaluator, kind = _build_evaluator(cfg, setup)
    grid = parse_grid(cfg)
    fmt = get_string(cfg, "format", "", "csv", choices=("csv", "binary"))
    field = sample_grid(
        grid, evaluator,
        params=setup.params, waveform_desc=setup.waveform_desc, evaluator_desc=kind,
    )
    if fmt == "csv":
        return Output(field.write_csv, "csv", f"{field.values.size} samples")
    return Output(field.write_binary, "json", f"{field.values.size} samples")


def run_compare(cfg: dict, setup, seed: int | None) -> Output:
    points = parse_points(cfg)
    tol = get_number(cfg, "tolerance", "", 1e-6, gt=0.0)
    bound = get_number(cfg, "max_discrepancy", "", 1e-5, gt=0.0)
    mc_n, mc_seed, mc_sigma = parse_monte_carlo(cfg, seed)

    closed_forms = evaluate_batch(lambda q: eval_quasi_spherical(q, setup.params, setup.waveform), points)
    rows, worst, mc_misses = [], 0.0, 0
    for i, closed in enumerate(closed_forms.tolist()):
        p = points.node((i,))
        routes = {
            "hemisphere": reconstruct_hemisphere(setup.params, setup.waveform, p, tol),
            **reconstruct_spectral(setup.params, setup.waveform, p, tol),
        }
        disc = max(abs(r.value - closed) for r in routes.values())
        row = {"point": {"t": p.t, "x": p.x, "y": p.y, "z": p.z}, "closed_form": closed}
        row.update({k: r.value for k, r in routes.items()})
        if mc_n:
            mc = reconstruct_cartesian_mc(setup.params, setup.waveform, p, mc_n, mc_seed)
            row["mc_estimate"] = mc.value
            row["mc_stderr"] = mc.stderr
            if abs(mc.value - closed) > mc_sigma * mc.stderr:
                mc_misses += 1
        row["max_discrepancy"] = disc
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
            f" standard errors at {mc_misses} of {len(rows)} point(s)"
        )
    return _report(setup, {"tolerance": tol, "max_discrepancy_bound": bound,
                           "worst_discrepancy": worst, "pass": not failures, "rows": rows},
                   f"route comparison for {len(rows)} point(s)", "; ".join(failures))


def run_farfield(cfg: dict, setup, seed: int | None) -> Output:
    s_values = get_number_list(cfg, "s_values", (-1.0, 0.0, 1.0), max_abs=MAX_ABS_S)
    directions = parse_directions(cfg, "directions",
                                  [Direction(k * math.pi / 6) for k in range(3)])

    fan = Direction.fan(directions)
    res = farfield_numeric(lambda p: eval_quasi_spherical(p, setup.params, setup.waveform),
                           s_values, fan, setup.params)
    if res.diverged.any():
        i, j = np.argwhere(res.diverged)[0]
        raise unsettled(directions[i].chi, s_values[j], res.stability[i, j])
    analytic = farfield_analytic(np.array(s_values), fan, setup.params, setup.waveform)
    rows = [{"chi": d.chi, "phi": d.phi, "s": s, "numeric": fn, "analytic": fa,
             "abs_diff": abs(fn - fa)}
            for d, fn_row, fa_row in zip(directions, res.value, analytic)
            for s, fn, fa in zip(s_values, fn_row, fa_row)]
    return _report(setup, {"schedule_ct": list(LADDER), "rows": rows},
                   f"{len(rows)} far-field samples")


def run_unidir(cfg: dict, setup, seed: int | None) -> Output:
    evaluator, kind = _build_evaluator(cfg, setup)
    s_values = get_number_list(cfg, "s_values", (-2.0, -1.0, 0.0, 1.0, 2.0), max_abs=MAX_ABS_S)
    directions = parse_directions(cfg, "backward_directions", backward_direction_grid(),
                                  chi_gt=0.5 * math.pi)
    tol = get_number(cfg, "tolerance", "", 1e-6, gt=0.0)

    report = check_unidirectional(evaluator, s_values, directions, tol, setup.params)
    max_abs = f"{report.max_abs:.3e}"
    return _report(setup, {"evaluator": kind, **report.as_dict()},
                   f"unidirectionality {'PASS' if report.passed else 'FAIL'} report"
                   f" (max |F| = {max_abs}, tol {tol:.1e})",
                   "" if report.passed else f"backward far field reaches {max_abs} > {tol:.1e}")


def run_spectrum(cfg: dict, setup, seed: int | None) -> Output:
    p = setup.params
    kz = parse_range(cfg, "kz", 0.0, 3.0, 31, ge=0.0)
    omega = parse_range(cfg, "omega", 0.5, 5.0, 10, gt=0.0)[:, None]
    # omega-major rows inside the support, all weights in one array call
    with np.errstate(over="ignore"):  # an omega/c past the float range is inf: every k_z is inside
        keep = kz <= omega / p.c
    a = spectral_weight(p, setup.waveform, kz, omega)  # 0 outside the support
    comments = [pulse_comment(p), f"waveform: {setup.waveform_desc}"]
    columns = {"kz": kz, "omega": omega, "re,im,abs": a}
    return Output(lambda path: write_csv(path, comments, columns, keep), "csv",
                  f"{np.count_nonzero(keep)} spectral-weight rows")


def run_residual(cfg: dict, setup, seed: int | None) -> Output:
    evaluator, kind = _build_evaluator(cfg, setup)
    b = setup.params.b
    h = np.array(sorted(get_ladder(cfg, "h_values", (4e-3 * b, 2e-3 * b, 1e-3 * b)),
                        reverse=True))
    if "points" in cfg and "random_points" in cfg:
        raise ConfigError("random_points: give points or random_points, not both")
    points = parse_points(cfg) if "points" in cfg else parse_random_points(cfg, b, seed)

    # every point (rows) at every step (columns) in one evaluation
    coords = [v[:, None] for v in (points.t, points.x, points.y, points.z)]
    try:
        rep = wave_residual(evaluator, SpacetimePoint(*coords), h, setup.params)
    except StepRefused as exc:
        raise ConfigError(f"h_values: {exc}") from exc
    res = rep.residual
    columns = {**dict(zip("txyz", coords)), "h": h,
               "abs_residual": np.hypot(res.real, res.imag),
               "normalized_residual": rep.normalized,
               # NaN where the residuals sit at the rounding floor
               "fitted_order": rep.order()[:, None]}
    comments = [pulse_comment(setup.params), f"evaluator: {kind}", f"waveform: {setup.waveform_desc}"]
    return Output(lambda path: write_csv(path, comments, columns), "csv",
                  f"residuals for {len(points.t)} point(s)")


def run_energy(cfg: dict, setup, seed: int | None) -> Output:
    t_values = get_number_list(cfg, "t_values", (0.0,))
    tol = get_number(cfg, "tolerance", "", 1e-4, gt=0.0)

    rows = []
    for t in t_values:
        est = energy_estimate(t, setup.params, setup.waveform, tol)
        rows.append({"t": t, "energy": est.value, "error_estimate": est.error_estimate,
                     "evaluations": est.evaluations})
    return _report(setup, {"tolerance": tol, "rows": rows},
                   f"energy at {len(t_values)} time(s)")


# --- argument parsing ----------------------------------------------------

# name: (runner, config keys it reads besides COMMON_KEYS, help text)
_COMMANDS = {
    "sample": (run_sample, {"evaluator", "b_ref", "grid", "format"},
               "Sample an evaluator over a structured grid (CSV or JSON+binary)."),
    "compare": (run_compare, {"points", "tolerance", "max_discrepancy", "mc"},
                "Cross-check the closed form against hemisphere and Fourier-Bessel reconstructions; "
                "from_weight is the latter on spectrum's weight and its nodes, omega = c*k (optional MC)."),
    "farfield": (run_farfield, {"s_values", "directions"},
                 "Tabulate numeric and closed-form directional amplitudes; the numeric "
                 "ones extrapolate ct*u along ct = (1e2, 1e3, 1e4) max(b, |s|)/cos^2 chi; "
                 "a direction with |cos chi| < 1e-3 exits 2."),
    "unidir": (run_unidir, {"evaluator", "b_ref", "s_values", "backward_directions",
                            "tolerance"},
               "Certify that the backward-hemisphere far field vanishes, extrapolating "
               "|ct*u| along ct = (1e2, 1e3, 1e4) max(b, |s|)/cos^2 chi; a direction "
               "with |cos chi| < 1e-3 exits 2."),
    "spectrum": (run_spectrum, {"kz", "omega"},
                 "Tabulate the spectral weight A(k_z, omega) over a grid."),
    "residual": (run_residual, {"evaluator", "b_ref", "points", "random_points", "h_values"},
                 "Finite-difference wave-equation residuals and convergence order."),
    "energy": (run_energy, {"t_values", "tolerance"},
               "Field energy by nested adaptive Gauss-Kronrod quadrature."),
}


def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache  # built on the first call; main may run many jobs in one process
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
            epilog="Config keys read by this command: "
            f"{', '.join(sorted(keys | COMMON_KEYS))}. Unknown keys are errors.",
        )
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="primary output path (overrides config)")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override any RNG seed in the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner, keys, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        check_keys(cfg, keys | COMMON_KEYS, "")
        out = args.out or get_string(cfg, "out", "", "")
        result = runner(cfg, parse_pulse_setup(cfg), args.seed)
        out = out or f"unipulse_{args.command}.{result.suffix}"
        try:
            result.write(out)
        except OSError as exc:
            raise ConfigError(f"out: cannot write {out}: {exc.strerror or exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotReached, SingularPoint, ValueError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    print(f"wrote {result.summary} to {out}", file=sys.stderr)
    if result.failure:
        print(f"check failed: {result.failure}", file=sys.stderr)
        return 4
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
