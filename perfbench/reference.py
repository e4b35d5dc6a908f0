"""Independent references and output checks for the benchmark jobs.

Nothing here imports unipulse.  Closed forms are re-derived with mpmath
at 30 digits from the formulas in the README, and each check reads only
output fields that the program documents (extra keys are ignored).

A check returns a list of ``(severity, reason)`` pairs:

* ``"soft"``: the job failed, but the program said so or missed its own
  accuracy claim by less than ``GROSS`` times: exit code 3 from ``energy``
  (its declared numerical failure), a tolerance miss, a fitted order out
  of range.
* ``"hard"``: the output is wrong or unusable: an unexpected exit code
  (exit 3 included, from any other command), an unreadable output, or an
  error more than ``GROSS`` times the stated tolerance.  A hard failure
  makes the whole run incorrect.

The checks stream their inputs: they keep only the rows they compare, so
their memory stays far below that of the job they check and does not
show in the benchmark's peak RSS.

Both kinds count in ``failed_ratio``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import mpmath as mp
import numpy as np

mp.mp.dps = 30

#: an error beyond this multiple of the stated tolerance is a wrong result
GROSS = 1000.0

#: relative accuracy required of sampled field values and spectral rows
VALUE_RTOL = 1e-12

#: rows of each spectrum output compared against the closed form
SPECTRUM_ROWS_CHECKED = 16

#: rows of each far-field output compared against the closed form
FARFIELD_ROWS_CHECKED = 16

#: relative accuracy required of the extrapolated far field
FARFIELD_RTOL = 1e-6

#: accepted range of the fitted residual convergence order
ORDER_RANGE = (1.8, 2.2)

#: rows of each grid output compared against the closed form
GRID_ROWS_CHECKED = 32

#: residual normalized to the field scale below which NaN orders are accepted
NOISE_FLOOR_NORMALIZED = 1e-9

TWO_PI_SQ = 2.0 * math.pi**2


# --- closed forms -------------------------------------------------------


def parse_waveform(desc: str) -> tuple[str, dict]:
    """``lekner(a=1,K=2)`` -> ("lekner", {"a": 1.0, "K": 2.0})."""
    name, _, rest = desc.partition("(")
    args = {}
    for frag in filter(None, rest.rstrip(")").split(",")):
        key, _, val = frag.partition("=")
        args[key.strip()] = float(val)
    return name.strip(), args


def pulse_constants(cfg: dict) -> tuple[float, float, float]:
    pulse = cfg.get("pulse", {})
    return pulse.get("c", 1.0), pulse.get("tau", 1.0), pulse.get("zeta", 0.0)


def waveform_of(cfg: dict) -> tuple[str, dict]:
    c, tau, zeta = pulse_constants(cfg)
    return parse_waveform(cfg.get("waveform", f"rational(a={c * tau - zeta!r})"))


def mp_waveform(kind: str, args: dict, theta):
    d = theta + 1j * mp.mpf(args["a"])
    if kind == "rational":
        return 1 / d
    return mp.exp(1j * mp.mpf(args.get("K", 0.0)) * theta) / d


def mp_field(cfg: dict, evaluator: str, t: float, x: float, y: float, z: float) -> complex:
    """u at one point: ``simple_pulse`` or ``quasi_spherical``."""
    c, tau, zeta = (mp.mpf(v) for v in pulse_constants(cfg))
    b = c * tau
    ct = c * mp.mpf(t)
    s = mp.sqrt((ct + 1j * b) ** 2 - (mp.mpf(x) ** 2 + mp.mpf(y) ** 2))
    if mp.im(s) < 0:
        s = -s
    if evaluator == "simple_pulse":
        u = 1 / (s * (s - mp.mpf(z) - 1j * zeta))
    else:
        kind, args = waveform_of(cfg)
        u = mp_waveform(kind, args, s - mp.mpf(z) - 1j * b) / s
    return complex(u)


def mp_farfield(cfg: dict, s: float, chi: float) -> complex:
    """Closed-form F(s, n) of the quasi-spherical pulse, forward side."""
    c, tau, _ = pulse_constants(cfg)
    if chi >= 0.5 * math.pi:
        return 0j
    mu = mp.cos(mp.mpf(chi))
    b = mp.mpf(c) * mp.mpf(tau)
    kind, args = waveform_of(cfg)
    return complex(mp_waveform(kind, args, (-mp.mpf(s) + 1j * b * (1 - mu)) / mu) / mu)


def mp_spectral_weight(cfg: dict, kz: float, omega: float) -> complex:
    """A(k_z, omega) = -(i/c) exp(-(omega/c - k_z) b) fhat(k_z)."""
    c, tau, _ = pulse_constants(cfg)
    kind, args = waveform_of(cfg)
    shift = args.get("K", 0.0) if kind == "lekner" else 0.0
    if kz < shift:
        return 0j
    c_, kz_ = mp.mpf(c), mp.mpf(kz)
    fhat = -1j * mp.exp(-mp.mpf(args["a"]) * (kz_ - mp.mpf(shift)))
    return complex((-1j / c_) * mp.exp(-(mp.mpf(omega) / c_ - kz_) * c_ * mp.mpf(tau)) * fhat)


def energy_reference(cfg: dict) -> float:
    """Field energy of rational(a=b) or lekner(a=b,K): 2 pi^2 (1 + K b) / b^3.

    K = 0 is the rational value E1 b^-3 with E1 = 2 pi^2 = 19.7392088.
    The lekner form is confirmed by an independent quadrature in the
    self-tests.  Only waveforms with a = b have this closed form.
    """
    c, tau, _ = pulse_constants(cfg)
    b = c * tau
    kind, args = waveform_of(cfg)
    if not math.isclose(args["a"], b, rel_tol=1e-12):
        raise ValueError(f"energy reference needs a = b, got a={args['a']} b={b}")
    return TWO_PI_SQ * (1.0 + args.get("K", 0.0) * b) / b**3


# --- helpers --------------------------------------------------------------


def _miss(err: float, allowed: float, what: str) -> list:
    if err <= allowed:
        return []
    severity = "hard" if err > GROSS * allowed else "soft"
    return [(severity, f"{what}: error {err:.3e} exceeds {allowed:.3e}")]


def _worst(problems: list, keep: int = 3) -> list:
    """The first ``keep`` problems, hard ones first, so a long list of
    row misses stays readable without hiding its severity."""
    return sorted(problems, key=lambda p: p[0] != "hard")[:keep]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: str):
    """The data rows of a CSV output as dicts, one at a time; ``#`` lines
    are comments."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from csv.DictReader(ln for ln in fh if not ln.startswith("#"))


def _cplx(obj: dict) -> complex:
    return complex(obj["re"], obj["im"])


def _rng(job) -> np.random.Generator:
    return np.random.default_rng([job.seed, job.index, 7])


# --- per-command checks ----------------------------------------------------


def _grid_coords(cfg: dict):
    axes = cfg["grid"]["axes"]
    values = [
        np.linspace(a["min"], a["max"], a["count"]) if a["count"] > 1
        else np.array([a["min"]])
        for a in axes
    ]
    return [a["name"] for a in axes], values


def _point(names, coords, fixed) -> tuple[float, float, float, float]:
    p = dict(fixed)
    p.update(zip(names, coords))
    if "rho" in p:
        return p.get("t", 0.0), p["rho"], 0.0, p.get("z", 0.0)
    return p.get("t", 0.0), p.get("x", 0.0), p.get("y", 0.0), p.get("z", 0.0)


def check_sample(job, out: str) -> list:
    cfg = job.config
    names, axis_values = _grid_coords(cfg)
    shape = tuple(len(v) for v in axis_values)
    n = int(np.prod(shape))
    fixed = cfg["grid"].get("fixed", {})
    rng = _rng(job)
    picks = sorted(set(rng.integers(0, n, GRID_ROWS_CHECKED).tolist()) | {0, n - 1})
    problems = []
    if cfg.get("format", "csv") == "csv":
        wanted, rows, count = set(picks), {}, 0
        for count, row in enumerate(_csv_rows(out), 1):
            if count - 1 in wanted:
                rows[count - 1] = row
        if count != n:
            return [("hard", f"sample: {count} rows, expected {n}")]
        for i in picks:
            row = rows[i]
            coords = [float(row[name]) for name in names]
            expect = [float(v[j]) for v, j in zip(axis_values, np.unravel_index(i, shape))]
            if coords != expect:
                return [("hard", f"sample: row {i} coordinates {coords} != {expect}")]
            u = complex(float(row["re"]), float(row["im"]))
            ref = mp_field(cfg, job.evaluator, *_point(names, coords, fixed))
            problems += _miss(abs(u - ref), VALUE_RTOL * abs(ref), f"sample row {i}")
            problems += _miss(abs(float(row["abs"]) - abs(ref)), VALUE_RTOL * abs(ref),
                              f"sample row {i} abs")
    else:
        header = _load_json(out)
        if header.get("shape") != list(shape) or header.get("dtype") != "complex128":
            return [("hard", f"binary header shape/dtype mismatch: {header.get('shape')}")]
        data = np.fromfile(out + ".bin", dtype="<c16")
        if data.size != n:
            return [("hard", f"binary: {data.size} values, expected {n}")]
        for i in picks:
            idx = np.unravel_index(i, shape)
            coords = [float(v[j]) for v, j in zip(axis_values, idx)]
            ref = mp_field(cfg, job.evaluator, *_point(names, coords, fixed))
            problems += _miss(abs(complex(data[i]) - ref), VALUE_RTOL * abs(ref),
                              f"binary value {i}")
    return _worst(problems)


def check_compare(job, out: str) -> list:
    cfg = job.config
    doc = _load_json(out)
    tol = cfg["tolerance"]
    rows = doc["rows"]
    if len(rows) != len(cfg["points"]):
        return [("hard", f"compare: {len(rows)} rows for {len(cfg['points'])} points")]
    problems = []
    for i, (row, pt) in enumerate(zip(rows, cfg["points"])):
        ref = mp_field(cfg, "quasi_spherical", pt["t"], pt["rho"], 0.0, pt["z"])
        allowed = max(tol, tol * abs(ref))
        problems += _miss(abs(_cplx(row["closed_form"]) - ref), VALUE_RTOL * abs(ref),
                          f"point {i} closed_form")
        for route in ("hemisphere", "fourier_bessel", "from_weight"):
            problems += _miss(abs(_cplx(row[route]) - ref), allowed, f"point {i} {route}")
        if "mc" in cfg:
            sigma = cfg["mc"]["sigma"] * row["mc_stderr"]
            err = abs(_cplx(row["mc_estimate"]) - ref)
            if not err <= sigma:
                problems.append(("hard", f"point {i} Monte Carlo off by {err:.3e}"
                                 f" > {cfg['mc']['sigma']} sigma ({sigma:.3e})"))
    return problems


def check_energy(job, out: str) -> list:
    cfg = job.config
    doc = _load_json(out)
    tol = cfg["tolerance"]
    ref = energy_reference(cfg)
    times = [row["t"] for row in doc["rows"]]
    if times != cfg["t_values"]:
        return [("hard", f"energy: rows for times {times}, expected {cfg['t_values']}")]
    problems = []
    for row in doc["rows"]:
        problems += _miss(abs(row["energy"] - ref), max(tol, tol * ref),
                          f"energy at t={row['t']:.6g} (reference {ref:.9g})")
    return problems


def check_unidir(job, out: str) -> list:
    """The verdict must match the expectation.  A FAIL on a pulse that is
    unidirectional (F is exactly zero on the backward side) is an accuracy
    miss of size max |F| against ``tolerance``."""
    doc = _load_json(out)
    tol = job.config["tolerance"]
    if job.expect_exit == 4:
        if doc.get("pass") is not False:
            return [("hard", "unidir: counterexample certified as unidirectional")]
        return []
    problems = _miss(doc["max_abs_farfield"], tol, "unidir backward max |F|")
    warned = [d for d in doc.get("directions", []) if d.get("status") != "OK"]
    if warned:
        problems.append(("soft", f"unidir: {len(warned)} direction(s) with unstable extrapolation"))
    if (doc.get("pass") is True) == bool(problems):
        problems.append(("hard", f"unidir: verdict pass={doc.get('pass')} contradicts the report"))
    return problems


def check_farfield(job, out: str) -> list:
    cfg = job.config
    doc = _load_json(out)
    want = len(cfg["s_values"]) * len(cfg["directions"])
    if len(doc["rows"]) != want:
        return [("hard", f"farfield: {len(doc['rows'])} rows, expected {want}")]
    problems = []
    rows = doc["rows"]
    for i in sorted(set(_rng(job).integers(0, len(rows), FARFIELD_ROWS_CHECKED).tolist())):
        row = rows[i]
        ref = mp_farfield(cfg, row["s"], row["chi"])
        where = f"farfield chi={row['chi']:.4g} s={row['s']:.4g}"
        problems += _miss(abs(_cplx(row["analytic"]) - ref), VALUE_RTOL * abs(ref),
                          where + " analytic")
        problems += _miss(abs(_cplx(row["numeric"]) - ref), FARFIELD_RTOL * abs(ref),
                          where + " numeric")
    return problems


def check_residual(job, out: str) -> list:
    rows = list(_csv_rows(out))
    cfg = job.config
    n_h = len(cfg.get("h_values", (0, 0, 0)))
    want = cfg["random_points"]["n"] * n_h
    if len(rows) != want:
        return [("hard", f"residual: {len(rows)} rows, expected {want}")]
    problems = []
    for i, row in enumerate(rows):
        order = float(row["fitted_order"])
        if math.isnan(order):
            if float(row["normalized_residual"]) > NOISE_FLOOR_NORMALIZED:
                problems.append(("soft", f"residual row {i}: NaN order above noise floor"))
        elif not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            problems.append(("soft", f"residual row {i}: order {order:.4f} outside {ORDER_RANGE}"))
    return _worst(problems)


def check_spectrum(job, out: str) -> list:
    cfg = job.config
    c = pulse_constants(cfg)[0]
    kz = np.linspace(cfg["kz"]["min"], cfg["kz"]["max"], cfg["kz"]["count"])
    om = np.linspace(cfg["omega"]["min"], cfg["omega"]["max"], cfg["omega"]["count"])
    want = [(float(k), float(w)) for w in om for k in kz if not k > w / c]
    rows = list(_csv_rows(out))
    got = [(float(r["kz"]), float(r["omega"])) for r in rows]
    if got != want:
        return [("hard", f"spectrum: {len(got)} rows on the wrong support, expected {len(want)}")]
    problems = []
    picks = sorted(set(_rng(job).integers(0, len(rows), SPECTRUM_ROWS_CHECKED).tolist()))
    for i in picks:
        row = rows[i]
        ref = mp_spectral_weight(cfg, *got[i])
        a = complex(float(row["re"]), float(row["im"]))
        problems += _miss(abs(a - ref), VALUE_RTOL * abs(ref), f"spectrum row {i}")
        problems += _miss(abs(float(row["abs"]) - abs(ref)), VALUE_RTOL * abs(ref),
                          f"spectrum row {i} abs")
    return _worst(problems)


CHECKS = {
    "sample": check_sample,
    "compare": check_compare,
    "energy": check_energy,
    "unidir": check_unidir,
    "farfield": check_farfield,
    "residual": check_residual,
    "spectrum": check_spectrum,
}


def check_job(job, out: str, exit_code: int | None) -> list:
    """All problems of one finished job.

    Exit code 3 is a declared numerical failure (soft) only for
    ``energy``, the one command that exits 3 on its inputs at the seed;
    from any other command it is hard.  Exit code 4 on a job expected to
    pass is explained by the output check, whose findings carry the
    severity; an unexplained one is hard.
    """
    if exit_code == 3 and job.command == "energy":
        return [("soft", "exit code 3 (numerical failure), expected "
                 f"{job.expect_exit}")]
    if exit_code not in (0, 4) or not os.path.exists(out):
        return [("hard", f"exit code {exit_code}, expected {job.expect_exit}"
                 + ("" if os.path.exists(out) else ", no output file"))]
    try:
        problems = CHECKS[job.command](job, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [("hard", f"unreadable output: {type(exc).__name__}: {exc}")]
    if exit_code != job.expect_exit:
        severity = "soft" if problems and exit_code == 4 else "hard"
        problems.append((severity, f"exit code {exit_code}, expected {job.expect_exit}"))
    return problems
