"""Seeded job generators for the four benchmark workloads.

A workload is an endless stream of CLI jobs, cut into rounds.  Every
round lists the same strata (job shapes) in the same order, so a run of
whole rounds covers the same mix of shapes whatever the seed.  Within a
stratum the seed draws the unit scale freely (the wave speed c, with
tau = b/c) and moves every parameter that sets the cost (b, K, times,
point positions, grid sizes) by about a percent, a tenth of that for
energy jobs.  The adaptive quadratures are erratic in their inputs: a
10% move in a time changes an energy solve's cost by up to 20%.  Small
moves keep the spread between seeds near the machine's own noise while
the inputs still differ.
Values that do not change the amount of work (waveform shape in grids,
certificate directions, random-point seeds) are drawn freely.

A run is a fixed number of whole rounds (``run.planned_rounds``).  In
each workload most strata cost about the same, so that the median and
the tail latency both rest on many jobs rather than on a gap between
two groups of them.  Every stratum passes or fails its check the same
way for every seed, so the failures of a run depend only on the
workload and the number of rounds.

Times are in units of tau and lengths in units of b = c*tau.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass
class Job:
    index: int
    seed: int
    command: str
    config: dict
    expect_exit: int = 0
    evaluator: str = ""
    label: str = ""
    ext: str = "json"

    def describe(self) -> str:
        return f"job {self.index} {self.command} [{self.label}]"


def _r(x: float) -> float:
    """Round to 6 significant digits so configs stay readable."""
    return float(f"{x:.6g}")


#: relative move of the parameters that set a job's cost
JITTER = 0.01


def _near(rng: random.Random, x: float, rel: float = JITTER) -> float:
    return _r(x * rng.uniform(1.0 - rel, 1.0 + rel))


def _pulse(rng: random.Random, b: float, rel: float = JITTER) -> dict:
    """Free wave speed c; b = c*tau within ``rel`` of ``b``."""
    c = _r(rng.uniform(0.7, 1.4))
    return {"c": c, "tau": _r(_near(rng, b, rel) / c), "zeta": 0.0}


def _b(pulse: dict) -> float:
    return pulse["c"] * pulse["tau"]


def _waveform(kind: str, a: float, K: float = 0.0) -> str:
    if kind == "rational":
        return f"rational(a={a!r})"
    return f"lekner(a={a!r},K={K!r})"


# --- grid_snapshot ---------------------------------------------------------

# (axes, points, evaluator, waveform kind, format), 16 of 20 writing CSV.
# A run holds two rounds, 40 jobs: its median and its tail (the 30th job,
# p75) both fall in a bulk of 16 strata sized to cost about the same
# (a quarter of a second), so each rests on many jobs and not on a gap
# between two groups of them.  Below the bulk are two small grids, above
# it the two jobs that carry the extremes: the 10^5-point CSV grid (the
# peak memory) and a 1-D axis of 2*10^4 points, where the cost per point
# grows with the axis length.  Point counts move by only 2% because a
# long 1-D axis costs the square of its length.
_GRID_STRATA = (
    (("rho", "z"), 99856, "simple_pulse", None, "csv"),
    (("rho", "z"), 9604, "quasi_spherical", "rational", "csv"),
    (("x", "y"), 10000, "simple_pulse", None, "csv"),
    (("t",), 1000, "simple_pulse", None, "csv"),
    (("z",), 8000, "quasi_spherical", "rational", "csv"),
    (("x", "y", "z"), 6859, "quasi_spherical", "lekner", "csv"),
    (("t", "z"), 14641, "simple_pulse", None, "binary"),
    (("rho",), 8500, "quasi_spherical", "lekner", "binary"),
    (("t", "rho", "z"), 6859, "quasi_spherical", "rational", "csv"),
    (("z",), 20000, "quasi_spherical", "rational", "csv"),
    (("t",), 7500, "quasi_spherical", "lekner", "csv"),
    (("x", "z"), 12100, "simple_pulse", None, "binary"),
    (("rho", "z"), 8100, "quasi_spherical", "lekner", "csv"),
    (("x",), 4000, "simple_pulse", None, "csv"),
    (("y",), 8000, "quasi_spherical", "rational", "csv"),
    (("z",), 8000, "simple_pulse", None, "csv"),
    (("x", "y"), 8100, "quasi_spherical", "lekner", "csv"),
    (("t", "x"), 8649, "simple_pulse", None, "csv"),
    (("x", "y", "z"), 10648, "simple_pulse", None, "binary"),
    (("t", "z"), 8100, "quasi_spherical", "rational", "csv"),
)
_GRID_JITTER = 0.02


def _axis(rng: random.Random, name: str, count: int, b: float, c: float) -> dict:
    if name == "t":
        lo, hi = -3.0 * b / c, 3.0 * b / c
    elif name == "rho":
        lo, hi = 0.0, 5.0 * b
    else:
        lo, hi = -5.0 * b, 5.0 * b
    span = hi - lo
    lo = _r(lo + rng.uniform(0.0, 0.1) * span)
    hi = _r(hi - rng.uniform(0.0, 0.1) * span)
    return {"name": name, "min": lo, "max": hi, "count": count}


def grid_snapshot(rng: random.Random, stratum: int) -> tuple[str, dict, dict]:
    axes, points, evaluator, kind, fmt = _GRID_STRATA[stratum]
    pulse = _pulse(rng, rng.uniform(0.8, 1.25))
    b, c = _b(pulse), pulse["c"]
    if evaluator == "simple_pulse":
        pulse["zeta"] = _r(rng.uniform(0.0, 0.5) * b)
    scale = rng.uniform(1.0 - _GRID_JITTER, 1.0 + _GRID_JITTER)
    per_axis = round((scale * points) ** (1.0 / len(axes)))
    cfg = {
        "pulse": pulse,
        "evaluator": evaluator,
        "grid": {"axes": [_axis(rng, a, per_axis, b, c) for a in axes], "fixed": {}},
        "format": fmt,
    }
    if kind is not None:
        cfg["waveform"] = _waveform(kind, _r(rng.uniform(0.5, 1.5) * b),
                                    _r(rng.uniform(0.0, 3.0)))
    for name in ("t", "rho", "z") if "rho" in axes else ("t", "x", "y", "z"):
        if name not in axes:
            scale = b / c if name == "t" else b
            lo = 0.0 if name == "rho" else -1.0
            cfg["grid"]["fixed"][name] = _r(rng.uniform(lo, 1.0) * scale)
    label = f"{'x'.join(axes)} {per_axis ** len(axes)} pts {evaluator} {fmt}"
    return label, cfg, {"evaluator": evaluator, "ext": "csv" if fmt == "csv" else "json"}


# --- route_crosscheck ------------------------------------------------------

# (waveform kind, a/b, K, tolerance, Monte Carlo samples or 0, points as
# (t/tau, rho/b, z/b) in the box |t|, |z| <= 1.5 b, rho <= 1.5 b); 3 of 11
# add MC.  A quadrature's cost depends on the point more than on anything
# else, so the points are chosen to make every stratum cost 0.3-0.45 s: a
# run holds three rounds, 33 jobs, whose median and tail (the 23rd job,
# p69.7) then both rest on most of the jobs.
_ROUTE_STRATA = (
    ("lekner", 0.9, 1.0, 1e-5, 0, ((0.5, 0.4, 0.3),)),
    ("rational", 1.2, 0.0, 1e-6, 0, ((-0.6, 1.2, -1.1),)),
    ("rational", 1.1, 0.0, 1e-7, 200_000, ((0.3, 0.6, -0.5),)),
    ("lekner", 1.0, 2.0, 1e-5, 0, ((0.8, 0.2, -1.0),)),
    ("lekner", 1.0, 2.5, 1e-6, 0, ((0.5, 0.4, 0.3),)),
    ("rational", 1.0, 0.0, 1e-6, 300_000, ((-1.0, 0.5, 0.2),)),
    ("lekner", 1.1, 3.0, 1e-5, 0, ((0.5, 0.4, 0.3),)),
    ("rational", 0.8, 0.0, 1e-5, 0, ((-1.4, 1.5, -0.2), (0.5, 0.4, 0.3))),
    ("lekner", 1.2, 0.5, 1e-5, 250_000, ((0.3, 0.6, -0.5),)),
    ("rational", 1.1, 0.0, 1e-7, 0, ((0.8, 0.2, -1.0),)),
    ("rational", 0.8, 0.0, 1e-5, 0, ((-1.4, 1.5, -0.2),)),
)
_POINT_MOVE = 0.02  # in units of b


def route_crosscheck(rng: random.Random, stratum: int) -> tuple[str, dict, dict]:
    kind, a_over_b, K, tol, mc, where = _ROUTE_STRATA[stratum]
    pulse = _pulse(rng, 1.0)
    b, c = _b(pulse), pulse["c"]
    points = []
    for t, rho, z in where:
        move = [rng.uniform(-_POINT_MOVE, _POINT_MOVE) for _ in range(3)]
        points.append({"t": _r((t + move[0]) * b / c), "rho": _r(abs(rho + move[1]) * b),
                       "z": _r((z + move[2]) * b)})
    cfg = {
        "pulse": pulse,
        "waveform": _waveform(kind, _near(rng, a_over_b * b), _near(rng, K)),
        "points": points,
        "tolerance": tol,
        # exit 4 only for a disagreement that would be a wrong result
        "max_discrepancy": 1000.0 * tol,
    }
    if mc:
        cfg["mc"] = {"n_samples": round(_near(rng, mc)), "seed": rng.randrange(1, 2**31),
                     "sigma": 5.0}
    label = f"{kind} K={K:g} tol={tol:g} {len(points)} pts" + (" +mc" if mc else "")
    return label, cfg, {}


# --- energy_budget ---------------------------------------------------------

# (waveform kind, K, b, tolerance, times in units of tau); a = b throughout.
# A run holds three rounds, 30 jobs.  The two rational strata at tol 1e-4
# (b = 1 and b = 2) cost one to two seconds and carry the estimator's
# known misses; the other eight form a bulk of 0.4-0.55 s solves that
# holds both the median and the tail (the 20th job, p66.7).  At the seed
# the rational strata at tol 1e-3 and b = 3 or t = 1.2 tau miss too, and
# the lekner strata (K=0.5, b=3, t=0.3) and (K=0.4, b=3, t=-0.9) exit 3.
_ENERGY_STRATA = (
    ("rational", 0.0, 1.0, 1e-4, (-0.45,)),
    ("rational", 0.0, 4.0, 1e-3, (-0.8,)),
    ("lekner", 0.5, 3.0, 1e-2, (0.3,)),
    ("rational", 0.0, 3.0, 1e-2, (0.6, -1.2)),
    ("lekner", 0.4, 3.0, 1e-2, (-0.9,)),
    ("rational", 0.0, 2.0, 1e-4, (0.0,)),
    ("rational", 0.0, 4.0, 1e-3, (1.2,)),
    ("rational", 0.0, 3.0, 1e-3, (0.9,)),
    ("lekner", 0.3, 2.5, 1e-2, (-1.1,)),
    ("rational", 0.0, 4.0, 1e-2, (1.9, -0.5)),
)
# The estimator's cost is the most erratic of all: b, K and the times move
# by only 0.1% (times by 0.002 tau), which still changes every input.
_ENERGY_JITTER = 0.001
_TIME_MOVE = 0.002  # in units of tau


def energy_budget(rng: random.Random, stratum: int) -> tuple[str, dict, dict]:
    kind, K, b, tol, times = _ENERGY_STRATA[stratum]
    pulse = _pulse(rng, b, _ENERGY_JITTER)
    b = _b(pulse)
    K = _near(rng, K, _ENERGY_JITTER)
    cfg = {
        "pulse": pulse,
        # a = b exactly: the reference energy has a closed form there
        "waveform": _waveform(kind, b, K),
        "t_values": [_r((t + rng.uniform(-_TIME_MOVE, _TIME_MOVE)) * pulse["tau"]) for t in times],
        "tolerance": tol,
    }
    label = f"{kind} K={K:g} b={b:.3g} tol={tol:g} {len(times)} time(s)"
    return label, cfg, {}


# --- certify_mix -------------------------------------------------------------

# Jobs of tens of milliseconds.  Their work is fixed by counts (directions,
# s values, points, grid sizes), so the shapes of the pulses are drawn freely.


def _free_waveform(rng: random.Random, b: float, k_max: float) -> tuple[str, str]:
    kind = rng.choice(("rational", "lekner"))
    return kind, _waveform(kind, _r(rng.uniform(0.8, 1.2) * b), _r(rng.uniform(0.0, k_max)))


def _backward_directions(rng: random.Random, n: int) -> list[dict]:
    return [{"chi": _r(rng.uniform(0.55, 1.0) * math.pi), "phi": _r(rng.uniform(0.0, 6.28))}
            for _ in range(n)]


def _certify_unidir_pass(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    """A rational pulse or a lekner pulse with K >= 0.8: both pass at the seed,
    with max|F| at least five times below the tolerance."""
    b = _b(pulse)
    kind = rng.choice(("rational", "lekner"))
    waveform = _waveform(kind, _r(rng.uniform(0.8, 1.2) * b), _r(rng.uniform(0.8, 2.0)))
    cfg = {
        "pulse": pulse,
        "waveform": waveform,
        "evaluator": "quasi_spherical",
        "s_values": sorted(_r(rng.uniform(-2.0, 2.0) * b) for _ in range(12)),
        "backward_directions": _backward_directions(rng, 12),
        "tolerance": 1e-6,
    }
    return f"unidir {kind} pass", cfg, {"expect_exit": 0}


def _certify_unidir_grazing(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    """A lekner pulse with small K, exactly unidirectional, checked along
    three backward directions just past chi = pi/2 among random ones.  At
    the seed the numeric far field there reads max|F| of 5e-6 or more
    against tol 1e-6, so the certificate wrongly fails (exit 4) every time."""
    b = _b(pulse)
    directions = [{"chi": _r(rng.uniform(0.505, 0.515) * math.pi), "phi": _r(rng.uniform(0.0, 6.28))}
                  for _ in range(3)]
    cfg = {
        "pulse": pulse,
        "waveform": _waveform("lekner", _r(rng.uniform(0.9, 1.1) * b), _r(rng.uniform(0.03, 0.06))),
        "evaluator": "quasi_spherical",
        "s_values": sorted(_r(rng.uniform(-2.0, 2.0) * b) for _ in range(12)),
        "backward_directions": directions + _backward_directions(rng, 9),
        "tolerance": 1e-6,
    }
    return "unidir lekner grazing", cfg, {"expect_exit": 0}


def _certify_unidir_fail(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    b = _b(pulse)
    cfg = {
        "pulse": pulse,
        "waveform": _waveform("rational", _r(rng.uniform(0.8, 1.2) * b)),
        "evaluator": "spherical_reference",
        "b_ref": _r(rng.uniform(0.5, 1.5) * b),
        "s_values": sorted(_r(rng.uniform(-2.0, 2.0) * b) for _ in range(12)),
        "backward_directions": _backward_directions(rng, 12),
        "tolerance": 1e-6,
    }
    return "unidir spherical counterexample", cfg, {"expect_exit": 4}


def _certify_farfield(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    b = _b(pulse)
    kind, waveform = _free_waveform(rng, b, 1.0)
    cfg = {
        "pulse": pulse,
        "waveform": waveform,
        "s_values": sorted(_r(rng.uniform(-1.5, 1.5) * b) for _ in range(10)),
        "directions": [{"chi": _r(rng.uniform(0.0, math.pi / 3))} for _ in range(8)],
    }
    return f"farfield {kind}", cfg, {}


def _certify_residual(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    """Whether a fitted order lands in the checked range depends on every
    parameter, the wave speed included: about one job in 2000 has a point
    where the h^2 term of the residual nearly cancels and the fit reads
    2.206.  So these jobs are drawn from the round index alone (see
    ``_SEED_FREE``): every run of a given length holds the same residual
    jobs, and the same failures, whatever the seed."""
    b = _b(pulse)
    kind, waveform = _free_waveform(rng, b, 1.5)
    cfg = {
        "pulse": pulse,
        "waveform": waveform,
        "evaluator": "quasi_spherical",
        "random_points": {"n": 40, "seed": rng.randrange(0, 2**31), "extent": _r(1.2 * b)},
    }
    return f"residual {kind}", cfg, {"ext": "csv"}


def _certify_spectrum(rng: random.Random, pulse: dict) -> tuple[str, dict, dict]:
    b, c = _b(pulse), pulse["c"]
    kind, waveform = _free_waveform(rng, b, 1.0 / b)
    cfg = {
        "pulse": pulse,
        "waveform": waveform,
        "kz": {"min": 0.0, "max": _r(3.0 / b), "count": 64},
        "omega": {"min": _r(0.5 * c / b), "max": _r(5.0 * c / b), "count": 20},
    }
    return f"spectrum {kind}", cfg, {"ext": "csv"}


_CERTIFY_STRATA = (
    ("unidir", _certify_unidir_pass),
    ("unidir", _certify_unidir_fail),
    ("farfield", _certify_farfield),
    ("residual", _certify_residual),
    ("spectrum", _certify_spectrum),
    ("unidir", _certify_unidir_grazing),
)


def certify_mix(rng: random.Random, stratum: int) -> tuple[str, dict, dict]:
    _, make = _CERTIFY_STRATA[stratum]
    return make(rng, _pulse(rng, rng.uniform(0.8, 1.25)))


WORKLOADS = {
    "grid_snapshot": ("sample", grid_snapshot, len(_GRID_STRATA)),
    "route_crosscheck": ("compare", route_crosscheck, len(_ROUTE_STRATA)),
    "energy_budget": ("energy", energy_budget, len(_ENERGY_STRATA)),
    "certify_mix": (None, certify_mix, len(_CERTIFY_STRATA)),
}


#: seconds of timed latency one round takes on the reference machine (see
#: README.md); they set how many rounds a run of ``--seconds`` holds
ROUND_SECONDS = {
    "grid_snapshot": 8.5,
    "route_crosscheck": 4.0,
    "energy_budget": 4.9,
    "certify_mix": 0.06,
}


def round_length(workload: str) -> int:
    return WORKLOADS[workload][2]


#: (workload, stratum) pairs whose jobs do not depend on the seed
_SEED_FREE = {("certify_mix", [make for _, make in _CERTIFY_STRATA].index(_certify_residual))}


def make_job(workload: str, seed: int, index: int) -> Job:
    """The ``index``-th job of a workload's stream; a pure function of its arguments."""
    command, make, n_strata = WORKLOADS[workload]
    rnd, stratum = divmod(index, n_strata)
    key = "any" if (workload, stratum) in _SEED_FREE else seed
    rng = random.Random(f"{workload}:{key}:{rnd}:{stratum}")
    label, cfg, extra = make(rng, stratum)
    if command is None:
        command = _CERTIFY_STRATA[stratum][0]
    return Job(index=index, seed=seed, command=command, config=cfg, label=label, **extra)


def jobs(workload: str, seed: int):
    """The endless job stream of a workload."""
    index = 0
    while True:
        yield make_job(workload, seed, index)
        index += 1


_WARMUP = {
    "sample": {"evaluator": "simple_pulse", "format": "csv",
               "grid": {"axes": [{"name": "t", "min": -1.0, "max": 1.0, "count": 20}]}},
    "compare": {"points": [{"t": 0.1, "rho": 0.2, "z": 0.3}], "tolerance": 1e-3},
    "energy": {"tolerance": 0.5},
    "unidir": {"evaluator": "quasi_spherical", "s_values": [0.0]},
    "farfield": {"s_values": [0.0], "directions": [{"chi": 0.0}]},
    "residual": {"random_points": {"n": 1, "seed": 1}},
    "spectrum": {"kz": {"min": 0.0, "max": 1.0, "count": 3},
                 "omega": {"min": 1.0, "max": 2.0, "count": 2}},
}


def warmup_jobs(workload: str) -> list[Job]:
    """One small job per command the workload uses, run before timing so
    lazy imports and first-call costs stay out of the measurement."""
    command = WORKLOADS[workload][0]
    commands = [command] if command else sorted({c for c, _ in _CERTIFY_STRATA})
    return [Job(index=-1, seed=0, command=c, config=_WARMUP[c],
                ext="csv" if c in ("sample", "residual", "spectrum") else "json")
            for c in commands]
