"""A seeded fuzz of ``compare``, ``energy`` and ``residual`` over the float range.

Each job runs ``cli.main`` in-process with RuntimeWarning as an error, on
a pulse and a waveform drawn by ``_pulse``: c and tau in 10^[-5, 5], a in
10^[-8, 12], K = 0 (40%) or in 10^[-8, 8].  ``fuzz_job`` adds points or
times and a tolerance: coordinates 0 (20%), +-10^[-3, 2] (40%) or
+-10^[2, 308] (40%), and a tolerance in 10^[-6, -3] for ``compare`` and
10^[-4, -2] for ``energy``.  Whatever it draws, a job keeps the exit-code
contract: 0, 3 or 4 (its configs are valid, so never 2, and never 1 on a
warning or a traceback), one stderr line (and the ``check failed`` line of
an exit 4), and no non-finite value in the output of an exit 0.

``residual_job`` draws an evaluator, 1-3 points (listed, or
``random_points`` of extent 10^[-300, 300]) with coordinates 0 (20%) or
+-10^[-300, 300], and the steps h, h/2, h/4 with h in 10^[-300, 300].  Its
configs are valid apart from their steps, so a job exits 0, 2 naming
``h_values``, or 3, on one stderr line, and an exit 0 writes no non-finite
cell but ``fitted_order``.
"""

import json
import math
import warnings

import numpy as np

from unipulse.cli import main

SEED = 44
JOBS = 23  # the first jobs of the seeded stream: about 7 s on 2 CPUs
RESIDUAL_SEED = 47
RESIDUAL_JOBS = 800  # about 1.1 s on 2 CPUs


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _coordinate(rng) -> float:
    kind = rng.random()
    if kind < 0.2:
        return 0.0
    magnitude = _log_uniform(rng, -3.0, 2.0) if kind < 0.6 else _log_uniform(rng, 2.0, 308.0)
    return magnitude if rng.random() < 0.5 else -magnitude


def _pulse(rng) -> dict:
    """The ``pulse`` and ``waveform`` blocks of one job."""
    a = _log_uniform(rng, -8.0, 12.0)
    K = 0.0 if rng.random() < 0.4 else _log_uniform(rng, -8.0, 8.0)
    return {"pulse": {"c": _log_uniform(rng, -5.0, 5.0), "tau": _log_uniform(rng, -5.0, 5.0)},
            "waveform": f"lekner(a={a!r},K={K!r})" if K else f"rational(a={a!r})"}


def fuzz_job(rng) -> tuple[str, dict]:
    """One (command, config) of the fuzz, drawn from ``rng``."""
    command = "compare" if rng.random() < 0.5 else "energy"
    cfg = _pulse(rng)
    n = int(rng.integers(1, 3))
    if command == "compare":
        cfg["points"] = [{"t": _coordinate(rng), "rho": abs(_coordinate(rng)), "z": _coordinate(rng)}
                         for _ in range(n)]
        cfg["tolerance"] = _log_uniform(rng, -6.0, -3.0)
    else:
        cfg["t_values"] = [_coordinate(rng) for _ in range(n)]
        cfg["tolerance"] = _log_uniform(rng, -4.0, -2.0)
    return command, cfg


def residual_job(rng) -> dict:
    """One ``residual`` config of the fuzz, drawn from ``rng``."""
    def wide() -> float:
        if rng.random() < 0.2:
            return 0.0
        return _log_uniform(rng, -300.0, 300.0) * (1.0 if rng.random() < 0.5 else -1.0)

    evaluator = ("simple_pulse", "quasi_spherical", "spherical_reference")[int(rng.integers(3))]
    cfg = {**_pulse(rng), "evaluator": evaluator}
    if evaluator == "simple_pulse":  # rational(a = b) of its own
        del cfg["waveform"]
    n = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        cfg["points"] = [{"t": wide(), "rho": abs(wide()), "z": wide()} for _ in range(n)]
    else:
        cfg["random_points"] = {"n": n, "seed": int(rng.integers(1000)),
                                "extent": _log_uniform(rng, -300.0, 300.0)}
    h = _log_uniform(rng, -300.0, 300.0)
    cfg["h_values"] = [h, h / 2, h / 4]
    return cfg


def run_job(tmp_path, command: str, cfg: dict, capsys) -> tuple[int, str, str | None]:
    """Exit code, stderr and the output's text (None if none was written)."""
    config, out = tmp_path / "fuzz.json", tmp_path / "fuzz.out"
    config.write_text(json.dumps(cfg))
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([command, "--config", str(config), "--out", str(out)])
    return rc, capsys.readouterr().err, out.read_text() if out.exists() else None


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, float):
        yield doc


def test_float_range_jobs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    for job in range(JOBS):
        command, cfg = fuzz_job(rng)
        rc, err, text = run_job(tmp_path, command, cfg, capsys)
        lines = err.splitlines()
        where = f"job {job}: {command} {json.dumps(cfg)}: exit {rc}: {err!r}"
        assert rc in (0, 3, 4), where
        if rc == 3:
            assert len(lines) == 1 and lines[0].startswith("numerical failure: "), where
        else:
            assert lines[0].startswith("wrote ") and len(lines) == (1 if rc == 0 else 2), where
        if rc == 0:
            assert all(math.isfinite(v) for v in _numbers(json.loads(text))), where


def test_float_range_residual_jobs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = np.random.default_rng(RESIDUAL_SEED)
    for job in range(RESIDUAL_JOBS):
        cfg = residual_job(rng)
        rc, err, text = run_job(tmp_path, "residual", cfg, capsys)
        where = f"job {job}: residual {json.dumps(cfg)}: exit {rc}: {err!r}"
        assert rc in (0, 2, 3) and err.count("\n") == 1, where
        assert err.startswith({0: "wrote ", 2: "config error: h_values: ",
                               3: "numerical failure: "}[rc]), where
        if rc == 0:
            lines = [line for line in text.splitlines() if not line.startswith("#")]
            names = lines[0].split(",")
            assert all(math.isfinite(float(cell)) for row in lines[1:]
                       for name, cell in zip(names, row.split(",")) if name != "fitted_order"), where
