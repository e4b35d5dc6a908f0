"""A seeded fuzz of ``compare`` and ``energy`` over the float range.

Each job runs ``cli.main`` in-process with RuntimeWarning as an error, on
a pulse, a waveform, points or times and a tolerance drawn by ``fuzz_job``:
c and tau in 10^[-5, 5], a in 10^[-8, 12], K = 0 (40%) or in 10^[-8, 8],
coordinates 0 (20%), +-10^[-3, 2] (40%) or +-10^[2, 308] (40%), and a
tolerance in 10^[-6, -3] for ``compare`` and 10^[-4, -2] for ``energy``.
Whatever it draws, a job keeps the exit-code contract: 0, 3 or 4 (its
configs are valid, so never 2, and never 1 on a warning or a traceback),
one stderr line (and the ``check failed`` line of an exit 4), and no
non-finite value in the output of an exit 0.
"""

import json
import math
import warnings

import numpy as np

from unipulse.cli import main

SEED = 44
JOBS = 23  # the first jobs of the seeded stream: about 7 s on 2 CPUs


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _coordinate(rng) -> float:
    kind = rng.random()
    if kind < 0.2:
        return 0.0
    magnitude = _log_uniform(rng, -3.0, 2.0) if kind < 0.6 else _log_uniform(rng, 2.0, 308.0)
    return magnitude if rng.random() < 0.5 else -magnitude


def fuzz_job(rng) -> tuple[str, dict]:
    """One (command, config) of the fuzz, drawn from ``rng``."""
    command = "compare" if rng.random() < 0.5 else "energy"
    a = _log_uniform(rng, -8.0, 12.0)
    K = 0.0 if rng.random() < 0.4 else _log_uniform(rng, -8.0, 8.0)
    cfg = {"pulse": {"c": _log_uniform(rng, -5.0, 5.0), "tau": _log_uniform(rng, -5.0, 5.0)},
           "waveform": f"lekner(a={a!r},K={K!r})" if K else f"rational(a={a!r})"}
    n = int(rng.integers(1, 3))
    if command == "compare":
        cfg["points"] = [{"t": _coordinate(rng), "rho": abs(_coordinate(rng)), "z": _coordinate(rng)}
                         for _ in range(n)]
        cfg["tolerance"] = _log_uniform(rng, -6.0, -3.0)
    else:
        cfg["t_values"] = [_coordinate(rng) for _ in range(n)]
        cfg["tolerance"] = _log_uniform(rng, -4.0, -2.0)
    return command, cfg


def run_job(tmp_path, command: str, cfg: dict, capsys) -> tuple[int, str, object]:
    """Exit code, stderr and the loaded output (None if none was written)."""
    config, out = tmp_path / "fuzz.json", tmp_path / "fuzz.out"
    config.write_text(json.dumps(cfg))
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([command, "--config", str(config), "--out", str(out)])
    return rc, capsys.readouterr().err, json.loads(out.read_text()) if out.exists() else None


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
        rc, err, doc = run_job(tmp_path, command, cfg, capsys)
        lines = err.splitlines()
        where = f"job {job}: {command} {json.dumps(cfg)}: exit {rc}: {err!r}"
        assert rc in (0, 3, 4), where
        if rc == 3:
            assert len(lines) == 1 and lines[0].startswith("numerical failure: "), where
        else:
            assert lines[0].startswith("wrote ") and len(lines) == (1 if rc == 0 else 2), where
        if rc == 0:
            assert all(math.isfinite(v) for v in _numbers(doc)), where
