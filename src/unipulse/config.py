"""JSON run configurations: loading, strict validation, defaults.

Every command reads a JSON document.  Validation is total: unknown keys
are rejected (no silent typo absorption) and every message names the
offending field path.  Physical constraints (c > 0, tau > 0, ...) are
enforced at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .farfield import MIN_COS_CHI, Direction
from .fields import AXIS_NAMES, AxisSpec, GridSpec, PulseParams, SpacetimePoint
from .synthesis import MC_MAX_SAMPLES, MC_MIN_SAMPLES
from .waveforms import Waveform, parse_waveform


class ConfigError(Exception):
    pass


#: the most nodes one array can hold; a larger count is a config error
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys all differ: a repeated key is an error,
    where ``json`` would silently keep its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # not UTF-8, an integer over 4300 digits, a duplicate key, nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"{path or 'config'}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def get_block(value, path: str, allowed: set[str]) -> dict:
    """``value`` as a config object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object with keys {', '.join(sorted(allowed))}")
    check_keys(value, allowed, path)
    return value


def _finite(v: int | float, where: str) -> float:
    """``v`` as a float, which must be finite: an integer literal beyond
    the float range is an error, not an OverflowError."""
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(f"{where}: must be finite, got an integer beyond +-1.8e308") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v}")
    return v


def get_number(obj: dict, key: str, path: str, default=None, *, gt=None, ge=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}{key}: required number is missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}{key}: expected a number, got {v!r}")
    v = _finite(v, f"{path}{key}")
    if gt is not None and not v > gt:
        raise ConfigError(f"{path}{key}: must be > {gt}, got {v}")
    if ge is not None and not v >= ge:
        raise ConfigError(f"{path}{key}: must be >= {ge}, got {v}")
    return v


def get_int(obj: dict, key: str, path: str, default=None, *, ge=None, le=None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}{key}: required integer is missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}{key}: expected an integer, got {v!r}")
    if ge is not None and v < ge:
        raise ConfigError(f"{path}{key}: must be >= {ge}, got {v}")
    if le is not None and v > le:
        raise ConfigError(f"{path}{key}: must be <= {le}, got {v}")
    return v


def get_string(obj: dict, key: str, path: str, default=None,
               choices: tuple[str, ...] | None = None) -> str:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}{key}: required string is missing")
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}{key}: expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}{key}: must be one of {list(choices)}, got {v!r}")
    return v


def get_number_list(obj: dict, key: str, default, max_abs: float = math.inf) -> list[float]:
    """``obj[key]``, a non-empty array of finite numbers of magnitude at
    most ``max_abs``, or ``default``."""
    if key not in obj:
        return list(default)
    v = obj[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key}: expected a non-empty array of numbers")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{key}[{i}]: expected a number, got {item!r}")
        out.append(_finite(item, f"{key}[{i}]"))
        if abs(out[-1]) > max_abs:
            raise ConfigError(f"{key}[{i}]: |value| must be at most {max_abs:g}, got {item!r}")
    return out


def get_ladder(obj: dict, key: str, default) -> list[float]:
    """A list of at least 3 distinct numbers > 0, in the order given."""
    v = get_number_list(obj, key, default)
    if len(v) < 3 or len(set(v)) < len(v) or min(v) <= 0.0:
        raise ConfigError(f"{key}: need at least 3 distinct numbers > 0, got {v}")
    return v


def get_seed(obj: dict, path: str, default: int, override: int | None) -> int:
    """The block's ``seed``, validated, unless the command line overrides it."""
    seed = get_int(obj, "seed", path, default, ge=0)
    return seed if override is None else override


@dataclass(frozen=True)
class PulseSetup:
    params: PulseParams
    waveform: Waveform | None
    waveform_desc: str


def parse_pulse_setup(cfg: dict) -> PulseSetup:
    """Shared ``pulse`` and ``waveform`` blocks with documented defaults.

    Defaults: c=1, tau=1, zeta=0 and waveform rational(a = b - zeta),
    the simplest regular family; ``simple_pulse`` is that pole at any zeta and reads no waveform.
    """
    block = get_block(cfg.get("pulse", {}), "pulse", {"c", "tau", "zeta"})
    try:
        params = PulseParams(
            c=get_number(block, "c", "pulse.", 1.0, gt=0.0),
            tau=get_number(block, "tau", "pulse.", 1.0, gt=0.0),
            zeta=get_number(block, "zeta", "pulse.", 0.0),
        )
    except ValueError as exc:  # b = c*tau outside the float range
        raise ConfigError(f"pulse: {exc}") from exc

    desc = cfg.get("waveform")
    if desc is None:
        a = params.b - params.zeta
        if a <= 0.0 and cfg.get("evaluator") == "simple_pulse":
            return PulseSetup(params, None, f"rational(a={a:.17g})")
        if a <= 0.0:
            raise ConfigError(
                "waveform: no default exists for zeta >= c*tau; set one explicitly"
            )
        desc = f"rational(a={a:.17g})"
    if not isinstance(desc, str):
        raise ConfigError(f"waveform: expected a descriptor string, got {desc!r}")
    try:
        w = parse_waveform(desc)
    except ValueError as exc:
        raise ConfigError(f"waveform: {exc}") from exc
    return PulseSetup(params, w, desc)


def parse_points(cfg: dict) -> SpacetimePoint:
    """``points``: an array of {t, rho, z} or {t, x, y, z} objects, as one
    SpacetimePoint whose coordinates are (n,) arrays."""
    raw = cfg.get("points")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("points: expected a non-empty array of point objects")
    rows = []
    for i, item in enumerate(raw):
        keys = ("t", "rho", "z") if isinstance(item, dict) and "rho" in item else ("t", "x", "y", "z")
        get_block(item, f"points[{i}]", set(keys))
        row = [get_number(item, k, f"points[{i}].", 0.0, ge=0.0 if k == "rho" else None) for k in keys]
        rows.append(row[:2] + [0.0] + row[2:] if len(row) == 3 else row)  # rho lies on x
    return SpacetimePoint(*np.array(rows).T)


def parse_random_points(cfg: dict, b: float, seed: int | None = None) -> SpacetimePoint:
    """``random_points``: n points drawn uniformly from the 4-cube of
    half-width ``extent``, as one SpacetimePoint whose coordinates are the
    columns of one (n, 4) draw; ``seed`` overrides the block's seed."""
    block = get_block(cfg.get("random_points", {}), "random_points", {"n", "seed", "extent"})
    n = get_int(block, "n", "random_points.", 20, ge=1, le=_MAX_COUNT)
    seed = get_seed(block, "random_points.", 7, seed)
    extent = get_number(block, "extent", "random_points.", 1.2 * b, gt=0.0)
    half = 0.5 if math.isinf(2.0 * extent) else 1.0  # an inf span: draw in the halved cube, doubled
    draws = np.random.default_rng(seed).uniform(-half * extent, half * extent, (n, 4))
    draws /= half
    return SpacetimePoint(*draws.T)


def parse_monte_carlo(cfg: dict, seed: int | None = None) -> tuple[int, int, float]:
    """The optional ``mc`` block as (n_samples, seed, sigma); 0 samples,
    the default, turns Monte Carlo off, and then the block may hold no
    ``seed`` or ``sigma``.  ``seed`` overrides the block's."""
    mc = cfg.get("mc")
    block = get_block({} if mc is None else mc, "mc", {"n_samples", "seed", "sigma"})
    n = get_int(block, "n_samples", "mc.", 0, ge=0, le=MC_MAX_SAMPLES)
    if 0 < n < MC_MIN_SAMPLES:
        raise ConfigError(f"mc.n_samples: need 0 (off) or at least {MC_MIN_SAMPLES}, got {n}")
    for key in ("seed", "sigma"):
        if n == 0 and key in block:
            raise ConfigError(f"mc.{key}: only read when mc.n_samples > 0")
    return n, get_seed(block, "mc.", 1, seed), get_number(block, "sigma", "mc.", 4.0, gt=0.0)


def parse_directions(cfg: dict, key: str, default, chi_gt: float | None = None):
    """Array of {chi, phi} objects, each chi > ``chi_gt`` when given and
    off the equator by |cos chi| >= MIN_COS_CHI."""
    raw = cfg.get(key)
    if raw is None:
        return list(default)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a non-empty array of direction objects")
    out = []
    for i, item in enumerate(raw):
        path = f"{key}[{i}]"
        get_block(item, path, {"chi", "phi"})
        try:
            out.append(Direction(get_number(item, "chi", f"{path}.", gt=chi_gt),
                                 get_number(item, "phi", f"{path}.", 0.0)))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if abs(math.cos(out[-1].chi)) < MIN_COS_CHI:
            raise ConfigError(f"{path}.chi: |cos chi| must be >= {MIN_COS_CHI:g}, or the "
                              f"far-field ladder passes ct = 1e10 max(b, |s|); got {out[-1].chi!r}")
    return out


def parse_range(cfg: dict, key: str, lo_default: float, hi_default: float,
                count_default: int, **min_bounds) -> np.ndarray:
    """{min, max, count} as ``count`` evenly spaced values; ``min_bounds``
    (gt, ge) constrain min, and with it every value."""
    block = get_block(cfg.get(key, {}), key, {"min", "max", "count"})
    lo = get_number(block, "min", f"{key}.", lo_default, **min_bounds)
    hi = get_number(block, "max", f"{key}.", hi_default)
    count = get_int(block, "count", f"{key}.", count_default, ge=1, le=_MAX_COUNT)
    if count > 1 and not hi > lo:
        raise ConfigError(f"{key}: max must exceed min for count > 1")
    return np.linspace(lo, hi, count)


def parse_grid(cfg: dict) -> GridSpec:
    block = get_block(cfg.get("grid"), "grid", {"axes", "fixed"})
    raw_axes = block.get("axes")
    if not isinstance(raw_axes, list) or not raw_axes:
        raise ConfigError("grid.axes: expected a non-empty array of axis objects")
    axes = []
    for i, item in enumerate(raw_axes):
        path = f"grid.axes[{i}]."
        get_block(item, f"grid.axes[{i}]", {"name", "min", "max", "count"})
        name = get_string(item, "name", path)
        count = get_int(item, "count", path, ge=1, le=_MAX_COUNT)
        lo = get_number(item, "min", path)
        hi = get_number(item, "max", path, lo)
        try:
            axes.append(AxisSpec(name, lo, hi, count))
        except ValueError as exc:
            raise ConfigError(f"grid.axes[{i}]: {exc}") from exc
    total = math.prod(a.count for a in axes)
    if total > _MAX_COUNT:
        raise ConfigError(f"grid.axes: {total} nodes in all, above the {_MAX_COUNT} one array can hold")
    fixed_raw = get_block(block.get("fixed", {}), "grid.fixed", set(AXIS_NAMES))
    fixed = {k: get_number(fixed_raw, k, "grid.fixed.") for k in fixed_raw}
    try:
        return GridSpec(tuple(axes), fixed)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
