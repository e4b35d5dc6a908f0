"""Per-layer tracing of unipulse from outside the package.

The tracer replaces each traced public function, in every ``unipulse``
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent) in flat arrays and updates counters at the same
boundary.  Spans stay in memory for one job; at the end of the job they
are reduced to per-layer totals and dropped, so a job with a million
kernel calls costs tens of megabytes, not a growing trace.  A layer's
self time is its span time minus the time of its child spans.

A traced name that no longer exists is reported in ``missing`` and
skipped; the benchmark keeps working when a later version of the
package renames or removes it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span label, module, attribute); "Class.method" patches the class
TARGETS = (
    ("fields.kernel", "unipulse.fields", "eval_simple_pulse"),
    ("fields.kernel", "unipulse.fields", "eval_quasi_spherical"),
    ("fields.kernel", "unipulse.fields", "eval_spherical_reference"),
    ("fields.sample_grid", "unipulse.fields", "sample_grid"),
    ("fields.write", "unipulse.fields", "FieldGrid.write_csv"),
    ("fields.write", "unipulse.fields", "FieldGrid.write_binary"),
    ("fields.energy_estimate", "unipulse.fields", "energy_estimate"),
    ("numerics.quad", "unipulse.numerics", "integrate_adaptive"),
    ("numerics.quad_semi_infinite", "unipulse.numerics", "integrate_semi_infinite"),
    ("numerics.bessel_j0", "unipulse.numerics", "bessel_j0"),
    ("numerics.extrapolate", "unipulse.numerics", "limit_extrapolate"),
    ("synthesis.hemisphere", "unipulse.synthesis", "reconstruct_hemisphere"),
    ("synthesis.fourier_bessel", "unipulse.synthesis", "reconstruct_fourier_bessel"),
    ("synthesis.from_weight", "unipulse.synthesis", "reconstruct_from_weight"),
    ("synthesis.mc", "unipulse.synthesis", "reconstruct_cartesian_mc"),
    ("farfield.numeric", "unipulse.farfield", "farfield_numeric"),
    ("farfield.certificate", "unipulse.farfield", "check_unidirectional"),
    ("pdecheck.residual", "unipulse.pdecheck", "wave_residual"),
    ("pdecheck.order", "unipulse.pdecheck", "convergence_order"),
    ("ioformats.render_json", "unipulse.ioformats", "render_json"),
    ("ioformats.write_text", "unipulse.ioformats", "write_text"),
    ("config.parse", "unipulse.config", "load_config"),
    ("config.parse", "unipulse.config", "parse_pulse_setup"),
    ("config.parse", "unipulse.config", "parse_points"),
    ("config.parse", "unipulse.config", "parse_grid"),
)
WAVEFORM_METHODS = ("eval", "deriv", "spectrum")
QUAD_LABELS = ("numerics.quad", "numerics.quad_semi_infinite")
ROUTES = ("hemisphere", "fourier_bessel", "from_weight")

# (metric, unit) in the order they are reported; every value is per job
# except the trace.* entries
PER_LAYER = (
    ("fields.kernel.calls", "calls/job"),
    ("fields.kernel.self_s", "s/job"),
    ("fields.sample_grid.calls", "calls/job"),
    ("fields.sample_grid.self_s", "s/job"),
    ("fields.write.self_s", "s/job"),
    ("fields.write.bytes", "B/job"),
    ("fields.energy_estimate.calls", "calls/job"),
    ("fields.energy_estimate.self_s", "s/job"),
    ("numerics.quad.calls", "calls/job"),
    ("numerics.quad.evals", "evals/job"),
    ("numerics.quad.self_s", "s/job"),
    ("numerics.quad.us_per_eval", "us/eval"),
    ("numerics.quad.failed", "calls/job"),
    ("numerics.bessel_j0.calls", "calls/job"),
    ("numerics.bessel_j0.self_s", "s/job"),
    ("numerics.extrapolate.calls", "calls/job"),
    ("numerics.extrapolate.unstable", "calls/job"),
    ("waveforms.eval.calls", "calls/job"),
    ("waveforms.deriv.calls", "calls/job"),
    ("waveforms.spectrum.calls", "calls/job"),
    ("waveforms.self_s", "s/job"),
    *(m for r in ROUTES for m in (
        (f"synthesis.{r}.s", "s/job"),
        (f"synthesis.{r}.evals", "evals/job"),
        (f"synthesis.{r}.us_per_eval", "us/eval"),
    )),
    ("synthesis.mc.s", "s/job"),
    ("synthesis.mc.samples", "samples/job"),
    ("farfield.numeric.calls", "calls/job"),
    ("farfield.numeric.self_s", "s/job"),
    ("farfield.certificate.s", "s/job"),
    ("farfield.certificate.margin", "1"),
    ("pdecheck.residual.calls", "calls/job"),
    ("pdecheck.residual.self_s", "s/job"),
    ("ioformats.render_json.s", "s/job"),
    ("ioformats.write_text.s", "s/job"),
    ("ioformats.bytes", "B/job"),
    ("config.parse.s", "s/job"),
    ("cli.self_s", "s/job"),
    ("trace.overhead", "1"),
    ("trace.spans", "spans/job"),
    ("trace.missing", "count"),
)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    """Spans and counters of the current job plus totals over all jobs."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.margins: list[float] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.jobs = 0
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.root = self._id("cli")

    def _id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def label_of(self, span: int) -> str:
        return self.labels[self.name[span]] if span >= 0 else ""

    # --- wrapping --------------------------------------------------------

    def wrap(self, label, fn, observe=None, reentrant=True):
        """``fn`` recording one span per call; non-reentrant wrappers pass
        recursive calls straight through."""
        lid = self._id(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if not reentrant and name[top] == lid:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(lid)
            parent.append(top)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, i, args, kwargs, None, exc)
                raise
            end[i] = clock()
            stack.pop()
            if observe is not None:
                observe(self, i, args, kwargs, result, None)
            return result

        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "unipulse" or modname.startswith("unipulse.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for label, modname, attr in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(f"{modname}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, method, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(label, original, OBSERVERS.get(label),
                                reentrant=label != "ioformats.render_json")
            if owner_name:
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        self._install_waveforms()

    def _install_waveforms(self) -> None:
        try:
            base = importlib.import_module("unipulse.waveforms").Waveform
        except (ImportError, AttributeError):
            self.missing.append("unipulse.waveforms.Waveform")
            return
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for method in WAVEFORM_METHODS:
                fn = cls.__dict__.get(method)
                if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                    self._patches.append((cls, method, fn))
                    setattr(cls, method, self.wrap(f"waveforms.{method}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- jobs --------------------------------------------------------------

    def begin_job(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1, 0]
        self.name.append(self.root)
        self.parent.append(-1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def end_job(self) -> None:
        self.end[0] = time.perf_counter()
        self.stack[:] = [-1]
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n_labels = len(self.labels)
        calls = np.bincount(name, minlength=n_labels)
        self_s = np.bincount(name, weights=dur - child, minlength=n_labels)
        incl_s = np.bincount(name, weights=dur, minlength=n_labels)
        for lid, label in enumerate(self.labels):
            self.totals[f"{label}#calls"] += float(calls[lid])
            self.totals[f"{label}#self"] += float(self_s[lid])
            self.totals[f"{label}#incl"] += float(incl_s[lid])
        quad_ids = [self.labels.index(q) for q in QUAD_LABELS if q in self.labels]
        is_quad = np.isin(name, quad_ids)
        outer = is_quad & ~(nested & is_quad[np.where(nested, parent, 0)])
        self.totals["numerics.quad#outer"] += float(dur[outer].sum())
        self.totals["trace#spans"] += float(len(dur))
        for key, value in self.counters.items():
            self.totals[key] += value
        self.counters.clear()
        self.jobs += 1

    # --- report ------------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        jobs = max(self.jobs, 1)
        tot = self.totals

        def per_job(key):
            return tot[key] / jobs

        def us_per(seconds_key, evals_key):
            return 1e6 * tot[seconds_key] / tot[evals_key] if tot[evals_key] else 0.0

        values = {
            "fields.kernel.calls": per_job("fields.kernel#calls"),
            "fields.kernel.self_s": per_job("fields.kernel#self"),
            "fields.sample_grid.calls": per_job("fields.sample_grid#calls"),
            "fields.sample_grid.self_s": per_job("fields.sample_grid#self"),
            "fields.write.self_s": per_job("fields.write#self"),
            "fields.write.bytes": per_job("fields.write.bytes"),
            "fields.energy_estimate.calls": per_job("fields.energy_estimate#calls"),
            "fields.energy_estimate.self_s": per_job("fields.energy_estimate#self"),
            "numerics.quad.calls": per_job("numerics.quad.calls"),
            "numerics.quad.evals": per_job("numerics.quad.evals"),
            "numerics.quad.self_s": sum(per_job(f"{q}#self") for q in QUAD_LABELS),
            "numerics.quad.us_per_eval": us_per("numerics.quad#outer", "numerics.quad.evals"),
            "numerics.quad.failed": per_job("numerics.quad.failed"),
            "numerics.bessel_j0.calls": per_job("numerics.bessel_j0#calls"),
            "numerics.bessel_j0.self_s": per_job("numerics.bessel_j0#self"),
            "numerics.extrapolate.calls": per_job("numerics.extrapolate#calls"),
            "numerics.extrapolate.unstable": per_job("numerics.extrapolate.unstable"),
            "waveforms.eval.calls": per_job("waveforms.eval#calls"),
            "waveforms.deriv.calls": per_job("waveforms.deriv#calls"),
            "waveforms.spectrum.calls": per_job("waveforms.spectrum#calls"),
            "waveforms.self_s": sum(per_job(f"waveforms.{m}#self") for m in WAVEFORM_METHODS),
            "synthesis.mc.s": per_job("synthesis.mc#incl"),
            "synthesis.mc.samples": per_job("synthesis.mc.samples"),
            "farfield.numeric.calls": per_job("farfield.numeric#calls"),
            "farfield.numeric.self_s": per_job("farfield.numeric#self"),
            "farfield.certificate.s": per_job("farfield.certificate#incl"),
            "farfield.certificate.margin": min(self.margins) if self.margins else 0.0,
            "pdecheck.residual.calls": per_job("pdecheck.residual#calls"),
            "pdecheck.residual.self_s": per_job("pdecheck.residual#self")
            + per_job("pdecheck.order#self"),
            "ioformats.render_json.s": per_job("ioformats.render_json#incl"),
            "ioformats.write_text.s": per_job("ioformats.write_text#incl"),
            "ioformats.bytes": per_job("ioformats.bytes"),
            "config.parse.s": per_job("config.parse#incl"),
            "cli.self_s": per_job("cli#self"),
            "trace.overhead": overhead,
            "trace.spans": per_job("trace#spans"),
            "trace.missing": float(len(self.missing)),
        }
        for r in ROUTES:
            values[f"synthesis.{r}.s"] = per_job(f"synthesis.{r}#incl")
            values[f"synthesis.{r}.evals"] = per_job(f"synthesis.{r}.evals")
            values[f"synthesis.{r}.us_per_eval"] = us_per(f"synthesis.{r}#incl",
                                                          f"synthesis.{r}.evals")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# --- observers: counters read at the span boundary ----------------------------


def _evaluations(result, exc) -> int:
    if result is None:
        result = getattr(exc, "result", None)
    return int(getattr(result, "evaluations", 0) or 0)


def _observe_quad(tracer, i, args, kwargs, result, exc):
    # integrate_semi_infinite may delegate to integrate_adaptive: count it once
    if tracer.label_of(tracer.parent[i]) == "numerics.quad_semi_infinite":
        return
    c = tracer.counters
    c["numerics.quad.calls"] += 1
    c["numerics.quad.evals"] += _evaluations(result, exc)
    if exc is not None:
        c["numerics.quad.failed"] += 1


def _observe_route(label):
    def observe(tracer, i, args, kwargs, result, exc):
        tracer.counters[f"{label}.evals"] += _evaluations(result, exc)
    return observe


def _observe_mc(tracer, i, args, kwargs, result, exc):
    tracer.counters["synthesis.mc.samples"] += getattr(result, "n_samples", 0)


def _observe_extrapolate(tracer, i, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "ExtrapolationUnstable":
        tracer.counters["numerics.extrapolate.unstable"] += 1


def _observe_certificate(tracer, i, args, kwargs, result, exc):
    if getattr(result, "passed", False) and getattr(result, "max_abs", 0.0) > 0.0:
        tracer.margins.append(result.tol / result.max_abs)


def _path_arg(args, kwargs, position: int) -> str | None:
    """The output path passed positionally, as the CLI does; None otherwise."""
    return os.fspath(args[position]) if len(args) > position else None


def _observe_write(tracer, i, args, kwargs, result, exc):
    path = _path_arg(args, kwargs, 1)  # (self, path)
    if path is not None:
        tracer.counters["fields.write.bytes"] += _file_bytes(path, path + ".bin")


def _observe_write_text(tracer, i, args, kwargs, result, exc):
    path = _path_arg(args, kwargs, 0)  # (path, text)
    if path is not None:
        tracer.counters["ioformats.bytes"] += _file_bytes(path)


OBSERVERS = {
    "numerics.quad": _observe_quad,
    "numerics.quad_semi_infinite": _observe_quad,
    "synthesis.mc": _observe_mc,
    "numerics.extrapolate": _observe_extrapolate,
    "farfield.certificate": _observe_certificate,
    "fields.write": _observe_write,
    "ioformats.write_text": _observe_write_text,
    **{f"synthesis.{r}": _observe_route(f"synthesis.{r}") for r in ROUTES},
}
