"""End-to-end and per-layer benchmark of the unipulse command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_snapshot --seed 1 --seconds 8 --trace 0

Workloads: grid_snapshot, route_crosscheck, energy_budget, certify_mix
(see workloads.py for what each one stresses and why).

The load is one closed-loop client in this process and thread: it runs
one ``unipulse`` job after another through ``unipulse.cli.main(argv)``,
each on a generated JSON config.  A run is a fixed number of whole
rounds (see workloads.py): as many as take ``--seconds`` of timed latency
on the reference machine, and at least MIN_JOBS jobs.  Only the call to
``main`` is timed;
writing configs, checking outputs against the independent references in
reference.py, and hashing them happen between jobs, outside the timed
regions.  After the loop, a seeded subset of jobs is re-run and must
reproduce byte-identical outputs, and the shipped ``configs/`` run
through ``python -m unipulse.cli`` in subprocesses, one after another,
a seeded pair of them twice (untimed, not gated on time).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
rounds of half of ``--seconds`` twice, untraced, then traced (see
tracing.py), and reports
per-layer metrics per job plus the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
"""

from __future__ import annotations

import os

# one BLAS thread; the benchmark never sets UNIPULSE_THREADS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "unipulse" / "cli.py").is_file():  # measure this checkout, never an installed copy
    sys.exit(f"perfbench: no unipulse sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from unipulse import cli  # noqa: E402  (fails outside a full checkout)

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "jobs/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("failed_ratio", "1"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 7
# the least job count for which the job with ten jobs beyond it lies
# above the median, so that latency_tail_s is a tail
MIN_JOBS = 22
RERUN_SHARE = 0.05
SUBPROCESS_TIMEOUT_S = 120.0
SHIPPED_RERUNS = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# --- host speed ------------------------------------------------------------------

_CALIBRATION_ARRAY = np.linspace(0.1, 1.0, 256)

#: seconds of one ``calibration_s()`` repetition on the reference machine,
#: about its median there (README.md); it sets the scale of reference seconds
REFERENCE_CALIBRATION_S = 0.001

#: the calibration around a job lasts about this share of a mean job
CALIBRATION_SHARE = 0.03


def calibration_reps(workload: str) -> int:
    """Repetitions of the calibration around each job of ``workload``: 1 for
    jobs of milliseconds, up to 16 (about 16 ms) for jobs of a second, so
    that it averages over more of the speed swings that a long job sees."""
    mean_job_s = workloads.ROUND_SECONDS[workload] / workloads.round_length(workload)
    return max(1, min(16, round(CALIBRATION_SHARE * mean_job_s / REFERENCE_CALIBRATION_S)))


def calibration_s(reps: int = 1) -> float:
    """Seconds per repetition this process takes for a fixed mix of scalar
    Python, small numpy calls and number formatting, the three kinds of work
    unipulse does.

    The machine is a share of a host whose speed swings by up to 1.7x within
    seconds and drifts by a quarter over minutes, and a fixed computation
    slows in step with the jobs.  Timing this one before every job and after
    the last gives the speed at each job, so that a time can be expressed in
    seconds of the reference machine (see ``to_reference``)."""
    for rep in range(reps + 1):  # the first, untimed, warms the caches
        if rep == 1:
            t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += math.sqrt(i + 1.0) * 0.5
        for i in range(60):
            acc += float(np.sum(np.exp(-_CALIBRATION_ARRAY * i)))
        ",".join(f"{x:.6e}" for x in _CALIBRATION_ARRAY[:200])
    return (time.perf_counter() - t0) / reps


def to_reference(seconds: float, calibration_before: float, calibration_after: float) -> float:
    """``seconds`` of wall time measured between two calibrations, expressed
    in seconds of the reference machine."""
    return seconds * 2.0 * REFERENCE_CALIBRATION_S / (calibration_before + calibration_after)


class SetupSampler:
    """Times of fresh interpreters importing unipulse.cli, in reference and
    in wall seconds.

    Samples are spread over the whole run, between jobs, so that their
    median averages over the machine's slow drifts instead of catching
    one moment.  ``wait()`` has no timeout: with one it polls in steps
    of up to 50 ms, which would quantize the times.
    """

    def __init__(self, count: int):
        self.count = count
        self.times: list[float] = []  # in reference seconds
        self.wall: list[float] = []
        self.sample()  # byte-compiles the package; dropped
        self.times.clear()
        self.wall.clear()

    def sample(self) -> None:
        env = child_env()
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # users import from cached bytecode
        before = calibration_s()
        t0 = time.perf_counter()
        code = subprocess.Popen([sys.executable, "-c", "import unipulse.cli"], env=env).wait()
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"importing unipulse.cli failed with exit code {code}")
        self.wall.append(wall)
        self.times.append(to_reference(wall, before, calibration_s()))

    def keep_pace(self, progress: float) -> None:
        """Take the samples due once ``progress`` (0..1) of the loop is done."""
        while len(self.times) < self.count and len(self.times) <= progress * self.count:
            self.sample()


# --- running jobs --------------------------------------------------------------


def _malloc_trim():
    with contextlib.suppress(OSError, AttributeError):
        return ctypes.CDLL(None).malloc_trim  # glibc
    return None


MALLOC_TRIM = _malloc_trim()


def release_heap() -> None:
    """Return the heap that the last job and its check freed to the system.

    Each job then starts from the same resident baseline, as in a fresh
    CLI process.  Without it the peak RSS of a large job depends on how
    the jobs before it fragmented the heap: 79 to 89 MB across seeds on
    grid_snapshot, against 78 to 79 MB with it.
    """
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class Runner:
    """Runs jobs, one at a time, in one work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def out_path(self, job) -> Path:
        return self.workdir / f"job.{job.ext}"

    def execute(self, job) -> tuple[float, int | None, str]:
        """Write the config, run the job and return (latency, exit code, stderr)."""
        cfg_path = self.workdir / "job_config.json"
        cfg_path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
        out = self.out_path(job)
        for stale in (out, Path(f"{out}.bin")):
            stale.unlink(missing_ok=True)
        argv = [job.command, "--config", str(cfg_path), "--out", str(out)]
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else None
            except Exception as exc:  # noqa: BLE001 - a crash is a job result
                code = None
                print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            latency = time.perf_counter() - t0
        return latency, code, captured.getvalue()

    def digest(self, job) -> str:
        out = self.out_path(job)
        digests = []
        for path in (out, Path(f"{out}.bin")):
            if path.exists():
                with open(path, "rb") as fh:  # in chunks: no copy of a large output
                    digests.append(hashlib.file_digest(fh, "sha256").hexdigest())
        return "/".join(digests)

    def run(self, job, tracer: Tracer | None = None) -> dict:
        release_heap()
        if tracer is not None:
            tracer.begin_job()
        latency, code, err = self.execute(job)
        if tracer is not None:
            tracer.end_job()
        problems = reference.check_job(job, str(self.out_path(job)), code)
        if problems and code not in (0, job.expect_exit):
            said = " | ".join(err.strip().splitlines())[-200:]
            problems = [(s, f"{r}; stderr: {said}") for s, r in problems]
        return {"job": job, "latency": latency, "exit": code, "problems": problems,
                "digest": self.digest(job), "traced": tracer is not None}


def planned_rounds(workload: str, seconds: float, min_jobs: int = MIN_JOBS) -> int:
    """Whole rounds in a run: as many as take ``seconds`` on the reference
    machine, and enough for ``min_jobs`` jobs.  The count depends on nothing
    measured, so every run of a workload makes the same number of jobs of
    the same shapes, whatever the seed and however fast the machine is."""
    per_round = workloads.round_length(workload)
    return max(1, round(seconds / workloads.ROUND_SECONDS[workload]), -(-min_jobs // per_round))


def run_calibrated(runner: Runner, jobs, reps: int, tracer: Tracer | None = None,
                   between=lambda done: None) -> list[dict]:
    """Run ``jobs`` back to back, with a calibration before each and after
    the last, which give each job's latency in reference seconds,
    ``ref_latency``, beside its wall time, ``latency``.  ``between(done)``
    runs before each calibration, outside the timed regions."""
    records, calibrations = [], []
    for done, job in enumerate(jobs):
        between(done)
        calibrations.append(calibration_s(reps))
        records.append(runner.run(job, tracer))
    calibrations.append(calibration_s(reps))
    for i, record in enumerate(records):
        record["ref_latency"] = to_reference(record["latency"], calibrations[i], calibrations[i + 1])
    return records


def closed_loop(runner: Runner, workload: str, seed: int, rounds: int,
                setup: SetupSampler) -> list[dict]:
    """Run the jobs of ``rounds`` whole rounds back to back, spreading the
    set-up samples over the run."""
    total = rounds * workloads.round_length(workload)
    jobs = itertools.islice(workloads.jobs(workload, seed), total)
    records = run_calibrated(runner, jobs, calibration_reps(workload),
                             between=lambda done: setup.keep_pace(done / total))
    setup.keep_pace(1.0)
    return records


def rerun_subset(runner: Runner, records: list[dict], seed: int) -> None:
    """Re-run a seeded subset of jobs; each must reproduce its output bytes."""
    rng = random.Random(f"rerun:{seed}")
    count = max(1, round(RERUN_SHARE * len(records)))
    for record in rng.sample(records, min(count, len(records))):
        again = runner.run(record["job"])
        if again["digest"] != record["digest"] or again["exit"] != record["exit"]:
            record["problems"].append(("hard", "rerun output not byte-identical"))


# --- shipped configs -------------------------------------------------------------


def run_shipped(workdir: Path, seed: int) -> tuple[list[str], dict]:
    """Every shipped config once via ``python -m unipulse.cli``, then a
    seeded pair of them again.  Each must exit 0 (4 for the
    counterexample) and the pair must rerun byte-identically.  Returns
    the problems and the seconds of each run."""
    configs = sorted((ROOT / "configs").glob("*.json"))
    if not configs:
        return ["no shipped configs found"], {}
    again = random.Random(f"shipped:{seed}").sample(configs, min(SHIPPED_RERUNS, len(configs)))
    results = {}  # (stem, copy) -> (exit code, seconds)
    for copy, batch in (("a", configs), ("b", again)):
        (workdir / f"shipped_{copy}").mkdir()
        for cfg in batch:
            out = workdir / f"shipped_{copy}" / f"{cfg.stem}.out"
            cmd = [sys.executable, "-m", "unipulse.cli", cfg.stem.split("_")[0],
                   "--config", str(cfg), "--out", str(out)]
            t0 = time.perf_counter()
            try:
                code = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL,
                                      timeout=SUBPROCESS_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                code = None
            results[(cfg.stem, copy)] = (code, time.perf_counter() - t0)

    problems, times = [], {}
    for cfg in configs:
        expect = 4 if cfg.stem == "unidir_counterexample" else 0
        runs = [results[(cfg.stem, c)] for c in "ab" if (cfg.stem, c) in results]
        times[cfg.stem] = [seconds for _, seconds in runs]
        codes = [code for code, _ in runs]
        if any(code != expect for code in codes):
            problems.append(f"shipped {cfg.stem}: exit codes {codes}, expected {expect}")
        elif len(runs) == 2:
            blobs = [[p.read_bytes() for p in sorted((workdir / f"shipped_{c}").glob(f"{cfg.stem}.out*"))]
                     for c in "ab"]
            if not blobs[0] or blobs[0] != blobs[1]:
                problems.append(f"shipped {cfg.stem}: rerun output not byte-identical")
    return problems, times


# --- metrics and report --------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, jobs beyond) at the highest percentile with
    ten jobs beyond it.  It needs MIN_JOBS jobs, so that the percentile
    lies above the median."""
    if len(latencies) < MIN_JOBS:
        raise ValueError(f"a tail needs {MIN_JOBS} jobs, got {len(latencies)}")
    s = sorted(latencies)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), 10


def provenance(workload: str, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "unipulse").rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_unipulse_lines": src_lines,
    }


def end_to_end(records: list[dict], setup_times: list[float], peak_rss_mb: float,
               key: str = "ref_latency") -> dict:
    """The end-to-end metrics, from times in reference seconds by default;
    ``key="latency"`` (with wall setup times) gives them in wall seconds."""
    latencies = [r[key] for r in records]
    failed = sum(1 for r in records if r["problems"])
    tail, _, _ = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(records) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "failed_ratio": failed / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def bench(args, workdir: Path) -> int:
    print(f"perfbench: {json.dumps(provenance(args.workload, args.seed))}")
    setup = SetupSampler(SETUP_RUNS)
    runner = Runner(workdir)
    for job in workloads.warmup_jobs(args.workload):
        runner.execute(job)

    if args.trace:  # per-layer metrics and the overhead need no tail
        rounds = planned_rounds(args.workload, args.seconds / 2, min_jobs=1)
    else:
        rounds = planned_rounds(args.workload, args.seconds)
    records = closed_loop(runner, args.workload, args.seed, rounds, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    tracer = Tracer()
    if args.trace:
        tracer.install()
        try:
            traced = run_calibrated(runner, [r["job"] for r in records],
                                    calibration_reps(args.workload), tracer)
        finally:
            tracer.uninstall()
        for plain, seen in zip(records, traced):
            if seen["digest"] != plain["digest"]:
                seen["problems"].append(("hard", "traced output differs from the untraced run"))

    # untimed from here
    rerun_subset(runner, records, args.seed)
    shipped_problems, shipped_times = run_shipped(workdir, args.seed)

    everything = records + traced
    failed = [r for r in everything if r["problems"]]
    correct = not shipped_problems and not any(
        severity == "hard" for r in failed for severity, _ in r["problems"])

    n = len(records)
    print(f"closed loop: 1 client, {rounds} rounds, {n} jobs, "
          f"{sum(r['latency'] for r in records):.3f} s timed")
    if not args.trace:  # a traced run's untraced half may hold too few jobs for a tail
        e2e = end_to_end(records, setup.times, peak_rss_mb)
        wall = end_to_end(records, setup.wall, peak_rss_mb, key="latency")
        _, pct, beyond = tail_latency([r["ref_latency"] for r in records])
        notes = {
            "latency_tail_s": f" (p{pct:.1f}, {beyond} of {n} jobs beyond it)",
            "failed_ratio": f" ({sum(1 for r in records if r['problems'])} of {n} jobs failed)",
            "setup_s": f" (median of {', '.join(f'{t:.4f}' for t in setup.times)})",
        }
        slowdown = statistics.median(r["latency"] / r["ref_latency"] for r in records)
        print(f"  times in reference seconds (see README.md), wall-clock values in brackets; "
              f"wall over reference time, median over jobs: {slowdown:.3f}")
        for name, m in e2e.items():
            same = name in ("failed_ratio", "peak_rss_mb")
            in_wall = "" if same else f" [{wall[name]['value']:.6g}]"
            print(f"  {name} = {m['value']:.6g} {m['unit']}{in_wall}{notes.get(name, '')}")
    print("shipped configs (s per run): " + ", ".join(
        f"{k} {'/'.join(f'{t:.3f}' for t in ts)}" for k, ts in shipped_times.items()))
    for r in failed:
        for severity, reason in r["problems"]:
            where = ", traced" if r["traced"] else ""
            print(f"FAILED ({severity}{where}) {r['job'].describe()}: {reason}")
    for problem in shipped_problems:
        print(f"FAILED (hard) {problem}")

    if args.trace:
        untraced_s = sum(r["ref_latency"] for r in records)
        traced_s = sum(r["ref_latency"] for r in traced)
        metrics = tracer.metrics(overhead=traced_s / untraced_s)
        print(f"trace: {tracer.jobs} jobs, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s "
              f"(reference seconds), "
              f"overhead x{traced_s / untraced_s:.3f} on throughput_ops_s")
        if tracer.missing:
            print(f"trace: skipped missing names: {', '.join(tracer.missing)}")
        for name, unit in PER_LAYER:
            print(f"  {name} = {metrics[name]['value']:.6g} {unit}")
    else:
        # failed_ratio is 0 on a healthy workload, so it is reported above and
        # through "failed"/"attempted" rather than as a bounded metric
        metrics = {name: e2e[name] for name in e2e if name != "failed_ratio"}

    print(json.dumps({"correct": correct, "attempted": len(everything),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
