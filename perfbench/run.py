"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload fig6-sweep --seed 2016 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is measured):

* ``fig6-sweep``  -- ``effectiveness_sweep`` in process, serially, on the
  paper-scale multipath scenario; 2 trials x 4 rates per job.
* ``cell-serve``  -- ``serve_cell`` with 2000 UEs into a fresh store, then
  a second serve resumed from that store; one job per 2000 UEs.
* ``campaign-2w`` -- the ``fig6-sweep`` job as a campaign plan (8 one-trial
  shards) through ``launch_campaign`` with 2 lease workers, a ``run_campaign``
  resume, and ``assemble_effectiveness_sweep``.

A unit of work is one trial (one channel draw scored by Random, Scan and
Proposed at one rate) for the sweeps and one UE for the cell.

``--trace 0`` measures the end-to-end metrics with tracing off: jobs run
back to back while the next one still fits in ``--seconds``;
``units_per_s`` and ``cpu_ms_per_unit`` are totals over the passing jobs.
``setup_s`` is the median wall time of at least five fresh interpreters
doing only the set-up (``setup_probe.py``), spread over the window.

``--trace 1`` measures the per-layer metrics: it repeats a pass of a
fixed job list, untraced then traced, until ``--seconds`` have passed,
and reports medians over passes. Ratios whose base is empty on a
workload (e.g. solver convergence on ``cell-serve``, which never solves)
read 0.

Every job is checked: sweep losses and cell summaries must match the
digests recorded in ``references.json`` for the seed (when recorded),
job 0 must match an independent recomputation, a resumed cell summary
must equal its cold one byte for byte, and traced digests must equal
untraced ones. Units of a job that fails any check, or raises, count as
failed. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from source import ROOT, import_package
from tracer import SPAN_NAMES, Tracer, covered_seconds, install

# ``workloads`` imports the package, so it is imported inside the functions
# below, after ``import_package`` has put this checkout's ``src`` first.

HERE = Path(__file__).resolve().parent

#: Fewest fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 5

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("cpu_ms_per_unit", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Derived per-layer metrics; span calls and self times are added below.
LAYER_EXTRAS = (
    ("measurement.probe.pairs", "count", "lower"),
    ("measurement.interference_hits", "count", "lower"),
    ("estimator.solve.iterations", "count", "lower"),
    ("estimator.solve.converged_ratio", "ratio", "higher"),
    ("estimator.solve.warm_ratio", "ratio", "higher"),
    ("beam.gain_scan.cache_hit_ratio", "ratio", "higher"),
    ("campaign.lease.conflicts", "count", "lower"),
    ("campaign.lease.takeovers", "count", "lower"),
    ("campaign.worker.busy_ratio", "ratio", "higher"),
    ("unattributed_fraction", "ratio", "lower"),
    ("tracing.overhead_fraction", "ratio", "lower"),
    ("failed_fraction", "ratio", "lower"),
)


def layer_metrics():
    """``(name, unit, better)`` of every per-layer metric (``--trace 1``)."""
    spans = []
    for span in SPAN_NAMES:
        spans.append((f"{span}.calls", "count", "lower"))
        spans.append((f"{span}.self_s", "s", "lower"))
    return tuple(spans) + LAYER_EXTRAS


# -- measurement helpers ---------------------------------------------------


def _cpu_seconds() -> float:
    """CPU time of this process plus every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The larger of this process's and its children's max RSS, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def setup_sample(workload_name: str, seed: int, work_dir: Path) -> float:
    """Wall time of one fresh interpreter doing only the set-up."""
    store_dir = work_dir / "setup-store"
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed), str(store_dir)],
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    elapsed = time.perf_counter() - started
    shutil.rmtree(store_dir, ignore_errors=True)
    return elapsed


def _window_open(started: float, seconds: float, cycles: list) -> bool:
    """Whether another cycle of the mean length still fits the window."""
    if not cycles:
        return True
    return time.perf_counter() - started + statistics.mean(cycles) <= seconds


def run_job(workload, seed: int, index: int) -> dict:
    """One job, timed, then verified; never raises."""
    from workloads import job_seed

    output, digest, problems = None, None, []
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        output = workload.run(job_seed(seed, index))
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        problems.append(traceback.format_exc())
    end = time.perf_counter()
    cpu = _cpu_seconds() - cpu_before
    if output is not None:
        try:
            digest, problems = workload.verify(output)
        except Exception:  # noqa: BLE001 - as above
            problems.append(traceback.format_exc())
    return {
        "index": index,
        "units": workload.units,
        "start": started,
        "end": end,
        "wall": end - started,
        "cpu": cpu,
        "timings": output.timings if output is not None else {},
        "digest": digest,
        "problems": problems,
    }


def check_references(jobs, workload, seed: int, references: dict) -> None:
    """Add a problem to every job whose digest disagrees with a reference."""
    from workloads import job_seed

    recorded = references.get(workload.reference_set, {}).get(str(seed), [])
    for job in jobs:
        if job["index"] < len(recorded) and job["digest"] != recorded[job["index"]]:
            job["problems"].append(
                f"digest {job['digest']} != recorded {recorded[job['index']]}"
            )
    zero = [job for job in jobs if job["index"] == 0]
    if zero:
        try:
            expected = workload.independent_digest(job_seed(seed, 0))
        except Exception:  # noqa: BLE001 - counted against job 0
            expected = None
            zero[0]["problems"].append(traceback.format_exc())
        for job in zero:
            if expected is not None and job["digest"] != expected:
                job["problems"].append(
                    f"job 0 digest {job['digest']} != independent {expected}"
                )


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


# -- the two modes ---------------------------------------------------------


def measure_end_to_end(workload, seed: int, seconds: float, work_dir: Path):
    """``--trace 0``: jobs back to back for ``seconds``, untraced."""
    from workloads import job_seed

    workload.warmup(job_seed(seed, 0))
    # Set-up samples are spread evenly over the window, between jobs, so
    # that their median spans the same stretch of machine time as the jobs.
    setup, jobs, cycles = [], [], []
    started = time.perf_counter()
    while _window_open(started, seconds, cycles):
        cycle_start = time.perf_counter()
        if cycle_start - started >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample(workload.name, job_seed(seed, 0), work_dir))
        jobs.append(run_job(workload, seed, len(jobs)))
        cycles.append(time.perf_counter() - cycle_start)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload.name, job_seed(seed, 0), work_dir))
    check_references(jobs, workload, seed, load_references())
    # Totals, not per-job medians: under two workers' BLAS contention a
    # job's time is bimodal, and a median of a few jobs jumps between modes.
    done = [job for job in jobs if not job["problems"]] or jobs
    units = sum(job["units"] for job in done)
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": units / sum(job["wall"] for job in done),
        "cpu_ms_per_unit": 1000.0 * sum(job["cpu"] for job in done) / units,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return jobs, metrics


def measure_layers(workload, seed: int, seconds: float, work_dir: Path):
    """``--trace 1``: untraced then traced passes of a fixed job list."""
    from workloads import job_seed

    spool = work_dir / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    workload.warmup(job_seed(seed, 0))
    jobs, passes, cycles = [], [], []
    started = time.perf_counter()
    while _window_open(started, seconds, cycles):
        cycle_start = time.perf_counter()
        plain = [run_job(workload, seed, i) for i in range(workload.trace_jobs)]
        tracer.reset()
        uninstall = install(tracer)
        try:
            traced = []
            for index in range(workload.trace_jobs):
                job = run_job(workload, seed, index)
                tracer.collect_children()
                job["covered"] = covered_seconds(tracer.intervals, job["start"], job["end"])
                traced.append(job)
        finally:
            uninstall()
        for before, after in zip(plain, traced):
            if after["digest"] != before["digest"]:
                after["problems"].append(
                    f"traced digest {after['digest']} != untraced {before['digest']}"
                )
        jobs += plain + traced
        passes.append(_pass_metrics(tracer, plain, traced, workload))
        cycles.append(time.perf_counter() - cycle_start)
    check_references(jobs, workload, seed, load_references())
    attempted = sum(job["units"] for job in jobs)
    failed = sum(job["units"] for job in jobs if job["problems"])
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["failed_fraction"] = failed / attempted
    return jobs, metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pass_metrics(tracer, plain, traced, workload) -> dict:
    """Per-layer numbers of one traced pass."""
    spans, counters = tracer.spans, tracer.counters
    metrics = {}
    for span in SPAN_NAMES:
        calls, self_s, _ = spans.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
    for name in (
        "measurement.probe.pairs",
        "measurement.interference_hits",
        "estimator.solve.iterations",
        "campaign.lease.conflicts",
        "campaign.lease.takeovers",
    ):
        metrics[name] = counters.get(name, 0)
    solves = spans.get("estimator.solve", (0,))[0]
    metrics["estimator.solve.converged_ratio"] = _ratio(
        counters.get("estimator.solve.converged", 0), solves
    )
    metrics["estimator.solve.warm_ratio"] = _ratio(
        counters.get("estimator.solve.warm", 0), solves
    )
    hits = counters.get("beam.gain_scan.cache_hits", 0)
    metrics["beam.gain_scan.cache_hit_ratio"] = _ratio(
        hits, hits + counters.get("beam.gain_scan.cache_misses", 0)
    )
    launch_s = sum(job["timings"].get("launch_s", 0.0) for job in traced)
    shard_s = spans.get("campaign.shard", (0, 0.0, 0.0))[2]
    metrics["campaign.worker.busy_ratio"] = _ratio(
        shard_s, getattr(workload, "workers", 0) * launch_s
    )
    traced_wall = sum(job["wall"] for job in traced)
    metrics["unattributed_fraction"] = 1.0 - _ratio(
        sum(job["covered"] for job in traced), traced_wall
    )
    metrics["tracing.overhead_fraction"] = (
        _ratio(traced_wall, sum(job["wall"] for job in plain)) - 1.0
    )
    return metrics


# -- provenance ------------------------------------------------------------


def _blas_build(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(workload_name: str, seed: int) -> dict:
    """Where and on what the numbers were measured."""
    import numpy
    import scipy

    import repro
    from repro.xp import active_backend

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload_name,
        "seed": seed,
        "commit": commit,
        "source_digest": source.hexdigest(),
        "repro_version": repro.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "thread_env": {
            key: os.environ.get(key)
            for key in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
            )
        },
        "xp_backend": active_backend().name,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print("provenance:", json.dumps(provenance(args.workload, args.seed)), flush=True)

    work_dir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work_dir)
        measure = measure_layers if args.trace else measure_end_to_end
        jobs, values = measure(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    for job in jobs:
        print(
            f"job {job['index']}: {job['units']} units in {job['wall']:.4f} s"
            f" wall, {job['cpu']:.4f} s cpu, digest {job['digest']}"
        )
        for problem in job["problems"]:
            sys.stderr.write(f"job {job['index']} failed: {problem}\n")
    units = {name: unit for name, unit, _ in (layer_metrics() if args.trace else END_TO_END)}
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    attempted = sum(job["units"] for job in jobs)
    failed = sum(job["units"] for job in jobs if job["problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
