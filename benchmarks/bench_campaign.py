"""Benchmark: distributed campaign throughput vs worker count.

One fixed effectiveness-sweep plan is executed to completion through the
lease-based multi-worker path (``launch_campaign``) at 1, 2, and 4
workers, each against a fresh store, plus in-process ``run_campaign``
(one lease worker, no launcher) as the baseline. The printed metric is shards/second; the
emitted ``BENCH_campaign-workers-<N>.json`` labels carry the wall-clock
stats, so the worker count is encoded in the label and the trajectory
artifact tracks scaling across PRs.

Speedup assertions are gated on the machine actually having the cores:
on a single-core runner 4 workers time-slice one CPU and honestly show
no speedup, which is a property of the runner, not a regression.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import BENCH_METRICS, run_once
from repro.campaign import (
    ShardStore,
    assemble_effectiveness_sweep,
    launch_campaign,
    plan_effectiveness_sweep,
    run_campaign,
    standard_scheme_specs,
)
from repro.sim.config import ChannelKind, ScenarioConfig

WORKER_COUNTS = (1, 2, 4)
RATES = (0.1, 0.25, 0.4)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bench_plan(bench_trials: int, bench_seed: int):
    config = ScenarioConfig(channel=ChannelKind.MULTIPATH, snr_db=20.0)
    return plan_effectiveness_sweep(
        config,
        standard_scheme_specs(measurements_per_slot=8),
        RATES,
        bench_trials,
        base_seed=bench_seed,
        shard_trials=max(1, bench_trials // 4),
    )


def test_campaign_worker_scaling(benchmark, bench_trials, bench_seed, tmp_path):
    plan = _bench_plan(bench_trials, bench_seed)
    cores = _cpu_count()
    stores = {
        count: ShardStore(tmp_path / f"workers-{count}") for count in WORKER_COUNTS
    }

    def run_at(count: int):
        report = launch_campaign(
            plan, stores[count], num_workers=count, poll_s=0.05
        )
        assert report.complete
        return report

    # Timed labels: one per worker count, worker count in the label.
    for count in WORKER_COUNTS[:-1]:
        with BENCH_METRICS.timer(f"campaign-workers-{count}"):
            run_at(count)
    run_once(
        benchmark,
        run_at,
        WORKER_COUNTS[-1],
        bench_label=f"campaign-workers-{WORKER_COUNTS[-1]}",
    )

    elapsed = {
        count: BENCH_METRICS.timers[f"campaign-workers-{count}"][-1]
        for count in WORKER_COUNTS
    }
    shards = len(plan.shards)
    print()
    print(f"campaign scaling: {shards} shards, {plan.total_trials} trials, {cores} cores")
    for count in WORKER_COUNTS:
        rate = shards / elapsed[count]
        speedup = elapsed[1] / elapsed[count]
        print(
            f"  workers={count}: {elapsed[count]:6.2f}s"
            f"  {rate:5.2f} shards/s  speedup x{speedup:.2f}"
        )

    # Every worker count produced the identical campaign.
    baseline = assemble_effectiveness_sweep(plan, stores[WORKER_COUNTS[0]])
    for count in WORKER_COUNTS[1:]:
        assert (
            assemble_effectiveness_sweep(plan, stores[count]).losses
            == baseline.losses
        )

    if cores >= 4:
        # With the cores to back it, 4 lease-based workers must at least
        # double single-worker throughput on an embarrassingly parallel
        # shard plan.
        assert elapsed[4] * 2.0 <= elapsed[1], (
            f"4 workers only {elapsed[1] / elapsed[4]:.2f}x faster on {cores} cores"
        )
    else:
        pytest.xfail(f"speedup assertion needs >= 4 cores (have {cores})")


def test_campaign_supervisor_baseline(benchmark, bench_trials, bench_seed, tmp_path):
    """In-process ``run_campaign`` (no launcher), for the trajectory."""
    plan = _bench_plan(bench_trials, bench_seed)
    store = ShardStore(tmp_path / "supervisor")
    report = run_once(
        benchmark,
        run_campaign,
        plan,
        store,
        bench_label="campaign-supervisor",
    )
    assert report.executed == len(plan.shards)
    elapsed = BENCH_METRICS.timers["campaign-supervisor"][-1]
    print()
    print(
        f"supervisor baseline: {len(plan.shards)} shards in {elapsed:.2f}s"
        f" ({len(plan.shards) / elapsed:.2f} shards/s)"
    )
