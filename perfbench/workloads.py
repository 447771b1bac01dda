"""The three benchmark workloads, driven through the package's public API.

Each workload is a closed batch job of a stated size. A run executes job
0, 1, 2, ... until its time is up; job ``j`` of run seed ``s`` draws its
inputs from :func:`job_seed` ``(s, j)``, so a seed fixes every input and
a run averages over several independent input sets.

``run`` performs the timed part of one job and returns its raw output;
``verify`` (untimed) reduces that output to a digest plus a list of
problems. ``independent_digest`` recomputes job 0's digest by another
route after the timed jobs, or returns ``None`` where the job checks
itself. A job whose problem list is non-empty, or whose digest disagrees
with that digest or with a recorded reference, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.campaign import (
    ShardStore,
    assemble_effectiveness_sweep,
    launch_campaign,
    plan_effectiveness_sweep,
    run_campaign,
    standard_scheme_specs,
)
from repro.cell import CellConfig, serve_cell
from repro.cell.scheduler import build_schedule
from repro.cell.shards import plan_cell
from repro.experiments.common import build_scenario
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.runner import standard_schemes
from repro.sim.scenario import Scenario
from repro.sim.sweep import effectiveness_sweep

#: Fig. 6 search-rate subset every sweep job covers.
RATES = (0.05, 0.10, 0.20, 0.30)
#: Proposed's measurements per TX-slot (the paper's setting).
MEASUREMENTS_PER_SLOT = 8


def job_seed(seed: int, index: int) -> int:
    """The program seed of job ``index`` in a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def losses_digest(losses: Dict[str, List[List[float]]]) -> str:
    """blake2b of the per-scheme, per-rate, per-trial loss series."""
    text = json.dumps(losses, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def loss_problems(losses: Dict[str, List[List[float]]], trials: int) -> List[str]:
    """Shape and range checks every sweep result must pass."""
    problems = []
    if list(losses) != ["Random", "Scan", "Proposed"]:
        problems.append(f"unexpected schemes {list(losses)}")
    for name, per_rate in losses.items():
        if len(per_rate) != len(RATES) or any(len(s) != trials for s in per_rate):
            problems.append(f"{name}: wrong loss grid shape")
        values = [v for series in per_rate for v in series]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append(f"{name}: loss outside [0, inf) dB")
    return problems


@dataclass
class JobOutput:
    """What one job produced, before verification."""

    payload: object
    #: extra wall-clock measurements (seconds) taken inside the job
    timings: Dict[str, float] = field(default_factory=dict)


class Fig6Sweep:
    """``effectiveness_sweep`` on the paper-scale multipath scenario."""

    name = "fig6-sweep"
    #: whose recorded digests this workload's jobs must match
    reference_set = name
    trials = 2
    #: work units (one trial at one rate) per job
    units = trials * len(RATES)
    #: jobs per pass of a traced run
    trace_jobs = 2

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.scenario = build_scenario(ChannelKind.MULTIPATH)
        self.schemes = standard_schemes(measurements_per_slot=MEASUREMENTS_PER_SLOT)

    def prepare(self, seed: int) -> None:
        """Set-up only: the shared scenario context."""
        self.scenario.context()

    def warmup(self, seed: int) -> None:
        """One single-rate trial fills the per-process scenario context."""
        effectiveness_sweep(self.scenario, self.schemes, RATES[:1], 1, base_seed=seed)

    def run(self, seed: int) -> JobOutput:
        sweep = effectiveness_sweep(
            self.scenario, self.schemes, RATES, self.trials, base_seed=seed
        )
        return JobOutput(payload=sweep.losses)

    def verify(self, output: JobOutput) -> Tuple[str, List[str]]:
        return losses_digest(output.payload), loss_problems(output.payload, self.trials)

    def independent_digest(self, seed: int) -> str:
        """Job 0 again, after the state every other job left behind."""
        return self.verify(self.run(seed))[0]


class CellServe:
    """``serve_cell`` cold into a fresh store, then resumed from it."""

    name = "cell-serve"
    reference_set = name
    users = 2000
    batch_users = 32
    units = users
    trace_jobs = 1

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def config(self, seed: int) -> CellConfig:
        return CellConfig(num_users=self.users, base_seed=seed)

    def prepare(self, seed: int) -> None:
        """Set-up only: config, shard plan, airtime schedule, store."""
        config = self.config(seed)
        Scenario(config.scenario).context()
        plan_cell(config)
        build_schedule(config)
        ShardStore(self.work_dir / "cell-store")

    def warmup(self, seed: int) -> None:
        """A small serve loads every lazily imported module once."""
        serve_cell(CellConfig(num_users=64, base_seed=seed), batch_users=self.batch_users)

    def run(self, seed: int) -> JobOutput:
        root = self.work_dir / f"cell-{seed}"
        config = self.config(seed)
        cold = serve_cell(
            config,
            store=ShardStore(root),
            batch_users=self.batch_users,
            openmetrics_path=root / "cell.prom",
            summary_path=root / "summary-cold.json",
        )
        resumed = serve_cell(
            config,
            store=ShardStore(root),
            batch_users=self.batch_users,
            openmetrics_path=root / "cell.prom",
            summary_path=root / "summary-resume.json",
        )
        return JobOutput(payload=(root, cold, resumed))

    def verify(self, output: JobOutput) -> Tuple[str, List[str]]:
        root, cold, resumed = output.payload
        cold_bytes = (root / "summary-cold.json").read_bytes()
        resumed_bytes = (root / "summary-resume.json").read_bytes()
        shutil.rmtree(root)
        problems = []
        if cold_bytes != resumed_bytes:
            problems.append("resumed summary differs from the cold summary")
        if cold.summary["num_ues"] != self.users:
            problems.append(f"served {cold.summary['num_ues']} of {self.users} UEs")
        if cold.cached_shards != 0:
            problems.append("cold serve found cached shards in a fresh store")
        if resumed.cached_shards != len(resumed.plan.shards):
            problems.append("resumed serve recomputed shards")
        return hashlib.blake2b(cold_bytes, digest_size=16).hexdigest(), problems

    def independent_digest(self, seed: int) -> None:
        """Every job already compares its resumed summary with its cold one."""
        return None


class Campaign2w:
    """The ``fig6-sweep`` job's plan run by two lease workers, resumed,
    then assembled; its losses must equal the in-process sweep's."""

    name = "campaign-2w"
    reference_set = Fig6Sweep.name
    trials = Fig6Sweep.trials
    workers = 2
    units = trials * len(RATES)
    trace_jobs = 1

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.specs = standard_scheme_specs(measurements_per_slot=MEASUREMENTS_PER_SLOT)

    def plan(self, seed: int):
        return plan_effectiveness_sweep(
            ScenarioConfig(channel=ChannelKind.MULTIPATH, snr_db=20.0),
            self.specs,
            RATES,
            self.trials,
            base_seed=seed,
            shard_trials=1,
        )

    def prepare(self, seed: int) -> None:
        """Set-up only: plan and store with its manifest."""
        ShardStore(self.work_dir / "campaign-store").save_manifest(self.plan(seed))

    def warmup(self, seed: int) -> None:
        # Nothing: the launcher forks its workers, and a scenario context
        # built here would be inherited and hide the workers' own set-up.
        return None

    def run(self, seed: int) -> JobOutput:
        root = self.work_dir / f"campaign-{seed}"
        plan = self.plan(seed)
        store = ShardStore(root)
        started = time.perf_counter()
        launch = launch_campaign(plan, store, num_workers=self.workers)
        launch_s = time.perf_counter() - started
        resume = run_campaign(plan, store)
        sweep = assemble_effectiveness_sweep(plan, store)
        return JobOutput(
            payload=(root, launch, resume, sweep.losses),
            timings={"launch_s": launch_s},
        )

    def verify(self, output: JobOutput) -> Tuple[str, List[str]]:
        root, launch, resume, losses = output.payload
        shutil.rmtree(root)
        problems = loss_problems(losses, self.trials)
        if not launch.complete or any(code != 0 for code in launch.exit_codes):
            problems.append(f"launch incomplete, worker exit codes {launch.exit_codes}")
        if resume.executed != 0 or resume.failed_digests:
            problems.append(f"resume executed {resume.executed} shards")
        return losses_digest(losses), problems

    def independent_digest(self, seed: int) -> str:
        """The same plan swept in process: ``fig6-sweep``'s job."""
        sweep = Fig6Sweep(self.work_dir)
        return sweep.verify(sweep.run(seed))[0]


WORKLOADS = {cls.name: cls for cls in (Fig6Sweep, CellServe, Campaign2w)}
