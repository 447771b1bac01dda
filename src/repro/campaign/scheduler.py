"""Campaign entry point: run a plan to completion through the lease worker.

:func:`run_campaign` drives a :class:`~repro.campaign.plan.CampaignPlan`
to completion against a :class:`~repro.campaign.store.ShardStore`. It has
no execution loop of its own: every shard runs through the lease worker
(:func:`repro.campaign.worker.run_worker`), so there is one
implementation of claiming, retries, heartbeats and publication.

* shards with a valid artifact are **skipped** (this is what makes an
  interrupted campaign resumable — re-running the same plan continues
  where it stopped);
* ``max_workers=None`` or ``1`` runs one worker in this process;
  ``max_workers=N`` first launches N lease workers
  (:func:`repro.campaign.distributed.launch_campaign`), then makes the
  same in-process pass, which takes over whatever a crashed worker left
  behind (its lease names a dead pid on this host);
* pending shards get per-shard **retry + exponential backoff**;
* a :class:`FaultInjector` can deterministically crash, delay, or
  corrupt shards and abort the campaign mid-run — the in-process test
  harness for all of the above.

Because shard seeds come from ``trial_generator(base_seed, k)``, every
retry and takeover produces bit-identical results, so a resumed
campaign's aggregate equals an uninterrupted run's byte-for-byte.

Since the in-process pass is an ordinary lease worker, ``run_campaign``
and any number of ``repro campaign worker`` processes can share one store
safely: shards another worker holds are left to it and absorbed once it
publishes them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.campaign.distributed import launch_campaign
from repro.campaign.lease import DEFAULT_LEASE_TTL_S
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.campaign.worker import run_worker
from repro.exceptions import CampaignAborted, ConfigurationError, ShardExecutionError
from repro.obs import ProgressCallback, get_recorder
from repro.obs.checkpoint import find_checkpointer

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "CampaignStatus",
    "CampaignReport",
    "campaign_status",
    "run_campaign",
]


class InjectedFault(RuntimeError):
    """A deliberate, test-injected shard failure (retried like any other)."""


@dataclass
class FaultInjector:
    """Deterministic fault injection for campaign tests and smoke jobs.

    * ``crash_shards`` maps a shard's plan index to how many attempts
      should fail with :class:`InjectedFault` before succeeding;
    * ``corrupt_shards`` lists plan indices whose artifacts are truncated
      after writing (resume must detect and re-run them);
    * ``delay_s`` sleeps before every attempt;
    * ``abort_after`` raises :class:`CampaignAborted` once that many
      shards have been executed this run (simulates a crash/Ctrl-C).

    The injector keeps its state in this process, so it only drives the
    in-process worker; :func:`run_campaign` rejects it together with
    ``max_workers > 1``.
    """

    crash_shards: Mapping[int, int] = field(default_factory=dict)
    corrupt_shards: Sequence[int] = ()
    delay_s: float = 0.0
    abort_after: Optional[int] = None
    _remaining: Dict[int, int] = field(init=False, default_factory=dict)
    _executed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._remaining = dict(self.crash_shards)

    def before_attempt(self, shard_index: int) -> None:
        """Called before every execution attempt; may raise or delay."""
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        if self._remaining.get(shard_index, 0) > 0:
            self._remaining[shard_index] -= 1
            raise InjectedFault(f"injected crash for shard {shard_index}")

    def corrupts(self, shard_index: int) -> bool:
        """True when this shard's artifact should be written corrupted."""
        return shard_index in set(self.corrupt_shards)

    def after_shard(self, shard_index: int) -> None:
        """Called after a shard executes; may abort the whole campaign."""
        self._executed += 1
        if self.abort_after is not None and self._executed >= self.abort_after:
            raise CampaignAborted(
                f"fault injector aborted after {self._executed} shards"
            )


@dataclass(frozen=True)
class CampaignStatus:
    """Done/pending/failed shard counts for one plan against one store."""

    done: int
    pending: int
    failed: int
    total_trials: int
    done_trials: int

    @property
    def total(self) -> int:
        return self.done + self.pending + self.failed

    @property
    def complete(self) -> bool:
        return self.pending == 0 and self.failed == 0


@dataclass(frozen=True)
class CampaignReport:
    """What one :func:`run_campaign` invocation actually did."""

    #: shards published by any worker of this invocation
    executed: int
    skipped: int
    #: retries made by the in-process worker
    retries: int
    failed_digests: Tuple[str, ...] = ()
    #: claim attempts of the in-process worker that lost to another
    #: worker's live lease (per scan, so one shard can count several times)
    conflicts: int = 0
    #: expired or dead-owner leases the in-process worker took over
    takeovers: int = 0


def campaign_status(plan: CampaignPlan, store: ShardStore) -> CampaignStatus:
    """Classify every shard of ``plan`` against ``store``."""
    done = pending = failed = done_trials = 0
    for shard in plan.shards:
        verdict = store.classify(shard)
        if verdict == "done":
            done += 1
            done_trials += shard.trial_count
        elif verdict == "failed":
            failed += 1
        else:
            pending += 1
    return CampaignStatus(
        done=done,
        pending=pending,
        failed=failed,
        total_trials=plan.total_trials,
        done_trials=done_trials,
    )


def run_campaign(
    plan: CampaignPlan,
    store: ShardStore,
    max_workers: Optional[int] = None,
    batch_trials: Optional[int] = None,
    retries: int = 2,
    backoff_s: float = 0.0,
    fault_injector: Optional[FaultInjector] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeats: bool = True,
    checkpoints: bool = False,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    worker_id: Optional[str] = None,
) -> CampaignReport:
    """Execute every pending shard of ``plan``; skip completed ones.

    ``max_workers=None`` or ``1`` runs one lease worker in this process
    (id ``worker_id``, default ``supervisor-<pid>``). ``max_workers=N``
    launches N worker processes first and then makes the same in-process
    pass: normally it only skips what the workers published, but it also
    takes over and runs any shard a crashed worker left behind.
    ``batch_trials`` routes each shard's trials through the batched
    engine (bit-identical results). A shard that keeps failing after
    ``retries`` extra attempts is recorded and the campaign continues;
    :class:`ShardExecutionError` is raised at the end if any shard
    permanently failed.

    ``heartbeats`` (default on) publishes one liveness record per shard
    into the store's ``heartbeats/`` subtree — running/retrying/done/
    failed, with timestamps and the worker id — which is what ``repro
    campaign watch`` and ``status --json`` read. Heartbeats are strictly
    observational: results are bit-identical with heartbeats on or off.

    ``checkpoints`` (or an active flight recorder in the caller) makes
    every executed shard run under its own
    :class:`~repro.obs.checkpoint.CheckpointRecorder`; the per-trial
    stage digests are stored in the artifact's ``digests`` manifest
    block, so ``repro diff`` and
    :func:`~repro.campaign.assemble.assemble_effectiveness_sweep` can
    verify provenance without re-running. Under a caller's flight
    recorder, the in-process pass replays the stored digests of every
    shard it skips, in plan order, so the caller's event sequence equals
    an uninterrupted serial run's under any worker count.

    ``lease_ttl_s`` tunes the lease protocol (see
    :mod:`repro.campaign.lease`); retry backoff is exponential with
    deterministic per-shard jitter
    (:func:`~repro.campaign.lease.backoff_delay`).

    Safe to call repeatedly with the same arguments: completed shards are
    skipped, so this is also the *resume* entry point.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if batch_trials is not None and batch_trials < 1:
        raise ConfigurationError(f"batch_trials must be >= 1, got {batch_trials}")
    launching = max_workers is not None and max_workers > 1
    if launching and fault_injector is not None:
        raise ConfigurationError(
            "a FaultInjector only drives the in-process worker;"
            " use it with max_workers=None or 1"
        )
    recorder = get_recorder()
    with recorder.span(
        "campaign.run",
        plan=plan.digest,
        num_shards=len(plan.shards),
        total_trials=plan.total_trials,
        workers=max_workers or 1,
    ) as campaign_span:
        launched = 0
        if launching:
            parent_checkpointer = find_checkpointer(recorder)
            done_before = campaign_status(plan, store).done
            launch_campaign(
                plan,
                store,
                num_workers=max_workers,
                batch_trials=batch_trials,
                retries=retries,
                backoff_s=backoff_s,
                lease_ttl_s=lease_ttl_s,
                heartbeats=heartbeats,
                # The workers mirror the caller's flight recorder, so the
                # digests they store are the ones a local run would record.
                checkpoints=(
                    parent_checkpointer.spec_for_workers()
                    if parent_checkpointer is not None
                    else checkpoints
                ),
                progress=progress,
            )
            launched = campaign_status(plan, store).done - done_before
        report = run_worker(
            plan,
            store,
            worker_id=worker_id or f"supervisor-{os.getpid()}",
            batch_trials=batch_trials,
            retries=retries,
            backoff_s=backoff_s,
            lease_ttl_s=lease_ttl_s,
            heartbeats=heartbeats,
            checkpoints=checkpoints,
            fault_injector=fault_injector,
            progress=progress,
        )
        executed = launched + report.executed
        skipped = report.skipped - launched
        campaign_span.annotate(
            executed=executed,
            skipped=skipped,
            retries=report.retries,
            failed=len(report.failed_digests),
            conflicts=report.conflicts,
            takeovers=report.takeovers,
        )
    if report.failed_digests:
        raise ShardExecutionError(
            f"{len(report.failed_digests)} shard(s) failed after {retries} retries: "
            + ", ".join(digest[:12] for digest in report.failed_digests)
        )
    return CampaignReport(
        executed=executed,
        skipped=skipped,
        retries=report.retries,
        failed_digests=report.failed_digests,
        conflicts=report.conflicts,
        takeovers=report.takeovers,
    )
