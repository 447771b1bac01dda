"""Reassemble campaign shards into the aggregates experiments expect.

Assembly is a pure concatenation: shards are planned rate-major in trial
order, each artifact stores per-trial losses as JSON floats (exact
round-trip under Python's shortest-repr float serialization), so the
reassembled :class:`~repro.sim.sweep.EffectivenessSweep` — and any JSON
saved from it — is byte-identical to one produced by an uninterrupted
in-memory sweep with the same seeds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.plan import CampaignPlan
from repro.campaign.scheduler import campaign_status
from repro.campaign.store import ShardStore
from repro.exceptions import CampaignError
from repro.sim.sweep import EffectivenessSweep

__all__ = ["assemble_effectiveness_sweep"]


def assemble_effectiveness_sweep(
    plan: CampaignPlan, store: ShardStore, verify_digests: bool = False
) -> EffectivenessSweep:
    """Build the sweep from stored shard results.

    Raises :class:`~repro.exceptions.CampaignError` when any shard is
    missing or corrupt — run (or resume) the campaign first.

    ``verify_digests`` additionally requires every shard artifact to
    carry a flight-recorder digest manifest (written by
    ``run_campaign(..., checkpoints=True)``) covering each of the shard's
    trials — provenance verification for results produced by remote
    workers, without re-running anything.
    """
    scheme_names = [spec.name for spec in plan.schemes()]
    losses: Dict[str, List[List[float]]] = {name: [] for name in scheme_names}
    for rate in plan.search_rates:
        per_rate: Dict[str, List[float]] = {name: [] for name in scheme_names}
        for shard in sorted(plan.shards_for_rate(rate), key=lambda s: s.trial_start):
            result = store.get(shard)
            if result is None:
                status = campaign_status(plan, store)
                raise CampaignError(
                    f"campaign incomplete: shard {shard.digest[:12]} "
                    f"(rate {rate}, trials {shard.trial_start}.."
                    f"{shard.trial_start + shard.trial_count - 1}) is "
                    f"{store.classify(shard)}; {status.done}/{status.total} "
                    "shards done — run or resume the campaign first"
                )
            if verify_digests:
                _verify_shard_digests(store, shard)
            for name in scheme_names:
                per_rate[name].extend(result[name])
        for name in scheme_names:
            losses[name].append(per_rate[name])
    return EffectivenessSweep(
        search_rates=[float(rate) for rate in plan.search_rates], losses=losses
    )


def _verify_shard_digests(store: ShardStore, shard) -> None:
    """Require a digest manifest covering every one of the shard's trials."""
    manifest = store.digest_manifest(shard)
    if manifest is None:
        raise CampaignError(
            f"shard {shard.digest[:12]} has no flight-recorder digest manifest;"
            " re-run the campaign with checkpoints enabled"
        )
    covered = {
        int(event["trial"])
        for event in manifest
        if isinstance(event, dict) and "trial" in event
    }
    expected = set(shard.trial_indices)
    missing = sorted(expected - covered)
    if missing:
        raise CampaignError(
            f"shard {shard.digest[:12]} digest manifest is missing trials"
            f" {missing[:8]}{'...' if len(missing) > 8 else ''}"
        )
