"""Trace-file summarization: the engine behind ``repro trace summarize``.

Folds the records of one JSONL trace (see :mod:`repro.obs.trace`) into
per-span timing statistics, counter totals, and a convergence digest of
every solver span — then renders the lot as fixed-width tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.obs.metrics import timer_stats
from repro.obs.trace import read_trace_tolerant

__all__ = ["summarize_trace", "render_trace_summary", "summarize_trace_file"]

#: Span-name prefix that marks iterative-solver spans for the
#: convergence digest (their attrs carry ``iterations``/``converged``).
SOLVER_SPAN_PREFIX = "solver."

#: Span-name prefix of the campaign spans
#: (``campaign.run``, ``campaign.worker``, ``campaign.shard``).
CAMPAIGN_SPAN_PREFIX = "campaign."


def summarize_trace(records: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate parsed trace records into a summary dictionary.

    Returns ``{"spans", "counters", "gauges", "events", "solvers",
    "campaign", "checkpoints"}``; ``spans`` maps span name to
    :func:`~repro.obs.metrics.timer_stats` output, ``solvers`` maps
    solver span name to iteration/convergence statistics, and
    ``campaign`` digests the campaign spans/counters (shards executed,
    retries, attempts, lease activity).
    """
    durations: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    events: Dict[str, int] = {}
    solver_iterations: Dict[str, List[float]] = {}
    solver_converged: Dict[str, int] = {}
    solver_total: Dict[str, int] = {}
    shard_attempts: List[float] = []
    checkpoint_stages: Dict[str, int] = {}

    for record in records:
        kind = record.get("type")
        name = record.get("name", "")
        if kind == "checkpoint":
            stage = str(record.get("stage", "?"))
            checkpoint_stages[stage] = checkpoint_stages.get(stage, 0) + 1
        elif kind == "span":
            durations.setdefault(name, []).append(float(record.get("dur_s", 0.0)))
            if name.startswith(SOLVER_SPAN_PREFIX):
                attrs = record.get("attrs") or {}
                solver_total[name] = solver_total.get(name, 0) + 1
                if "iterations" in attrs:
                    solver_iterations.setdefault(name, []).append(float(attrs["iterations"]))
                if attrs.get("converged"):
                    solver_converged[name] = solver_converged.get(name, 0) + 1
            elif name == "campaign.shard":
                attrs = record.get("attrs") or {}
                if "attempts" in attrs:
                    shard_attempts.append(float(attrs["attempts"]))
        elif kind == "counter":
            counters[name] = counters.get(name, 0.0) + float(record.get("value", 0.0))
        elif kind == "gauge":
            gauges[name] = float(record.get("value", 0.0))
        elif kind == "event":
            events[name] = events.get(name, 0) + 1

    solvers: Dict[str, Dict[str, float]] = {}
    for name in sorted(solver_total):
        iterations = solver_iterations.get(name, [])
        solves = solver_total[name]
        solvers[name] = {
            "solves": solves,
            "mean_iterations": sum(iterations) / len(iterations) if iterations else 0.0,
            "max_iterations": max(iterations) if iterations else 0.0,
            "converged_fraction": solver_converged.get(name, 0) / solves if solves else 0.0,
        }

    campaign: Dict[str, float] = {}
    has_campaign = any(
        name.startswith(CAMPAIGN_SPAN_PREFIX) for name in durations
    ) or any(name.startswith(CAMPAIGN_SPAN_PREFIX) for name in counters)
    if has_campaign:
        shards = durations.get("campaign.shard", [])
        campaign = {
            "runs": len(durations.get("campaign.run", [])),
            "shards_executed": counters.get("campaign.shards_executed", 0.0),
            "shards_skipped": counters.get("campaign.shards_skipped", 0.0),
            "shards_failed": counters.get("campaign.shards_failed", 0.0),
            "retries": counters.get("campaign.retries", 0.0),
            "heartbeats": counters.get("campaign.heartbeats", 0.0),
            "workers": len(durations.get("campaign.worker", [])),
            "lease_conflicts": counters.get("campaign.lease_conflicts", 0.0),
            "lease_takeovers": counters.get("campaign.lease_takeovers", 0.0),
            "lease_discards": counters.get("campaign.lease_discards", 0.0),
            "mean_shard_s": sum(shards) / len(shards) if shards else 0.0,
            "mean_attempts": (
                sum(shard_attempts) / len(shard_attempts) if shard_attempts else 0.0
            ),
        }

    return {
        "spans": {name: timer_stats(samples) for name, samples in sorted(durations.items())},
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "events": dict(sorted(events.items())),
        "solvers": solvers,
        "campaign": campaign,
        "checkpoints": dict(sorted(checkpoint_stages.items())),
    }


def summarize_trace_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse then summarize one trace file.

    Parsing is tolerant: malformed lines (e.g. the truncated final line a
    killed run leaves behind) are skipped and surfaced in the summary as
    ``skipped_lines`` rather than raised.
    """
    records, skipped = read_trace_tolerant(path)
    summary = summarize_trace(records)
    summary["skipped_lines"] = skipped
    return summary


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:9.3f}s"
    return f"{seconds * 1e3:8.2f}ms"


def render_trace_summary(summary: Mapping[str, Any], title: str = "Trace summary") -> str:
    """Render a summary dictionary as fixed-width tables."""
    lines: List[str] = [title, "=" * len(title), ""]

    skipped = int(summary.get("skipped_lines", 0) or 0)
    if skipped:
        lines.append(f"warning: skipped {skipped} malformed trace line(s)")
        lines.append("")

    spans = summary.get("spans", {})
    if spans:
        lines.append(
            f"{'span':32s} {'count':>7s} {'total':>11s}"
            f" {'mean':>11s} {'p50':>11s} {'p95':>11s}"
        )
        for name, stats in spans.items():
            lines.append(
                f"{name[:32]:32s} {stats['count']:7d}"
                f" {_format_seconds(stats['total_s']):>11s}"
                f" {_format_seconds(stats['mean_s']):>11s}"
                f" {_format_seconds(stats['p50_s']):>11s}"
                f" {_format_seconds(stats['p95_s']):>11s}"
            )
        lines.append("")

    solvers = summary.get("solvers", {})
    if solvers:
        lines.append("solver convergence")
        lines.append(f"{'solver':32s} {'solves':>7s} {'mean it':>8s} {'max it':>7s} {'conv %':>7s}")
        for name, stats in solvers.items():
            lines.append(
                f"{name[:32]:32s} {stats['solves']:7d} {stats['mean_iterations']:8.1f}"
                f" {stats['max_iterations']:7.0f} {100 * stats['converged_fraction']:6.1f}%"
            )
        lines.append("")

    campaign = summary.get("campaign", {})
    if campaign:
        lines.append("campaign scheduler")
        lines.append(
            f"  runs {campaign.get('runs', 0):d}"
            f"  executed {campaign.get('shards_executed', 0):.0f}"
            f"  skipped {campaign.get('shards_skipped', 0):.0f}"
            f"  failed {campaign.get('shards_failed', 0):.0f}"
            f"  retries {campaign.get('retries', 0):.0f}"
        )
        lines.append(
            f"  mean shard {_format_seconds(campaign.get('mean_shard_s', 0.0)).strip()}"
            f"  mean attempts {campaign.get('mean_attempts', 0.0):.1f}"
            f"  heartbeats {campaign.get('heartbeats', 0.0):.0f}"
        )
        if (
            campaign.get("workers")
            or campaign.get("lease_conflicts")
            or campaign.get("lease_takeovers")
            or campaign.get("lease_discards")
        ):
            lines.append(
                f"  workers {campaign.get('workers', 0):d}"
                f"  lease conflicts {campaign.get('lease_conflicts', 0.0):.0f}"
                f"  takeovers {campaign.get('lease_takeovers', 0.0):.0f}"
                f"  discards {campaign.get('lease_discards', 0.0):.0f}"
            )
        lines.append("")

    checkpoints = summary.get("checkpoints", {})
    if checkpoints:
        lines.append("checkpoints")
        lines.append(f"{'stage':40s} {'events':>12s}")
        for stage, count in checkpoints.items():
            lines.append(f"{stage[:40]:40s} {count:>12d}")
        lines.append("")

    counters = summary.get("counters", {})
    if counters:
        lines.append("counters")
        for name, value in counters.items():
            rendered = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
            lines.append(f"  {name:40s} {rendered:>12s}")
        lines.append("")

    events = summary.get("events", {})
    if events:
        lines.append("events")
        for name, count in events.items():
            lines.append(f"  {name:40s} {count:>12d}")
        lines.append("")

    if len(lines) == 3:
        lines.append("(empty trace)")
    return "\n".join(lines).rstrip() + "\n"
