"""In-memory span tracer that wraps the package's public layer functions.

Tracing is opt-in: nothing here touches the program until
:func:`install` is called, and :func:`install` returns an undo callable
that restores every original attribute. The wrappers only observe — they
time each call and read public counters before and after it — so seeded
outputs are identical with tracing on or off (the benchmark checks this).

Spans use the flight-recorder stage vocabulary. A span's *self* time is
its duration minus the time covered by spans nested inside it. Top-level
intervals are kept so the benchmark can compute the share of wall time
outside every span.

Worker processes forked while the tracer is installed inherit the
wrappers; each child starts with empty tallies and writes them to the
spool directory when it exits, and :meth:`Tracer.collect_children`
merges them back.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Every span name the tracer can record, in report order.
SPAN_NAMES = (
    "channel.draw",
    "channel.gain_table",
    "measurement.probe",
    "estimator.solve",
    "beam.gain_scan",
    "trial.metrics",
    "cell.schedule",
    "cell.summary",
    "obs.openmetrics",
    "campaign.store.put",
    "campaign.store.get",
    "campaign.shard",
)


class Tracer:
    """Per-process span and counter tallies."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.reset()
        multiprocessing.util.register_after_fork(self, Tracer._start_child)

    def reset(self) -> None:
        """Drop every tally (spans, counters, intervals)."""
        #: name -> [calls, self seconds, total seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        #: (start, end) perf_counter pairs of outermost spans
        self.intervals: List[Tuple[float, float]] = []
        self._stack: List[float] = []

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def wrap(
        self,
        name: Optional[str],
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name`` (``None``: hooks only).

        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(tracer, state, args, kwargs, result)``,
        which reads the counters the call moved.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                frames = self._stack
                frames.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._close(name, frames, start, end)
            if after is not None:
                after(self, state, args, kwargs, result)
            return result

        return traced

    def _close(self, name: str, frames: List[float], start: float, end: float) -> None:
        duration = end - start
        nested = frames.pop()
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration - nested
        record[2] += duration
        if frames:
            frames[-1] += duration
        else:
            self.intervals.append((start, end))

    # -- worker processes ---------------------------------------------

    def _start_child(self) -> None:
        self.reset()
        multiprocessing.util.Finalize(None, self._write_child, exitpriority=100)

    def _write_child(self) -> None:
        payload = {
            "spans": self.spans,
            "counters": self.counters,
            "intervals": self.intervals,
        }
        target = self.spool / f"child-{os.getpid()}.json"
        partial = target.with_suffix(".tmp")
        partial.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(partial, target)

    def collect_children(self) -> None:
        """Merge every tally a finished child wrote, and delete it."""
        for path in sorted(self.spool.glob("child-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for name, (calls, self_s, total_s) in payload["spans"].items():
                record = self.spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += self_s
                record[2] += total_s
            for name, value in payload["counters"].items():
                self.count(name, value)
            self.intervals.extend(tuple(pair) for pair in payload["intervals"])


def covered_seconds(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


# -- what gets wrapped ---------------------------------------------------


def _probe_before(args, kwargs):
    context = args[0]
    return context.engine.interference_hits


def _probe_after(pairs_of):
    def after(tracer, hits_before, args, kwargs, result):
        tracer.count("measurement.probe.pairs", pairs_of(args, kwargs))
        tracer.count(
            "measurement.interference_hits",
            args[0].engine.interference_hits - hits_before,
        )

    return after


def _solve_before(args, kwargs):
    return args[0].warm_start is not None


def _solve_after(tracer, warm, args, kwargs, result):
    solved = args[0].last_result
    tracer.count("estimator.solve.iterations", solved.iterations)
    tracer.count("estimator.solve.converged", int(solved.converged))
    tracer.count("estimator.solve.warm", int(warm))


def _gains_before(args, kwargs):
    from repro.arrays.codebook import gain_cache_enabled

    if not gain_cache_enabled():
        return None
    cache = args[0].gain_cache
    return cache, cache.hits, cache.misses


def _gains_after(tracer, state, args, kwargs, result):
    if state is None:
        return
    cache, hits, misses = state
    tracer.count("beam.gain_scan.cache_hits", cache.hits - hits)
    tracer.count("beam.gain_scan.cache_misses", cache.misses - misses)


def _worker_after(tracer, state, args, kwargs, report):
    tracer.count("campaign.lease.conflicts", report.conflicts)
    tracer.count("campaign.lease.takeovers", report.takeovers)


def _targets():
    """``(owner, attribute, span name, before, after)`` for every wrap.

    Owners are classes (the method is replaced on the class) or modules
    (the function is replaced in every ``repro`` module that bound it).
    """
    import repro.campaign.worker as campaign_worker
    import repro.cell.metrics as cell_metrics
    import repro.cell.scheduler as cell_scheduler
    import repro.channel.batch as channel_batch
    import repro.obs.openmetrics as openmetrics
    import repro.sim.metrics as sim_metrics
    from repro.arrays.codebook import Codebook
    from repro.campaign.store import ShardStore
    from repro.channel.base import ClusteredChannel
    from repro.core.base import AlignmentContext
    from repro.estimation.ml_covariance import MlCovarianceEstimator
    from repro.sim.scenario import Scenario

    one_pair = _probe_after(lambda args, kwargs: 1)
    many_pairs = _probe_after(
        lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["pairs"])
    )
    return (
        (Scenario, "sample_channel", "channel.draw", None, None),
        (Scenario, "sample_channel_batch", "channel.draw", None, None),
        (ClusteredChannel, "mean_snr_matrix", "channel.gain_table", None, None),
        (channel_batch, "mean_snr_matrices", "channel.gain_table", None, None),
        (AlignmentContext, "measure", "measurement.probe", _probe_before, one_pair),
        (AlignmentContext, "measure_many", "measurement.probe", _probe_before, many_pairs),
        (MlCovarianceEstimator, "estimate", "estimator.solve", _solve_before, _solve_after),
        (Codebook, "gains", "beam.gain_scan", _gains_before, _gains_after),
        (sim_metrics, "evaluate_pair", "trial.metrics", None, None),
        (cell_scheduler, "build_schedule", "cell.schedule", None, None),
        (cell_metrics, "summarize_records", "cell.summary", None, None),
        (openmetrics, "write_openmetrics", "obs.openmetrics", None, None),
        (ShardStore, "put", "campaign.store.put", None, None),
        (ShardStore, "put_artifact", "campaign.store.put", None, None),
        (ShardStore, "get", "campaign.store.get", None, None),
        (ShardStore, "get_artifact", "campaign.store.get", None, None),
        (campaign_worker, "execute_shard_in_process", "campaign.shard", None, None),
        (campaign_worker, "run_worker", None, None, _worker_after),
    )


def target_attributes() -> Dict[Tuple[int, str], object]:
    """Current value of every wrapped attribute, keyed by owner and name."""
    return {
        (id(owner), attribute): vars(owner)[attribute]
        for owner, attribute, *_ in _targets()
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a callable that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    for owner, attribute, name, before, after in _targets():
        original = vars(owner)[attribute]
        wrapped = tracer.wrap(name, original, before, after)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [
                module
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                and vars(module).get(attribute) is original
            ]
        for holder in holders:
            undo.append((holder, attribute, original))
            setattr(holder, attribute, wrapped)

    def uninstall() -> None:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)

    return uninstall
