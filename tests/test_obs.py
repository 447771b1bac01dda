"""Tests for the observability layer: metrics, recorders, tracing, progress."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    ProgressReporter,
    TraceRecorder,
    get_recorder,
    percentile,
    read_trace,
    render_trace_summary,
    summarize_trace,
    timer_stats,
    use_recorder,
)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.increment("hits")
        registry.increment("hits", 4)
        assert registry.counter("hits") == 5.0
        assert registry.counter("misses") == 0.0

    def test_gauge_keeps_latest(self):
        registry = MetricsRegistry()
        registry.set_gauge("loss", 3.0)
        registry.set_gauge("loss", 1.5)
        assert registry.gauges["loss"] == 1.5

    def test_timer_records_positive_duration(self):
        registry = MetricsRegistry()
        with registry.timer("work"):
            pass
        samples = registry.timers["work"]
        assert len(samples) == 1
        assert samples[0] >= 0.0

    def test_summary_shape(self):
        registry = MetricsRegistry()
        registry.record_duration("t", 0.1)
        registry.record_duration("t", 0.3)
        registry.increment("c", 2)
        registry.set_gauge("g", 7.0)
        summary = registry.summary()
        assert summary["timers"]["t"]["count"] == 2
        assert summary["timers"]["t"]["total_s"] == pytest.approx(0.4)
        assert summary["timers"]["t"]["mean_s"] == pytest.approx(0.2)
        assert summary["counters"] == {"c": 2.0}
        assert summary["gauges"] == {"g": 7.0}

    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.record_duration("t", 0.1)
        a.increment("c", 1)
        b = MetricsRegistry()
        b.record_duration("t", 0.2)
        b.increment("c", 2)
        b.set_gauge("g", 5.0)
        a.merge_snapshot(b.snapshot())
        assert sorted(a.timers["t"]) == [pytest.approx(0.1), pytest.approx(0.2)]
        assert a.counter("c") == 3.0
        assert a.gauges["g"] == 5.0

    def test_merge_none_is_noop(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(None)
        assert registry.summary()["counters"] == {}

    def test_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 0.95) == pytest.approx(95.0, abs=1.0)

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))
        assert math.isnan(percentile([], 0.0))
        assert math.isnan(percentile([], 1.0))

    def test_percentile_single_sample(self):
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert percentile([3.25], fraction) == 3.25

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.01)
        with pytest.raises(ValueError):
            percentile([1.0], 1.01)

    def test_timer_stats_empty_is_nan_free(self):
        stats = timer_stats([])
        assert stats["count"] == 0
        for value in stats.values():
            assert value == 0.0
            assert not math.isnan(value)

    def test_merge_snapshot_json_roundtrip_three_ways(self):
        # Snapshots cross process boundaries as JSON in the campaign
        # layer; merging >= 2 of them must sum counters and keep the
        # last-merged gauge.
        snapshots = []
        for index in range(3):
            registry = MetricsRegistry()
            registry.increment("trials", index + 1)  # 1 + 2 + 3 = 6
            registry.record_duration("solve", 0.1 * (index + 1))
            registry.set_gauge("loss_db", float(index))
            snapshots.append(json.loads(json.dumps(registry.snapshot())))
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        assert merged.counter("trials") == 6.0
        assert merged.gauges["loss_db"] == 2.0  # last write wins
        assert sorted(merged.timers["solve"]) == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
        ]


class TestActiveRecorder:
    def test_default_is_null(self):
        recorder = get_recorder()
        assert isinstance(recorder, NullRecorder)
        assert not recorder.enabled
        assert recorder.metrics is None

    def test_null_recorder_is_noop(self):
        with NULL_RECORDER.span("x", a=1) as span:
            span.annotate(b=2)
        NULL_RECORDER.event("e")
        NULL_RECORDER.increment("c")
        NULL_RECORDER.gauge("g", 1.0)

    def test_use_recorder_installs_and_restores(self):
        recorder = MetricsRecorder()
        assert get_recorder() is not recorder
        with use_recorder(recorder):
            assert get_recorder() is recorder
            inner = MetricsRecorder()
            with use_recorder(inner):
                assert get_recorder() is inner
            assert get_recorder() is recorder
        assert isinstance(get_recorder(), NullRecorder)

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_recorder(MetricsRecorder()):
                raise RuntimeError("boom")
        assert isinstance(get_recorder(), NullRecorder)


class TestMetricsRecorder:
    def test_span_feeds_timer(self):
        recorder = MetricsRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        assert len(recorder.metrics.timers["outer"]) == 1
        assert len(recorder.metrics.timers["inner"]) == 1

    def test_span_nesting_ids(self):
        recorder = MetricsRecorder()
        with recorder.span("outer") as outer:
            assert outer.depth == 0
            assert outer.parent_id is None
            with recorder.span("inner") as inner:
                assert inner.depth == 1
                assert inner.parent_id == outer.span_id
            with recorder.span("inner2") as inner2:
                assert inner2.parent_id == outer.span_id

    def test_event_counts(self):
        recorder = MetricsRecorder()
        recorder.event("solver.iteration", residual=0.5)
        recorder.event("solver.iteration", residual=0.1)
        assert recorder.metrics.counter("solver.iteration") == 2.0


class TestTraceRecorder:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("outer", kind="test") as outer:
                recorder.event("tick", value=1)
                with recorder.span("inner"):
                    pass
                outer.annotate(result="done")
            recorder.increment("count", 3)
            recorder.gauge("level", 0.5)
        records = read_trace(path)
        kinds = [record["type"] for record in records]
        assert kinds[0] == "trace"
        assert kinds[-1] == "summary"
        assert "span" in kinds and "event" in kinds
        assert "counter" in kinds and "gauge" in kinds

    def test_span_hierarchy_in_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("outer") as outer:
                with recorder.span("inner"):
                    pass
        spans = {r["name"]: r for r in read_trace(path) if r["type"] == "span"}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["dur_s"] >= spans["inner"]["dur_s"]

    def test_annotations_survive(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("solve") as span:
                span.annotate(iterations=7, converged=True)
        span_record = next(r for r in read_trace(path) if r["type"] == "span")
        assert span_record["attrs"] == {"iterations": 7, "converged": True}

    def test_summary_record_has_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            recorder.increment("c", 2)
        summary = read_trace(path)[-1]
        assert summary["type"] == "summary"
        assert summary["metrics"]["counters"]["c"] == 2.0

    def test_read_trace_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "trace"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            read_trace(path)

    def test_read_trace_rejects_untyped_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\n')
        with pytest.raises(ValueError, match="'type'"):
            read_trace(path)

    def test_close_idempotent(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "trace.jsonl")
        recorder.close()
        recorder.close()


class TestSummarize:
    def test_summarize_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            for converged in (True, True, False):
                with recorder.span("solver.test") as span:
                    span.annotate(iterations=10, converged=converged)
            recorder.increment("measurements", 42)
            recorder.event("iteration")
        summary = summarize_trace(read_trace(path))
        assert summary["spans"]["solver.test"]["count"] == 3
        solver = summary["solvers"]["solver.test"]
        assert solver["solves"] == 3
        assert solver["mean_iterations"] == pytest.approx(10.0)
        assert solver["converged_fraction"] == pytest.approx(2 / 3)
        assert summary["counters"]["measurements"] == 42.0
        assert summary["events"]["iteration"] == 1

    def test_render_includes_sections(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("solver.test") as span:
                span.annotate(iterations=5, converged=True)
        text = render_trace_summary(summarize_trace(read_trace(path)))
        assert "solver.test" in text
        assert "solver convergence" in text
        assert "p95" in text

    def test_render_empty(self):
        text = render_trace_summary(summarize_trace([]))
        assert "empty trace" in text

    def test_summarize_parallel_section(self, tmp_path):
        """Older traces with process-pool records still summarize: their
        events are counted, but no section is made from them."""
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("run_trials_parallel", workers=2):
                recorder.event("parallel.batch_merged", worker=0)
                recorder.event("parallel.pool_broken")
        summary = summarize_trace(read_trace(path))
        assert "parallel" not in summary
        assert summary["events"] == {
            "parallel.batch_merged": 1,
            "parallel.pool_broken": 1,
        }
        text = render_trace_summary(summary)
        assert "run_trials_parallel" in text  # an ordinary span row
        assert "parallel execution" not in text

    def test_summarize_campaign_section(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("campaign.run", shards=2):
                for attempts in (1, 3):
                    with recorder.span("campaign.shard") as span:
                        span.annotate(attempts=attempts)
                recorder.increment("campaign.shards_executed", 2)
                recorder.increment("campaign.retries", 2)
                recorder.increment("campaign.heartbeats", 6)
                recorder.increment("campaign.lease_conflicts", 1)
        summary = summarize_trace(read_trace(path))
        campaign = summary["campaign"]
        assert campaign["runs"] == 1
        assert campaign["shards_executed"] == 2.0
        assert campaign["retries"] == 2.0
        assert campaign["heartbeats"] == 6.0
        assert campaign["lease_conflicts"] == 1.0
        assert "fallbacks" not in campaign
        assert campaign["mean_attempts"] == pytest.approx(2.0)
        text = render_trace_summary(summary)
        assert "campaign scheduler" in text
        assert "executed 2" in text
        assert "heartbeats 6" in text

    def test_summarize_plain_trace_omits_sections(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("trial"):
                pass
        summary = summarize_trace(read_trace(path))
        assert summary["campaign"] == {}
        text = render_trace_summary(summary)
        assert "campaign scheduler" not in text


class TestProgressReporter:
    def test_final_event_always_fires(self):
        events = []
        reporter = ProgressReporter(3, events.append, min_interval_s=1e9)
        reporter.update()
        reporter.update()
        reporter.update()
        # first fire (no previous fire) plus the completion fire
        assert events[-1].done == 3
        assert events[-1].total == 3
        assert events[-1].fraction == 1.0

    def test_throttling_with_fake_clock(self):
        now = [0.0]
        events = []
        reporter = ProgressReporter(
            100, events.append, min_interval_s=10.0, clock=lambda: now[0]
        )
        for _ in range(50):
            now[0] += 0.1
            reporter.update()
        assert len(events) < 10  # throttled far below one event per update

    def test_eta_estimate(self):
        now = [0.0]
        events = []
        reporter = ProgressReporter(
            4, events.append, min_interval_s=0.0, clock=lambda: now[0]
        )
        now[0] = 1.0
        reporter.update()
        assert events[-1].eta_s == pytest.approx(3.0)

    def test_no_callback_is_cheap(self):
        reporter = ProgressReporter(5)
        for _ in range(5):
            reporter.update()
        assert reporter.done == 5

    def test_report_never_regresses(self):
        reporter = ProgressReporter(10)
        reporter.report(7)
        reporter.report(3)
        assert reporter.done == 7
        reporter.report(99)
        assert reporter.done == 10


class TestSummarizeDistributedCampaign:
    def test_worker_and_lease_counters_surface(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            for lane in (0, 1):
                with recorder.span("campaign.worker", worker_id=f"w{lane}", worker=lane):
                    with recorder.span("campaign.shard", worker=lane):
                        pass
            recorder.increment("campaign.shards_executed", 2)
            recorder.increment("campaign.lease_conflicts", 3)
            recorder.increment("campaign.lease_takeovers", 1)
            recorder.increment("campaign.lease_discards", 1)
        summary = summarize_trace(read_trace(path))
        campaign = summary["campaign"]
        assert campaign["workers"] == 2
        assert campaign["lease_conflicts"] == 3.0
        assert campaign["lease_takeovers"] == 1.0
        assert campaign["lease_discards"] == 1.0
        text = render_trace_summary(summary)
        assert "workers 2" in text
        assert "lease conflicts 3" in text
        assert "takeovers 1" in text

    def test_lease_line_hidden_for_solo_campaigns(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with recorder.span("campaign.run"):
                recorder.increment("campaign.shards_executed", 1)
        text = render_trace_summary(summarize_trace(read_trace(path)))
        assert "campaign scheduler" in text
        assert "lease conflicts" not in text
