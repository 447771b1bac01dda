"""Tests for the numeric flight recorder: digests, diff, inspect.

The core invariant: the checkpoint digest sequence is a function of the
seeded computation only — every execution engine (serial, batched at any
block size, process-parallel, killed-and-resumed campaign) records the
exact same events in the exact same order, and recording them changes no
seeded outcome.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import (
    FaultInjector,
    ShardStore,
    assemble_effectiveness_sweep,
    plan_effectiveness_sweep,
    run_campaign,
)
from repro.exceptions import CampaignAborted, CampaignError, ConfigurationError
from repro.obs import (
    CheckpointRecorder,
    TraceRecorder,
    diff_checkpoints,
    load_checkpoints,
    read_trace,
    read_trace_tolerant,
    render_diff,
    render_storyboard,
    summarize_trace_file,
    trial_storyboard,
    use_recorder,
)
from repro.obs.checkpoint import CheckpointEvent, PerturbationSpec
from repro.sim.batch import run_trials_batched
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import run_trial, run_trials
from repro.utils.rng import labeled_spawn, spawn, trial_generator

SPECS = (SchemeSpec.of("Random"), SchemeSpec.of("Proposed", measurements_per_slot=4))
RATES = (0.2, 0.4)
TRIALS = 4
SEED = 11


def _schemes():
    return {spec.name: spec.build_factory() for spec in SPECS}


def _signature(events):
    """What cross-engine comparison keys on: scoped stage + digest, in order."""
    return [(event.key, event.stage, event.digest) for event in events]


def _serial_events(scenario):
    recorder = CheckpointRecorder()
    with use_recorder(recorder):
        for rate in RATES:
            run_trials(scenario, _schemes(), rate, TRIALS, base_seed=SEED)
    return recorder.events


@pytest.fixture(scope="module")
def serial_signature():
    from repro.sim.config import ChannelKind, ScenarioConfig
    from repro.sim.scenario import Scenario

    scenario = Scenario(
        ScenarioConfig(
            channel=ChannelKind.MULTIPATH,
            tx_shape=(2, 2),
            rx_shape=(2, 4),
            rx_beam_grid=(3, 3),
            snr_db=20.0,
            fading_blocks=4,
        )
    )
    return _signature(_serial_events(scenario))


class TestEngineInvariance:
    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_batched_matches_serial(self, small_scenario, serial_signature, batch_size):
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            for rate in RATES:
                run_trials_batched(
                    small_scenario,
                    _schemes(),
                    rate,
                    TRIALS,
                    base_seed=SEED,
                    batch_size=batch_size,
                )
        assert _signature(recorder.events) == serial_signature

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_parallel_matches_serial(
        self, small_config, serial_signature, max_workers, tmp_path
    ):
        # With two workers every shard's digests are recorded in a child
        # process and reach the parent only through the stored manifests.
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
        )
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            run_campaign(
                plan,
                ShardStore(tmp_path / "store"),
                max_workers=max_workers,
                checkpoints=True,
            )
        assert _signature(recorder.events) == serial_signature

    def test_killed_and_resumed_campaign_matches_serial(
        self, small_config, serial_signature, tmp_path
    ):
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
        )
        store = ShardStore(tmp_path / "store")
        with pytest.raises(CampaignAborted):
            run_campaign(
                plan,
                store,
                checkpoints=True,
                fault_injector=FaultInjector(abort_after=3),
            )
        # Resume under a parent flight recorder: skipped shards replay
        # their digests from the stored artifacts, executed shards record
        # live — the merged sequence must equal an uninterrupted serial run.
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            run_campaign(plan, store, checkpoints=True)
        assert _signature(recorder.events) == serial_signature

    def test_checkpointing_does_not_change_outcomes(self, small_scenario):
        plain = run_trial(
            small_scenario, _schemes(), 0.3, trial_generator(SEED, 0), trial_index=0
        )
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            recorded = run_trial(
                small_scenario, _schemes(), 0.3, trial_generator(SEED, 0), trial_index=0
            )
        assert recorder.events
        for name in plain:
            assert plain[name].loss_db == recorded[name].loss_db
            assert plain[name].result.selected == recorded[name].result.selected


class TestCampaignArtifacts:
    def test_artifacts_unchanged_without_checkpoints(self, small_config, tmp_path):
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
        )
        off = ShardStore(tmp_path / "off")
        on = ShardStore(tmp_path / "on")
        run_campaign(plan, off)
        run_campaign(plan, on, checkpoints=True)
        for shard in plan.shards:
            assert off.get(shard) == on.get(shard)
            text = off.shard_path(shard.digest).read_text(encoding="utf-8")
            assert '"digests"' not in text
            manifest = on.digest_manifest(shard)
            assert manifest is not None
            assert {int(e["trial"]) for e in manifest} == set(shard.trial_indices)

    def test_verify_digests_gates_assembly(self, small_config, tmp_path):
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
        )
        store = ShardStore(tmp_path / "store")
        run_campaign(plan, store)
        assemble_effectiveness_sweep(plan, store)  # fine without manifests
        with pytest.raises(CampaignError, match="digest manifest"):
            assemble_effectiveness_sweep(plan, store, verify_digests=True)
        store2 = ShardStore(tmp_path / "s2")
        run_campaign(plan, store2, checkpoints=True)
        assemble_effectiveness_sweep(plan, store2, verify_digests=True)


class TestLabeledSpawn:
    def test_bit_identical_to_spawn(self):
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        plain = spawn(rng_a, 3)
        labeled = labeled_spawn(rng_b, ["x", "y", "z"])
        assert list(labeled) == ["x", "y", "z"]
        for child_a, child_b in zip(plain, labeled.values()):
            assert np.array_equal(
                child_a.random(8), child_b.random(8)
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            labeled_spawn(np.random.default_rng(0), ["a", "a"])


class TestPerturbation:
    def test_parse_validation(self):
        spec = PerturbationSpec.parse("3:channel.draw:7")
        assert (spec.trial, spec.stage, spec.flat_index) == (3, "channel.draw", 7)
        with pytest.raises(ConfigurationError):
            PerturbationSpec.parse("not-a-spec")
        with pytest.raises(ConfigurationError):
            PerturbationSpec.parse("x:stage:1")

    def test_perturbs_recorder_copy_only(self, small_scenario):
        def run(perturb):
            recorder = CheckpointRecorder(perturb=perturb)
            with use_recorder(recorder):
                outcomes = run_trial(
                    small_scenario,
                    _schemes(),
                    0.3,
                    trial_generator(SEED, 0),
                    trial_index=0,
                )
            return recorder.events, outcomes

        clean_events, clean_outcomes = run(None)
        bumped_events, bumped_outcomes = run("0:channel.gain_table:5")
        # The simulation itself is untouched...
        for name in clean_outcomes:
            assert clean_outcomes[name].loss_db == bumped_outcomes[name].loss_db
        # ...and exactly one recorded digest changed: the targeted stage.
        changed = [
            (a.stage, a.key)
            for a, b in zip(clean_events, bumped_events)
            if a.digest != b.digest
        ]
        assert changed == [("channel.gain_table", ("0p3", 0, 1))]


class TestDiff:
    def _record_trace(self, scenario, path, spill_dir=None, perturb=None):
        with TraceRecorder(path) as trace:
            recorder = CheckpointRecorder(
                inner=trace,
                spill_dir=spill_dir,
                spill="all" if spill_dir else "off",
                perturb=perturb,
            )
            with use_recorder(recorder):
                run_trials(scenario, _schemes(), 0.3, 2, base_seed=SEED)

    def test_identical_runs_no_divergence(self, small_scenario, tmp_path):
        self._record_trace(small_scenario, tmp_path / "a.jsonl")
        self._record_trace(small_scenario, tmp_path / "b.jsonl")
        result = diff_checkpoints(
            load_checkpoints(tmp_path / "a.jsonl"),
            load_checkpoints(tmp_path / "b.jsonl"),
        )
        assert result.identical
        assert result.matched == result.compared > 0
        assert "no divergence" in render_diff(result)

    def test_divergence_localized_to_coordinate(self, small_scenario, tmp_path):
        self._record_trace(
            small_scenario, tmp_path / "a.jsonl", spill_dir=tmp_path / "spill_a"
        )
        self._record_trace(
            small_scenario,
            tmp_path / "b.jsonl",
            spill_dir=tmp_path / "spill_b",
            perturb="1:channel.gain_table:5",
        )
        result = diff_checkpoints(
            load_checkpoints(tmp_path / "a.jsonl"),
            load_checkpoints(tmp_path / "b.jsonl"),
        )
        assert not result.identical
        divergence = result.divergence
        assert divergence.stage == "channel.gain_table"
        assert divergence.trial == 1
        assert divergence.reason == "digest"
        (delta,) = divergence.deltas
        assert delta.name == "snr"
        assert np.ravel_multi_index(delta.index, (4, 9)) == 5
        assert delta.ulp == pytest.approx(1.0)
        assert delta.differing == 1
        text = render_diff(result)
        assert "channel.gain_table" in text and "trial 1" in text
        assert "ULP" in text

    def test_missing_event_reported(self, small_scenario, tmp_path):
        self._record_trace(small_scenario, tmp_path / "a.jsonl")
        events = load_checkpoints(tmp_path / "a.jsonl")
        result = diff_checkpoints(events, events[:-1])
        assert not result.identical
        assert result.divergence.reason == "missing_b"

    def test_store_source_round_trip(self, small_config, tmp_path):
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
        )
        store = ShardStore(tmp_path / "store")
        run_campaign(plan, store, checkpoints=True)
        events = load_checkpoints(tmp_path / "store")
        assert len(events) > 0
        assert diff_checkpoints(events, events).identical

    def test_unreadable_source_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a trace file"):
            load_checkpoints(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no checkpoint events"):
            load_checkpoints(empty)


class TestTolerantTraceRead:
    def _truncated_trace(self, scenario, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            recorder = CheckpointRecorder(inner=trace)
            with use_recorder(recorder):
                run_trial(
                    scenario, _schemes(), 0.3, trial_generator(SEED, 0), trial_index=0
                )
        data = path.read_bytes()
        path.write_bytes(data[:-25])  # kill -9 mid final line
        return path

    def test_tolerant_read_counts_skipped(self, small_scenario, tmp_path):
        path = self._truncated_trace(small_scenario, tmp_path)
        with pytest.raises(ValueError):
            read_trace(path)
        records, skipped = read_trace_tolerant(path)
        assert skipped == 1
        assert records

    def test_summarize_survives_truncation(self, small_scenario, tmp_path):
        path = self._truncated_trace(small_scenario, tmp_path)
        summary = summarize_trace_file(path)
        assert summary["skipped_lines"] == 1
        assert summary["checkpoints"]  # digests still summarized


class TestInspect:
    def test_storyboard_structure_and_render(self, small_scenario, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            recorder = CheckpointRecorder(inner=trace)
            with use_recorder(recorder):
                run_trials(small_scenario, _schemes(), 0.3, 2, base_seed=SEED)
        story = trial_storyboard(load_checkpoints(path), 1, rate=0.3)
        assert story["trial"] == 1
        (cell,) = story["rates"]
        assert cell["rate"] == 0.3
        assert cell["gain_table"]["optimal_snr"] > 0
        assert set(cell["schemes"]) == {"Random", "Proposed"}
        for scheme in cell["schemes"].values():
            assert scheme["selection"] is not None
            assert scheme["selection"]["probes"]
        assert set(cell["losses"]) == {"Random", "Proposed"}
        text = render_storyboard(story)
        assert "# Trial 1" in text
        assert "genie optimum" in text
        assert "| slot | tx | rx |" in text

    def test_unknown_trial_raises(self, small_scenario, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            recorder = CheckpointRecorder(inner=trace)
            with use_recorder(recorder):
                run_trial(
                    small_scenario,
                    _schemes(),
                    0.3,
                    trial_generator(SEED, 0),
                    trial_index=0,
                )
        with pytest.raises(ValueError, match="no checkpoint events for trial 7"):
            trial_storyboard(load_checkpoints(path), 7)


class TestEventPayloadRoundTrip:
    def test_to_from_payload(self, small_scenario):
        recorder = CheckpointRecorder()
        with use_recorder(recorder):
            run_trial(
                small_scenario, _schemes(), 0.3, trial_generator(SEED, 0), trial_index=0
            )
        for event in recorder.events:
            payload = json.loads(json.dumps(event.to_payload()))
            rebuilt = CheckpointEvent.from_payload(payload)
            assert rebuilt.key == event.key
            assert rebuilt.digest == event.digest
            assert rebuilt.stage == event.stage
            assert rebuilt.arrays == event.arrays
