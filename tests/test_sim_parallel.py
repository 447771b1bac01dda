"""Tests for scheme specs and the shard trial executor, in and across processes."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.baselines.random_search import RandomSearch
from repro.campaign import (
    LaunchReport,
    ShardStore,
    assemble_effectiveness_sweep,
    plan_effectiveness_sweep,
    run_campaign,
    worker_attribution,
)
from repro.exceptions import ConfigurationError
from repro.sim.parallel import (
    SCHEME_BUILDERS,
    ParallelOutcome,
    SchemeSpec,
    _run_trial_batch,
)
from repro.sim.persistence import save_effectiveness_sweep
from repro.sim.runner import run_trials


class TestSchemeSpec:
    def test_of_known(self):
        spec = SchemeSpec.of("Proposed", measurements_per_slot=4)
        assert spec.name == "Proposed"
        assert dict(spec.params) == {"measurements_per_slot": 4}

    def test_of_unknown(self):
        with pytest.raises(ConfigurationError):
            SchemeSpec.of("NotAScheme")

    def test_factory_builds_scheme(self, small_channel):
        spec = SchemeSpec.of("Random")
        algorithm = spec.build_factory()(small_channel)
        assert algorithm.name == "Random"

    def test_genie_gets_channel(self, small_channel):
        spec = SchemeSpec.of("Genie")
        algorithm = spec.build_factory()(small_channel)
        assert algorithm.name == "Genie"

    def test_registry_covers_all_names(self):
        for name in ("Random", "Scan", "Proposed", "Bidirectional", "UCB"):
            assert name in SCHEME_BUILDERS

    def test_params_hashable(self):
        assert hash(SchemeSpec.of("Proposed", mu=0.1)) is not None


def _campaign_bytes(config, specs, seed, store_dir, **options):
    """Run a two-shard campaign into ``store_dir``; its assembled JSON bytes."""
    plan = plan_effectiveness_sweep(
        config, specs, (0.3,), 2, base_seed=seed, shard_trials=1
    )
    store = ShardStore(store_dir)
    report = run_campaign(plan, store, **options)
    path = store_dir / "sweep.json"
    save_effectiveness_sweep(assemble_effectiveness_sweep(plan, store), path)
    return path.read_bytes(), report, plan, store


class TestRunTrialsParallel:
    SPECS = (
        SchemeSpec.of("Random"),
        SchemeSpec.of("Proposed", measurements_per_slot=4),
    )

    def test_inprocess_path(self, small_config):
        trials, aux = _run_trial_batch(small_config, self.SPECS, 0.3, 5, (0, 1, 2))
        assert aux is None
        assert len(trials) == 3
        for trial in trials:
            assert set(trial) == {"Random", "Proposed"}
            for outcome in trial.values():
                assert isinstance(outcome, ParallelOutcome)
                assert outcome.loss_db >= 0.0

    def test_matches_serial_runner(self, small_config, small_scenario):
        """Same seeds -> identical selections as the serial runner."""
        shard, _ = _run_trial_batch(small_config, self.SPECS, 0.3, 9, (0, 1))
        schemes = {spec.name: spec.build_factory() for spec in self.SPECS}
        serial = run_trials(small_scenario, schemes, 0.3, 2, base_seed=9)
        for par_trial, ser_trial in zip(shard, serial):
            for name in schemes:
                assert par_trial[name].selected == ser_trial[name].result.selected
                assert par_trial[name].loss_db == ser_trial[name].loss_db

    def test_multiprocess_matches_inprocess(self, small_config, tmp_path):
        solo, _, _, _ = _campaign_bytes(small_config, self.SPECS, 11, tmp_path / "solo")
        pooled, report, _, _ = _campaign_bytes(
            small_config, self.SPECS, 11, tmp_path / "pooled", max_workers=2
        )
        assert report.executed == 2
        assert pooled == solo

    def test_validation(self, small_config):
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, self.SPECS, (0.3,), 0)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, (), (0.3,), 1)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(
                small_config,
                (SchemeSpec.of("Random"), SchemeSpec.of("Random")),
                (0.3,),
                1,
            )


def _launch_that_dies(plan, store, num_workers, **options):
    """Stand-in launcher whose every worker dies before claiming a shard."""
    return LaunchReport(
        plan_digest=plan.digest,
        num_workers=num_workers,
        complete=False,
        exit_codes=(1,) * num_workers,
        attribution={},
    )


class _CrashInWorker(RandomSearch):
    """Hard-kills the process unless it is the test's parent process."""

    name = "Crash"

    def align(self, context, rng):
        if os.getpid() != int(os.environ.get("REPRO_TEST_PARENT_PID", "-1")):
            os._exit(1)
        return super().align(context, rng)


class TestBrokenPoolFallback:
    """``run_campaign(max_workers=N)`` survives its launched workers dying:
    the in-process pass that follows the launch runs what they left."""

    SPECS = (SchemeSpec.of("Random"),)

    def test_broken_pool_reruns_batches_in_process(
        self, small_config, monkeypatch, tmp_path
    ):
        reference, _, _, _ = _campaign_bytes(
            small_config, self.SPECS, 13, tmp_path / "solo"
        )
        monkeypatch.setattr(
            "repro.campaign.scheduler.launch_campaign", _launch_that_dies
        )
        fallback, report, plan, store = _campaign_bytes(
            small_config, self.SPECS, 13, tmp_path / "fallback", max_workers=2
        )
        assert report.executed == len(plan.shards)
        assert fallback == reference
        credited = worker_attribution(store, plan)
        assert list(credited) == [f"supervisor-{os.getpid()}"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork so the patched registry reaches the workers",
    )
    def test_real_worker_crash_falls_back(self, small_config, monkeypatch, tmp_path):
        monkeypatch.setitem(SCHEME_BUILDERS, "Crash", _CrashInWorker)
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        specs = (SchemeSpec.of("Crash"),)
        pooled, report, plan, _ = _campaign_bytes(
            small_config, specs, 3, tmp_path / "pooled", max_workers=2
        )
        # Every worker died holding a lease; the in-process pass took the
        # dead owners' shards over and ran the whole plan.
        assert report.executed == len(plan.shards)
        assert report.takeovers >= 1
        solo, _, _, _ = _campaign_bytes(small_config, specs, 3, tmp_path / "solo")
        assert pooled == solo
