"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench/test_perfbench.py -q

They run real (shortened) benchmark runs of ``fig6-sweep``, about a
minute in total.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from source import ROOT, import_package

import_package()

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Fig6Sweep  # noqa: E402

SEED = 3
SHORT = ["--workload", "fig6-sweep", "--seed", str(SEED), "--seconds", "0.01"]


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "load_references", lambda: {})


@pytest.fixture
def install_calls(monkeypatch):
    calls = []
    original = run.install

    def spy(active):
        calls.append(active)
        return original(active)

    monkeypatch.setattr(run, "install", spy)
    return calls


def test_untraced_run_installs_no_wrappers(capsys, quick, install_calls):
    before = tracer.target_attributes()
    result = _result(capsys, SHORT + ["--trace", "0"])
    assert install_calls == []
    assert tracer.target_attributes() == before
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == Fig6Sweep.units


def test_traced_run_matches_untraced_and_restores(capsys, quick, install_calls):
    before = tracer.target_attributes()
    result = _result(capsys, SHORT + ["--trace", "1"])
    assert len(install_calls) == 1
    assert tracer.target_attributes() == before
    assert result["correct"], "traced digests must equal untraced ones"
    metrics = result["metrics"]
    assert metrics["estimator.solve.calls"]["value"] > 0
    assert metrics["failed_fraction"]["value"] == 0.0
    assert 0.0 <= metrics["unattributed_fraction"]["value"] < 1.0


def test_corrupted_reference_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(
        run, "load_references", lambda: {"fig6-sweep": {str(SEED): ["0" * 32]}}
    )
    result = _result(capsys, SHORT + ["--trace", "0"])
    assert not result["correct"]
    assert result["failed"] == Fig6Sweep.units


def test_names_match_benchmark_json(capsys, quick):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.layer_metrics()
    )
    printed = _result(capsys, SHORT + ["--trace", "0"])["metrics"]
    assert list(printed) == [m["name"] for m in spec["end_to_end"]]
    assert {m["unit"] for m in printed.values()} <= {m["unit"] for m in spec["end_to_end"]}


def test_references_cover_default_and_held_out_seed():
    references = json.loads((run.HERE / "references.json").read_text(encoding="utf-8"))
    for name in ("fig6-sweep", "cell-serve"):
        assert {"2016", "7919"} <= set(references[name])
    assert {w.reference_set for w in WORKLOADS.values()} <= set(references)


def test_covered_seconds_merges_overlaps_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert tracer.covered_seconds(intervals, 0.5, 10.0) == pytest.approx(2.5 + 1.0 + 1.0)


def test_checkout_without_sources_exits_nonzero():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", *SHORT, "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert done.returncode != 0
    assert done.stdout.strip() == ""
