"""The repository benchmark's hooks into the package stay resolvable.

``perfbench/tracer.py`` wraps named ``repro`` attributes and
``perfbench/run.py`` records the array backend in its provenance. Both
run in a fresh interpreter here, exactly as the benchmark imports them,
so a refactor that renames a wrapped attribute or drops the provenance
accessor fails tier-1 instead of the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_PROBE = """
import json
import sys

sys.path.insert(0, sys.argv[1])
from source import import_package

import_package()
import run
import tracer

targets = tracer.target_attributes()
provenance = run.provenance("fig6-sweep", 2016)
print(json.dumps({
    "targets": len(targets),
    "expected": len(tracer._targets()),
    "callable": all(callable(value) for value in targets.values()),
    "xp_backend": provenance["xp_backend"],
}))
"""


def test_tracer_targets_and_provenance_resolve():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PERFBENCH)],
        check=True,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["targets"] == report["expected"] > 0
    assert report["callable"]
    assert report["xp_backend"] == "numpy"
