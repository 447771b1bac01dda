"""Fold per-label BENCH_*.json files into one trajectory artifact.

The benchmark suite emits one ``BENCH_<label>.json`` per benchmark label
(see ``benchmarks/conftest.py``). This script assembles them into a
single repo-root ``BENCH_<tag>.json`` — e.g. ``BENCH_PR5.json`` — so a
PR's perf snapshot is tracked in-repo alongside the code that produced
it, and the trajectory across PRs is a ``git log`` over those files.

Per label the artifact carries the raw wall-clock statistics and the
calibration-normalized mean (mean divided by *that session's*
calibration median), which is the machine-independent number to compare
across PRs. Format details live in ``docs/performance.md``.

``--bench-dir`` is repeatable so one trajectory can fold several bench
sessions. Each directory is normalized by its own calibration label;
when the same benchmark label appears in more than one directory, the
entries are disambiguated as ``label[<session index>]``. Archived
artifacts may still carry the ``backend``/``backend_requested`` keys an
earlier conftest stamped; nothing reads them.

Usage (after bench runs have written BENCH_*.json into the dirs)::

    python benchmarks/make_trajectory.py --tag PR5
    python benchmarks/make_trajectory.py --tag PR7 \
        --bench-dir /tmp/bench-a --bench-dir /tmp/bench-b

Stdlib-only, like ``check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

TRAJECTORY_VERSION = 1
CALIBRATION_LABEL = "calibration"
REPO_ROOT = Path(__file__).resolve().parent.parent


def load_bench_files(bench_dir: Path, skip: Optional[str] = None) -> Dict[str, dict]:
    """Every BENCH_<label>.json in ``bench_dir``, keyed by label.

    ``skip`` names an output artifact to ignore so re-runs do not fold a
    previous trajectory file into itself.
    """
    entries: Dict[str, dict] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        if skip is not None and path.name == skip:
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        if "entries" in payload:  # another trajectory artifact, not a label
            continue
        label = payload.get("name") or path.stem[len("BENCH_") :]
        entries[label] = payload
    return entries


def build_trajectory(tag: str, sessions: List[Dict[str, dict]]) -> dict:
    """The trajectory payload: raw stats + calibration-normalized means.

    ``sessions`` holds one label->stats mapping per bench directory.
    Every session normalizes by its own calibration median; labels
    measured by more than one session are keyed ``label[<session index>]``.
    """
    counts: Counter = Counter(
        label
        for entries in sessions
        for label in entries
        if label != CALIBRATION_LABEL
    )
    folded: Dict[str, dict] = {}
    calibrations: List[dict] = []
    for index, entries in enumerate(sessions):
        calibration = entries.get(CALIBRATION_LABEL, {})
        if calibration:
            calibrations.append(calibration)
        scale = calibration.get("p50_s") or calibration.get("mean_s")
        for label in sorted(entries):
            if label == CALIBRATION_LABEL:
                continue
            stats = entries[label]
            entry = {
                key: stats[key]
                for key in ("count", "mean_s", "p50_s", "p95_s")
                if key in stats
            }
            if scale and "mean_s" in stats:
                entry["mean_normalized"] = stats["mean_s"] / scale
            key = f"{label}[{index}]" if counts[label] > 1 else label
            folded[key] = entry
    primary = calibrations[0] if calibrations else {}
    return {
        "kind": "bench-trajectory-v1",
        "version": TRAJECTORY_VERSION,
        "tag": tag,
        "calibration": {
            key: primary[key]
            for key in ("count", "mean_s", "p50_s", "p95_s")
            if key in primary
        },
        "entries": folded,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assemble BENCH_*.json label files into one trajectory artifact."
    )
    parser.add_argument("--tag", required=True, help="artifact tag, e.g. PR5")
    parser.add_argument(
        "--bench-dir",
        type=Path,
        action="append",
        default=None,
        help=(
            "directory holding a session's BENCH_*.json files; repeatable"
            " to fold several sessions into one trajectory"
            " (default: $REPRO_BENCH_DIR or the repo root)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: <repo root>/BENCH_<tag>.json)",
    )
    args = parser.parse_args(argv)

    bench_dirs = args.bench_dir or [
        Path(os.environ.get("REPRO_BENCH_DIR", REPO_ROOT))
    ]
    out = args.out if args.out is not None else REPO_ROOT / f"BENCH_{args.tag}.json"
    sessions = [
        load_bench_files(bench_dir, skip=out.name) for bench_dir in bench_dirs
    ]
    sessions = [entries for entries in sessions if entries]
    if not sessions:
        dirs = ", ".join(str(d) for d in bench_dirs)
        print(f"no BENCH_*.json files found in {dirs}", file=sys.stderr)
        return 1
    payload = build_trajectory(args.tag, sessions)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    labeled = len(payload["entries"])
    print(f"wrote {out} ({labeled} labels, tag {args.tag})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
