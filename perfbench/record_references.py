"""Record the reference digests the benchmark checks its jobs against.

    python3 perfbench/record_references.py --seed 2016 --seed 7919

For each seed, runs jobs 0..N-1 of ``fig6-sweep`` (in process, which is
also the reference for ``campaign-2w``) and ``cell-serve``, and writes
their digests to ``perfbench/references.json``. Re-record only when a
change is meant to alter seeded outputs, and say so in the change.
"""

import argparse
import json
import os
import shutil
from pathlib import Path

from source import ROOT, import_package

#: Jobs recorded per seed: more than one run of the benchmark completes.
JOBS = {"fig6-sweep": 24, "cell-serve": 8}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    import_package()
    from workloads import WORKLOADS, job_seed

    target = Path(__file__).resolve().parent / "references.json"
    references = json.loads(target.read_text(encoding="utf-8"))
    work_dir = ROOT / ".perfbench-work" / f"references-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        for name, count in JOBS.items():
            workload = WORKLOADS[name](work_dir)
            for seed in args.seed:
                digests = []
                for index in range(count):
                    digest, problems = workload.verify(workload.run(job_seed(seed, index)))
                    if problems:
                        raise SystemExit(f"{name} seed {seed} job {index}: {problems}")
                    digests.append(digest)
                    print(name, seed, index, digest, flush=True)
                references.setdefault(name, {})[str(seed)] = digests
    finally:
        shutil.rmtree(work_dir)
    target.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
