"""One fresh interpreter doing a workload's set-up and nothing else.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR

The benchmark times this process from spawn to exit: interpreter start,
``import repro``, scenario and context build, plan or schedule build,
and opening the store.
"""

import sys
from pathlib import Path

from source import import_package

if __name__ == "__main__":
    import_package()
    from workloads import WORKLOADS

    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](work_dir).prepare(seed)
