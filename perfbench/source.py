"""Import the package from this checkout's ``src`` and nowhere else."""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Put ``src`` first on the path and import ``repro`` from it.

    Exits with status 2 when the checkout has no sources, or when the
    import resolves to a copy of the package outside this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.stderr.write(f"error: imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return repro
