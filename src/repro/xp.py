"""Array-backend provenance: every kernel runs on plain NumPy.

The package has a single array path, so this module only answers the
question benchmark provenance asks — which backend ran — and the
answer is always ``"numpy"``.
"""

from types import SimpleNamespace

__all__ = ["active_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def active_backend() -> SimpleNamespace:
    """The backend in effect; ``.name`` is always ``"numpy"``."""
    return _NUMPY
