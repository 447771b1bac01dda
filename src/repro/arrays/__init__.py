"""Antenna arrays, steering vectors, and beam codebooks."""

from repro.arrays.codebook import (
    Codebook,
    CodebookGainCache,
    gain_cache_enabled,
    set_gain_cache_enabled,
    use_gain_cache,
)
from repro.arrays.geometry import ArrayGeometry
from repro.arrays.hierarchical import HierarchicalCodebook, WideBeam
from repro.arrays.steering import direction_unit_vector, steering_matrix, steering_vector
from repro.arrays.ula import UniformLinearArray
from repro.arrays.upa import UniformPlanarArray

__all__ = [
    "ArrayGeometry",
    "Codebook",
    "CodebookGainCache",
    "gain_cache_enabled",
    "set_gain_cache_enabled",
    "use_gain_cache",
    "HierarchicalCodebook",
    "WideBeam",
    "UniformLinearArray",
    "UniformPlanarArray",
    "direction_unit_vector",
    "steering_matrix",
    "steering_vector",
]
