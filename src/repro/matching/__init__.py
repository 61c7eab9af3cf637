"""Matching substrate: Edmonds' blossom algorithm (the exact k = 2 case)."""

from repro.matching.blossom import is_matching, matching_size, maximum_matching

__all__ = [
    "maximum_matching",
    "matching_size",
    "is_matching",
]
