"""Volumes, graft points, and autografting (paper Section 4)."""

from repro.volume.graft import (
    LOCATION_PREFIX,
    GraftTable,
    ReplicaLocation,
    location_entry_name,
    locations_from_entries,
)

__all__ = [
    "GraftTable",
    "LOCATION_PREFIX",
    "ReplicaLocation",
    "location_entry_name",
    "locations_from_entries",
]
