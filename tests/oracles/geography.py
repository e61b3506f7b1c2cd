"""Reference §3 buffer overlap: one query point at a time.

The original per-point path behind :mod:`repro.geo.grid`,
:mod:`repro.geo.overlap` and :func:`repro.analysis.geography.geography_report`:
a generator walks every grid cell around one point, the candidate
segments are flattened into arrays with ``np.fromiter`` and measured
with :func:`repro.geo.vectorized.segment_distances_km`, and the hit
tags are gathered into a ``set``.  The batched corridor-grid kernel must
reproduce it exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from repro.analysis.geography import ConduitColocation, GeographyReport
from repro.fibermap.elements import FiberMap
from repro.geo.coords import GeoPoint
from repro.geo.grid import SpatialGridIndex, cell_rings
from repro.geo.overlap import (
    DEFAULT_BUFFER_KM,
    DEFAULT_SAMPLE_SPACING_KM,
    CorridorIndex,
    OverlapProfile,
)
from repro.geo.polyline import Polyline
from repro.geo.vectorized import segment_distances_km
from repro.transport.network import TransportationNetwork

Segment = Tuple[GeoPoint, GeoPoint, Hashable]


def candidate_segments(
    grid: SpatialGridIndex, point: GeoPoint, radius_km: float
) -> Iterator[Segment]:
    """Segments in all cells within *radius_km* of *point* (deduplicated)."""
    row_ring, col_ring = cell_rings(grid.cell_deg, point.lat, radius_km)
    r0, c0 = grid._cell_of(point)
    tags = grid.tags
    seen: Set[int] = set()
    for r in range(r0 - row_ring, r0 + row_ring + 1):
        for c in range(c0 - col_ring, c0 + col_ring + 1):
            for segment_id in grid._cells.get((r, c), ()):
                if segment_id not in seen:
                    seen.add(segment_id)
                    lat_a, lon_a, lat_b, lon_b = grid._ends[segment_id]
                    yield (
                        GeoPoint(lat_a, lon_a),
                        GeoPoint(lat_b, lon_b),
                        tags[grid._tag_codes[segment_id]],
                    )


def within(
    grid: SpatialGridIndex, point: GeoPoint, radius_km: float
) -> Set[Hashable]:
    """Tags of all segments within *radius_km* of *point*."""
    segments = list(candidate_segments(grid, point, radius_km))
    if not segments:
        return set()
    lat_a = np.fromiter((s[0].lat for s in segments), dtype=float)
    lon_a = np.fromiter((s[0].lon for s in segments), dtype=float)
    lat_b = np.fromiter((s[1].lat for s in segments), dtype=float)
    lon_b = np.fromiter((s[1].lon for s in segments), dtype=float)
    distances = segment_distances_km(point, lat_a, lon_a, lat_b, lon_b)
    hits: Set[Hashable] = set()
    for index in np.nonzero(distances <= radius_km)[0]:
        hits.add(segments[index][2])
    return hits


def kinds_near(index: CorridorIndex, point: GeoPoint, radius_km: float) -> frozenset:
    """Infrastructure kinds with geometry within *radius_km* of *point*."""
    return frozenset(within(index._grid, point, radius_km))


def overlap_profile(
    route: Polyline,
    index: CorridorIndex,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = DEFAULT_SAMPLE_SPACING_KM,
    unions: Iterable[Tuple[str, ...]] = (("road", "rail"),),
) -> OverlapProfile:
    """Co-location profile of one route, one sample point at a time."""
    samples = route.resample(spacing_km)
    counts: Dict[str, int] = {kind: 0 for kind in index.kinds}
    union_keys = [frozenset(u) for u in unions]
    union_counts: Dict[frozenset, int] = {key: 0 for key in union_keys}
    any_count = 0
    for point in samples:
        near = kinds_near(index, point, buffer_km)
        if near:
            any_count += 1
        for kind in near:
            counts[kind] += 1
        for key in union_keys:
            if near & key:
                union_counts[key] += 1
    n = len(samples)
    fractions = {kind: counts[kind] / n for kind in counts}
    return OverlapProfile(
        fractions=fractions,
        any_fraction=any_count / n,
        samples=n,
        union_fractions={key: union_counts[key] / n for key in union_keys},
    )


def geography_report(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = 10.0,
    index: Optional[CorridorIndex] = None,
) -> GeographyReport:
    """Co-location of every conduit, one overlap profile per conduit."""
    if index is None:
        index = network.corridor_index()
    rows = []
    for conduit_id, conduit in sorted(fiber_map.conduits.items()):
        profile = overlap_profile(
            conduit.geometry, index, buffer_km=buffer_km, spacing_km=spacing_km
        )
        rows.append(
            ConduitColocation(
                conduit_id=conduit_id,
                road=profile.fraction("road"),
                rail=profile.fraction("rail"),
                pipeline=profile.fraction("pipeline"),
                road_or_rail=profile.union("road", "rail"),
            )
        )
    return GeographyReport(colocations=tuple(rows), buffer_km=buffer_km)
