"""Buffer-overlap analysis between fiber routes and transport corridors.

The paper uses "the polygon overlap analysis capability in ArcGIS [30] to
quantify the correspondence between physical links and transportation
infrastructure" (§3).  We reproduce the same measurement: sample each fiber
route densely and compute the fraction of samples lying within a buffer of
the corridor geometry of each infrastructure kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.geo.coords import GeoPoint
from repro.geo.grid import SpatialGridIndex
from repro.geo.polyline import Polyline
from repro.geo.vectorized import points_to_arrays

#: Default buffer: the paper does not publish its exact buffer width; conduits
#: laid "along" a highway ROW sit within a few hundred meters of it, but our
#: synthetic corridor geometry is city-waypoint scale, so a wider buffer that
#: captures "same corridor" is appropriate.
DEFAULT_BUFFER_KM = 15.0

#: Sampling density along fiber routes.
DEFAULT_SAMPLE_SPACING_KM = 10.0


class CorridorIndex:
    """Spatial index over corridor geometry, one tag per infrastructure kind.

    Kinds are free-form strings, e.g. ``"road"``, ``"rail"``, ``"pipeline"``.
    """

    def __init__(self, cell_deg: float = 0.5):
        self._grid = SpatialGridIndex(cell_deg=cell_deg)

    @property
    def kinds(self) -> frozenset:
        return frozenset(self._grid.tags)

    def add(self, line: Polyline, kind: str) -> None:
        """Index one corridor polyline under infrastructure *kind*."""
        self._grid.insert_polyline(line, kind)

    def add_many(self, lines: Iterable[Polyline], kind: str) -> None:
        for line in lines:
            self.add(line, kind)

    def kinds_near(self, point: GeoPoint, radius_km: float) -> frozenset:
        """Infrastructure kinds with geometry within *radius_km* of *point*."""
        return frozenset(self._grid.within(point, radius_km))

    def kinds_near_many(
        self, lats: np.ndarray, lons: np.ndarray, radius_km: float
    ) -> Dict[str, np.ndarray]:
        """Per kind, a bool array: which points have that kind's geometry
        within *radius_km* (one batched grid query for all points)."""
        near = self._grid.within_many(lats, lons, radius_km)
        return {kind: near[:, j] for j, kind in enumerate(self._grid.tags)}


@dataclass(frozen=True)
class OverlapProfile:
    """Per-kind co-location fractions for one fiber route.

    ``fractions[kind]`` is the fraction of route samples within the buffer
    of that kind; ``any_fraction`` uses the union of all kinds;
    ``union_fractions`` holds exact per-sample unions for the kind
    combinations requested at computation time.
    """

    fractions: Mapping[str, float]
    any_fraction: float
    samples: int
    union_fractions: Optional[Mapping[frozenset, float]] = field(default=None)

    def fraction(self, kind: str) -> float:
        return self.fractions.get(kind, 0.0)

    def union(self, *kinds: str) -> float:
        """Exact fraction of samples within the buffer of ANY given kind.

        The combination must have been requested via ``unions=`` when the
        profile was computed.
        """
        key = frozenset(kinds)
        if self.union_fractions is None or key not in self.union_fractions:
            raise KeyError(f"union {sorted(key)} was not computed")
        return self.union_fractions[key]


def overlap_profile(
    route: Polyline,
    index: CorridorIndex,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = DEFAULT_SAMPLE_SPACING_KM,
    unions: Iterable[Tuple[str, ...]] = (("road", "rail"),),
) -> OverlapProfile:
    """Compute the co-location profile of one fiber *route*.

    Mirrors the ArcGIS buffer-overlap measurement: resample the route at
    ``spacing_km`` and test each sample against each corridor kind's
    buffer of width ``buffer_km``.  ``unions`` lists kind combinations
    whose exact per-sample union fraction should also be computed (the
    paper's "Rail and Road" series).
    """
    lats, lons = points_to_arrays(route.resample(spacing_km))
    near = index.kinds_near_many(lats, lons, buffer_km)
    n = lats.size
    none = np.zeros(n, dtype=bool)

    def fraction_of(kinds: Iterable[str]) -> float:
        hits = none
        for kind in kinds:
            hits = hits | near.get(kind, none)
        return int(hits.sum()) / n

    return OverlapProfile(
        fractions={kind: fraction_of((kind,)) for kind in near},
        any_fraction=fraction_of(near),
        samples=n,
        union_fractions={frozenset(u): fraction_of(u) for u in unions},
    )


def colocated_fraction(
    route: Polyline,
    index: CorridorIndex,
    kind: str,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = DEFAULT_SAMPLE_SPACING_KM,
) -> float:
    """Fraction of *route* co-located with corridors of one *kind*."""
    return overlap_profile(route, index, buffer_km, spacing_km).fraction(kind)


#: Float round-off tolerance for fractions that were averaged or summed
#: before binning.
_ROUNDOFF_EPS = 1e-9


def histogram(values: Iterable[float], bins: int = 10) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Histogram over [0, 1] used for the paper's Figure 4.

    Returns (bin_left_edges, counts).  Values equal to 1.0 fall in the
    last bin; values within ``1e-9`` outside [0, 1] are clamped (float
    round-off from averaging), anything farther out still raises.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    counts = [0] * bins
    for v in values:
        if -_ROUNDOFF_EPS <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + _ROUNDOFF_EPS:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"co-location fraction out of [0,1]: {v}")
        idx = min(int(v * bins), bins - 1)
        counts[idx] += 1
    edges = tuple(i / bins for i in range(bins))
    return edges, tuple(counts)
