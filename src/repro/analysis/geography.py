"""Geography of fiber deployments (§3, Figures 4 and 5).

Quantifies the correspondence between conduits and transportation
infrastructure with the buffer-overlap measurement: for every conduit,
the fraction of its route co-located with roadways, railways, and the
union of the two (Figure 4), and the identification of conduits that
follow neither — which other rights-of-way, i.e. pipelines, explain
(Figure 5: the Level 3 route outside Laurel, MS; Anaheim-Las Vegas along
a refined-products pipeline; Houston-Atlanta along NGL pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.fibermap.elements import Conduit, FiberMap
from repro.geo.overlap import DEFAULT_BUFFER_KM, CorridorIndex, histogram
from repro.obs import get_tracer
from repro.transport.network import TransportationNetwork


@dataclass(frozen=True)
class ConduitColocation:
    """Per-conduit co-location fractions."""

    conduit_id: str
    road: float
    rail: float
    pipeline: float
    road_or_rail: float


@dataclass(frozen=True)
class GeographyReport:
    """The Figure 4 dataset plus summary statistics."""

    colocations: Tuple[ConduitColocation, ...]
    buffer_km: float

    def histogram(self, kind: str, bins: int = 10) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """Figure 4 histogram for ``road``, ``rail`` or ``road_or_rail``."""
        values = [getattr(c, kind) for c in self.colocations]
        return histogram(values, bins=bins)

    def mean_fraction(self, kind: str) -> float:
        values = [getattr(c, kind) for c in self.colocations]
        return sum(values) / len(values) if values else 0.0

    @property
    def road_beats_rail_fraction(self) -> float:
        """Fraction of conduits more co-located with roads than rails —
        the paper's "physical link paths more often follow roadway
        infrastructure compared with rail"."""
        if not self.colocations:
            return 0.0
        wins = sum(1 for c in self.colocations if c.road > c.rail)
        return wins / len(self.colocations)


def geography_report(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = 10.0,
    index: Optional[CorridorIndex] = None,
) -> GeographyReport:
    """Compute co-location of every conduit with road/rail/pipeline layers.

    Every conduit is resampled every *spacing_km*; one batched corridor
    query tests all samples against every kind's buffer, and each
    conduit's counts are differences of cumulative sums over its run of
    samples.
    """
    tracer = get_tracer()
    with tracer.span("analysis.geography", buffer_km=buffer_km):
        if index is None:
            index = network.corridor_index()
        conduits = sorted(fiber_map.conduits.items())
        lats: List[float] = []
        lons: List[float] = []
        bounds = [0]
        for _, conduit in conduits:
            for point in conduit.geometry.resample(spacing_km):
                lats.append(point.lat)
                lons.append(point.lon)
            bounds.append(len(lats))
        tracer.count("samples", len(lats))
        near = index.kinds_near_many(np.array(lats), np.array(lons), buffer_km)
        none = np.zeros(len(lats), dtype=bool)
        road = near.get("road", none)
        rail = near.get("rail", none)
        hits = np.stack(
            [road, rail, near.get("pipeline", none), road | rail], axis=1
        )
        cumulative = np.zeros((len(lats) + 1, hits.shape[1]), dtype=np.int64)
        np.cumsum(hits, axis=0, out=cumulative[1:])
        ends = np.array(bounds)
        counts = (cumulative[ends[1:]] - cumulative[ends[:-1]]).tolist()
        rows = [
            ConduitColocation(
                conduit_id=conduit_id,
                road=road_n / n,
                rail=rail_n / n,
                pipeline=pipeline_n / n,
                road_or_rail=union_n / n,
            )
            for (conduit_id, _), (road_n, rail_n, pipeline_n, union_n), n in zip(
                conduits, counts, np.diff(ends).tolist()
            )
        ]
    return GeographyReport(colocations=tuple(rows), buffer_km=buffer_km)


def non_transport_conduits(
    report: GeographyReport,
    fiber_map: FiberMap,
    threshold: float = 0.5,
) -> List[Tuple[Conduit, ConduitColocation]]:
    """Figure 5: conduits mostly *not* co-located with road or rail.

    Returns them with their co-location rows; the interesting ones have
    high pipeline fractions (the "other types of rights-of-way, such as
    natural gas and/or petroleum pipelines" of §3).
    """
    result = []
    for row in report.colocations:
        if row.road_or_rail < threshold:
            result.append((fiber_map.conduit(row.conduit_id), row))
    result.sort(key=lambda pair: pair[1].road_or_rail)
    return result
