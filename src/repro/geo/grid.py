"""A lat/lon bucket grid index over polyline segments.

Buffer-overlap analysis asks, for thousands of sample points, "is there a
road or rail segment within D km of this point?".  A uniform grid over
latitude/longitude keeps that query local instead of scanning every
segment of every corridor.

Inserts fill a dict of cells.  The first query after an insert compiles
the cells into flat arrays — sorted int64 cell keys, CSR offsets into
segment ids, float64 endpoint arrays and an int tag code per segment —
and every query then runs as one numpy pass over blocks of points:
look up each point's neighbour cells with ``searchsorted``, expand the
(point, segment) candidate pairs with ``repeat``, evaluate their
distances element by element, and OR the hits into a points × tags
matrix.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.geo.vectorized import projected_segment_distances_km
from repro.obs import get_tracer

CellKey = Tuple[int, int]

#: Compiled cell key of ``(row, col)``: ``row * _ROW_STRIDE + col``, so a
#: neighbour cell's key is the point's key plus a constant offset.
_ROW_STRIDE = 1 << 32

#: Points per block of a batch query.  A block's (point, segment) pair
#: arrays are what a query holds in memory: on the US corridor map a
#: point has ~150 candidate pairs at a 15 km radius, so a block of 256
#: points peaks near 12 MB (512 points: ~23 MB, for no measurable gain).
BLOCK_POINTS = 256

#: Kilometres per degree of latitude used to size the cell ring; rounded
#: down from 111.19 so the ring errs on the wide side.
_RING_KM_PER_DEG = 111.0


class _Compiled(NamedTuple):
    """The cells as arrays (see the module docstring)."""

    keys: np.ndarray
    offsets: np.ndarray
    segment_ids: np.ndarray
    ends: np.ndarray  # (segments, 4): lat_a, lon_a, lat_b, lon_b
    tag_codes: np.ndarray


def cell_rings(cell_deg: float, lat: float, radius_km: float) -> Tuple[int, int]:
    """Row and column cell rings that cover *radius_km* around latitude *lat*.

    Every segment within *radius_km* of a point at latitude *lat* (or
    nearer the equator) lies in a cell at most ``row_ring`` rows and
    ``col_ring`` columns from the point's cell.  A degree of latitude is
    ~111 km everywhere, but a degree of longitude shrinks with
    ``cos(latitude)``, so the column ring is sized at the most poleward
    latitude the radius reaches (capped at the whole globe).  Each ring
    is padded by one cell.
    """
    extent_deg = radius_km / _RING_KM_PER_DEG
    row_ring = int(math.ceil(extent_deg / cell_deg)) + 1
    globe = int(math.ceil(360.0 / cell_deg))
    poleward = min(abs(lat) + extent_deg, 90.0)
    col_km = _RING_KM_PER_DEG * cell_deg * math.cos(math.radians(poleward))
    if col_km <= 0.0:
        return row_ring, globe
    return row_ring, min(globe, int(math.ceil(radius_km / col_km)) + 1)


class SpatialGridIndex:
    """Uniform lat/lon grid holding tagged polyline segments.

    Parameters
    ----------
    cell_deg:
        Grid cell size in degrees.  0.5 degrees (~55 km N-S) is a good
        default for corridor-scale queries.
    """

    def __init__(self, cell_deg: float = 0.5):
        if cell_deg <= 0:
            raise ValueError(f"cell size must be positive: {cell_deg}")
        self.cell_deg = cell_deg
        self._cells: Dict[CellKey, List[int]] = defaultdict(list)
        self._ends: List[Tuple[float, float, float, float]] = []
        self._tag_codes: List[int] = []
        self._codes: Dict[Hashable, int] = {}
        self._compiled: Optional[_Compiled] = None

    # ------------------------------------------------------------------
    def _cell_of(self, point: GeoPoint) -> CellKey:
        return (
            int(math.floor(point.lat / self.cell_deg)),
            int(math.floor(point.lon / self.cell_deg)),
        )

    def _cells_for_segment(self, a: GeoPoint, b: GeoPoint) -> Set[CellKey]:
        """All cells a segment may touch (bounding box of its endpoints)."""
        ra, ca = self._cell_of(a)
        rb, cb = self._cell_of(b)
        return {
            (r, c)
            for r in range(min(ra, rb), max(ra, rb) + 1)
            for c in range(min(ca, cb), max(ca, cb) + 1)
        }

    # ------------------------------------------------------------------
    def insert_segment(self, a: GeoPoint, b: GeoPoint, tag: Hashable) -> None:
        """Insert one segment with an arbitrary hashable *tag*."""
        segment_id = len(self._ends)
        self._ends.append((a.lat, a.lon, b.lat, b.lon))
        self._tag_codes.append(self._codes.setdefault(tag, len(self._codes)))
        for key in self._cells_for_segment(a, b):
            self._cells[key].append(segment_id)
        self._compiled = None

    def insert_polyline(self, line: Polyline, tag: Hashable) -> None:
        """Insert every segment of *line* under *tag*."""
        for a, b in line.segments():
            self.insert_segment(a, b, tag)

    def __len__(self) -> int:
        """Number of segments inserted (not counting multi-cell duplicates)."""
        return len(self._ends)

    @property
    def tags(self) -> Tuple[Hashable, ...]:
        """Distinct tags in first-insertion order: the columns of
        :meth:`within_many`."""
        return tuple(self._codes)

    # ------------------------------------------------------------------
    def _compile(self) -> _Compiled:
        if self._compiled is None:
            cells = sorted(
                (row * _ROW_STRIDE + col, ids)
                for (row, col), ids in self._cells.items()
            )
            sizes = np.fromiter(
                (len(ids) for _, ids in cells), np.int64, len(cells)
            )
            offsets = np.zeros(len(cells) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            self._compiled = _Compiled(
                keys=np.fromiter((key for key, _ in cells), np.int64, len(cells)),
                offsets=offsets,
                segment_ids=np.fromiter(
                    (i for _, ids in cells for i in ids), np.int64, int(offsets[-1])
                ),
                ends=np.array(self._ends, dtype=np.float64).reshape(-1, 4),
                tag_codes=np.array(self._tag_codes, dtype=np.int64),
            )
        return self._compiled

    def _pair_blocks(
        self, lats: np.ndarray, lons: np.ndarray, radius_km: float
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Candidate (point, segment) pairs with their distances, per block.

        Yields ``(start, points, segments, distances_km)`` for every block
        of :data:`BLOCK_POINTS` points from *start*: ``points`` are
        block-relative point indices, ``segments`` segment ids.  A pair
        repeats when its segment spans several scanned cells.
        """
        grid = self._compile()
        if grid.keys.size == 0:
            return
        cell = self.cell_deg
        last = grid.keys.size - 1
        tracer = get_tracer()
        for start in range(0, lats.size, BLOCK_POINTS):
            lat = lats[start:start + BLOCK_POINTS]
            lon = lons[start:start + BLOCK_POINTS]
            # The most poleward point's rings serve the whole block: extra
            # cells only add candidates that fail the distance test.
            row_ring, col_ring = cell_rings(
                cell, float(np.abs(lat).max()), radius_km
            )
            rows = np.arange(-row_ring, row_ring + 1, dtype=np.int64)
            cols = np.arange(-col_ring, col_ring + 1, dtype=np.int64)
            neighbours = (rows[:, None] * _ROW_STRIDE + cols[None, :]).ravel()
            base = (
                np.floor(lat / cell).astype(np.int64) * _ROW_STRIDE
                + np.floor(lon / cell).astype(np.int64)
            )
            wanted = base[:, None] + neighbours[None, :]
            slot = np.minimum(np.searchsorted(grid.keys, wanted), last)
            found = grid.keys[slot] == wanted
            first = grid.offsets[slot]
            counts = np.where(found, grid.offsets[slot + 1] - first, 0).ravel()
            total = int(counts.sum())
            points = np.repeat(
                np.arange(lat.size, dtype=np.int64), neighbours.size
            ).repeat(counts)
            # CSR expansion: pair k of a cell run reads segment_ids[first + k].
            run_start = np.cumsum(counts) - counts
            cursor = np.arange(total, dtype=np.int64) + np.repeat(
                first.ravel() - run_start, counts
            )
            segments = grid.segment_ids[cursor]
            distances = projected_segment_distances_km(
                lat[points],
                lon[points],
                np.cos(np.radians(lat))[points],
                *grid.ends[segments].T,
            )
            tracer.count("geo.grid.blocks")
            tracer.count("geo.grid.candidate_pairs", total)
            yield start, points, segments, distances

    def within_many(
        self, lats: np.ndarray, lons: np.ndarray, radius_km: float
    ) -> np.ndarray:
        """Which tags lie within *radius_km* of each point.

        Returns an ``(N, len(tags))`` bool matrix: entry ``[i, j]`` is
        True when a segment tagged ``tags[j]`` lies within *radius_km* of
        point ``(lats[i], lons[i])``.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        near = np.zeros((lats.size, len(self._codes)), dtype=bool)
        codes = self._compile().tag_codes
        for start, points, segments, distances in self._pair_blocks(
            lats, lons, radius_km
        ):
            hit = distances <= radius_km
            near[start + points[hit], codes[segments[hit]]] = True
        return near

    def nearest_distance_km(
        self, point: GeoPoint, radius_km: float, tags: Set[Hashable] = None
    ) -> float:
        """Distance to the nearest indexed segment within *radius_km*.

        Returns ``math.inf`` when nothing lies within the radius.  When
        *tags* is given, only segments whose tag is in the set count.
        """
        codes = self._compile().tag_codes
        counted = np.array([tags is None or tag in tags for tag in self._codes])
        best = math.inf
        for _, _, segments, distances in self._pair_blocks(
            np.array([point.lat]), np.array([point.lon]), radius_km
        ):
            distances = distances[counted[codes[segments]]]
            if distances.size:
                best = min(best, float(distances.min()))
        return best if best <= radius_km else math.inf

    def within(self, point: GeoPoint, radius_km: float) -> Set[Hashable]:
        """Tags of all segments within *radius_km* of *point*."""
        near = self.within_many(
            np.array([point.lat]), np.array([point.lon]), radius_km
        )[0]
        return {tag for tag, hit in zip(self._codes, near) if hit}
