"""Tests for the local projection and the spatial grid index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.grid import BLOCK_POINTS, SpatialGridIndex
from repro.geo.polyline import Polyline
from repro.geo.projection import LocalProjection, point_segment_distance_km
from tests.oracles import geography as geo_oracle

CENTER = GeoPoint(40.0, -100.0)


class TestLocalProjection:
    def test_reference_is_origin(self):
        proj = LocalProjection(CENTER)
        assert proj.to_xy(CENTER) == (0.0, 0.0)

    def test_roundtrip(self):
        proj = LocalProjection(CENTER)
        p = GeoPoint(40.7, -99.2)
        back = proj.to_geo(proj.to_xy(p))
        assert haversine_km(p, back) < 0.01

    def test_distance_agreement_locally(self):
        proj = LocalProjection(CENTER)
        p = GeoPoint(40.4, -100.6)
        x, y = proj.to_xy(p)
        planar = math.hypot(x, y)
        assert planar == pytest.approx(haversine_km(CENTER, p), rel=0.01)

    def test_to_xy_many(self):
        proj = LocalProjection(CENTER)
        pts = [CENTER, GeoPoint(41.0, -100.0)]
        assert proj.to_xy_many(pts) == [proj.to_xy(p) for p in pts]


class TestPointSegmentDistance:
    def test_point_on_segment(self):
        a, b = GeoPoint(40.0, -100.0), GeoPoint(40.0, -99.0)
        mid = GeoPoint(40.0, -99.5)
        assert point_segment_distance_km(mid, a, b) < 0.5

    def test_point_beyond_endpoint_clamps(self):
        a, b = GeoPoint(40.0, -100.0), GeoPoint(40.0, -99.0)
        beyond = GeoPoint(40.0, -98.0)
        assert point_segment_distance_km(beyond, a, b) == pytest.approx(
            haversine_km(beyond, b), rel=0.02
        )

    def test_degenerate_segment(self):
        a = GeoPoint(40.0, -100.0)
        p = GeoPoint(41.0, -100.0)
        assert point_segment_distance_km(p, a, a) == pytest.approx(
            haversine_km(p, a), rel=0.02
        )

    def test_perpendicular_distance(self):
        a, b = GeoPoint(40.0, -101.0), GeoPoint(40.0, -99.0)
        p = GeoPoint(40.9, -100.0)  # ~100 km north of the segment
        assert point_segment_distance_km(p, a, b) == pytest.approx(100, rel=0.05)


class TestSpatialGridIndex:
    def _line(self):
        return Polyline([GeoPoint(40.0, -101.0), GeoPoint(40.0, -99.0)])

    def test_insert_and_count(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        assert len(grid) == 1

    def test_within_hit(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        near = GeoPoint(40.05, -100.0)
        assert grid.within(near, 10.0) == {"road"}

    def test_within_miss(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        far = GeoPoint(42.0, -100.0)
        assert grid.within(far, 10.0) == set()

    def test_nearest_distance(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(40.45, -100.0)  # ~50 km north
        d = grid.nearest_distance_km(p, 100.0)
        assert d == pytest.approx(50, rel=0.05)

    def test_nearest_distance_inf_outside_radius(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(45.0, -100.0)
        assert grid.nearest_distance_km(p, 50.0) == math.inf

    def test_tag_filter(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(40.05, -100.0)
        assert grid.nearest_distance_km(p, 50.0, tags={"rail"}) == math.inf
        assert grid.nearest_distance_km(p, 50.0, tags={"road"}) < 10.0

    def test_insert_after_query_recompiles(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(40.05, -100.0)
        assert grid.within(p, 10.0) == {"road"}
        grid.insert_polyline(self._line(), "rail")
        assert grid.within(p, 10.0) == {"road", "rail"}

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(cell_deg=0.0)

    @given(
        st.floats(min_value=39.2, max_value=40.8),
        st.floats(min_value=-101.8, max_value=-98.2),
    )
    @settings(max_examples=40)
    def test_grid_matches_brute_force(self, lat, lon):
        line = self._line()
        grid = SpatialGridIndex()
        grid.insert_polyline(line, "road")
        point = GeoPoint(lat, lon)
        brute = line.distance_to_point_km(point)
        indexed = grid.nearest_distance_km(point, 500.0)
        assert indexed == pytest.approx(brute, abs=0.5)


class TestLongitudeRing:
    """The column ring must follow the shrinking longitude degree.

    At latitude 60 a degree of longitude is ~55.6 km, so a segment 398 km
    due east lies ~7.2 degrees away: outside a ring sized from latitude
    degrees (ceil(500 / 55.5) + 1 = 11 cells of 0.5 degrees).
    """

    @pytest.mark.parametrize("lat", [60.0, 70.0, -75.0, 85.0])
    def test_far_east_segment_matches_brute_force(self, lat):
        point = GeoPoint(lat, 10.0)
        east = 10.0 + 398.0 / (111.195 * math.cos(math.radians(lat)))
        line = Polyline([GeoPoint(lat - 0.5, east), GeoPoint(lat + 0.5, east)])
        grid = SpatialGridIndex()
        grid.insert_polyline(line, "road")
        brute = line.distance_to_point_km(point)
        assert brute == pytest.approx(398.0, rel=0.01)
        assert grid.nearest_distance_km(point, 500.0) == pytest.approx(brute)
        assert grid.within(point, 500.0) == {"road"}


def _random_grid(rng, segments, kinds, lat_lo, lat_hi):
    """Random tagged segments; every seventh is degenerate (a == b)."""
    grid = SpatialGridIndex()
    for i in range(segments):
        a = GeoPoint(rng.uniform(lat_lo, lat_hi), rng.uniform(-10.0, 10.0))
        b = a if i % 7 == 0 else GeoPoint(
            min(89.0, max(-89.0, a.lat + rng.uniform(-1.5, 1.5))),
            a.lon + rng.uniform(-1.5, 1.5),
        )
        grid.insert_segment(a, b, kinds[int(rng.integers(len(kinds)))])
    return grid


def _query_points(rng, count, lat_lo, lat_hi):
    """Random points, the first half snapped onto 0.5-degree cell edges."""
    lats = rng.uniform(lat_lo, lat_hi, count)
    lons = rng.uniform(-11.0, 11.0, count)
    lats[: count // 2] = np.round(lats[: count // 2] * 2.0) / 2.0
    lons[: count // 2] = np.round(lons[: count // 2] * 2.0) / 2.0
    return lats, lons


class TestBatchedKernel:
    """``within_many`` equals the per-point reference in tests/oracles."""

    @pytest.mark.parametrize(
        "count", [BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1]
    )
    @pytest.mark.parametrize(
        "kinds, lat_lo, lat_hi",
        [
            (("road", "rail", "pipeline"), 25.0, 49.0),
            (("road", "rail"), 25.0, 49.0),  # no pipeline kind
            (("road", "rail", "pipeline"), 55.0, 80.0),  # wide column rings
        ],
    )
    def test_matches_reference(self, count, kinds, lat_lo, lat_hi):
        rng = np.random.default_rng(count * 31 + int(lat_lo))
        grid = _random_grid(rng, 300, kinds, lat_lo, lat_hi)
        lats, lons = _query_points(rng, count, lat_lo, lat_hi)
        for radius_km in (5.0, 30.0, 120.0):
            near = grid.within_many(lats, lons, radius_km)
            assert near.shape == (count, len(grid.tags))
            for i in range(count):
                point = GeoPoint(lats[i], lons[i])
                expected = geo_oracle.within(grid, point, radius_km)
                got = {tag for tag, hit in zip(grid.tags, near[i]) if hit}
                assert got == expected, (i, radius_km)

    def test_degenerate_segment_is_a_point(self):
        grid = SpatialGridIndex()
        a = GeoPoint(40.0, -100.0)
        grid.insert_segment(a, a, "road")
        p = GeoPoint(40.1, -100.0)
        expected = haversine_km(p, a)
        assert grid.nearest_distance_km(p, 50.0) == pytest.approx(
            expected, rel=0.01
        )
        assert grid.within(p, 12.0) == {"road"}
        assert grid.within(p, 10.0) == set()

    def test_empty_index(self):
        grid = SpatialGridIndex()
        lats, lons = np.array([40.0, 41.0]), np.array([-100.0, -99.0])
        assert grid.tags == ()
        assert grid.within_many(lats, lons, 15.0).shape == (2, 0)
        assert grid.within(GeoPoint(40.0, -100.0), 15.0) == set()
        assert grid.nearest_distance_km(GeoPoint(40.0, -100.0), 15.0) == math.inf
