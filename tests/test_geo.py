"""Geodesic distances, standardization, and their analytic gradients.

The Haversine properties are checked on the package's array code; the
equirectangular distance, its gradient and standardization on the scalar
references in ``geo_reference`` that check the tape loss and the inputs.
"""

import math

import numpy as np
import pytest

from geo_reference import (
    equirectangular_distance,
    equirectangular_grad_y,
    haversine_distance,
    standardize,
    unstandardize,
)
from taxidest.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    StandardizationStats,
    first_off_earth,
    haversine_distance_arrays,
)

PORTO = GeoPoint(41.15, -8.61)
# 30 km box half-widths at the Porto latitude.
DLAT_30KM = 0.2698
DLON_30KM = 0.3583


def random_porto_points(rng, n):
    lat = PORTO.lat + rng.uniform(-DLAT_30KM, DLAT_30KM, n)
    lon = PORTO.lon + rng.uniform(-DLON_30KM, DLON_30KM, n)
    return lat, lon


def great_circle_arc(x: GeoPoint, y: GeoPoint) -> float:
    """Independent oracle: R times the central angle via the spherical law
    of cosines, adequate at the separations used in these tests."""
    p1, p2 = math.radians(x.lat), math.radians(y.lat)
    dl = math.radians(y.lon - x.lon)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, c)))


class TestHaversine:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(4)
        lat, lon = random_porto_points(rng, 1000)
        lat[0], lon[0] = 41.1496, -8.6110
        assert (haversine_distance_arrays(lat, lon, lat, lon) == 0.0).all()

    def test_one_degree_equator(self):
        # Oracle: great-circle arc for an equatorial 1-degree separation,
        # which equals R*pi/180 = 111194.92664455874 m.
        oracle = great_circle_arc(GeoPoint(0, 0), GeoPoint(0, 1))
        [d] = haversine_distance_arrays(np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1))
        assert d == pytest.approx(oracle, rel=1e-9)
        assert d == pytest.approx(111194.92664455874, abs=1e-6)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(5)
        lat1, lon1 = random_porto_points(rng, 1000)
        lat2, lon2 = random_porto_points(rng, 1000)
        np.testing.assert_array_equal(
            haversine_distance_arrays(lat1, lon1, lat2, lon2), haversine_distance_arrays(lat2, lon2, lat1, lon1)
        )

    def test_array_version_matches_scalar(self):
        rng = np.random.default_rng(6)
        lat1, lon1 = random_porto_points(rng, 50)
        lat2, lon2 = random_porto_points(rng, 50)
        d = haversine_distance_arrays(lat1, lon1, lat2, lon2)
        for i in range(50):
            s = haversine_distance(GeoPoint(lat1[i], lon1[i]), GeoPoint(lat2[i], lon2[i]))
            assert d[i] == pytest.approx(s, rel=1e-12)


class TestEquirectangular:
    def test_identity_is_zero(self):
        p = GeoPoint(41.15, -8.61)
        assert equirectangular_distance(p, p) == 0.0

    def test_single_axis_longitude(self):
        # R * 0.01deg * cos(41.15deg) = 837.2860524645654 m
        x = GeoPoint(41.15, -8.61)
        y = GeoPoint(41.15, -8.60)
        oracle = EARTH_RADIUS_M * math.radians(0.01) * math.cos(math.radians(41.15))
        d = equirectangular_distance(x, y)
        assert d == pytest.approx(oracle, rel=1e-12)
        assert d == pytest.approx(837.2860524645654, abs=1e-9)

    def test_agreement_with_haversine_porto(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            lat, lon = random_porto_points(rng, 2)
            a = GeoPoint(lat[0], lon[0])
            b = GeoPoint(lat[1], lon[1])
            if haversine_distance(PORTO, a) > 30_000 or haversine_distance(PORTO, b) > 30_000:
                continue
            hav = haversine_distance(a, b)
            if hav < 1.0:
                continue
            assert abs(equirectangular_distance(a, b) - hav) / hav < 1e-3
            checked += 1

    def test_properties_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            lat, lon = random_porto_points(rng, 2)
            a = GeoPoint(lat[0], lon[0])
            b = GeoPoint(lat[1], lon[1])
            de = equirectangular_distance(a, b)
            assert de >= 0.0
            assert de == equirectangular_distance(b, a)
        lat1, lon1 = random_porto_points(rng, 10_000)
        lat2, lon2 = random_porto_points(rng, 10_000)
        dh = haversine_distance_arrays(lat1, lon1, lat2, lon2)
        assert (dh >= 0.0).all()
        np.testing.assert_array_equal(dh, haversine_distance_arrays(lat2, lon2, lat1, lon1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6  # degrees
        for _ in range(100):
            lat, lon = random_porto_points(rng, 2)
            x = GeoPoint(lat[0], lon[0])
            y = GeoPoint(lat[1], lon[1])
            if equirectangular_distance(x, y) < 1.0:
                continue
            g_lat, g_lon = equirectangular_grad_y(x, y)
            fd_lat = (
                equirectangular_distance(x, GeoPoint(y.lat + h, y.lon))
                - equirectangular_distance(x, GeoPoint(y.lat - h, y.lon))
            ) / (2 * h)
            fd_lon = (
                equirectangular_distance(x, GeoPoint(y.lat, y.lon + h))
                - equirectangular_distance(x, GeoPoint(y.lat, y.lon - h))
            ) / (2 * h)
            assert g_lat == pytest.approx(fd_lat, rel=1e-4)
            assert g_lon == pytest.approx(fd_lon, rel=1e-4)

    def test_gradient_undefined_at_identity(self):
        p = GeoPoint(41.15, -8.61)
        with pytest.raises(ZeroDivisionError):
            equirectangular_grad_y(p, p)


class TestStandardization:
    STATS = StandardizationStats(41.0, -8.0, 2.0, 0.5)

    def test_mean_maps_to_origin(self):
        assert standardize(GeoPoint(41.0, -8.0), self.STATS) == (0.0, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            lat, lon = random_porto_points(rng, 1)
            p = GeoPoint(lat[0], lon[0])
            q = unstandardize(standardize(p, self.STATS), self.STATS)
            assert q.lat == pytest.approx(p.lat, abs=1e-9)
            assert q.lon == pytest.approx(p.lon, abs=1e-9)

    def test_unstandardize_example(self):
        p = unstandardize((1.0, 1.0), self.STATS)
        assert (p.lat, p.lon) == (43.0, -7.5)

    def test_zero_variance_guard(self):
        stats = StandardizationStats.from_moments(42.0, -8.0, 1.0, 0.0)
        assert stats.std_lon == 1.0
        assert stats.std_lat == 1.0
        s = standardize(GeoPoint(41.0, -8.0), stats)
        assert s == (-1.0, 0.0)

    def test_positive_std_enforced(self):
        with pytest.raises(ValueError):
            StandardizationStats(41.0, -8.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "moments",
        [(math.nan, -8.0, 1.0, 1.0), (41.0, math.inf, 1.0, 1.0), (41.0, -8.0, math.inf, 1.0), (41.0, -8.0, 1.0, math.nan)],
    )
    def test_finite_moments_enforced(self, moments):
        with pytest.raises(ValueError, match="finite"):
            StandardizationStats(*moments)


class TestFirstOffEarth:
    @pytest.mark.parametrize(
        "bad", [(90.5, 0.0), (-91.0, 0.0), (0.0, 180.5), (0.0, -181.0), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)]
    )
    def test_names_the_first_bad_row(self, bad):
        points = np.array([[41.15, -8.61], [90.0, -180.0], bad, [95.0, 0.0]])
        assert first_off_earth(points) == 2

    @pytest.mark.parametrize(
        "points", [np.empty((0, 2)), [[41.15, -8.61]], [[0.0, 120.0], [-45.0, -170.0]], [[90.0, 180.0], [-90.0, -180.0]]]
    )
    def test_points_on_the_earth(self, points):
        assert first_off_earth(points) is None


class TestGeoPoint:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)

    def test_longitude_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, -181.0)
