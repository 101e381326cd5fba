"""The Earth, points and coordinate standardization.

Coordinates are in decimal degrees and distances in meters, computed in
double precision on arrays; the training loss, clustering and the
evaluation metric all use the one radius ``EARTH_RADIUS_M``.  A point is
on the Earth when it is finite with |lat| <= 90 and |lon| <= 180
(:func:`first_off_earth`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DEG2RAD",
    "EARTH_RADIUS_M",
    "GeoPoint",
    "StandardizationStats",
    "first_off_earth",
    "haversine_distance_arrays",
]

#: Mean radius of the spherical Earth, meters.
EARTH_RADIUS_M = 6_371_000.0

#: Radians per degree.
DEG2RAD = math.pi / 180.0

#: Largest |latitude| and |longitude| of a point on the Earth.
_LAT_LON_LIMITS = np.array([90.0, 180.0])

# Guard against division blow-up when a fitting set is degenerate.
_MIN_STD = 1e-12


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class StandardizationStats:
    """Per-axis mean and standard deviation in degrees, std strictly positive."""

    mean_lat: float
    mean_lon: float
    std_lat: float
    std_lon: float

    def __post_init__(self):
        if not (math.isfinite(self.mean_lat) and math.isfinite(self.mean_lon)):
            raise ValueError(f"means must be finite, got {self.mean_lat} and {self.mean_lon}")
        if not (0.0 < self.std_lat < math.inf and 0.0 < self.std_lon < math.inf):
            raise ValueError("standard deviations must be finite and strictly positive")

    @classmethod
    def from_moments(cls, mean_lat, mean_lon, std_lat, std_lon):
        """Build stats applying the zero-variance guard (std < 1e-12 -> 1.0)."""
        if std_lat < _MIN_STD:
            std_lat = 1.0
        if std_lon < _MIN_STD:
            std_lon = 1.0
        return cls(float(mean_lat), float(mean_lon), float(std_lat), float(std_lon))


def first_off_earth(points) -> Optional[int]:
    """Row of the first (lat, lon) of the (N, 2) ``points`` that is not
    finite within |lat| <= 90 and |lon| <= 180, or None if every row is."""
    points = np.asarray(points)
    # One min and max over all coordinates clears any city within |lon| <= 90;
    # only otherwise are the columns searched against their own limits.
    if len(points) == 0 or -90.0 <= points.min() <= points.max() <= 90.0:  # false for NaN too
        return None
    bad = ~(np.abs(points) <= _LAT_LON_LIMITS).all(axis=1)
    return int(np.flatnonzero(bad)[0]) if bad.any() else None


def haversine_distance_arrays(
    lat_x: np.ndarray,
    lon_x: np.ndarray,
    lat_y: np.ndarray,
    lon_y: np.ndarray,
) -> np.ndarray:
    """Great-circle meters between degree arrays, elementwise, float64.

    Symmetric, non-negative, and zero where the points coincide.
    """
    phi_x = np.asarray(lat_x, dtype=np.float64) * DEG2RAD
    phi_y = np.asarray(lat_y, dtype=np.float64) * DEG2RAD
    s_phi = np.sin(0.5 * (phi_y - phi_x))
    s_lam = np.sin(0.5 * (np.asarray(lon_y, np.float64) - np.asarray(lon_x, np.float64)) * DEG2RAD)
    a = s_phi * s_phi + np.cos(phi_x) * np.cos(phi_y) * s_lam * s_lam
    return 2.0 * EARTH_RADIUS_M * np.arctan2(np.sqrt(a), np.sqrt(np.maximum(0.0, 1.0 - a)))
