"""Scalar geodesy, one point at a time: the references that the package's
array code is checked against.

``haversine_distance`` checks ``geo.haversine_distance_arrays``;
``equirectangular_distance`` and ``equirectangular_grad_y`` check the tape
loss ``training.equirectangular_loss`` and its gradient; ``standardize``
and ``unstandardize`` check the standardized model inputs.  Points are
``GeoPoint``s in degrees, distances meters on the package's Earth.
"""

from __future__ import annotations

import math

from taxidest.geo import EARTH_RADIUS_M, GeoPoint, StandardizationStats

_DEG2RAD = math.pi / 180.0


def haversine_distance(x: GeoPoint, y: GeoPoint) -> float:
    """Great-circle distance in meters between two points.

    Symmetric, non-negative, and zero iff ``x == y`` up to floating point.
    """
    phi_x = x.lat * _DEG2RAD
    phi_y = y.lat * _DEG2RAD
    s_phi = math.sin(0.5 * (phi_y - phi_x))
    s_lam = math.sin(0.5 * (y.lon - x.lon) * _DEG2RAD)
    a = s_phi * s_phi + math.cos(phi_x) * math.cos(phi_y) * s_lam * s_lam
    return 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(a), math.sqrt(max(0.0, 1.0 - a)))


def equirectangular_distance(x: GeoPoint, y: GeoPoint) -> float:
    """Planar small-area approximation of the great-circle distance, meters.

    Uses the mean latitude to scale longitude differences; very accurate at
    city scale (relative error < 1e-3 within ~30 km at latitude 41).
    """
    phi_x = x.lat * _DEG2RAD
    phi_y = y.lat * _DEG2RAD
    d_phi = phi_y - phi_x
    d_lam = (y.lon - x.lon) * _DEG2RAD
    u = d_lam * math.cos(0.5 * (phi_x + phi_y))
    return EARTH_RADIUS_M * math.sqrt(u * u + d_phi * d_phi)


def equirectangular_grad_y(x: GeoPoint, y: GeoPoint) -> tuple[float, float]:
    """Analytic gradient of the equirectangular distance w.r.t. ``y``.

    Returns (d/dlat_y, d/dlon_y) in meters per degree.  Undefined at ``x == y``.
    """
    phi_x = x.lat * _DEG2RAD
    phi_y = y.lat * _DEG2RAD
    d_phi = phi_y - phi_x
    d_lam = (y.lon - x.lon) * _DEG2RAD
    mean_phi = 0.5 * (phi_x + phi_y)
    u = d_lam * math.cos(mean_phi)
    d = math.sqrt(u * u + d_phi * d_phi)
    if d == 0.0:
        raise ZeroDivisionError("gradient undefined at coincident points")
    r = EARTH_RADIUS_M
    # d depends on phi_y both through d_phi and through the mean latitude.
    dd_dphi = r * (d_phi + u * d_lam * (-0.5) * math.sin(mean_phi)) / d
    dd_dlam = r * u * math.cos(mean_phi) / d
    return dd_dphi * _DEG2RAD, dd_dlam * _DEG2RAD


def standardize(p: GeoPoint, stats: StandardizationStats) -> tuple[float, float]:
    """Map a point to zero-mean, unit-variance coordinates: ((lat-m)/s, (lon-m)/s)."""
    return (
        (p.lat - stats.mean_lat) / stats.std_lat,
        (p.lon - stats.mean_lon) / stats.std_lon,
    )


def unstandardize(s: tuple[float, float], stats: StandardizationStats) -> GeoPoint:
    """Exact inverse of :func:`standardize`."""
    return GeoPoint(
        s[0] * stats.std_lat + stats.mean_lat,
        s[1] * stats.std_lon + stats.mean_lon,
    )
