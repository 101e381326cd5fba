"""Deterministic synthetic taxi fixture: a fake grid city with hotspots.

Generates competition-format CSV (or records directly) so every test and
the documented walkthrough run without the real 1.6 GB dataset.  Trips
start on a Manhattan street grid around the Porto city center and end near
one of a few Gaussian destination hotspots; polylines follow L-shaped
routes sampled roughly every 15 seconds of driving.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._atomic import atomic_open
from .data import TrainRecord

__all__ = ["generate_city_csv", "generate_city_records"]

CITY_CENTER = (41.15, -8.61)
_M_PER_DEG_LAT = 6_371_000.0 * math.pi / 180.0
_M_PER_DEG_LON = _M_PER_DEG_LAT * math.cos(math.radians(CITY_CENTER[0]))

# Hotspot offsets from the center in meters (east, north), sigma 150 m.
_HOTSPOTS_M = np.array([(2500.0, 1800.0), (-2200.0, 900.0), (400.0, -2400.0), (-900.0, -700.0)])
_HOTSPOT_SIGMA_M = 150.0
_GRID_SPACING_M = 400.0
_STEP_M = 120.0  # ~15 s at 8 m/s
_GPS_NOISE_M = 8.0

_EPOCH_2013_07_01 = 1372636800  # 2013-07-01 00:00 UTC


def _to_latlon(east_m: np.ndarray, north_m: np.ndarray) -> np.ndarray:
    lat = CITY_CENTER[0] + north_m / _M_PER_DEG_LAT
    lon = CITY_CENTER[1] + east_m / _M_PER_DEG_LON
    return np.stack([lat, lon], axis=-1)


def _route_m(rng: np.random.Generator, start: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """L-shaped path east/north in meters with GPS noise, >= 1 point."""
    points = [start]
    pos = start.astype(np.float64).copy()
    for axis in rng.permutation(2):
        delta = dest[axis] - pos[axis]
        n_steps = int(abs(delta) // _STEP_M)
        for _ in range(n_steps):
            pos[axis] += math.copysign(_STEP_M, delta)
            points.append(pos.copy())
    points.append(dest.astype(np.float64))
    path = np.array(points)
    return path + rng.normal(0.0, _GPS_NOISE_M, size=path.shape)


def generate_city_records(n_trips: int, seed: int = 0) -> list[TrainRecord]:
    rng = np.random.default_rng(seed)
    n_clients = max(4, n_trips // 5)
    n_taxis = max(3, n_trips // 10)
    n_stands = 6
    records = []
    for i in range(n_trips):
        node = rng.integers(-7, 8, size=2).astype(np.float64) * _GRID_SPACING_M
        hotspot = _HOTSPOTS_M[int(rng.integers(len(_HOTSPOTS_M)))]
        dest = hotspot + rng.normal(0.0, _HOTSPOT_SIGMA_M, size=2)
        path_m = _route_m(rng, node, dest)
        poly = _to_latlon(path_m[:, 0], path_m[:, 1])

        call_code = ("phone", "stand", "street")[int(rng.integers(3))]
        origin_call = int(rng.integers(1, n_clients + 1)) * 7 if call_code == "phone" else None
        origin_stand = int(rng.integers(1, n_stands + 1)) if call_code == "stand" else None
        records.append(
            TrainRecord(
                trip_id=f"T{i:06d}",
                call_type=call_code,
                origin_call=origin_call,
                origin_stand=origin_stand,
                taxi_id=20000000 + int(rng.integers(n_taxis)),
                timestamp=_EPOCH_2013_07_01 + int(rng.integers(365 * 86400)),
                missing_data=False,
                polyline=poly,
            )
        )
    return records


def generate_city_csv(path, n_trips: int, seed: int = 0) -> None:
    """Write the synthetic fixture in the competition CSV schema."""
    code = {"phone": "A", "stand": "B", "street": "C"}
    with atomic_open(path, "w", encoding="utf-8", newline="") as f:
        f.write(
            "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"
        )
        for rec in generate_city_records(n_trips, seed):
            poly = json.dumps(
                [[round(lon, 6), round(lat, 6)] for lat, lon in rec.polyline],
                separators=(",", ":"),
            )
            f.write(
                ",".join(
                    [
                        rec.trip_id,
                        code[rec.call_type],
                        "" if rec.origin_call is None else str(rec.origin_call),
                        "" if rec.origin_stand is None else str(rec.origin_stand),
                        str(rec.taxi_id),
                        str(rec.timestamp),
                        "A",
                        "False",
                        '"' + poly.replace('"', '""') + '"',
                    ]
                )
                + "\n"
            )
