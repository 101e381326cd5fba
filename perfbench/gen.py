"""Porto-shaped synthetic inputs for the benchmark workloads.

Everything the program receives is generated here from the workload seed:
a competition-format CSV whose trips

- have log-normal lengths in 15-second GPS points, like the Porto corpus;
- end near one of many planted destination hotspots, denser towards the
  centre, or anywhere in a diffuse background, so that mean-shift at the default 500 m bandwidth
  finds hundreds of centres;
- carry client, taxi and stand IDs drawn from Porto-sized ranges
  (57 106 clients, 448 taxis, 63 stands) with skewed popularity.

Coordinates are generated as integer micro-degrees and written with six
decimals, so the exact float64 values a correct parser must return are
known without parsing (``micro / 1e6`` and ``float("%.6f")`` are both the
correctly rounded value of the same decimal).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

PORTO = (41.1579, -8.6291)
M_PER_DEG_LAT = 6_371_000.0 * math.pi / 180.0
M_PER_DEG_LON = M_PER_DEG_LAT * math.cos(math.radians(PORTO[0]))

# Hotspots sit on a jittered 1.2 km lattice over a 24 km x 18 km area, so
# two hotspots are always more than 2 bandwidths minus jitter apart and no
# 500 m ball reaches two of them.
HOTSPOT_SPACING_M = 1200.0
HOTSPOT_JITTER_M = 100.0
HOTSPOT_SIGMA_M = 60.0
EXTENT_M = (24_000.0, 18_000.0)  # east, north
STEP_M = 110.0  # ~15 s of driving at 26 km/h
GPS_NOISE_M = 8.0
CHUNK_TRIPS = 1000  # trips generated and written at a time
#: Share of trips ending anywhere in the extent rather than at a hotspot.
BACKGROUND_SHARE = 0.15

N_CLIENTS = 57_106
N_TAXIS = 448
N_STANDS = 63
EPOCH_2013_07_01 = 1372636800
CALL_CODES = ("A", "B", "C")
CALL_SHARES = (0.22, 0.47, 0.31)

CSV_HEADER = "TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n"


@dataclass(frozen=True)
class CorpusSpec:
    """Make-up of one workload's CSV."""

    trips: int
    median_points: float
    sigma_log: float
    max_points: int
    hotspots: int
    missing_share: float = 0.002  # MISSING_DATA=True rows
    empty_share: float = 0.003  # rows with an empty POLYLINE


@dataclass
class Corpus:
    """What the generator wrote, kept apart from the program's outputs.

    Per trip: ``trip_id``, ``call`` (index into CALL_CODES), ``origin_call``
    and ``origin_stand`` (-1 when absent), ``taxi``, ``timestamp``,
    ``missing``; ``offsets`` delimit each trip's points in ``lat_u`` /
    ``lon_u`` (micro-degrees).  ``hotspot`` is the planted hotspot of the
    trip's destination, -1 for background; ``hotspot_latlon`` the planted
    centres in degrees.
    """

    trip_id: list
    call: np.ndarray
    origin_call: np.ndarray
    origin_stand: np.ndarray
    taxi: np.ndarray
    timestamp: np.ndarray
    missing: np.ndarray
    offsets: np.ndarray
    lat_u: np.ndarray
    lon_u: np.ndarray
    hotspot: np.ndarray
    hotspot_latlon: np.ndarray

    @functools.cached_property
    def index(self) -> dict:
        """Position of each trip ID."""
        return {tid: i for i, tid in enumerate(self.trip_id)}

    def __len__(self) -> int:
        return len(self.trip_id)


def _to_micro(east_m: np.ndarray, north_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = PORTO[0] + north_m / M_PER_DEG_LAT
    lon = PORTO[1] + east_m / M_PER_DEG_LON
    return np.rint(lat * 1e6).astype(np.int64), np.rint(lon * 1e6).astype(np.int64)


def _points(rng, lengths, start, dest, heading, sway_m) -> tuple[np.ndarray, np.ndarray]:
    """The points of a run of trips, in micro-degrees."""
    trip_of = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(trip_of)) - np.concatenate([[0], np.cumsum(lengths)[:-1]])[trip_of]
    frac = pos / np.maximum(lengths[trip_of] - 1, 1)
    sway = np.sin(math.pi * frac) * sway_m[trip_of]
    normal = np.column_stack([-np.sin(heading), np.cos(heading)])[trip_of]
    pts = start[trip_of] + (dest - start)[trip_of] * frac[:, None] + sway[:, None] * normal
    noise = rng.normal(0.0, GPS_NOISE_M, size=pts.shape)
    noise[pos == lengths[trip_of] - 1] = 0.0
    return _to_micro(pts[:, 0] + noise[:, 0], pts[:, 1] + noise[:, 1])


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    n = spec.trips
    half = np.array(EXTENT_M) / 2

    # Hotspots: the lattice sites nearest the centre, jittered; popularity
    # falls with distance from the centre, times a log-normal factor.  The
    # sites and the fall-off are the same for every seed, so the spread of
    # destinations (and the error of an untrained model) is too.
    cols = int(EXTENT_M[0] // HOTSPOT_SPACING_M)
    rows = int(EXTENT_M[1] // HOTSPOT_SPACING_M)
    if spec.hotspots > cols * rows:
        raise ValueError(f"at most {cols * rows} hotspots fit the extent")
    lattice = np.column_stack(
        [(np.arange(cols * rows) % cols + 0.5) * HOTSPOT_SPACING_M - half[0],
         (np.arange(cols * rows) // cols + 0.5) * HOTSPOT_SPACING_M - half[1]]
    )
    near = np.argsort(np.hypot(lattice[:, 0], lattice[:, 1]), kind="stable")[: spec.hotspots]
    hot_m = lattice[near] + rng.uniform(-HOTSPOT_JITTER_M, HOTSPOT_JITTER_M, size=(spec.hotspots, 2))
    weight = np.exp(-np.hypot(hot_m[:, 0], hot_m[:, 1]) / 5000.0) * rng.lognormal(0.0, 0.5, spec.hotspots)
    weight /= weight.sum()

    hotspot = rng.choice(spec.hotspots, size=n, p=weight)
    hotspot[rng.random(n) < BACKGROUND_SHARE] = -1
    dest = hot_m[np.maximum(hotspot, 0)] + rng.normal(0.0, HOTSPOT_SIGMA_M, size=(n, 2))
    bg = hotspot < 0
    dest[bg] = rng.uniform(-half, half, size=(int(bg.sum()), 2))

    lengths = np.clip(
        np.rint(spec.median_points * np.exp(spec.sigma_log * rng.standard_normal(n))), 1, spec.max_points
    ).astype(np.int64)
    lengths[rng.random(n) < spec.empty_share] = 0

    # Each trip drives roughly straight at the destination from a start
    # placed (points - 1) steps away, with a slow lateral sway and GPS noise;
    # the last point is the destination itself.
    heading = rng.uniform(0.0, 2 * math.pi, n)
    travel = (np.maximum(lengths, 1) - 1) * STEP_M * rng.uniform(0.6, 0.95, n)
    start = dest - travel[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    sway_m = 150.0 * rng.uniform(-1.0, 1.0, n)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    lat_u = np.empty(offsets[-1], dtype=np.int64)
    lon_u = np.empty(offsets[-1], dtype=np.int64)
    # A chunk of trips at a time, so that the generator's temporaries stay
    # small next to the program's memory (peak RSS is a metric).
    for a in range(0, n, CHUNK_TRIPS):
        t = slice(a, min(a + CHUNK_TRIPS, n))
        p = slice(offsets[t.start], offsets[t.stop])
        lat_u[p], lon_u[p] = _points(rng, lengths[t], start[t], dest[t], heading[t], sway_m[t])

    call = rng.choice(3, size=n, p=CALL_SHARES)
    # Client popularity falls off with rank; 7919 is prime to N_CLIENTS, so
    # popular ranks scatter over the whole ID range.
    client_rank = (N_CLIENTS * rng.random(n) ** 2).astype(np.int64)
    client_id = 2001 + (client_rank * 7919) % N_CLIENTS
    origin_call = np.where(call == 0, client_id, -1)
    origin_stand = np.where(call == 1, rng.integers(1, N_STANDS + 1, n), -1)
    taxi = 20_000_001 + rng.integers(0, N_TAXIS, n) * 2
    timestamp = EPOCH_2013_07_01 + rng.integers(0, 365 * 86400, n)
    missing = rng.random(n) < spec.missing_share
    hot_lat_u, hot_lon_u = _to_micro(hot_m[:, 0], hot_m[:, 1])
    return Corpus(
        trip_id=[f"{EPOCH_2013_07_01 + i}{seed % 1000:03d}" for i in range(n)],
        call=call,
        origin_call=origin_call,
        origin_stand=origin_stand,
        taxi=taxi,
        timestamp=timestamp,
        missing=missing,
        offsets=offsets,
        lat_u=lat_u,
        lon_u=lon_u,
        hotspot=hotspot,
        hotspot_latlon=np.column_stack([hot_lat_u / 1e6, hot_lon_u / 1e6]),
    )


def write_csv(corpus: Corpus, path) -> None:
    """Competition CSV; POLYLINE is a JSON array of [lon, lat] pairs."""
    off = corpus.offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER)
        for a in range(0, len(corpus), CHUNK_TRIPS):
            b = min(a + CHUNK_TRIPS, len(corpus))
            p = slice(off[a], off[b])
            pairs = [
                f"[{lon / 1e6:.6f},{lat / 1e6:.6f}]"
                for lon, lat in zip(corpus.lon_u[p].tolist(), corpus.lat_u[p].tolist())
            ]
            for i in range(a, b):
                oc = int(corpus.origin_call[i])
                st = int(corpus.origin_stand[i])
                f.write(
                    f"{corpus.trip_id[i]},{CALL_CODES[corpus.call[i]]},{'' if oc < 0 else oc},{'' if st < 0 else st},"
                    f"{corpus.taxi[i]},{corpus.timestamp[i]},A,{'True' if corpus.missing[i] else 'False'},"
                    f"\"[{','.join(pairs[off[i] - off[a]:off[i + 1] - off[a]])}]\"\n"
                )
