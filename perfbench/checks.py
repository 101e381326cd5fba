"""Correctness checks on the program's outputs.

Every check recomputes what it compares against with its own code (numpy
brute force, its own Haversine and convex hull) or tests a property the
method must have; none compares against a stored copy of earlier output.
A failed check raises :class:`CheckFailed` naming what differed.
"""

from __future__ import annotations

import math

import numpy as np

import gen

EARTH_RADIUS_M = 6_371_000.0
_DEG2RAD = math.pi / 180.0

#: Planted hotspots with at least this many training destinations must get
#: a mean-shift centre within HOTSPOT_RADIUS_M of the planted point.  The
#: background destinations inside a hotspot's 500 m ball pull its mode off the
#: planted point: by up to 110 m at 20-29 destinations and 70 m at 30-39 over
#: ten mlp-porto seeds.
HOTSPOT_MIN_MASS = 30
HOTSPOT_RADIUS_M = 150.0

#: A centre must equal the flat-kernel mean of its bandwidth ball to this
#: many degrees (1e-9 deg is 0.1 mm); the program and the check sum the
#: members in different orders.
FIXED_POINT_TOL_DEG = 1e-9

#: Predictions are float32: the softmax weights sum to 1 only to about
#: sqrt(C) float32 ulps, which moves a prediction at ~41 deg by up to
#: ~1e-4 deg.  Allowed distance outside the hull, in degrees (~11 m).
HULL_TOL_DEG = 1e-4

#: evaluate() predicts in chunks, the check in one batch; float32 GEMMs of
#: different row counts may differ in the last bits.  Allowed difference
#: of the mean distance, km (1 m).
EVALUATE_TOL_KM = 1e-3

#: The submission writes six decimals.
SUBMISSION_TOL_DEG = 5e-7 + 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parsed_records(records, corpus: gen.Corpus) -> None:
    """Parsed records equal the generated trips, field by field; the points
    equal the six-decimal values written, exactly."""
    _require(len(records) == len(corpus), f"parsed {len(records)} records, wrote {len(corpus)}")
    calls = ("phone", "stand", "street")
    for i, r in enumerate(records):
        oc, st = int(corpus.origin_call[i]), int(corpus.origin_stand[i])
        same = (
            r.trip_id == corpus.trip_id[i]
            and r.call_type == calls[corpus.call[i]]
            and r.origin_call == (None if oc < 0 else oc)
            and r.origin_stand == (None if st < 0 else st)
            and r.taxi_id == int(corpus.taxi[i])
            and r.timestamp == int(corpus.timestamp[i])
            and r.missing_data == bool(corpus.missing[i])
            and len(r.polyline) == corpus.offsets[i + 1] - corpus.offsets[i]
        )
        _require(same, f"record {i} ({corpus.trip_id[i]}): metadata or length differs from the CSV row")
    parsed = np.concatenate([r.polyline for r in records]) if records else np.empty((0, 2))
    written = np.column_stack([corpus.lat_u / 1e6, corpus.lon_u / 1e6])
    bad = np.flatnonzero((parsed != written).any(axis=1)) if parsed.shape == written.shape else [0]
    _require(len(bad) == 0, f"{len(bad)} parsed points differ from the written coordinates")


def cache_roundtrip(loaded, saved) -> None:
    """Records read back from the cache equal the records written, bit for bit."""
    _require(len(loaded) == len(saved), f"cache returned {len(loaded)} records, {len(saved)} written")
    for i, (a, b) in enumerate(zip(loaded, saved)):
        same = (
            (a.trip_id, a.call_type, a.origin_call, a.origin_stand, a.taxi_id, a.timestamp, a.missing_data)
            == (b.trip_id, b.call_type, b.origin_call, b.origin_stand, b.taxi_id, b.timestamp, b.missing_data)
            and a.polyline.dtype == np.float64
            and a.polyline.shape == b.polyline.shape
            and a.polyline.tobytes() == b.polyline.tobytes()
        )
        _require(same, f"cache record {i} ({b.trip_id}) differs from the record written")


def standardization(stats, train_records) -> None:
    """Mean and population standard deviation of all training points, per axis."""
    pts = np.concatenate([r.polyline for r in train_records])
    mean, std = pts.mean(axis=0), pts.std(axis=0)
    got = np.array([[stats.mean_lat, stats.mean_lon], [stats.std_lat, stats.std_lon]])
    _require(
        np.allclose(got, [mean, std], rtol=1e-9, atol=0.0),
        f"standardization {got.tolist()} != numpy {[mean.tolist(), std.tolist()]}",
    )


def equirect_m(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Equirectangular metres, the metric of the flat kernel; broadcasts."""
    pa, pb = lat_a * _DEG2RAD, lat_b * _DEG2RAD
    d_lam = (lon_b - lon_a) * _DEG2RAD * np.cos(0.5 * (pa + pb))
    return EARTH_RADIUS_M * np.hypot(pb - pa, d_lam)


def hotspots_found(centres: np.ndarray, corpus: gen.Corpus, train_index: np.ndarray) -> int:
    """Every planted hotspot with HOTSPOT_MIN_MASS training destinations has
    a centre within HOTSPOT_RADIUS_M.  Returns how many hotspots qualified."""
    hs = corpus.hotspot[train_index]
    mass = np.bincount(hs[hs >= 0], minlength=len(corpus.hotspot_latlon))
    heavy = np.flatnonzero(mass >= HOTSPOT_MIN_MASS)
    for h in heavy:
        lat, lon = corpus.hotspot_latlon[h]
        d = equirect_m(lat, lon, centres[:, 0], centres[:, 1]).min()
        _require(d <= HOTSPOT_RADIUS_M, f"hotspot {h} (mass {mass[h]}): nearest centre {d:.0f} m away")
    return len(heavy)


def mean_shift_centres(centres: np.ndarray, dests: np.ndarray, bandwidth_m: float, merge_radius_m: float) -> None:
    """No two centres closer than the merge radius, and each centre is the
    flat-kernel mean of the destinations within the bandwidth (a fixed
    point of the iteration), by brute force over all destinations."""
    c = len(centres)
    for a in range(0, c, 256):
        d = equirect_m(centres[a : a + 256, 0, None], centres[a : a + 256, 1, None], centres[:, 0], centres[:, 1])
        d[np.arange(len(d)), np.arange(a, a + len(d))] = np.inf
        _require(d.min() >= merge_radius_m, f"two centres {d.min():.1f} m apart, merge radius {merge_radius_m} m")
    # The same squared-radian test as the kernel, so ball membership agrees.
    bw2 = (bandwidth_m / EARTH_RADIUS_M) ** 2
    lat_r, lon_r = dests[:, 0] * _DEG2RAD, dests[:, 1] * _DEG2RAD
    for i, (lat, lon) in enumerate(centres):
        y_phi = lat * _DEG2RAD
        d_phi = lat_r - y_phi
        d_lam = (lon_r - lon * _DEG2RAD) * np.cos(0.5 * (lat_r + y_phi))
        inside = d_phi * d_phi + d_lam * d_lam <= bw2
        _require(inside.any(), f"centre {i} has no destination within the bandwidth")
        m = dests[inside].mean(axis=0)
        off = float(np.abs(m - (lat, lon)).max())
        _require(off <= FIXED_POINT_TOL_DEG, f"centre {i} is {off:.2e} deg off the mean of its ball")


def losses_finite(report, model) -> None:
    """Every recorded training loss and validation score, and every
    parameter after training, is finite."""
    _require(len(report.history) > 0, "training recorded no validation")
    for pt in report.history:
        _require(
            math.isfinite(pt.train_loss_km) and math.isfinite(pt.val_haversine_km),
            f"non-finite loss at batch {pt.batches_seen}: {pt.train_loss_km}, {pt.val_haversine_km}",
        )
    for p in model.parameters():
        _require(bool(np.isfinite(p.value).all()), f"parameter {p.name} is not finite")


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise hull vertices (monotone chain)."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def outside_hull_deg(preds: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Distance of each prediction outside the hull, degrees (0 inside)."""
    if len(hull) < 3:
        return np.abs(preds[:, None, :] - hull[None]).max(axis=2).min(axis=1)
    a, b = hull, np.roll(hull, -1, axis=0)
    edge = b - a
    length = np.hypot(edge[:, 0], edge[:, 1])
    rel = preds[:, None, :] - a[None]
    cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
    return np.maximum(-(cross / length).min(axis=1), 0.0)


def inside_hull(preds: np.ndarray, points: np.ndarray, what: str) -> None:
    out = outside_hull_deg(np.asarray(preds, dtype=np.float64), convex_hull(points))
    worst = int(np.argmax(out))
    _require(out[worst] <= HULL_TOL_DEG, f"prediction {worst} lies {out[worst]:.2e} deg outside the hull of {what}")


def haversine_km(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    p1, p2 = pred[:, 0] * _DEG2RAD, target[:, 0] * _DEG2RAD
    a = np.sin(0.5 * (p2 - p1)) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(0.5 * (target[:, 1] - pred[:, 1]) * _DEG2RAD) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0))) / 1000.0


def evaluate_matches(km: float, preds: np.ndarray, targets: np.ndarray) -> None:
    own = float(haversine_km(preds, targets).mean())
    _require(abs(km - own) <= EVALUATE_TOL_KM, f"evaluate() gave {km:.6f} km, predict() gives {own:.6f} km")


def reload_identical(in_memory: np.ndarray, reloaded: np.ndarray) -> None:
    diff = np.flatnonzero((in_memory != reloaded).any(axis=1))
    _require(len(diff) == 0, f"reloaded model differs from the in-memory model on {len(diff)} prefixes")


def submission(path, trip_ids, preds: np.ndarray) -> None:
    """Header plus one row per prefix, same trip IDs in order, values as predicted."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    _require(lines[:1] == ["TRIP_ID,LATITUDE,LONGITUDE"], "submission header missing")
    rows = [ln.split(",") for ln in lines[1:]]
    _require(len(rows) == len(trip_ids), f"submission has {len(rows)} rows for {len(trip_ids)} prefixes")
    for i, (row, tid) in enumerate(zip(rows, trip_ids)):
        _require(len(row) == 3 and row[0] == tid, f"submission row {i + 2} is {row!r}, expected trip {tid}")
    values = np.array([[float(r[1]), float(r[2])] for r in rows]).reshape(-1, 2)
    off = np.abs(values - preds).max(initial=0.0)
    _require(off <= SUBMISSION_TOL_DEG, f"submission values differ from predict() by {off:.2e} deg")
