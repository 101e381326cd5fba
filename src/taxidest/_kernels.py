"""Hot numeric kernels, in numpy.

Two kernels dominate runtime: the mean-shift seed iteration over a spatial
grid index (clustering 1.7M destinations) and the row scatter-add that
accumulates embedding gradients every training batch.
"""

from __future__ import annotations

import math

import numpy as np

_DEG2RAD = math.pi / 180.0


def backend() -> str:
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


# ---------------------------------------------------------------------------
# Embedding-gradient scatter-add
# ---------------------------------------------------------------------------


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """out[idx[i], :] += rows[i, :] with repeated indices accumulating."""
    np.add.at(out, idx, rows)


# ---------------------------------------------------------------------------
# Mean-shift seed iteration over a spatial grid
# ---------------------------------------------------------------------------
#
# Points and seeds are (lat, lon) in degrees, float64.  Distances are
# equirectangular meters with the per-pair mean latitude, matching the
# training loss metric.  The grid is an over-approximating index only:
# cell size >= bandwidth in both axes, so the 3x3 neighborhood of a seed's
# cell is a superset of its bandwidth ball; exact distances filter inside.


class GridIndex:
    """CSR-style spatial grid over points, cell size >= bandwidth."""

    def __init__(self, lat: np.ndarray, lon: np.ndarray, bandwidth_m: float, radius_m: float):
        self.lat = np.ascontiguousarray(lat, dtype=np.float64)
        self.lon = np.ascontiguousarray(lon, dtype=np.float64)
        self.lat0 = float(self.lat.min())
        self.lon0 = float(self.lon.min())
        # Degrees per bandwidth; longitude scaled at the coarsest (widest)
        # latitude in range so cells never under-cover the metric ball.
        self.cell_lat = bandwidth_m / radius_m / _DEG2RAD
        max_abs_lat = float(np.max(np.abs(self.lat)))
        cos_floor = max(math.cos(min(max_abs_lat * _DEG2RAD, math.radians(89.0))), 1e-3)
        self.cell_lon = bandwidth_m / (radius_m * cos_floor) / _DEG2RAD

        row = np.floor((self.lat - self.lat0) / self.cell_lat).astype(np.int64)
        col = np.floor((self.lon - self.lon0) / self.cell_lon).astype(np.int64)
        self.n_rows = int(row.max()) + 1
        self.n_cols = int(col.max()) + 1
        if self.n_rows > 2**30 or self.n_cols > 2**30:
            raise ValueError("grid too fine for input extent; increase bandwidth")
        # +3 leaves room for the +-1 neighbor ring around boundary cells.
        self.key_stride = self.n_cols + 3
        keys = (row + 1) * self.key_stride + (col + 1)
        self.order = np.argsort(keys, kind="stable").astype(np.int64)
        sorted_keys = keys[self.order]
        uniq, start, count = np.unique(sorted_keys, return_index=True, return_counts=True)
        self.cell_keys = uniq.astype(np.int64)
        self.cell_start = start.astype(np.int64)
        self.cell_count = count.astype(np.int64)

    def cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        r = int(math.floor((lat - self.lat0) / self.cell_lat))
        c = int(math.floor((lon - self.lon0) / self.cell_lon))
        return r, c


def iterate_seeds(
    grid: GridIndex,
    seeds_lat: np.ndarray,
    seeds_lon: np.ndarray,
    bandwidth_m: float,
    max_iterations: int,
    radius_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Move each seed to the flat-kernel mean of its bandwidth ball until the
    shift is exactly zero or ``max_iterations`` steps are taken.

    Returns the final (lat, lon) of every seed, (n, 2), and the number of
    steps each took.  Seeds are iterated one at a time.
    """
    n = seeds_lat.shape[0]
    out = np.empty((n, 2), dtype=np.float64)
    iters = np.zeros(n, dtype=np.int64)
    bw2 = (bandwidth_m / radius_m) ** 2  # radians^2
    lat_r = grid.lat * _DEG2RAD
    lon_r = grid.lon * _DEG2RAD
    for s in range(n):
        y_lat = float(seeds_lat[s])
        y_lon = float(seeds_lon[s])
        it = 0
        while it < max_iterations:
            it += 1
            members = _window_members(grid, lat_r, lon_r, y_lat, y_lon, bw2)
            if members.size == 0:
                break
            new_lat = float(np.mean(grid.lat[members]))
            new_lon = float(np.mean(grid.lon[members]))
            d_phi = (new_lat - y_lat) * _DEG2RAD
            d_lam = (new_lon - y_lon) * _DEG2RAD * math.cos(
                0.5 * (new_lat + y_lat) * _DEG2RAD
            )
            shift_m = radius_m * math.hypot(d_phi, d_lam)
            y_lat, y_lon = new_lat, new_lon
            # Refine to the exact fixed point so seeds of one basin land
            # bit-identically; flat-kernel membership stabilizes fast.
            if shift_m == 0.0:
                break
        out[s, 0] = y_lat
        out[s, 1] = y_lon
        iters[s] = it
    return out, iters


def _window_members(grid, lat_r, lon_r, y_lat, y_lon, bw2):
    r, c = grid.cell_of(y_lat, y_lon)
    if r < -1 or r > grid.n_rows or c < -1 or c > grid.n_cols:
        return np.empty(0, dtype=np.int64)
    chunks = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            key = (r + dr + 1) * grid.key_stride + (c + dc + 1)
            j = np.searchsorted(grid.cell_keys, key)
            if j < grid.cell_keys.size and grid.cell_keys[j] == key:
                a = grid.cell_start[j]
                chunks.append(grid.order[a : a + grid.cell_count[j]])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    cand = np.concatenate(chunks)
    y_phi = y_lat * _DEG2RAD
    d_phi = lat_r[cand] - y_phi
    d_lam = (lon_r[cand] - y_lon * _DEG2RAD) * np.cos(0.5 * (lat_r[cand] + y_phi))
    within = d_phi * d_phi + d_lam * d_lam <= bw2
    return cand[within]
