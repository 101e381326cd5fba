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

#: Most (position, candidate point) pairs one chunk of a neighbour gather
#: holds; bounds each chunk's temporaries at 512 KB per float64 array.  A
#: position with more candidates than this forms a chunk of its own.  On
#: mlp-porto-shaped destinations (15 k and 80 k points) 2**14-2**16 ran
#: fastest; 2**18 was 8-25 % slower with 2-3x the tracemalloc peak.
CHUNK_PAIRS = 1 << 16

# The 3x3 neighbour cells in row-major order, the order a ball lists its
# members in.
_DR = np.repeat(np.arange(-1, 2, dtype=np.int64), 3)
_DC = np.tile(np.arange(-1, 2, dtype=np.int64), 3)


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


def _neighbour_cells(grid: GridIndex, lat: np.ndarray, lon: np.ndarray):
    """Start in ``grid.order`` and point count of the 9 cells around each
    position, (m, 9) each; a position more than one cell outside the grid
    has no neighbour cells."""
    row = np.floor((lat - grid.lat0) / grid.cell_lat)
    col = np.floor((lon - grid.lon0) / grid.cell_lon)
    inside = (row >= -1) & (row <= grid.n_rows) & (col >= -1) & (col <= grid.n_cols)
    row = np.where(inside, row, 0).astype(np.int64)
    col = np.where(inside, col, 0).astype(np.int64)
    keys = ((row + 1)[:, None] + _DR) * grid.key_stride + ((col + 1)[:, None] + _DC)
    j = np.minimum(np.searchsorted(grid.cell_keys, keys), grid.cell_keys.size - 1)
    hit = (grid.cell_keys[j] == keys) & inside[:, None]
    return grid.cell_start[j], np.where(hit, grid.cell_count[j], 0)


def neighbour_chunks(grid: GridIndex, lat: np.ndarray, lon: np.ndarray):
    """Candidate points of each position: the points of its 3x3 cell block.

    Yields ``(lo, hi, counts, slots)`` for consecutive chunks of the
    positions: position ``lo + i`` has ``counts[i]`` candidates, and
    ``slots`` holds them position by position as indices into
    ``grid.order`` (the points are ``grid.order[slots]``), each position's
    run ordered by neighbour cell (row-major) and by point index inside a
    cell.  A chunk holds at most ``CHUNK_PAIRS`` candidates unless its one
    position has more.  Cells are looked up for ``CHUNK_PAIRS // 9``
    positions at a time, so the lookup is no larger than a chunk either.
    """
    block = max(CHUNK_PAIRS // 9, 1)
    for b in range(0, len(lat), block):
        start, count = _neighbour_cells(grid, lat[b : b + block], lon[b : b + block])
        per_position = count.sum(axis=1)
        ends = np.cumsum(per_position)
        lo = 0
        while lo < len(ends):
            base = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, base + CHUNK_PAIRS, side="right")), lo + 1)
            run_count = count[lo:hi].ravel()
            run_offset = np.cumsum(run_count) - run_count
            slots = np.repeat(start[lo:hi].ravel() - run_offset, run_count)
            slots += np.arange(slots.size)
            yield b + lo, b + hi, per_position[lo:hi], slots
            lo = hi


def iterate_seeds(
    grid: GridIndex,
    seeds_lat: np.ndarray,
    seeds_lon: np.ndarray,
    bandwidth_m: float,
    max_iterations: int,
    radius_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Move each seed to the flat-kernel mean of its bandwidth ball until the
    shift is exactly zero, the ball is empty, or ``max_iterations`` steps
    are taken.

    Returns the final (lat, lon) of every seed, (n, 2), and the number of
    steps each took.  All unconverged seeds move together, one pass per
    step.  A seed's next position depends only on its current one, so a
    pass steps each distinct position once; its ball lists and sums its
    members in the same order whatever else is in the pass, so each mode
    is bit-for-bit the one the seed reaches alone.
    """
    pos = np.column_stack([seeds_lat, seeds_lon]).astype(np.float64)
    iters = np.zeros(len(pos), dtype=np.int64)
    active = np.arange(len(pos))
    bw2 = (bandwidth_m / radius_m) ** 2  # radians^2
    # Point coordinates in grid order: a neighbour cell is a contiguous run.
    lat_s = grid.lat[grid.order]
    lon_s = grid.lon[grid.order]
    sorted_points = (lat_s, lon_s, lat_s * _DEG2RAD, lon_s * _DEG2RAD)
    for step in range(1, max_iterations + 1):
        if active.size == 0:
            break
        iters[active] = step
        here, inverse = np.unique(pos[active], axis=0, return_inverse=True)
        inverse = inverse.ravel()
        means, found = _ball_means(grid, sorted_points, here, bw2)
        # A shift of exactly zero is a mean equal to the position; an empty
        # ball leaves the position as it is.
        moved = found & np.any(means != here, axis=1)
        took = found[inverse]
        pos[active[took]] = means[inverse[took]]
        active = active[moved[inverse]]
    return pos, iters


def _ball_means(grid, sorted_points, here, bw2):
    """Flat-kernel mean of each position's bandwidth ball, and whether the
    ball has members."""
    lat_s, lon_s, phi_s, lam_s = sorted_points
    means = np.empty_like(here)
    found = np.zeros(len(here), dtype=bool)
    y_phi = here[:, 0] * _DEG2RAD
    y_lam = here[:, 1] * _DEG2RAD
    for lo, hi, counts, slots in neighbour_chunks(grid, here[:, 0], here[:, 1]):
        # The per-seed expression, element by element:
        # d_lam = (lam - y_lam) * cos(0.5 * (phi + y_phi)).
        phi0 = np.repeat(y_phi[lo:hi], counts)
        phi = phi_s[slots]
        d_phi = phi - phi0
        phi += phi0
        phi *= 0.5
        np.cos(phi, out=phi)
        d_lam = lam_s[slots]
        d_lam -= np.repeat(y_lam[lo:hi], counts)
        d_lam *= phi
        d_phi *= d_phi
        d_lam *= d_lam
        d_phi += d_lam
        inside = np.flatnonzero(d_phi <= bw2)
        del phi, phi0, d_phi, d_lam
        # Each ball is one contiguous slice of the members.
        bounds = np.searchsorted(inside, np.concatenate([[0], np.cumsum(counts)])).tolist()
        members = slots[inside]
        lat_m = lat_s[members]
        lon_m = lon_s[members]
        # One sum per ball over its own slice: the summation np.mean does
        # over that ball alone.  (np.add.reduceat sums differently.)
        for i in range(hi - lo):
            a, b = bounds[i], bounds[i + 1]
            if b > a:
                means[lo + i, 0] = np.add.reduce(lat_m[a:b]) / (b - a)
                means[lo + i, 1] = np.add.reduce(lon_m[a:b]) / (b - a)
                found[lo + i] = True
    return means, found
