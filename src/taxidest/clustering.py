"""Mean-shift clustering of training destinations.

Flat (uniform ball) kernel under the equirectangular metric in meters.
Every input point seeds an iteration by default; all unconverged seeds move
together, one vectorized pass per step (``_kernels.iterate_seeds``).
Converged modes are merged greedily in decreasing basin-count order so no
two output centers lie within the merge radius.  Output is deterministic
given the input order and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._atomic import atomic_open
from .geo import EARTH

__all__ = [
    "ClusterSet",
    "MeanShiftConfig",
    "load_clusters",
    "mean_shift",
    "save_clusters",
]

_DEG2RAD = math.pi / 180.0


@dataclass
class ClusterSet:
    """Ordered destination cluster centers, float64 (C, 2) in degrees."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        if len(self.centers) < 1:
            raise ValueError("a ClusterSet needs at least one center")

    @property
    def count(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class MeanShiftConfig:
    """Defaults land C in the low thousands on the full competition data."""

    bandwidth_m: float = 500.0
    max_iterations: int = 100
    merge_radius_m: float = 250.0
    seed_subsample: Optional[int] = None

    def __post_init__(self):
        if self.bandwidth_m <= 0 or self.merge_radius_m <= 0:
            raise ValueError("bandwidth and merge radius must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.merge_radius_m > self.bandwidth_m:
            raise ValueError("merge radius must not exceed the bandwidth")
        if self.seed_subsample is not None and self.seed_subsample < 1:
            raise ValueError("seed_subsample must be positive when given")


def _as_latlon_array(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (N, 2) array, got shape {arr.shape}")
        return arr
    return np.array([(p.lat, p.lon) for p in points], dtype=np.float64).reshape(-1, 2)


def _equirect_m(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Equirectangular meters between (lat, lon) rows of a and b, broadcast."""
    d_phi = (b[..., 0] - a[..., 0]) * _DEG2RAD
    d_lam = (b[..., 1] - a[..., 1]) * _DEG2RAD * np.cos(0.5 * (b[..., 0] + a[..., 0]) * _DEG2RAD)
    return EARTH.radius_m * np.hypot(d_phi, d_lam)


def mean_shift(
    points,
    cfg: MeanShiftConfig = MeanShiftConfig(),
    seeds=None,
) -> ClusterSet:
    """Cluster (lat, lon) points; returns the merged density modes.

    ``points`` is an (N, 2) array or a sequence of GeoPoints.  ``seeds``
    defaults to the points themselves (optionally subsampled evenly per
    ``cfg.seed_subsample``).  Seeds iterate to the flat-kernel mean of
    their bandwidth ball until the shift is exactly zero (at most
    ``cfg.max_iterations`` steps), so all seeds of one basin land on the
    same mode bit-for-bit.
    """
    pts = _as_latlon_array(points)
    if len(pts) == 0:
        raise ValueError("mean_shift requires at least one point")

    if seeds is None:
        seed_arr = pts
        if cfg.seed_subsample is not None and cfg.seed_subsample < len(pts):
            idx = np.unique(
                np.linspace(0, len(pts) - 1, cfg.seed_subsample).astype(np.int64)
            )
            seed_arr = pts[idx]
    else:
        seed_arr = _as_latlon_array(seeds)
        if len(seed_arr) == 0:
            raise ValueError("explicit seeds must be non-empty")

    grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], cfg.bandwidth_m, EARTH.radius_m)
    modes, _ = _kernels.iterate_seeds(
        grid,
        seed_arr[:, 0],
        seed_arr[:, 1],
        cfg.bandwidth_m,
        cfg.max_iterations,
        EARTH.radius_m,
    )
    return ClusterSet(_merge_modes(modes, cfg.merge_radius_m))


def _merge_modes(modes: np.ndarray, merge_radius_m: float) -> np.ndarray:
    """Collapse converged modes closer than the merge radius.

    Exact duplicates are grouped first (fixed-point iteration makes one
    basin's seeds identical); groups are then accepted greedily by
    descending basin count, first-seed order breaking ties, so the kept
    center of any merged pair is the one with the larger basin.  A group
    is checked only against the earlier groups within the merge radius,
    found through a grid with cells of the merge radius.
    """
    uniq, first_idx, counts = np.unique(
        modes, axis=0, return_index=True, return_inverse=False, return_counts=True
    )
    ranked = uniq[np.lexsort((first_idx, -counts))]
    grid = _kernels.GridIndex(ranked[:, 0], ranked[:, 1], merge_radius_m, EARTH.radius_m)
    later, earlier = [], []
    for lo, hi, n_cand, slots in _kernels.neighbour_chunks(grid, ranked[:, 0], ranked[:, 1]):
        me = np.repeat(np.arange(lo, hi), n_cand)
        cand = grid.order[slots]
        before = cand < me
        me, cand = me[before], cand[before]
        close = _equirect_m(ranked[me], ranked[cand]) < merge_radius_m
        later.append(me[close])
        earlier.append(cand[close])
    later = np.concatenate(later)
    earlier = np.concatenate(earlier)
    # later is ascending, so each group's earlier neighbours are one slice.
    bounds = np.searchsorted(later, np.arange(len(ranked) + 1)).tolist()
    accepted = np.ones(len(ranked), dtype=bool)
    for i in np.unique(later).tolist():
        accepted[i] = not accepted[earlier[bounds[i] : bounds[i + 1]]].any()
    return ranked[accepted]


def save_clusters(cs: ClusterSet, path) -> None:
    """Write centers as CSV "lat,lon" rows with 17 significant digits; the
    file is replaced whole or not at all."""
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write("lat,lon\n")
        for lat, lon in cs.centers:
            f.write(f"{lat:.17g},{lon:.17g}\n")


def load_clusters(path) -> ClusterSet:
    """Read a cluster CSV; ValueError names the path and the line of a bad
    row or of a last row without a line end (a file cut short).  A cut at a
    line boundary cannot be detected: the format has no row count, so that
    hand-written files stay valid."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "lat,lon":
            raise ValueError(f"{path}: expected header 'lat,lon', got {header!r}")
        for lineno, raw in enumerate(f, start=2):
            line = raw.strip()
            if not line:
                continue
            if not raw.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: row {line!r} has no line end; the file is cut short")
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a coordinate pair: {line!r}")
    if not rows:
        raise ValueError(f"{path}: no cluster centers found")
    return ClusterSet(np.array(rows, dtype=np.float64))
