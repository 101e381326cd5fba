"""Mean-shift clustering of training destinations.

Flat (uniform ball) kernel under the equirectangular metric in meters.
By default the first point of each occupied half-bandwidth grid cell seeds
an iteration; all unconverged seeds move together, one vectorized pass per
step (``_kernels.iterate_seeds``).
Converged modes are merged greedily in decreasing basin-count order so no
two output centers lie within the merge radius.  Output is deterministic
given the input order and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._atomic import DataError, atomic_open, non_utf8_error, scalar
from .geo import DEG2RAD, EARTH_RADIUS_M, first_off_earth

__all__ = [
    "ClusterSet",
    "MeanShiftConfig",
    "load_clusters",
    "mean_shift",
    "save_clusters",
]


@dataclass
class ClusterSet:
    """Ordered destination cluster centers, float64 (C, 2) in degrees, each
    a point on the Earth."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        if len(self.centers) < 1:
            raise ValueError("a ClusterSet needs at least one center")
        _require_on_earth(self.centers, "centre")

    @property
    def count(self) -> int:
        return len(self.centers)


def _require_on_earth(points: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of ``points`` off the Earth."""
    j = first_off_earth(points)
    if j is not None:
        raise ValueError(f"{what} {j} is {tuple(points[j].tolist())}; "
                         "need finite (lat, lon) with |lat| <= 90 and |lon| <= 180")


@dataclass(frozen=True)
class MeanShiftConfig:
    """Defaults land C in the low thousands on the full competition data."""

    bandwidth_m: float = 500.0
    max_iterations: int = 100
    merge_radius_m: float = 250.0

    def __post_init__(self):
        if not (0 < self.bandwidth_m < math.inf and 0 < self.merge_radius_m < math.inf):
            raise ValueError(f"bandwidth and merge radius must be finite and > 0, got "
                             f"{self.bandwidth_m} and {self.merge_radius_m}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.merge_radius_m > self.bandwidth_m:
            raise ValueError("merge radius must not exceed the bandwidth")


def _equirect_m(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Equirectangular meters between (lat, lon) rows of a and b, broadcast."""
    d_phi = (b[..., 0] - a[..., 0]) * DEG2RAD
    d_lam = (b[..., 1] - a[..., 1]) * DEG2RAD * np.cos(0.5 * (b[..., 0] + a[..., 0]) * DEG2RAD)
    return EARTH_RADIUS_M * np.hypot(d_phi, d_lam)


def mean_shift(points, cfg: MeanShiftConfig = MeanShiftConfig()) -> ClusterSet:
    """Cluster (lat, lon) points; returns the merged density modes.

    ``points`` is an (N, 2) array of (lat, lon) rows.  The seeds are the
    first point, in input order, of each occupied cell of a grid with
    cells half the bandwidth wide, listed in input order.  Seeds iterate
    to the flat-kernel mean of their bandwidth ball until the shift is
    exactly zero (at most ``cfg.max_iterations`` steps), so all seeds of
    one basin land on the same mode bit-for-bit.  A point off the Earth
    (see ``geo.first_off_earth``) raises ValueError naming it.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise ValueError("mean_shift requires at least one point")
    # The grid's cell arithmetic and the modes' dedupe need finite points.
    _require_on_earth(pts, "point")
    # Full-bandwidth cells lost a tenth of the centres on mlp-porto's
    # destinations.  The stable sort puts each cell's first point first.
    cells = _kernels.GridIndex(pts[:, 0], pts[:, 1], cfg.bandwidth_m / 2)
    seeds = pts[np.sort(cells.order[cells.cell_start])]
    grid = _kernels.GridIndex(pts[:, 0], pts[:, 1], cfg.bandwidth_m)
    modes, _ = _kernels.iterate_seeds(grid, seeds[:, 0], seeds[:, 1], cfg.bandwidth_m, cfg.max_iterations)
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
    uniq, first_idx, _, counts = _kernels.unique_rows(modes)
    ranked = uniq[np.lexsort((first_idx, -counts))]
    grid = _kernels.GridIndex(ranked[:, 0], ranked[:, 1], merge_radius_m)
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
    """Read a cluster CSV; :class:`DataError` names the path and the line of
    a bad header, of a byte that is not UTF-8, of a bad row (not two numbers
    in the ASCII grammar of ``_atomic.scalar``, finite with |lat| <= 90,
    |lon| <= 180) or of a last row without a line end (a file cut short).
    Lines end as in text mode: at \\n, \\r\\n or \\r.  A cut at a line
    boundary cannot be detected: the format has no row count, so that
    hand-written files stay valid."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise non_utf8_error(path, ":") from None
    header = lines[0].rstrip("\r\n").strip(" ") if lines else ""
    if header != "lat,lon":
        raise DataError(f"{path}:1: expected header 'lat,lon', got {header!r}")
    rows, numbered = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r\n")
        if not line.strip(" "):
            continue
        if line == raw:
            raise DataError(f"{path}:{lineno}: row {line!r} has no line end; the file is cut short")
        fields = [scalar(part) for part in line.split(",")]
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        if any(kind not in ("int", "float") for kind, _ in fields):
            raise DataError(f"{path}:{lineno}: not a coordinate pair: {line!r}")
        rows.append([float(token) for _, token in fields])
        numbered.append((lineno, line))
    if not rows:
        raise DataError(f"{path}: no cluster centers found")
    centers = np.array(rows, dtype=np.float64)
    j = first_off_earth(centers)
    if j is not None:
        lineno, line = numbered[j]
        raise DataError(f"{path}:{lineno}: centre {line!r} is not finite within |lat| <= 90, |lon| <= 180")
    return ClusterSet(centers)
