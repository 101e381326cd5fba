"""Time mean-shift on mlp-porto-shaped destinations and check its centres.

The points are the destinations (last GPS points) of the non-empty trips
that perfbench's generator makes for the mlp-porto corpus: 200 planted
hotspots plus a 15 % uniform background over 24 km x 18 km around Porto.
At scale S the corpus has 20 000 x S trips, so about 19 900 x S points.
``mean_shift`` runs the default configuration (500 m bandwidth, 250 m
merge radius), as ``taxidest cluster`` and the benchmark's cluster stage
run it: the first point of each occupied 250 m grid cell seeds an
iteration, so the seed count grows with the area covered, not with the
point count.

Usage (from the repository root):
    PYTHONPATH=src python3 benchmarks/bench_mean_shift.py [SEED] [SCALE ...]

Defaults: seed 0, scales 1 and 4.  Prints, per scale: points, seeds, the
median seconds of three ``mean_shift`` calls, points/s, the ``tracemalloc``
peak of one more call, the centre count and the SHA-1 of the centre array
(equal SHA-1s mean bit-identical centres).  Then runs perfbench's
``hotspots_found`` and ``mean_shift_centres`` checks on the centres and
exits 1 if one fails.
"""

import dataclasses
import hashlib
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import gen  # noqa: E402
import pipeline  # noqa: E402
from taxidest import _kernels  # noqa: E402
from taxidest.clustering import MeanShiftConfig, mean_shift  # noqa: E402

REPEATS = 3


def destinations(seed: int, scale: int):
    """The corpus, the indices of its non-empty trips and their last points."""
    spec = pipeline.WORKLOADS["mlp-porto"].corpus
    corpus = gen.generate(dataclasses.replace(spec, trips=spec.trips * scale), seed)
    trips = np.flatnonzero(np.diff(corpus.offsets) > 0)
    last = corpus.offsets[trips + 1] - 1
    return corpus, trips, np.column_stack([corpus.lat_u[last] / 1e6, corpus.lon_u[last] / 1e6])


def traced_call(pts: np.ndarray) -> tuple[int, int]:
    """One more ``mean_shift`` call: its tracemalloc peak and the number of
    seeds it handed the kernel."""
    seeds = []
    iterate_seeds = _kernels.iterate_seeds

    def counting(grid, seeds_lat, *args):
        seeds.append(len(seeds_lat))
        return iterate_seeds(grid, seeds_lat, *args)

    _kernels.iterate_seeds = counting
    tracemalloc.start()
    try:
        mean_shift(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _kernels.iterate_seeds = iterate_seeds
    return peak, seeds[0]


def main(seed: int = 0, scales=(1, 4)) -> int:
    cfg = MeanShiftConfig()
    for scale in scales:
        corpus, trips, pts = destinations(seed, scale)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            centres = mean_shift(pts).centers
            times.append(time.perf_counter() - t0)
        peak, n_seeds = traced_call(pts)
        s = statistics.median(times)
        print(
            f"seed {seed} scale {scale}: {len(pts)} points, {n_seeds} seeds, {s:.3f} s, "
            f"{len(pts) / s:.0f} points/s, tracemalloc peak {peak / 2**20:.1f} MB, {len(centres)} centres, "
            f"sha1 {hashlib.sha1(centres.tobytes()).hexdigest()}",
            flush=True,
        )
        try:
            heavy = checks.hotspots_found(centres, corpus, trips)
            checks.mean_shift_centres(centres, pts, cfg.bandwidth_m, cfg.merge_radius_m)
        except checks.CheckFailed as e:
            print(f"seed {seed} scale {scale}: check failed: {e}")
            return 1
        print(f"seed {seed} scale {scale}: checks passed ({heavy} heavy hotspots found)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0, [int(a) for a in sys.argv[2:]] or [1, 4]))
