"""Time mean-shift on mlp-porto-shaped destinations at 1x and 4x size.

The points are the destinations (last GPS points) of the non-empty trips
that perfbench's generator makes for the mlp-porto corpus: 200 planted
hotspots plus a 15 % uniform background over 24 km x 18 km around Porto.
At scale S the corpus has 20 000 x S trips, so about 19 900 x S points;
every point seeds the default configuration (500 m bandwidth, 250 m merge
radius), as ``taxidest cluster`` and the benchmark's cluster stage run it.

Usage (from the repository root):
    PYTHONPATH=src python3 benchmarks/bench_mean_shift.py [SEED] [SCALE ...]

Defaults: seed 0, scales 1 and 4.  Prints, per scale: points, the median
seconds of three ``mean_shift`` calls, points/s, the ``tracemalloc`` peak
of one more call, the centre count and the SHA-1 of the centre array (equal
SHA-1s mean bit-identical centres).
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
import gen  # noqa: E402
import pipeline  # noqa: E402
from taxidest.clustering import mean_shift  # noqa: E402

REPEATS = 3


def destinations(seed: int, scale: int) -> np.ndarray:
    spec = pipeline.WORKLOADS["mlp-porto"].corpus
    corpus = gen.generate(dataclasses.replace(spec, trips=spec.trips * scale), seed)
    last = corpus.offsets[1:][np.diff(corpus.offsets) > 0] - 1
    return np.column_stack([corpus.lat_u[last] / 1e6, corpus.lon_u[last] / 1e6])


def main(seed: int = 0, scales=(1, 4)) -> None:
    for scale in scales:
        pts = destinations(seed, scale)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            centres = mean_shift(pts).centers
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        mean_shift(pts)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        s = statistics.median(times)
        print(
            f"seed {seed} scale {scale}: {len(pts)} points, {s:.3f} s, {len(pts) / s:.0f} points/s, "
            f"tracemalloc peak {peak / 2**20:.1f} MB, {len(centres)} centres, "
            f"sha1 {hashlib.sha1(centres.tobytes()).hexdigest()}"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0, [int(a) for a in sys.argv[2:]] or [1, 4])
