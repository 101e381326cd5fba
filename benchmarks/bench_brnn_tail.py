"""Time the reference brnn on Porto-like prefix lengths (long tail).

perfbench's brnn-long workload has trips of exactly 32 points, so every
batch's longest prefix is at most 32.  This script trains the same brnn
(batch 200) on a corpus shaped like mlp-porto's: log-normal trip lengths,
median 40 points, sigma 0.55, capped at 400.  A batch's longest prefix is
then several times its mean, which is what packed sequences must handle.

Usage (from the repository root, one BLAS thread as perfbench uses):
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_brnn_tail.py [SEED] [BATCHES]

Prints train seconds per batch, peak RSS before and after training, and
each batch's (longest, mean, total) prefix length.
"""

import dataclasses
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import pipeline  # noqa: E402
from taxidest import models  # noqa: E402


def main(seed: int = 1, batches: int = 3) -> None:
    wl = dataclasses.replace(
        pipeline.WORKLOADS["brnn-long"],
        name="brnn-tail",
        corpus=pipeline.WORKLOADS["mlp-porto"].corpus,
        batches=batches,
        validate_every=batches,
    )
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        gen.write_csv(gen.generate(wl.corpus, seed), work / "trips.csv")
        prep = pipeline.prepare(wl, work / "trips.csv", work / "cache.npz", seed)
        dests = np.array([r.polyline[-1] for r in prep.split.train])
        s = pipeline.set_up(wl, work / "cache.npz", prep, pipeline.draw_centres(dests, seed))

        lengths = []
        forward = models.forward

        def recording_forward(model, batch, tape=None, candidates=None):
            if tape is not None:
                lengths.append([ex.cut for ex in batch])
            return forward(model, batch, tape, candidates)

        models.forward = recording_forward
        try:
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            t0 = time.perf_counter()
            pipeline.train(wl, s)
            dt = time.perf_counter() - t0
            rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            models.forward = forward

    print(f"seed {seed}: {dt / batches:.2f} s/batch over {batches} batches (validation included)")
    print(f"peak RSS: {rss0:.0f} MB before training, {rss1:.0f} MB after")
    print("prefix lengths per batch (longest, mean, total):",
          [(max(x), round(statistics.mean(x), 1), sum(x)) for x in lengths])


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
