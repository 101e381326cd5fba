"""Workloads, the five pipeline stages and one benchmark run.

A run repeats whole rounds until its time is used.  A round drives the
same public calls as the ``taxidest`` subcommands, in their order:

1. prepare: ``data.parse_csv``, ``split_dataset``, ``fit_standardization``,
   ``build_vocab``, ``save_records`` (record-cache write);
2. cluster: ``clustering.mean_shift`` on the training destinations;
3. set-up: ``load_records`` (record-cache read),
   ``models.build_model`` and featurizing the fixed validation and test
   prefixes;
4. train: ``training.train`` for a fixed number of batches (tape and
   backward), validating on the fixed validation prefixes (no tape);
5. predict: ``models.save_model``, ``load_model``, ``training.evaluate`` on
   the test prefixes and ``write_submission``;

then checks each stage's outputs.  A stage that repeats makes its extra
calls later in the round (see :func:`run_round`).  An operation is one stage
call or one check.  Training uses C = 3000 fixed centres drawn from the training destinations
with the workload seed, not the mean-shift output, so a change to
clustering cannot change how much work training does.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
from taxidest import clustering, data, models, training
from taxidest.clustering import ClusterSet, MeanShiftConfig

#: Model initialisation and batch sampling seed.  Fixed, so that the work a
#: batch asks for depends on the workload, not on the seed of its inputs.
TRAIN_SEED = 0
#: Prefixes compared between the in-memory and the reloaded model.
RELOAD_CHECK_ROWS = 8
#: Fixed training centres C, as in the baseline of the ROADMAP.
TRAIN_CENTRES = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: gen.CorpusSpec
    variant: str
    n_val: int
    n_test: int
    batch: int
    batches: int
    validate_every: int
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    #: Calls per round of the stages that run more than once; a cheap stage
    #: repeats so that its timing covers enough of the run to be steady.
    stage_repeats: dict = field(default_factory=lambda: {"setup": 3})

    def repeats(self, stage: str) -> int:
        return self.stage_repeats.get(stage, 1)

    @property
    def ops_per_round(self) -> int:
        return sum(self.repeats(s) for s in ("prepare", "cluster", "setup", "train", "predict")) + CHECKS_PER_ROUND


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="mlp-porto",
            why="large Porto-shaped corpus and the reference mlp_clusters: parsing, record cache, mean-shift and GEMM-bound MLP steps",
            corpus=gen.CorpusSpec(trips=20_000, median_points=40, sigma_log=0.55, max_points=400, hotspots=200),
            variant="mlp_clusters",
            n_val=1000,
            n_test=4000,
            batch=200,
            batches=40,
            validate_every=20,
        ),
        Workload(
            name="brnn-long",
            why="small corpus of 32-point trajectories and the reference brnn: LSTM cells, tape bookkeeping and length bucketing",
            corpus=gen.CorpusSpec(
                trips=3000, median_points=32, sigma_log=0.0, max_points=32, hotspots=100, missing_share=0.0, empty_share=0.0
            ),
            variant="brnn",
            n_val=32,
            n_test=256,
            batch=200,
            batches=1,
            validate_every=1,
            stage_repeats={"prepare": 3, "cluster": 6, "setup": 6},
        ),
        Workload(
            name="memnet-10k",
            why="medium corpus and memory_net over 10 000 candidates: candidate featurization, two encoders, similarity and 2-D softmax",
            # Trips capped at 100 points: with the 400-point tail, test_km
            # after three batches fell into two groups across seeds (4.1-4.4
            # and 5.5-6.6 km); capped, it stays in one.
            corpus=gen.CorpusSpec(trips=13_000, median_points=40, sigma_log=0.55, max_points=100, hotspots=200),
            variant="memory_net",
            n_val=500,
            n_test=1000,
            batch=1000,
            batches=3,
            validate_every=3,
            model={"memory_m": 10_000},
        ),
    )
}


@dataclass
class Prepared:
    records: list
    usable: list
    split: data.DatasetSplit
    stats: object
    vocab: data.MetadataVocab
    val_cuts: list
    test_cuts: list


@dataclass
class SetUp:
    records: list
    model: models.DestinationModel
    train_records: list
    val: list
    test: list


class RunState:
    """Operation counts, stage timings and check results of a run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def stage(self, name: str, fn, *args):
        """One stage call: timed, counted, traced as a top-level span.  Garbage
        of earlier stages is collected first, outside the timing, so that each
        call starts from the same heap.  A call that raises counts as failed
        and ends the round (see :func:`run`)."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext():
                out = fn(*args)
        except Exception:
            self.failed += 1
            raise
        self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def aside(self):
        """Work outside the stages (checks and what they compute), kept out
        of the stages' spans."""
        return self.tracer.span("checks") if self.tracer else contextlib.nullcontext()

    def check(self, name: str, fn, *args) -> None:
        """One check; it fails when it finds a wrong output or raises."""
        self.attempted += 1
        try:
            with self.aside():
                fn(*args)
        except Exception as e:
            self.failed += 1
            what = "" if isinstance(e, checks.CheckFailed) else f"{type(e).__name__}: "
            self.errors.append(f"check {name}: {what}{e}")


def prepare(wl: Workload, csv_path: Path, cache_path: Path, seed: int) -> Prepared:
    with open(csv_path, "r", encoding="utf-8", newline="") as f:
        records = list(data.parse_csv(f))
    usable = [r for r in records if r.usable]
    rng = np.random.default_rng(seed)
    split = data.split_dataset(usable, rng, wl.n_val, wl.n_test)
    stats = data.fit_standardization(split.train)
    vocab = data.build_vocab(split.train)
    data.save_records(usable, cache_path)
    val_cuts = [int(rng.integers(1, len(r.polyline) + 1)) for r in split.validation]
    test_cuts = [int(rng.integers(1, len(r.polyline) + 1)) for r in split.test]
    return Prepared(records, usable, split, stats, vocab, val_cuts, test_cuts)


def set_up(wl: Workload, cache_path: Path, prep: Prepared, centres: ClusterSet) -> SetUp:
    records = data.load_records(cache_path)
    by_id = {r.trip_id: r for r in records}
    config = models.ModelConfig(variant=wl.variant, **wl.model)
    model = models.build_model(config, centres, prep.stats, prep.vocab, seed=TRAIN_SEED)

    def examples(split, cuts):
        return [
            data.make_prefix_example(by_id[r.trip_id], cut, config.k, prep.stats, prep.vocab)
            for r, cut in zip(split, cuts)
        ]

    return SetUp(
        records=records,
        model=model,
        train_records=[by_id[r.trip_id] for r in prep.split.train],
        val=examples(prep.split.validation, prep.val_cuts),
        test=examples(prep.split.test, prep.test_cuts),
    )


def train(wl: Workload, s: SetUp) -> training.TrainReport:
    cfg = training.TrainConfig(
        batch_size=wl.batch,
        max_batches=wl.batches,
        validate_every=wl.validate_every,
        patience=wl.batches,
        seed=TRAIN_SEED,
    )
    return training.train(s.model, s.train_records, s.val, cfg)


def memory_candidates(model, train_records, seed: int):
    """Candidates as ``taxidest evaluate`` and ``predict`` draw them."""
    sampler = training._CandidateSampler(train_records, model, model.config.memory_m)
    return sampler.sample(np.random.default_rng(seed))


def predict(s: SetUp, ckpt: Path, submission: Path, seed: int):
    models.save_model(s.model, ckpt)
    loaded = models.load_model(ckpt)
    cands = None
    if loaded.config.variant == "memory_net":
        cands = memory_candidates(loaded, s.train_records, seed)
    km = training.evaluate(loaded, s.test, cands)
    training.write_submission(loaded, s.test, submission, cands)
    return loaded, cands, km


def draw_centres(dests: np.ndarray, seed: int) -> ClusterSet:
    """C fixed training centres drawn from the training destinations."""
    rng = np.random.default_rng([seed, TRAIN_CENTRES])
    return ClusterSet(dests[rng.choice(len(dests), TRAIN_CENTRES, replace=len(dests) < TRAIN_CENTRES)])


CHECKS_PER_ROUND = 10


def run_round(wl: Workload, corpus: gen.Corpus, work: Path, seed: int, st: RunState) -> dict:
    """All five stages and every check once, then a repeated stage's extra
    calls; returns the round's sizes and test km.

    The extra calls are dealt over the round, half after train and half after
    predict, not run back to back: this machine's speed changes every few
    seconds, and a block of short calls would time one such moment per round.
    Their outputs are released at once.  The round's own outputs stay alive
    meanwhile (the prepared records too, which the extra set-up calls read),
    so an extra set-up call holds one set-up output more than a CLI command
    would."""
    csv_path, cache = work / "trips.csv", work / "records.bin"
    prep = st.stage("prepare", prepare, wl, csv_path, cache, seed)
    st.check("parsed_records", checks.parsed_records, prep.records, corpus)
    st.check("standardization", checks.standardization, prep.stats, prep.split.train)

    with st.aside():
        dests = np.array([r.polyline[-1] for r in prep.split.train])
        train_index = np.array([corpus.index[r.trip_id] for r in prep.split.train])
        centres = draw_centres(dests, seed)
    found = st.stage("cluster", clustering.mean_shift, dests)
    cfg = MeanShiftConfig()
    st.check("hotspots", checks.hotspots_found, found.centers, corpus, train_index)
    st.check("centres", checks.mean_shift_centres, found.centers, dests, cfg.bandwidth_m, cfg.merge_radius_m)

    s = st.stage("setup", set_up, wl, cache, prep, centres)
    st.check("cache_roundtrip", checks.cache_roundtrip, s.records, prep.usable)
    trips = len(prep.records)
    after_train, after_predict = [], []
    for name, fn, args in (
        ("prepare", prepare, (wl, csv_path, cache, seed)),
        ("cluster", clustering.mean_shift, (dests,)),
        ("setup", set_up, (wl, cache, prep, centres)),
    ):
        extra = wl.repeats(name) - 1
        after_train += [(name, fn, args)] * ((extra + 1) // 2)
        after_predict += [(name, fn, args)] * (extra // 2)

    report = st.stage("train", train, wl, s)
    st.check("losses_finite", checks.losses_finite, report, s.model)
    for name, fn, args in after_train:
        st.stage(name, fn, *args)

    loaded, cands, km = st.stage("predict", predict, s, work / "model.ckpt", work / "submission.csv", seed)
    with st.aside():
        preds = models.predict(loaded, s.test, cands)
        targets = np.array([[ex.target.lat, ex.target.lon] for ex in s.test])
        sub = s.test[:RELOAD_CHECK_ROWS]
        in_memory, reloaded = models.predict(s.model, sub, cands), models.predict(loaded, sub, cands)
    if cands is None:
        st.check("inside_hull", checks.inside_hull, preds, centres.centers, "the centres")
    else:
        cand_dests = np.array([[c.target.lat, c.target.lon] for c in cands])
        st.check("inside_hull", checks.inside_hull, preds, cand_dests, "the candidates' destinations")
    st.check("evaluate", checks.evaluate_matches, km, preds, targets)
    st.check("reload", checks.reload_identical, in_memory, reloaded)
    st.check("submission", checks.submission, work / "submission.csv", [ex.trip_id for ex in s.test], preds)
    for name, fn, args in after_predict:
        st.stage(name, fn, *args)
    return {"trips": trips, "points": len(dests), "prefixes": len(s.test), "test_km": km}


def run(wl: Workload, seed: int, seconds: float, work: Path, tracer=None) -> tuple[RunState, dict]:
    """Rounds until ``seconds`` are used (at least one; another only if the
    last one's duration still fits, and none after a stage raised).  Returns
    the state and the end-to-end metrics as {name: (value, unit)}, or no
    metrics when not even the first round completed."""
    corpus = gen.generate(wl.corpus, seed)
    gen.write_csv(corpus, work / "trips.csv")
    st = RunState(tracer)
    rounds = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done = st.attempted
        try:
            rounds.append(run_round(wl, corpus, work, seed, st))
        except Exception as e:  # a stage raised: the rest of its round fails with it
            missing = wl.ops_per_round - (st.attempted - done)
            st.attempted += missing
            st.failed += missing
            st.errors.append(f"round {len(rounds) + 1}: {type(e).__name__}: {e}")
            break
        now = time.perf_counter()
        calls = {k: v[len(v) - len(v) // len(rounds):] for k, v in st.times.items()}
        print(
            f"{wl.name} seed {seed} round {len(rounds)} ({now - t0:.1f} s):",
            " ".join(f"{k} {' '.join(f'{x:.3f}' for x in v)}" for k, v in calls.items()),
            file=sys.stderr,
        )
        if now - t_start + (now - t0) > seconds:
            break
    if not rounds:
        return st, {}
    r = rounds[0]  # every round has the same inputs
    med = {stage: statistics.median(times) for stage, times in st.times.items()}
    metrics = {
        "setup_s": (med["setup"], "s"),
        "prepare_trips_per_s": (r["trips"] / med["prepare"], "trips/s"),
        "cluster_points_per_s": (r["points"] / med["cluster"], "points/s"),
        "train_examples_per_s": (wl.batch * wl.batches / med["train"], "examples/s"),
        "predict_prefixes_per_s": (r["prefixes"] / med["predict"], "prefixes/s"),
        "test_km": (statistics.median(x["test_km"] for x in rounds), "km"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return st, metrics
