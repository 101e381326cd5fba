"""Tests of the benchmark itself: every workload passes its checks at a tiny
size, and every check rejects a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from taxidest import clustering, data, models, training  # noqa: E402
from taxidest.clustering import ClusterSet, MeanShiftConfig  # noqa: E402

#: The metrics as BENCHMARK.json declares them, {name: unit}.
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

TINY_MODEL = {"hidden": 16, "rnn_hidden": 8, "memory_m": 60}


def tiny(name: str) -> pipeline.Workload:
    wl = pipeline.WORKLOADS[name]
    return dataclasses.replace(
        wl,
        corpus=dataclasses.replace(wl.corpus, trips=400, hotspots=12, max_points=min(wl.corpus.max_points, 30)),
        n_val=20,
        n_test=30,
        batch=8,
        batches=2,
        validate_every=1,
        model={**wl.model, **TINY_MODEL},
    )


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    st, metrics = pipeline.run(tiny(name), seed=3, seconds=0, work=tmp_path)
    assert st.errors == []
    assert (st.correct, st.attempted, st.failed) == (True, tiny(name).ops_per_round, 0)
    assert all(v > 0 for v, _ in metrics.values()), metrics
    assert {k: u for k, (_, u) in metrics.items()} == E2E_UNITS


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    originals = (data.parse_csv, models.forward, training.train, data.PrefixSampler.sample)
    tracer = spans.Tracer()
    tracer.install()
    try:
        st, _ = pipeline.run(tiny("memnet-10k"), seed=4, seconds=0, work=tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert (data.parse_csv, models.forward, training.train, data.PrefixSampler.sample) == originals
    assert st.correct and st.failed == 0
    spans.check_coverage(tracer)
    metrics = spans.layer_metrics(tracer, batches=2)
    assert {k: u for k, (_, u) in metrics.items()} == LAYER_UNITS
    for name in ("nncore.dot_similarity.bwd_s", "models.candidates_from_records.rows", "data.parse_csv.s",
                 "kernels.iterate_seeds.iterations", "nncore.tape.bytes", "stage.train.s"):
        assert metrics[name][0] > 0, name
    # A composite op's backward covers the tape nodes of the ops it called.
    assert metrics["nncore.dense.bwd_s"][0] >= metrics["nncore.add_bias.bwd_s"][0] > 0


def _raise_on_call(n, fn):
    """``fn``, except that its n-th call raises."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise OSError("disk full")
        return fn(*args, **kwargs)

    return wrapped


def test_stage_raising_in_the_second_round_fails_the_rest_of_it(tmp_path, monkeypatch):
    wl = tiny("mlp-porto")
    monkeypatch.setattr(models, "save_model", _raise_on_call(2, models.save_model))
    st, metrics = pipeline.run(wl, seed=3, seconds=1e9, work=tmp_path)
    # The predict stage, the four checks and the extra set-up call after it
    # fail; no third round starts.
    assert (st.correct, st.attempted, st.failed) == (False, 2 * wl.ops_per_round, 6)
    assert st.errors == ["round 2: OSError: disk full"]
    assert metrics  # from the completed first round


def test_check_that_raises_counts_as_failed(tmp_path, monkeypatch):
    wl = tiny("brnn-long")
    monkeypatch.setattr(checks, "submission", _raise_on_call(1, checks.submission))
    st, _ = pipeline.run(wl, seed=3, seconds=0, work=tmp_path)
    assert (st.correct, st.attempted, st.failed) == (False, wl.ops_per_round, 1)
    assert st.errors == ["check submission: OSError: disk full"]


def test_result_line_when_the_first_round_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(pipeline.WORKLOADS, "memnet-10k", tiny("memnet-10k"))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(data, "load_records", _raise_on_call(1, data.load_records))
    code = run.main(["--workload", "memnet-10k", "--seed", "3", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # prepare, its 2 checks, cluster, its 2 checks pass; the first set-up call
    # raises, which fails it and the rest of the round; the trace check passes.
    ops = tiny("memnet-10k").ops_per_round
    assert code == 1
    assert result == {"correct": False, "attempted": ops + 1, "failed": ops - 6, "metrics": {}}


def test_coverage_check_rejects_uncovered_time_and_misnested_spans():
    tracer = spans.Tracer()
    with tracer.span("stage.setup"):
        with tracer.span("data.load_records"):
            time.sleep(0.01)
    spans.check_coverage(tracer)
    with tracer.span("stage.train"):
        time.sleep(spans.UNCOVERED_FLOOR_S * 1.5)
    with pytest.raises(checks.CheckFailed, match="stage.train"):
        spans.check_coverage(tracer)

    tracer = spans.Tracer()
    outer = tracer.begin(tracer.name_id("stage.predict"))
    tracer.begin(tracer.name_id("models.predict"))
    tracer.finish(outer)
    with pytest.raises(checks.CheckFailed, match="out of order"):
        spans.check_coverage(tracer)


def test_same_seed_same_inputs():
    spec = tiny("mlp-porto").corpus
    a, b = gen.generate(spec, 7), gen.generate(spec, 7)
    assert a.trip_id == b.trip_id and np.array_equal(a.lat_u, b.lat_u) and np.array_equal(a.taxi, b.taxi)
    assert not np.array_equal(a.lat_u, gen.generate(spec, 8).lat_u)


# -- each check rejects a corrupted output --------------------------------------


@pytest.fixture(scope="module")
def corpus_records(tmp_path_factory):
    corpus = gen.generate(tiny("mlp-porto").corpus, 5)
    path = tmp_path_factory.mktemp("csv") / "trips.csv"
    gen.write_csv(corpus, path)
    with open(path, newline="") as f:
        records = list(data.parse_csv(f))
    return corpus, records


def test_parsed_records_check(corpus_records):
    corpus, records = corpus_records
    checks.parsed_records(records, corpus)
    bad = dataclasses.replace(records[3], polyline=records[3].polyline + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.parsed_records(records[:3] + [bad] + records[4:], corpus)


def test_cache_check_rejects_an_altered_record(corpus_records, tmp_path):
    usable = [r for r in corpus_records[1] if r.usable]
    data.save_records(usable, tmp_path / "records.bin")
    loaded = data.load_records(tmp_path / "records.bin")
    checks.cache_roundtrip(loaded, usable)
    loaded[10].polyline[0, 1] = np.nextafter(loaded[10].polyline[0, 1], 0)
    with pytest.raises(checks.CheckFailed):
        checks.cache_roundtrip(loaded, usable)


def test_standardization_check(corpus_records):
    usable = [r for r in corpus_records[1] if r.usable]
    stats = data.fit_standardization(usable)
    checks.standardization(stats, usable)
    with pytest.raises(checks.CheckFailed):
        checks.standardization(dataclasses.replace(stats, std_lon=stats.std_lon * (1 + 1e-6)), usable)


def test_centre_checks_reject_a_moved_centre(corpus_records):
    corpus, records = corpus_records
    usable = [r for r in records if r.usable]
    dests = np.array([r.polyline[-1] for r in usable])
    cfg = MeanShiftConfig()
    centres = clustering.mean_shift(dests, cfg).centers
    checks.mean_shift_centres(centres, dests, cfg.bandwidth_m, cfg.merge_radius_m)
    index = np.array([corpus.index[r.trip_id] for r in usable])
    assert checks.hotspots_found(centres, corpus, index) > 0
    moved = centres.copy()
    moved[0, 0] += 30.0 / gen.M_PER_DEG_LAT  # 30 m north, still inside its ball
    with pytest.raises(checks.CheckFailed):
        checks.mean_shift_centres(moved, dests, cfg.bandwidth_m, cfg.merge_radius_m)
    heavy = np.bincount(corpus.hotspot[index][corpus.hotspot[index] >= 0]).argmax()
    far = centres[checks.equirect_m(*corpus.hotspot_latlon[heavy], centres[:, 0], centres[:, 1]) > 1000]
    with pytest.raises(checks.CheckFailed):
        checks.hotspots_found(far, corpus, index)
    with pytest.raises(checks.CheckFailed):
        checks.mean_shift_centres(np.vstack([centres, centres[:1] + 1e-4]), dests, cfg.bandwidth_m, cfg.merge_radius_m)


def test_hull_check_rejects_a_prediction_outside():
    rng = np.random.default_rng(0)
    centres = 41.15 + rng.normal(0, 0.02, size=(300, 2))
    w = rng.dirichlet(np.ones(300), size=50)
    preds = w @ centres
    checks.inside_hull(preds, centres, "the centres")
    hull = checks.convex_hull(centres)
    preds[7] = hull[0] + (hull[0] - centres.mean(axis=0)) * 0.01
    with pytest.raises(checks.CheckFailed):
        checks.inside_hull(preds, centres, "the centres")


def _tiny_model_and_examples(records):
    usable = [r for r in records if r.usable]
    stats, vocab = data.fit_standardization(usable), data.build_vocab(usable)
    centres = ClusterSet(np.array([r.polyline[-1] for r in usable[:20]]))
    model = models.build_model(models.ModelConfig(variant="mlp_clusters", hidden=8), centres, stats, vocab)
    examples = [data.make_prefix_example(r, len(r.polyline), 5, stats, vocab) for r in usable[:40]]
    return model, examples


def test_evaluate_and_reload_checks(corpus_records, tmp_path):
    model, examples = _tiny_model_and_examples(corpus_records[1])
    preds = models.predict(model, examples)
    targets = np.array([[e.target.lat, e.target.lon] for e in examples])
    checks.evaluate_matches(training.evaluate(model, examples), preds, targets)
    with pytest.raises(checks.CheckFailed):
        checks.evaluate_matches(training.evaluate(model, examples[1:]), preds, targets)
    models.save_model(model, tmp_path / "m.ckpt")
    reloaded = models.predict(models.load_model(tmp_path / "m.ckpt"), examples)
    checks.reload_identical(preds, reloaded)
    reloaded[4, 0] = np.nextafter(reloaded[4, 0], 0)
    with pytest.raises(checks.CheckFailed):
        checks.reload_identical(preds, reloaded)


def test_submission_check_rejects_a_dropped_row(corpus_records, tmp_path):
    model, examples = _tiny_model_and_examples(corpus_records[1])
    path = tmp_path / "submission.csv"
    training.write_submission(model, examples, path)
    ids, preds = [e.trip_id for e in examples], models.predict(model, examples)
    checks.submission(path, ids, preds)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    with pytest.raises(checks.CheckFailed):
        checks.submission(path, ids, preds)


def test_losses_check_rejects_a_non_finite_loss():
    ok = training.ValidationPoint(batches_seen=1, train_loss_km=3.0, val_haversine_km=3.1, improved=True)
    bad = dataclasses.replace(ok, train_loss_km=float("nan"))
    model = models.build_model(
        models.ModelConfig(variant="mlp_direct", hidden=4), None,
        data.StandardizationStats(41.1, -8.6, 0.1, 0.1), data.MetadataVocab(),
    )
    checks.losses_finite(training.TrainReport(history=[ok]), model)
    with pytest.raises(checks.CheckFailed):
        checks.losses_finite(training.TrainReport(history=[ok, bad]), model)


def test_benchmark_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero with no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brnn-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
