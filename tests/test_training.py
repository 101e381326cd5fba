"""Loss, training loop, early stopping, evaluation, submissions."""

import csv
import dataclasses
import json
import math
import os
import weakref

import numpy as np
import pytest

from conftest import make_records, tiny_model, tiny_stats, tiny_vocab
from geo_reference import equirectangular_distance, equirectangular_grad_y, haversine_distance
from taxidest import models, training
from taxidest.clustering import ClusterSet
from taxidest.data import DataError, make_prefix_example
from taxidest.geo import GeoPoint
from taxidest.models import ModelConfig, build_model
from taxidest.nncore import Tape, Tensor
from taxidest.training import (
    TrainConfig,
    TrainReport,
    equirectangular_loss,
    evaluate,
    fixed_prefix_examples,
    loss_batch,
    memory_candidates,
    train,
    write_submission,
)


def single_center_model(center=(41.15, -8.61), dtype="float64"):
    """Centroid model with one cluster: always predicts exactly the center."""
    cfg = ModelConfig(
        variant="mlp_clusters",
        k=2,
        hidden=4,
        embedding_dim=2,
        dtype=dtype,
    )
    clusters = ClusterSet(np.array([center]))
    return build_model(cfg, clusters, tiny_stats(), tiny_vocab(), seed=0)


def direct_model_predicting(lat, lon):
    """mlp_direct whose every prediction is (lat, lon): its output weights
    are zero and its output bias is (lat, lon) standardized."""
    model = tiny_model("mlp_direct")
    stats = model.stats
    model.params["out_w"].data[...] = 0.0
    model.params["out_b"].data[:] = ((lat - stats.mean_lat) / stats.std_lat, (lon - stats.mean_lon) / stats.std_lon)
    return model


OFF_THE_EARTH = [(95.0, -8.61), (41.15, 200.0), (math.nan, -8.61), (41.15, math.inf)]


class TestEquirectangularLoss:
    def test_zero_when_prediction_equals_target(self):
        targets = np.array([[41.15, -8.61], [41.2, -8.58]])
        pred = Tensor(targets.copy())
        loss = equirectangular_loss(None, pred, targets)
        assert float(loss.data) < 1e-5  # epsilon floor only

    def test_mean_of_two_distances(self):
        targets = np.array([[41.15, -8.61], [41.20, -8.58]])
        preds = np.array([[41.16, -8.60], [41.19, -8.59]])
        d1 = equirectangular_distance(GeoPoint(*preds[0]), GeoPoint(*targets[0]))
        d2 = equirectangular_distance(GeoPoint(*preds[1]), GeoPoint(*targets[1]))
        loss = equirectangular_loss(None, Tensor(preds), targets)
        assert float(loss.data) == pytest.approx((d1 + d2) / 2, rel=1e-9)

    def test_gradient_matches_geo_oracle(self):
        targets = np.array([[41.15, -8.61], [41.20, -8.58]])
        preds = np.array([[41.18, -8.63], [41.17, -8.55]])
        pred = Tensor(preds.copy())
        tape = Tape()
        loss = equirectangular_loss(tape, pred, targets)
        tape.backward(loss)
        for i in range(2):
            g_lat, g_lon = equirectangular_grad_y(
                GeoPoint(*targets[i]), GeoPoint(*preds[i])
            )
            assert pred.grad[i, 0] == pytest.approx(g_lat / 2, rel=1e-6)
            assert pred.grad[i, 1] == pytest.approx(g_lon / 2, rel=1e-6)

    def test_empty_batch_rejected(self):
        model = single_center_model()
        with pytest.raises(DataError):
            loss_batch(model, [])


class TestEvaluate:
    def test_perfect_prediction_scores_zero(self):
        center = (41.15, -8.61)
        model = single_center_model(center)
        rng = np.random.default_rng(30)
        recs = make_records([4, 6], rng)
        for r in recs:
            r.polyline[-1] = center  # every destination exactly at the center
        examples = [
            make_prefix_example(r, 2, model.config.k, model.stats, model.vocab) for r in recs
        ]
        assert evaluate(model, examples) == pytest.approx(0.0, abs=1e-9)

    def test_constant_model_mean_of_oracle_distances(self):
        center = (41.15, -8.61)
        model = single_center_model(center)
        rng = np.random.default_rng(31)
        recs = make_records([3, 3], rng)
        targets = [GeoPoint(*r.polyline[-1]) for r in recs]
        examples = [
            make_prefix_example(r, 1, model.config.k, model.stats, model.vocab) for r in recs
        ]
        expect = np.mean([haversine_distance(GeoPoint(*center), t) for t in targets]) / 1000
        assert evaluate(model, examples) == pytest.approx(expect, rel=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(single_center_model(), [])

    def test_score_does_not_depend_on_the_predict_chunk(self, monkeypatch):
        """One float64 mean over the whole set, however ``predict`` chunks it;
        the model predicts one point, whatever the chunk."""
        model = direct_model_predicting(41.2, -8.6)
        records = make_records([2, 3, 4, 2, 5, 3, 4, 2, 3], np.random.default_rng(39))
        examples = models.candidates_from_records(records)
        monkeypatch.setattr(models, "PREDICT_CHUNK", 2)
        chunked = evaluate(model, examples)
        monkeypatch.setattr(models, "PREDICT_CHUNK", 512)
        assert evaluate(model, examples) == chunked

    @pytest.mark.parametrize("lat, lon", OFF_THE_EARTH)
    def test_prediction_off_the_earth_scores_inf(self, lat, lon):
        examples = models.candidates_from_records(make_records([3, 4], np.random.default_rng(32)))
        assert math.isfinite(evaluate(direct_model_predicting(41.2, -8.6), examples))
        assert evaluate(direct_model_predicting(lat, lon), examples) == math.inf


class TestFixedPrefixExamples:
    """One array draw against the former loop of one scalar draw per ride:
    the same cuts, in order, and the generator left in the same state."""

    @pytest.mark.parametrize("lengths", [[], [1], [1, 1, 1], [3, 1, 7, 2, 5, 1, 40], list(range(1, 300))])
    def test_matches_one_scalar_draw_per_ride(self, lengths):
        recs = make_records(lengths, np.random.default_rng(0))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(2):  # validation, then test, from one generator
            got = fixed_prefix_examples(recs, rng)
            want = [int(ref_rng.integers(1, len(r.polyline) + 1)) for r in recs]
            assert [ex.record for ex in got] == recs and [ex.cut for ex in got] == want
            assert all(type(ex.cut) is int for ex in got)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -0.1),
         ("clip_norm", math.nan), ("clip_norm", math.inf), ("clip_norm", 0.0), ("clip_norm", -1.0)],
    )
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_accepts_zero_learning_rate_and_no_clip(self):
        assert TrainConfig(learning_rate=0.0, clip_norm=None).clip_norm is None


class TestTrainLoop:
    def _setup(self, n=20, seed=32):
        rng = np.random.default_rng(seed)
        recs = make_records([int(rng.integers(2, 8)) for _ in range(n)], rng)
        model = tiny_model("mlp_clusters")
        val = fixed_prefix_examples(recs[:5], np.random.default_rng(1))
        return model, recs, val

    def test_zero_lr_leaves_parameters_and_history_flat(self):
        model, recs, val = self._setup()
        before = {n: p.value.copy() for n, p in model.params.items()}
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_batches=6, validate_every=2, patience=99)
        report = train(model, recs, val, cfg)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, before[name])
        scores = [pt.val_haversine_km for pt in report.history]
        assert len(set(scores)) == 1

    def test_patience_one_never_improving_stops_after_two_validations(self):
        model, recs, val = self._setup()
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_batches=50, validate_every=1, patience=1)
        report = train(model, recs, val, cfg)
        assert report.stop_reason == "patience"
        assert len(report.history) == 2
        assert report.history[0].improved and not report.history[1].improved

    def test_best_checkpoint_is_history_minimum(self, tmp_path):
        model, recs, val = self._setup()
        cfg = TrainConfig(batch_size=8, max_batches=40, validate_every=10, patience=99, seed=5)
        path = tmp_path / "best.ckpt"
        report = train(model, recs, val, cfg, checkpoint_path=path)
        assert report.best_val_km == min(pt.val_haversine_km for pt in report.history)
        best = models.load_model(path)
        assert evaluate(best, val) == pytest.approx(report.best_val_km, rel=1e-6)

    def test_deterministic_given_seed(self):
        model_a, recs, val = self._setup(seed=33)
        cfg = TrainConfig(batch_size=6, max_batches=20, validate_every=5, patience=99, seed=7)
        report_a = train(model_a, recs, val, cfg)
        model_b, _, _ = self._setup(seed=33)
        report_b = train(model_b, recs, val, cfg)
        assert report_a.history == report_b.history
        for name in model_a.params:
            np.testing.assert_array_equal(
                model_a.params[name].value, model_b.params[name].value
            )

    def test_loss_strictly_decreases_on_frozen_batch(self):
        # Reference configuration at the default rate over 10 steps.
        rng = np.random.default_rng(34)
        recs = make_records([int(rng.integers(3, 9)) for _ in range(12)], rng)
        dests = np.array([r.polyline[-1] for r in recs])
        assert len(np.unique(dests, axis=0)) >= 10
        from taxidest.clustering import MeanShiftConfig, mean_shift

        clusters = mean_shift(dests, MeanShiftConfig(bandwidth_m=500))
        cfg = ModelConfig(variant="mlp_clusters", dtype="float64")
        model = build_model(cfg, clusters, tiny_stats(), tiny_vocab(), seed=0)
        batch = [
            make_prefix_example(r, len(r.polyline), cfg.k, model.stats, model.vocab)
            for r in recs
        ]
        from taxidest import nncore

        losses = []
        for _ in range(11):
            tape = Tape()
            loss = loss_batch(model, batch, tape)
            losses.append(float(loss.data))
            tape.backward(nncore.scale(tape, loss, 1e-3))
            nncore.sgd_momentum_step(model.parameters(), 0.01, 0.9)
        for i in range(10):
            assert losses[i + 1] < losses[i], f"no decrease at step {i}: {losses}"

    def test_memory_net_training_runs(self):
        rng = np.random.default_rng(35)
        recs = make_records([int(rng.integers(2, 6)) for _ in range(15)], rng)
        model = tiny_model("memory_net", memory_m=6)
        val = fixed_prefix_examples(recs[:4], np.random.default_rng(2))
        cfg = TrainConfig(batch_size=3, max_batches=4, validate_every=2, patience=99, seed=3)
        report = train(model, recs, val, cfg)
        assert len(report.history) == 2
        assert np.isfinite(report.history[-1].val_haversine_km)


    def _memory_setup(self):
        rng = np.random.default_rng(35)
        recs = make_records([int(rng.integers(2, 6)) for _ in range(15)], rng)
        model = tiny_model("memory_net", memory_m=6)
        val = fixed_prefix_examples(recs[:4], np.random.default_rng(2))
        return model, recs, val

    def test_batch_tape_released_before_validation(self, monkeypatch):
        model, recs, val = self._memory_setup()
        tapes, alive = [], []
        real_loss_batch = training.loss_batch

        def spy_loss_batch(model, batch, tape=None, candidates=None):
            tapes.append(weakref.ref(tape))
            return real_loss_batch(model, batch, tape, candidates)

        def spy_evaluate(model, examples, candidates=None):
            alive.append([ref() is not None for ref in tapes])
            return 1.0

        monkeypatch.setattr(training, "loss_batch", spy_loss_batch)
        monkeypatch.setattr(training, "evaluate", spy_evaluate)
        cfg = TrainConfig(batch_size=3, max_batches=4, validate_every=2, patience=99, seed=3)
        train(model, recs, val, cfg)
        assert alive == [[False] * 2, [False] * 4]

    def test_parameter_gradient_buffers_survive_training(self):
        model, recs, val = self._memory_setup()
        buffers = {name: p.grad for name, p in model.params.items()}
        cfg = TrainConfig(batch_size=3, max_batches=3, validate_every=3, patience=99, seed=3)
        train(model, recs, val, cfg)
        for name, p in model.params.items():
            assert p.grad is buffers[name], name

    def test_clip_norm_training_runs_on_brnn(self):
        rng = np.random.default_rng(36)
        recs = make_records([int(rng.integers(2, 8)) for _ in range(12)], rng)
        model = tiny_model("brnn")
        val = fixed_prefix_examples(recs[:4], np.random.default_rng(3))
        cfg = dict(batch_size=5, max_batches=4, validate_every=2, patience=99)
        # Gradient norms here are about 0.4, so a limit of 0.01 clips every batch.
        clipped = train(model, recs, val, TrainConfig(**cfg, clip_norm=0.01))
        assert len(clipped.history) == 2
        assert np.isfinite(clipped.history[-1].val_haversine_km)
        free = train(tiny_model("brnn"), recs, val, TrainConfig(**cfg))
        assert clipped.history != free.history

    def _diverging(self, tmp_path, **cfg):
        """mlp_direct at learning rate 100: only the first validation is on
        the Earth, so only it is saved, and training stops on a non-finite
        value by the fifth batch.  No numpy warning escapes ``train``; the
        suite makes one an error."""
        _, recs, _ = self._setup()
        model = tiny_model("mlp_direct")
        val = fixed_prefix_examples(recs[:5], np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        base = dict(learning_rate=100.0, batch_size=4, max_batches=8, validate_every=1, patience=99)
        base.update(cfg)
        report = train(model, recs, val, TrainConfig(**base), checkpoint_path=path)
        return model, report, path

    def test_non_finite_loss_stops_before_the_step(self, tmp_path):
        model, report, path = self._diverging(tmp_path)
        assert report.stop_reason == "non_finite"
        assert 1 <= len(report.history) < 8
        assert all(math.isfinite(pt.train_loss_km) for pt in report.history)
        for p in model.parameters():
            assert np.isfinite(p.value).all(), p.name
            assert not p.grad.any(), p.name
        for p in models.load_model(path).parameters():
            assert np.isfinite(p.value).all(), p.name

    def _planting(self, monkeypatch, param, planted, on_call=1, before=None):
        """Plant ``planted`` in one gradient element after the ``on_call``-th
        backward pass; ``before`` collects every parameter's value and
        velocity as they were just before that pass's step."""
        backward = Tape.backward
        calls = []

        def planting(tape, loss):
            backward(tape, loss)
            calls.append(1)
            if len(calls) == on_call:
                if before is not None:
                    before.update({p.name: (p.value.copy(), p.velocity.copy()) for p in param.values()})
                param["hidden_w"].grad[1, 2] = planted

        monkeypatch.setattr(Tape, "backward", planting)

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_stops(self, monkeypatch, planted, clip_norm):
        # The loss stays finite; one gradient element is not.  Planted on the
        # second batch, when the velocities are not zero.
        model, recs, val = self._setup()
        before = {}
        self._planting(monkeypatch, model.params, planted, on_call=2, before=before)
        cfg = TrainConfig(batch_size=4, max_batches=4, validate_every=3, patience=99, clip_norm=clip_norm)
        report = train(model, recs, val, cfg)
        assert report.stop_reason == "non_finite"
        assert report.history == []
        assert any(velocity.any() for _, velocity in before.values())
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, before[name][0])
            np.testing.assert_array_equal(p.velocity, before[name][1])
            assert not p.grad.any(), name

    @pytest.mark.parametrize("clip_norm", [None, 2.0])
    def test_large_finite_float32_gradient_takes_its_step(self, monkeypatch, clip_norm):
        # 1e20 squared overflows float32, yet every element is finite.  From
        # zero velocity the step moves the values by lr times the norm, or
        # times clip_norm when it clips, nearly all in the planted element.
        model = tiny_model("mlp_clusters", dtype="float32")
        _, recs, _ = self._setup()
        val = fixed_prefix_examples(recs[:5], np.random.default_rng(1))
        before = {n: p.value.copy() for n, p in model.params.items()}
        self._planting(monkeypatch, model.params, 1e20)
        cfg = TrainConfig(batch_size=4, max_batches=1, validate_every=2, patience=99, clip_norm=clip_norm)
        assert train(model, recs, val, cfg).stop_reason == "max_batches"
        step = cfg.learning_rate * (1e20 if clip_norm is None else clip_norm)
        moved = {n: p.value.astype(np.float64) - before[n] for n, p in model.params.items()}
        assert np.sqrt(sum(np.sum(d**2) for d in moved.values())) == pytest.approx(step, rel=1e-3)
        assert moved["hidden_w"][1, 2] == pytest.approx(-step, rel=1e-3)

    def test_run_without_validation_saves_the_final_model(self, tmp_path):
        model, recs, val = self._setup()
        path = tmp_path / "final.ckpt"
        cfg = TrainConfig(batch_size=4, max_batches=3, validate_every=10, patience=99)
        report = train(model, recs, val, cfg, checkpoint_path=path)
        assert report.history == [] and report.stop_reason == "max_batches"
        assert report.checkpoint_path == str(path)
        saved = models.load_model(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(saved.params[name].value, p.value)

    @pytest.mark.parametrize("how", ["never_finite", "non_finite_before_validating"])
    def test_failed_run_leaves_no_checkpoint(self, tmp_path, monkeypatch, how):
        model, recs, val = self._setup()
        if how == "never_finite":
            monkeypatch.setattr(training, "evaluate", lambda *args: math.inf)
            cfg = TrainConfig(batch_size=4, max_batches=8, validate_every=1, patience=2)
        else:  # no validation ran, yet the final model is not saved
            self._planting(monkeypatch, model.params, np.nan)
            cfg = TrainConfig(batch_size=4, max_batches=8, validate_every=10, patience=99)
        path = tmp_path / "model.ckpt"
        report = train(model, recs, val, cfg, checkpoint_path=path)
        assert report.failed
        assert report.checkpoint_path is None
        assert os.listdir(tmp_path) == []

    def test_memory_net_builds_one_candidate_sampler(self, monkeypatch):
        model, recs, val = self._memory_setup()
        built, validated_against = [], []

        class Counting(training._CandidateSampler):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def spy_evaluate(model, examples, candidates=None):
            validated_against.append(candidates)
            return 1.0

        monkeypatch.setattr(training, "_CandidateSampler", Counting)
        monkeypatch.setattr(training, "evaluate", spy_evaluate)
        cfg = TrainConfig(batch_size=3, max_batches=4, validate_every=2, patience=99, seed=3)
        train(model, recs, val, cfg)
        assert len(built) == 1
        want = memory_candidates(model, recs, cfg.seed)
        assert len(validated_against) == 2
        for got in validated_against:
            assert [(id(ex.record), ex.cut) for ex in got] == [(id(ex.record), ex.cut) for ex in want]


def reference_gradients_finite(params) -> bool:
    """The gradient guard that ``train`` ran before the step took the norm."""
    with np.errstate(over="ignore"):
        for p in params:
            g = p.grad.reshape(-1)
            if not math.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                return False
    return True


def reference_sgd_momentum_step(params, lr, mu) -> None:
    """The step as it was, forming ``lr * grad`` for every parameter."""
    for p in params:
        p.velocity *= mu
        p.velocity -= lr * p.grad
        p.data += p.velocity
        p.grad[...] = 0


class TestStepMatchesReference:
    @staticmethod
    def reference_step(params, lr, mu, max_norm=None):
        assert max_norm is None
        params = list(params)
        if not reference_gradients_finite(params):
            for p in params:
                p.grad[...] = 0
            return math.inf
        reference_sgd_momentum_step(params, lr, mu)
        return 0.0

    @pytest.mark.parametrize("variant", ["mlp_clusters", "brnn", "memory_net"])
    def test_float32_values_and_velocities_bit_equal(self, monkeypatch, variant):
        rng = np.random.default_rng(37)
        recs = make_records([int(rng.integers(2, 8)) for _ in range(15)], rng)
        cfg = TrainConfig(batch_size=5, max_batches=6, validate_every=3, patience=99, seed=4)
        runs = []
        for step in (self.reference_step, training.nncore.sgd_momentum_step):
            monkeypatch.setattr(training.nncore, "sgd_momentum_step", step)
            model = tiny_model(variant, dtype="float32", memory_m=6)
            val = fixed_prefix_examples(recs[:4], np.random.default_rng(2))
            runs.append((train(model, recs, val, cfg), model))
        (ref_report, ref), (report, model) = runs
        assert report == ref_report and report.stop_reason == "max_batches"
        for name, p in model.params.items():
            assert p.value.dtype == np.float32 and ref.params[name].velocity.any(), name
            np.testing.assert_array_equal(p.value, ref.params[name].value)
            np.testing.assert_array_equal(p.velocity, ref.params[name].velocity)


class TestTrainReport:
    @pytest.mark.parametrize(
        "scores, best, stop_reason, failed",
        [
            ([], math.inf, "max_batches", False),  # never validated: the final model is kept
            ([], math.inf, "non_finite", True),
            ([math.inf, math.nan], math.inf, "patience", True),
            ([3.1, math.nan], 3.1, "non_finite", False),  # the finite best is kept
            ([3.1], 3.1, "max_batches", False),
        ],
    )
    def test_failed_when_no_validation_was_finite(self, scores, best, stop_reason, failed):
        history = [training.ValidationPoint(i + 1, 2.0, km, km == best) for i, km in enumerate(scores)]
        assert TrainReport(history, len(scores), best, stop_reason).failed is failed

    def test_jsonl_round_trip(self, tmp_path):
        def strict(name):
            raise ValueError(f"not strict JSON: {name}")

        history = [training.ValidationPoint(10, 2.5, 3.1, True), training.ValidationPoint(20, 2.0, 3.3, False)]
        reports = [
            TrainReport(history, 10, 3.1, stop_reason, "model.ckpt") for stop_reason in ("max_batches", "non_finite")
        ]
        # No validation ran: best_val_km is inf, written as null.
        reports.append(TrainReport(stop_reason="non_finite", checkpoint_path="model.ckpt"))
        for report in reports:
            path = tmp_path / "report.jsonl"
            report.to_jsonl(path)
            lines = [json.loads(line, parse_constant=strict) for line in path.read_text().splitlines()]
            assert len(lines) == len(report.history) + 1
            loaded = TrainReport.from_jsonl(path)
            assert loaded == report
        assert lines[-1]["best_val_km"] is None and loaded.best_val_km == math.inf

    def test_failed_write_keeps_old_report(self, tmp_path):
        path = tmp_path / "report.jsonl"
        TrainReport(stop_reason="patience").to_jsonl(path)
        old = path.read_bytes()
        # The second line cannot be serialized, after the first is written.
        bad = TrainReport(history=[training.ValidationPoint(1, 2.0, 3.0, True),
                                   training.ValidationPoint(2, object(), 3.0, False)])
        with pytest.raises(TypeError):
            bad.to_jsonl(path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["report.jsonl"]


class TestWriteSubmission:
    def test_single_prefix_two_lines(self, tmp_path):
        model = single_center_model()
        rng = np.random.default_rng(36)
        recs = make_records([3], rng)
        ex = make_prefix_example(recs[0], 2, model.config.k, model.stats, model.vocab)
        path = tmp_path / "sub.csv"
        write_submission(model, [ex], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "TRIP_ID,LATITUDE,LONGITUDE"

    def test_trip_ids_that_need_quotes_read_back_whole(self, tmp_path):
        model = single_center_model()
        recs = make_records([3, 4], np.random.default_rng(39))
        recs = [dataclasses.replace(r, trip_id=t) for r, t in zip(recs, ["T,1", 'T"2'])]
        path = tmp_path / "sub.csv"
        write_submission(model, models.candidates_from_records(recs), path)
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [3, 3, 3]
        assert [row[0] for row in rows] == ["TRIP_ID", "T,1", 'T"2']
        assert rows[1][1:] == ["41.150000", "-8.610000"]

    @pytest.mark.parametrize("lat, lon", OFF_THE_EARTH)
    def test_prediction_off_the_earth_writes_nothing(self, tmp_path, lat, lon):
        examples = models.candidates_from_records(make_records([3, 4], np.random.default_rng(40)))
        path = tmp_path / "sub.csv"
        path.write_text("old\n")
        with pytest.raises(DataError, match=r"prediction for trip t0 is .* not finite within"):
            write_submission(direct_model_predicting(lat, lon), examples, path)
        assert path.read_text() == "old\n"

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        model = single_center_model()
        recs = make_records([3, 4], np.random.default_rng(38))
        examples = [make_prefix_example(r, 2, model.config.k, model.stats, model.vocab) for r in recs]
        path = tmp_path / "sub.csv"
        write_submission(model, examples, path)
        old = path.read_bytes()
        # The second row cannot be formatted, after the first is written.
        monkeypatch.setattr(models, "predict", lambda *args: [(41.1, -8.6), (None, None)])
        with pytest.raises(TypeError):
            write_submission(model, examples, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["sub.csv"]

    def test_round_trip_within_tolerance(self, tmp_path):
        model = single_center_model()
        rng = np.random.default_rng(37)
        recs = make_records([3, 4, 5], rng)
        examples = [
            make_prefix_example(r, 2, model.config.k, model.stats, model.vocab) for r in recs
        ]
        pred = models.predict(model, examples)
        path = tmp_path / "sub.csv"
        write_submission(model, examples, path)
        lines = path.read_text().splitlines()[1:]
        for (trip, lat, lon), p, ex in (
            (line.split(","), pr, e) for line, pr, e in zip(lines, pred, examples)
        ):
            assert trip == ex.trip_id
            assert abs(float(lat) - p[0]) < 1e-6
            assert abs(float(lon) - p[1]) < 1e-6
