"""Loss, training loop, early stopping, evaluation, submissions."""

import math
import os
import weakref

import numpy as np
import pytest

from conftest import make_records, tiny_model, tiny_stats, tiny_vocab
from taxidest import models, training
from taxidest.clustering import ClusterSet
from taxidest.data import DataError, make_prefix_example
from taxidest.geo import GeoPoint, equirectangular_distance, equirectangular_grad_y, haversine_distance
from taxidest.models import ModelConfig, build_model
from taxidest.nncore import Tape, Tensor
from taxidest.training import (
    TrainConfig,
    TrainReport,
    equirectangular_loss,
    evaluate,
    fixed_prefix_examples,
    loss_batch,
    train,
    write_submission,
)


def single_center_model(center=(41.15, -8.61), dtype="float64"):
    """Centroid model with one cluster: always predicts exactly the center."""
    cfg = ModelConfig(
        variant="mlp_clusters",
        k=2,
        hidden=4,
        embedding_dims={f: 2 for f in models.EMBEDDING_FIELDS},
        dtype=dtype,
    )
    clusters = ClusterSet(np.array([center]))
    return build_model(cfg, clusters, tiny_stats(), tiny_vocab(), seed=0)


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


class TestTrainLoop:
    def _setup(self, n=20, seed=32):
        rng = np.random.default_rng(seed)
        recs = make_records([int(rng.integers(2, 8)) for _ in range(n)], rng)
        model = tiny_model("mlp_clusters")
        val = fixed_prefix_examples(
            recs[:5], model.config.k, model.stats, model.vocab, np.random.default_rng(1)
        )
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
        val = fixed_prefix_examples(
            recs[:4], model.config.k, model.stats, model.vocab, np.random.default_rng(2)
        )
        cfg = TrainConfig(batch_size=3, max_batches=4, validate_every=2, patience=99, seed=3)
        report = train(model, recs, val, cfg)
        assert len(report.history) == 2
        assert np.isfinite(report.history[-1].val_haversine_km)


    def _memory_setup(self):
        rng = np.random.default_rng(35)
        recs = make_records([int(rng.integers(2, 6)) for _ in range(15)], rng)
        model = tiny_model("memory_net", memory_m=6)
        val = fixed_prefix_examples(
            recs[:4], model.config.k, model.stats, model.vocab, np.random.default_rng(2)
        )
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
        val = fixed_prefix_examples(
            recs[:4], model.config.k, model.stats, model.vocab, np.random.default_rng(3)
        )
        cfg = dict(batch_size=5, max_batches=4, validate_every=2, patience=99)
        # Gradient norms here are about 0.4, so a limit of 0.01 clips every batch.
        clipped = train(model, recs, val, TrainConfig(**cfg, clip_norm=0.01))
        assert len(clipped.history) == 2
        assert np.isfinite(clipped.history[-1].val_haversine_km)
        free = train(tiny_model("brnn"), recs, val, TrainConfig(**cfg))
        assert clipped.history != free.history

    def _diverging(self, tmp_path, **cfg):
        """mlp_direct at learning rate 1e4: the loss is NaN by the third batch."""
        _, recs, _ = self._setup()
        model = tiny_model("mlp_direct")
        val = fixed_prefix_examples(recs[:5], model.config.k, model.stats, model.vocab, np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        base = dict(learning_rate=1e4, batch_size=4, max_batches=8, validate_every=1, patience=99)
        base.update(cfg)
        with np.errstate(all="ignore"):
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

    def test_non_finite_gradient_norm_stops(self, tmp_path, monkeypatch):
        # A clipping norm that is not finite stops training even while the
        # loss itself is still finite.
        monkeypatch.setattr(training.nncore, "clip_gradients", lambda params, max_norm: math.inf)
        model, report, _ = self._diverging(tmp_path, learning_rate=0.01, clip_norm=1.0)
        assert report.stop_reason == "non_finite"
        assert report.history == []
        for p in model.parameters():
            assert np.isfinite(p.value).all() and not p.grad.any(), p.name

    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_stops_without_clipping(self, monkeypatch, planted):
        # The loss stays finite; one gradient element is not.
        model, recs, val = self._setup()
        before = {n: p.value.copy() for n, p in model.params.items()}
        backward = Tape.backward

        def planting(tape, loss):
            backward(tape, loss)
            model.params["hidden_w"].grad[1, 2] = planted

        monkeypatch.setattr(Tape, "backward", planting)
        cfg = TrainConfig(batch_size=4, max_batches=3, validate_every=1, patience=99)
        report = train(model, recs, val, cfg)
        assert report.stop_reason == "non_finite"
        assert report.history == []
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, before[name])
            assert not p.grad.any() and not p.velocity.any(), name

    def test_large_finite_float32_gradient_takes_its_step(self, monkeypatch):
        # 1e20 squared overflows float32, yet every element is finite.
        model = tiny_model("mlp_clusters", dtype="float32")
        _, recs, _ = self._setup()
        val = fixed_prefix_examples(recs[:5], model.config.k, model.stats, model.vocab, np.random.default_rng(1))
        backward = Tape.backward

        def planting(tape, loss):
            backward(tape, loss)
            model.params["hidden_w"].grad[1, 2] = 1e20

        monkeypatch.setattr(Tape, "backward", planting)
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_batches=2, validate_every=1, patience=99)
        assert train(model, recs, val, cfg).stop_reason == "max_batches"


class TestTrainReport:
    def test_jsonl_round_trip(self, tmp_path):
        for stop_reason in ("max_batches", "non_finite"):
            report = TrainReport(
                history=[
                    training.ValidationPoint(10, 2.5, 3.1, True),
                    training.ValidationPoint(20, 2.0, 3.3, False),
                ],
                best_batches=10,
                best_val_km=3.1,
                stop_reason=stop_reason,
                checkpoint_path="model.ckpt",
            )
            path = tmp_path / "report.jsonl"
            report.to_jsonl(path)
            loaded = TrainReport.from_jsonl(path)
            assert loaded == report

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
