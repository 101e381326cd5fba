"""Model assembly: shapes, hull invariant, variant equivalences, checkpoints."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from conftest import (
    failing_after_first_write,
    make_records,
    model_gradient_check,
    saved_extras,
    tiny_batch,
    tiny_clusters,
    tiny_config,
    tiny_model,
    tiny_stats,
    tiny_vocab,
    write_checkpoint,
)
from taxidest import _container, data, models, nncore
from taxidest.data import DataError
from taxidest.geo import StandardizationStats
from taxidest.models import (
    EMBEDDING_FIELDS,
    ModelConfig,
    build_model,
    candidates_from_records,
    forward,
    load_model,
    predict,
    save_model,
)
from taxidest.nncore import Parameter, Tape, Tensor
from taxidest.training import loss_batch


class TestBuildModel:
    def test_reference_parameter_count_closed_form(self):
        vocab = tiny_vocab()
        clusters = tiny_clusters()
        cfg = ModelConfig(variant="mlp_clusters")  # stock defaults: k=5, hidden=500, dims 10
        model = build_model(cfg, clusters, tiny_stats(), vocab, seed=0)
        c = clusters.count
        tables = (sum(len(m) + 1 for m in vocab.maps.values()) + 96 + 7 + 52) * 10
        expected = 80 * 500 + 500 + 500 * c + c + tables
        assert model.parameter_count() == expected

    def test_parameter_layout_per_variant(self):
        # Creation order is the order of the initializer's draws, so this
        # pins bit-identical initialization as well as the shapes.
        k, hidden, rnn, window, e = 3, 7, 5, 4, 2
        c = tiny_clusters().count
        emb = [(f"emb_{f}", (rows, e)) for f, rows in
               zip(EMBEDDING_FIELDS, (3, 2, 3, 96, 7, 52))]  # tiny_vocab: 2, 1 and 2 ids, plus UNK

        def dense(name, fan_in, fan_out):
            return [(f"{name}_w", (fan_in, fan_out)), (f"{name}_b", (fan_out,))]

        def lstm(direction, step):
            return [(f"lstm_{direction}_wx", (step, 4 * rnn)), (f"lstm_{direction}_wh", (rnn, 4 * rnn)),
                    (f"lstm_{direction}_b", (4 * rnn,))]

        out = dense("out", hidden, c)
        expected = {
            "mlp_clusters": emb + dense("hidden", 4 * k + 6 * e, hidden) + out,
            "mlp_direct": emb + dense("hidden", 4 * k + 6 * e, hidden) + dense("out", hidden, 2),
            "mlp_no_embed": dense("hidden", 4 * k, hidden) + out,
            "mlp_embed_only": emb + dense("hidden", 6 * e, hidden) + out,
            "rnn": emb + lstm("fwd", 2) + dense("hidden", rnn + 6 * e, hidden) + out,
            "brnn": emb + lstm("fwd", 2) + lstm("bwd", 2) + dense("hidden", 2 * rnn + 6 * e, hidden) + out,
            "brnn_window": emb + lstm("fwd", 2 * window) + lstm("bwd", 2 * window)
            + dense("hidden", 2 * rnn + 6 * e, hidden) + out,
            "memory_net": emb + dense("enc_query", 4 * k + 6 * e, hidden)
            + dense("enc_cand", 4 * k + 6 * e, hidden),
        }
        assert list(expected) == list(models.VARIANTS)
        for variant, layout in expected.items():
            model = tiny_model(variant, k=k, hidden=hidden, rnn_hidden=rnn, window=window, embedding_dim=e)
            assert [(name, p.shape) for name, p in model.params.items()] == layout, variant

    def test_input_width_reference(self):
        model = tiny_model("mlp_clusters", k=5, embedding_dim=10)
        assert model.params["hidden_w"].shape[0] == 4 * 5 + 60

    def test_input_width_no_embed(self):
        model = tiny_model("mlp_no_embed", k=5)
        assert model.params["hidden_w"].shape[0] == 20
        assert not any(n.startswith("emb_") for n in model.params)

    def test_mlp_direct_output_shape(self):
        model = tiny_model("mlp_direct", hidden=500)
        assert model.params["out_w"].shape == (500, 2)
        assert model.params["out_b"].shape == (2,)
        assert model.clusters is None

    def test_time_tables_sized_by_calendar(self):
        model = tiny_model("mlp_clusters", embedding_dim=10)
        assert model.params["emb_quarter_hour"].shape == (96, 10)
        assert model.params["emb_day_of_week"].shape == (7, 10)
        assert model.params["emb_week_of_year"].shape == (52, 10)

    def test_same_seed_bit_identical(self):
        a = tiny_model("brnn", seed=5)
        b = tiny_model("brnn", seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].value, b.params[name].value)

    def test_cluster_variant_requires_clusters(self):
        with pytest.raises(ValueError):
            build_model(tiny_config("rnn"), None, tiny_stats(), tiny_vocab())

    def test_forget_gate_bias_is_one(self):
        model = tiny_model("rnn")
        hidden = model.config.rnn_hidden
        b = model.params["lstm_fwd_b"].value
        np.testing.assert_array_equal(b[hidden : 2 * hidden], 1.0)
        np.testing.assert_array_equal(b[:hidden], 0.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="mlp_clusters"):
            ModelConfig(variant="transformer")

    @pytest.mark.parametrize("value", [0, -1])
    def test_embedding_dim_below_one_names_the_field(self, value):
        with pytest.raises(ValueError, match=rf"^embedding_dim must be positive, got {value}$"):
            ModelConfig(variant="mlp_no_embed", embedding_dim=value)

    @pytest.mark.parametrize("field", ["memory_m"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_memory_sizes_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ModelConfig(variant="memory_net", **{field: value})

    @pytest.mark.parametrize("field", ["k", "hidden", "rnn_hidden", "window"])
    def test_size_error_names_one_field(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be positive, got 0$"):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("dtype", ["int8", "float16"])
    def test_dtype_must_be_float32_or_float64(self, dtype):
        with pytest.raises(ValueError, match=f"dtype must be float32 or float64, got '{dtype}'"):
            ModelConfig(dtype=dtype)


class TestForwardShapesAndHull:
    @pytest.mark.parametrize(
        "variant",
        ["mlp_clusters", "mlp_no_embed", "mlp_embed_only", "rnn", "brnn", "brnn_window"],
    )
    def test_centroid_prediction_in_center_bbox(self, variant):
        rng = np.random.default_rng(14)
        model = tiny_model(variant)
        batch = tiny_batch(model, rng, n=16, max_len=6)
        pred = predict(model, batch)
        centers = model.clusters.centers
        assert (pred[:, 0] >= centers[:, 0].min() - 1e-9).all()
        assert (pred[:, 0] <= centers[:, 0].max() + 1e-9).all()
        assert (pred[:, 1] >= centers[:, 1].min() - 1e-9).all()
        assert (pred[:, 1] <= centers[:, 1].max() + 1e-9).all()

    def test_determinism_same_batch(self):
        rng = np.random.default_rng(15)
        model = tiny_model("brnn")
        batch = tiny_batch(model, rng, n=6, max_len=5)
        a = predict(model, batch)
        b = predict(model, batch)
        np.testing.assert_array_equal(a, b)

    def test_length_one_prefix_valid(self):
        rng = np.random.default_rng(16)
        model = tiny_model("rnn")
        batch = tiny_batch(model, rng, n=3, max_len=1)
        pred = predict(model, batch)
        assert pred.shape == (3, 2)
        assert np.isfinite(pred).all()


class TestRecurrentDetails:
    @staticmethod
    def _forward_steps(seq: np.ndarray, window: int) -> np.ndarray:
        """Forward step inputs [T, window*2] of one prefix ``seq`` whose
        standardized points equal its raw ones (mean 0, std 1)."""
        model = tiny_model("brnn_window", window=window)
        model.stats = StandardizationStats(0.0, 0.0, 1.0, 1.0)
        rec = data.TrainRecord("seq", "phone", 10, None, 5, 1400000000, False, seq)
        feats = models.featurize(model, [data.make_prefix_example(rec, len(seq), 2, None, None)])
        assert [len(x) for x in feats.fwd] == [1] * len(seq)
        return np.vstack(feats.fwd)

    def test_window_steps_shape_and_padding(self):
        seq = np.arange(14.0).reshape(7, 2)
        steps = self._forward_steps(seq, 5)
        assert steps.shape == (7, 10)  # 7 RNN steps, 5 points x 2 coords each
        # first step: all five positions are the first point (head padding)
        np.testing.assert_array_equal(steps[0], np.tile(seq[0], 5))
        # second step: four paddings then point 2
        np.testing.assert_array_equal(steps[1], np.concatenate([np.tile(seq[0], 4), seq[1]]))
        # final step sees the latest five points in order
        np.testing.assert_array_equal(steps[6], seq[2:7].reshape(-1))

    def test_window_one_is_the_points(self):
        seq = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(self._forward_steps(seq, 1), seq)

    def test_brnn_window1_equals_brnn(self):
        rng = np.random.default_rng(17)
        brnn = tiny_model("brnn", seed=3)
        windowed = tiny_model("brnn_window", seed=99, window=1)
        for name, p in brnn.params.items():
            windowed.params[name].data = p.value.copy()
        batch = tiny_batch(brnn, rng, n=5, max_len=6)
        np.testing.assert_allclose(predict(brnn, batch), predict(windowed, batch), atol=1e-12)

    def test_palindrome_with_tied_weights(self):
        model = tiny_model("brnn", seed=4)
        for suffix in ("wx", "wh", "b"):
            model.params[f"lstm_bwd_{suffix}"].data = model.params[
                f"lstm_fwd_{suffix}"
            ].value.copy()
        pts = np.array(
            [[41.15, -8.61], [41.16, -8.60], [41.17, -8.59], [41.16, -8.60], [41.15, -8.61]]
        )
        rec = data.TrainRecord("pal", "phone", 10, None, 5, 1400000000, False, pts)
        ex = data.make_prefix_example(rec, 5, model.config.k, model.stats, model.vocab)
        state = models._recurrent_states(model, None, models.featurize(model, [ex])).data
        hidden = model.config.rnn_hidden
        np.testing.assert_allclose(state[0, :hidden], state[0, hidden:], atol=1e-12)


class TestPackedRecurrentBatch:
    """Mixed and repeated lengths: rows finish at different steps and the
    batch is reordered by length, on the forward and the gradient path."""

    LENGTHS = [1, 3, 3, 5, 7, 2]

    def _batch(self, model):
        recs = make_records(self.LENGTHS, np.random.default_rng(24))
        return [
            data.make_prefix_example(r, len(r.polyline), model.config.k, model.stats, model.vocab)
            for r in recs
        ]

    @pytest.mark.parametrize("variant", ["rnn", "brnn", "brnn_window"])
    def test_batch_equals_rows_one_at_a_time(self, variant):
        model = tiny_model(variant, seed=5)
        batch = self._batch(model)
        def states(examples):
            return models._recurrent_states(model, None, models.featurize(model, examples)).data

        packed = states(batch)
        rows = np.vstack([states([ex]) for ex in batch])
        np.testing.assert_allclose(packed, rows, rtol=0, atol=1e-12)

    def test_state_is_the_final_h_of_a_textbook_lstm(self):
        """rnn's recurrent feature of each row is h after its last step of
        c = f c + i g, h = o tanh(c), gates (i, f, g, o) from x wx + h wh + b."""
        model = tiny_model("rnn", seed=7)
        batch = self._batch(model)
        feats = models.featurize(model, batch)
        wx, wh, b = (model.params[f"lstm_fwd_{n}"].data for n in ("wx", "wh", "b"))
        hdim = wh.shape[0]
        sigmoid = lambda v: 1 / (1 + np.exp(-v))
        states = models._recurrent_states(model, None, feats).data
        for row, n in enumerate(self.LENGTHS):
            steps = models.featurize(model, [batch[row]]).fwd
            h = c = np.zeros(hdim)
            for x in steps:
                z = x[0] @ wx + h @ wh + b
                i, f, o = sigmoid(z[:hdim]), sigmoid(z[hdim : 2 * hdim]), sigmoid(z[3 * hdim :])
                c = f * c + i * np.tanh(z[2 * hdim : 3 * hdim])
                h = o * np.tanh(c)
            assert len(steps) == n
            np.testing.assert_allclose(states[row], h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["rnn", "brnn"])
    def test_gradients(self, variant):
        model = tiny_model(variant, seed=6)
        worst, name = model_gradient_check(model, self._batch(model))
        assert worst < 1e-3, f"{variant}: {name} at {worst:.2e}"


class TestMemoryNetwork:
    def _candidates(self, model, rng, n):
        recs = make_records([3] * n, rng)
        return candidates_from_records(recs)

    def test_query_input_recorded_before_candidates(self):
        # Backward sums the shared embedding gradients in reverse tape order;
        # this order is the one the trained weights are bit-identical under.
        rng = np.random.default_rng(26)
        model = tiny_model("memory_net")
        tape = nncore.Tape()
        forward(model, tiny_batch(model, rng, n=3), tape, self._candidates(model, rng, 5))
        rows = [node.output.data.shape[0] for node in tape.nodes]
        assert rows[: rows.index(5)] == [3] * rows.index(5) and rows.index(5) > 0

    def test_single_candidate_returns_its_destination(self):
        rng = np.random.default_rng(18)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=2)
        cands = self._candidates(model, rng, 1)
        pred = predict(model, batch, cands)
        expect = [cands[0].target.lat, cands[0].target.lon]
        np.testing.assert_allclose(pred, np.tile(expect, (2, 1)), atol=1e-12)

    def test_equal_representations_give_midpoint(self):
        rng = np.random.default_rng(19)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=1)
        c1 = self._candidates(model, rng, 1)[0]
        # The twin's trajectory goes one point further; cut where c1 ends, it
        # has c1's inputs and another destination.
        further = [[c1.target.lat + 0.02, c1.target.lon - 0.02]]
        twin = dataclasses.replace(
            c1.record, trip_id="twin", polyline=np.vstack([c1.record.polyline, further])
        )
        c2 = data.make_prefix_example(twin, c1.cut, model.config.k, model.stats, model.vocab)
        f1, f2 = models.featurize(model, [c1]), models.featurize(model, [c2])
        np.testing.assert_array_equal(f1.gps, f2.gps)
        for f in EMBEDDING_FIELDS:
            np.testing.assert_array_equal(f1.index[f], f2.index[f])
        pred = predict(model, batch, [c1, c2])
        mid = [
            (c1.target.lat + c2.target.lat) / 2,
            (c1.target.lon + c2.target.lon) / 2,
        ]
        np.testing.assert_allclose(pred[0], mid, atol=1e-12)

    def test_hand_built_similarities(self):
        # s = [ln 3, ln 1] -> weights [0.75, 0.25]; dests (41,-8), (43,-6) -> (41.5, -7.5),
        # and on two candidates the centroid pins the weights down
        r_q = Tensor(np.array([[1.0, 0.0]]))
        r_c = Tensor(np.array([[np.log(3.0), 5.0], [0.0, 7.0]]))
        sims = nncore.dot_similarity(None, r_q, r_c)
        dests = np.array([[41.0, -8.0], [43.0, -6.0]])
        out = nncore.weighted_centroid(None, sims, dests)
        np.testing.assert_allclose(out.data, [[41.5, -7.5]], atol=1e-12)

    def test_candidate_permutation_invariant(self):
        rng = np.random.default_rng(20)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=3)
        cands = self._candidates(model, rng, 6)
        a = predict(model, batch, cands)
        b = predict(model, batch, cands[::-1])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_prediction_in_candidate_bbox(self):
        rng = np.random.default_rng(21)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=8)
        cands = self._candidates(model, rng, 5)
        pred = predict(model, batch, cands)
        dests = np.array([[c.target.lat, c.target.lon] for c in cands])
        assert (pred[:, 0] >= dests[:, 0].min() - 1e-9).all()
        assert (pred[:, 0] <= dests[:, 0].max() + 1e-9).all()

    def test_zero_candidates_rejected(self):
        rng = np.random.default_rng(22)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=1)
        with pytest.raises(ValueError, match="at least one candidate"):
            forward(model, batch, None, [])
        with pytest.raises(ValueError, match="at least one candidate"):
            predict(model, batch, [])


class TestPredictChunks:
    @pytest.mark.parametrize("variant", ["mlp_clusters", "mlp_direct", "brnn", "memory_net"])
    def test_chunks_equal_one_forward(self, variant, monkeypatch):
        rng = np.random.default_rng(24)
        model = tiny_model(variant)
        batch = tiny_batch(model, rng, n=8, max_len=6)
        cands = None
        if variant == "memory_net":
            recs = make_records([3] * 5, rng)
            cands = candidates_from_records(recs)
        whole = forward(model, batch, None, cands).data
        monkeypatch.setattr(models, "PREDICT_CHUNK", 3)
        pred = predict(model, batch, cands)
        assert pred.dtype == np.float64 and pred.shape == (8, 2)
        np.testing.assert_allclose(pred, whole, rtol=0, atol=1e-12)

    def test_memory_candidates_encoded_once(self, monkeypatch):
        rng = np.random.default_rng(25)
        model = tiny_model("memory_net")
        batch = tiny_batch(model, rng, n=7)
        cands = candidates_from_records(make_records([3] * 4, rng))
        monkeypatch.setattr(models, "PREDICT_CHUNK", 2)
        encoded = []
        memory = models._candidate_memory
        monkeypatch.setattr(models, "_candidate_memory", lambda *a: encoded.append(1) or memory(*a))
        predict(model, batch, cands)
        assert len(encoded) == 1


class TestGradientChecksPerVariant:
    # End-to-end double-precision checks on tiny configurations; the
    # acceptance suite runs all eight variants with timing.
    @pytest.mark.parametrize("variant", ["mlp_clusters", "brnn_window", "memory_net"])
    def test_gradients(self, variant):
        rng = np.random.default_rng(23)
        model = tiny_model(variant)
        batch = tiny_batch(model, rng, n=2, max_len=4)
        cands = tiny_batch(model, rng, n=3) if variant == "memory_net" else None
        worst, name = model_gradient_check(model, batch, cands)
        assert worst < 1e-3, f"{variant}: {name} at {worst:.2e}"


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["mlp_clusters", "mlp_direct", "brnn", "memory_net"])
    def test_round_trip_identical_predictions(self, tmp_path, variant):
        rng = np.random.default_rng(24)
        model = tiny_model(variant)
        batch = tiny_batch(model, rng, n=4, max_len=5)
        cands = tiny_batch(model, rng, n=3) if variant == "memory_net" else None
        before = predict(model, batch, cands)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        after = predict(loaded, batch, cands)
        np.testing.assert_array_equal(before, after)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert loaded.stats == model.stats
        if model.clusters is None:
            assert loaded.clusters is None
        else:
            np.testing.assert_array_equal(loaded.clusters.centers, model.clusters.centers)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_save_load_save_is_byte_identical_after_training(self, tmp_path, variant, dtype):
        rng = np.random.default_rng(26)
        model = tiny_model(variant, dtype=dtype)
        for _ in range(3):
            batch = tiny_batch(model, rng, n=4, max_len=5)
            cands = tiny_batch(model, rng, n=3) if model.config.uses_memory else None
            tape = Tape()
            tape.backward(loss_batch(model, batch, tape, cands))
            nncore.sgd_momentum_step(model.parameters(), 0.01, 0.9)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            q = loaded.params[name].value
            assert q.dtype == p.value.dtype and q.shape == p.value.shape and q.tobytes() == p.value.tobytes(), name

    def test_older_config_layout_rejected(self, tmp_path):
        """The layout of the model config before the single embedding width:
        one width per table in ``embedding_dims``, and ``memory_batch``."""
        model = tiny_model("mlp_clusters")
        extras = saved_extras(model, tmp_path / "saved.ckpt")
        config = extras["model_config"]
        width = config.pop("embedding_dim")
        config["embedding_dims"] = {f: width for f in EMBEDDING_FIELDS}
        config["memory_batch"] = 5000
        path = tmp_path / "older.ckpt"
        write_checkpoint(path, model.parameters(), extras)
        with pytest.raises(DataError, match="checkpoint metadata is not readable: .*embedding_dims") as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "damage, why",
        [(lambda e: e["model_config"].update(embedding_width=3), "embedding_width"),
         (lambda e: e["model_config"].update(k=0), "k must be positive, got 0"),
         (lambda e: e["model_config"].update(dtype="int8"), "dtype must be float32 or float64"),
         (lambda e: e.pop("stats"), "no 'stats' entry"),
         (lambda e: e["vocab"].pop("stand"), "no 'stand' entry"),
         (lambda e: e.update(clusters="none"), "not readable"),
         (lambda e: e.update(clusters=None), "variant mlp_clusters requires a ClusterSet"),
         (lambda e: e["stats"].update(mean_lat=math.nan), "means must be finite"),
         (lambda e: e["stats"].update(std_lon=math.inf), "finite and strictly positive"),
         (lambda e: e["clusters"][1].__setitem__(0, 95.0), r"centre 1 is \(95\.0, "),
         (lambda e: e["clusters"][2].__setitem__(1, math.nan), r"centre 2 is .*need finite"),
         (lambda e: e["vocab"]["client"].update({"10": 3}), r"client vocabulary does not map .* to 1\.\.2"),
         (lambda e: e["vocab"].update(taxi={" 5": 1}), r"taxi vocabulary does not map distinct integer ids")],
    )
    def test_unreadable_metadata_names_path(self, tmp_path, damage, why):
        model = tiny_model("mlp_clusters")
        extras = saved_extras(model, tmp_path / "saved.ckpt")
        damage(extras)
        path = tmp_path / "damaged.ckpt"
        write_checkpoint(path, model.parameters(), extras)
        with pytest.raises(DataError, match=why) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "edit, why",
        [(lambda p: p.pop("out_b"), "variant mlp_direct's parameter 9 is 'out_b'; the checkpoint has none there"),
         (lambda p: p.update(hidden_b=p.pop("hidden_b")),
          "variant mlp_direct's parameter 7 is 'hidden_b'; the checkpoint has 'out_w' there"),
         (lambda p: p.update(extra=Parameter("extra", np.zeros(3, np.float32))),
          "parameter 'extra' is not one of variant mlp_direct's"),
         (lambda p: p.update(hidden_w=Parameter("hidden_w", p["hidden_w"].value[:, :8])),
          r"parameter 'hidden_w' is float32 \(20, 8\), expected float32 \(20, 16\)"),
         (lambda p: p.update(out_w=Parameter("out_w", p["out_w"].value.astype(np.float64))),
          r"parameter 'out_w' is float64 \(16, 2\), expected float32 \(16, 2\)")],
        ids=["missing", "reordered", "extra", "mis-shaped", "float64-in-float32"],
    )
    def test_parameters_that_do_not_fit_the_config_name_path(self, tmp_path, edit, why):
        model = tiny_model("mlp_direct", hidden=16, dtype="float32")
        edit(model.params)
        path = tmp_path / "misfit.ckpt"
        save_model(model, path)
        with pytest.raises(DataError, match=why) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_parameter_order_preserved(self, tmp_path):
        model = tiny_model("mlp_clusters")
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert list(loaded.params) == list(model.params)

    def _saved(self, tmp_path):
        model = tiny_model("mlp_clusters")
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        return model, path, path.read_bytes()

    @pytest.mark.parametrize("cut", [15, 30, -4])
    def test_truncated_checkpoint_names_path(self, tmp_path, cut):
        model, path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="truncated") as err:
            load_model(path)
        assert str(path) in str(err.value)
        if cut == -4:
            assert repr(list(model.params)[-1]) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path, raw = self._saved(tmp_path)
        path.write_bytes(raw + b"\0\0\0\0")
        with pytest.raises(DataError, match="4 bytes after the last parameter") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_parameter_size_must_match_shape(self, tmp_path):
        _, path, raw = self._saved(tmp_path)
        hlen = int.from_bytes(raw[12:20], "little")
        header = json.loads(raw[20 : 20 + hlen])
        first = header["params"][0]
        first["shape"] = [first["shape"][0] + 1] + first["shape"][1:]
        new = json.dumps(header).encode()
        path.write_bytes(raw[:12] + len(new).to_bytes(8, "little") + new + raw[20 + hlen :])
        with pytest.raises(DataError, match="do not hold") as err:
            load_model(path)
        assert str(path) in str(err.value) and repr(first["name"]) in str(err.value)

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        model, path, raw = self._saved(tmp_path)
        monkeypatch.setattr(_container, "atomic_open", failing_after_first_write(_container.atomic_open))
        with pytest.raises(RuntimeError, match="disk gone"):
            save_model(tiny_model("mlp_clusters", seed=1), path)
        assert path.read_bytes() == raw
        assert os.listdir(tmp_path) == ["model.ckpt"]
