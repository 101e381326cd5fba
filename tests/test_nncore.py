"""Autodiff engine and neural building blocks, each against its oracle."""

import math

import numpy as np
import pytest

from conftest import fd_param_gradients, relative_errors, tiny_batch, tiny_model
from taxidest import nncore, training
from taxidest.nncore import (
    Parameter,
    Tape,
    Tensor,
    add,
    concat,
    concat_rows,
    dense,
    dot_similarity,
    embedding_lookup,
    lstm_cell,
    matmul,
    mean_all,
    mul,
    relu,
    scale,
    sgd_momentum_step,
    slice_cols,
    softmax,
    sqrt,
    sub,
    weighted_centroid,
)


def sum_of(tape, t):
    return scale(tape, mean_all(tape, t), float(t.data.size))


def check_grads(build_loss, params, h=1e-5, tol=1e-4):
    """build_loss(tape) -> scalar Tensor, recomputable; asserts tape vs FD."""
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}
    numeric = fd_param_gradients(lambda: float(build_loss(None).data), params, h=h)
    for p in params:
        worst = relative_errors(analytic[p.name], numeric[p.name]).max()
        assert worst < tol, f"{p.name}: relative error {worst:.3e}"


class TestDense:
    def test_identity_weights(self):
        w = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        out = dense(None, Tensor([[1.0, 2.0]]), w, b)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_zero_weights_bias_only(self):
        w = Tensor(np.zeros((3, 2)))
        b = Tensor([3.0, 4.0])
        out = dense(None, Tensor(np.ones((4, 3))), w, b)
        np.testing.assert_allclose(out.data, np.tile([3.0, 4.0], (4, 1)))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = dense(None, Tensor(x), Tensor(w), Tensor(b))
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expect[i, j] += x[i, k] * w[k, j]
                expect[i, j] += b[j]
        np.testing.assert_allclose(out.data, expect, atol=1e-6)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(4, 2\)"):
            dense(None, Tensor(np.ones((1, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        w = Parameter("w", rng.normal(size=(4, 3)))
        b = Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        wt = rng.normal(size=(5, 3))
        check_grads(
            lambda tape: sum_of(tape, mul(tape, dense(tape, Tensor(x), w.tensor, b.tensor), Tensor(wt))),
            [w, b],
        )


class TestRelu:
    def test_values(self):
        out = relu(None, Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_all_negative_zero_gradient(self):
        x = Tensor(-np.ones((2, 3)))
        tape = Tape()
        out = relu(tape, x)
        loss = sum_of(tape, out)
        tape.backward(loss)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_gradients_away_from_kink(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(4, 5))
        vals[np.abs(vals) < 1e-3] = 0.5  # keep clear of the kink
        p = Parameter("p", vals)
        wt = rng.normal(size=(4, 5))
        check_grads(
            lambda tape: sum_of(tape, mul(tape, relu(tape, p.tensor), Tensor(wt))), [p]
        )


class TestSoftmax:
    def test_uniform(self):
        out = softmax(None, Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_large_values_stable(self):
        out = softmax(None, Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])
        assert np.isfinite(out.data).all()

    def test_against_direct_evaluation(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = softmax(None, Tensor(x))
        e = np.exp(x)
        np.testing.assert_allclose(out.data, e / e.sum(), atol=1e-7)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=5, size=(50, 7))
        out = softmax(None, Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        shifted = softmax(None, Tensor(x + 123.0))
        np.testing.assert_allclose(shifted.data, out.data, atol=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        p = Parameter("p", rng.normal(size=(3, 5)))
        wt = rng.normal(size=(3, 5))
        check_grads(
            lambda tape: sum_of(tape, mul(tape, softmax(tape, p.tensor), Tensor(wt))), [p]
        )


class TestEmbeddingLookup:
    def test_unk_row(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(None, table.tensor, np.array([0]))
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 2.0]])

    def test_repeated_index_accumulates(self):
        table = Parameter("t", np.zeros((4, 2)))
        tape = Tape()
        out = embedding_lookup(tape, table.tensor, np.array([2, 2]))
        loss = sum_of(tape, mul(tape, out, Tensor(np.array([[1.0, 2.0], [10.0, 20.0]]))))
        tape.backward(loss)
        np.testing.assert_allclose(table.grad[2], [11.0, 22.0])
        np.testing.assert_allclose(table.grad[[0, 1, 3]], 0.0)

    def test_out_of_range_reports_index(self):
        table = Parameter("t", np.zeros((4, 2)))
        with pytest.raises(IndexError, match="7"):
            embedding_lookup(None, table.tensor, np.array([1, 7]))

    def test_gradients_through_lookup_and_dense(self):
        rng = np.random.default_rng(5)
        table = Parameter("table", rng.normal(size=(5, 3)))
        w = Parameter("w", rng.normal(size=(3, 2)))
        b = Parameter("b", rng.normal(size=2))
        idx = np.array([0, 3, 3, 1])
        wt = rng.normal(size=(4, 2))
        check_grads(
            lambda tape: sum_of(
                tape,
                mul(
                    tape,
                    dense(tape, embedding_lookup(tape, table.tensor, idx), w.tensor, b.tensor),
                    Tensor(wt),
                ),
            ),
            [table, w, b],
        )


class TestConcat:
    def test_reference_input_width(self):
        gps = Tensor(np.zeros((2, 20)))  # 4k values with k=5
        embs = [Tensor(np.zeros((2, 10))) for _ in range(6)]
        out = concat(None, [gps] + embs)
        assert out.data.shape == (2, 80)

    def test_single_tensor_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = concat(None, [x])
        np.testing.assert_array_equal(out.data, x.data)

    def test_slices_reproduce_inputs(self):
        rng = np.random.default_rng(6)
        parts = [rng.normal(size=(3, w)) for w in (2, 5, 1)]
        out = concat(None, [Tensor(p) for p in parts])
        np.testing.assert_array_equal(out.data[:, :2], parts[0])
        np.testing.assert_array_equal(out.data[:, 2:7], parts[1])
        np.testing.assert_array_equal(out.data[:, 7:], parts[2])

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            concat(None, [Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))])

    def test_backward_slices_gradient(self):
        a = Tensor(np.zeros((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        tape = Tape()
        out = concat(tape, [a, b])
        g = np.arange(10.0).reshape(2, 5)
        loss = sum_of(tape, mul(tape, out, Tensor(g)))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, g[:, :2])
        np.testing.assert_array_equal(b.grad, g[:, 2:])


class TestWeightedCentroid:
    CENTERS = np.array([[41.0, -8.0], [43.0, -6.0]])

    def test_one_hot(self):
        p = Tensor(np.array([[0.0, 1.0]]))
        out = weighted_centroid(None, p, self.CENTERS)
        np.testing.assert_allclose(out.data, [[43.0, -6.0]])

    def test_uniform_is_mean(self):
        p = Tensor(np.array([[0.5, 0.5]]))
        out = weighted_centroid(None, p, self.CENTERS)
        np.testing.assert_allclose(out.data, [self.CENTERS.mean(axis=0)])

    def test_hand_mix(self):
        p = Tensor(np.array([[0.25, 0.75]]))
        out = weighted_centroid(None, p, self.CENTERS)
        np.testing.assert_allclose(out.data, [[42.5, -6.5]])

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            weighted_centroid(None, Tensor(np.ones((1, 3))), self.CENTERS)

    def test_centers_get_no_gradient_p_does(self):
        p = Parameter("p", np.array([[0.25, 0.75]]))
        tape = Tape()
        out = weighted_centroid(tape, p.tensor, self.CENTERS)
        loss = sum_of(tape, out)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, [[41.0 - 8.0, 43.0 - 6.0]])


class TestLstmCell:
    def test_zero_everything(self):
        z = Tensor(np.zeros((2, 3)))
        wx = Tensor(np.zeros((4, 12)))
        wh = Tensor(np.zeros((3, 12)))
        b = Tensor(np.zeros(12))
        h, c = lstm_cell(None, Tensor(np.zeros((2, 4))), z, z, wx, wh, b)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        hdim = 3
        b = np.zeros(4 * hdim)
        b[hdim : 2 * hdim] = 10.0  # forget gate wide open
        v = np.array([[0.3, -0.7, 1.1]])
        h, c = lstm_cell(
            None,
            Tensor(np.zeros((1, 2))),
            Tensor(np.zeros((1, hdim))),
            Tensor(v),
            Tensor(np.zeros((2, 4 * hdim))),
            Tensor(np.zeros((hdim, 4 * hdim))),
            Tensor(b),
        )
        np.testing.assert_allclose(c.data, v, atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lstm_cell(
                None,
                Tensor(np.zeros((1, 2))),
                Tensor(np.zeros((1, 3))),
                Tensor(np.zeros((1, 3))),
                Tensor(np.zeros((2, 8))),
                Tensor(np.zeros((3, 12))),
                Tensor(np.zeros(12)),
            )

    def test_gradients_three_unrolled_steps(self):
        rng = np.random.default_rng(7)
        wx = Parameter("wx", rng.normal(0, 0.4, size=(2, 12)))
        wh = Parameter("wh", rng.normal(0, 0.4, size=(3, 12)))
        b = Parameter("b", rng.normal(0, 0.2, size=12))
        xs = [rng.normal(size=(2, 2)) for _ in range(3)]
        wt = rng.normal(size=(2, 3))

        def build(tape):
            h = Tensor(np.zeros((2, 3)))
            c = Tensor(np.zeros((2, 3)))
            for x in xs:
                h, c = lstm_cell(tape, Tensor(x), h, c, wx.tensor, wh.tensor, b.tensor)
            return sum_of(tape, mul(tape, h, Tensor(wt)))

        check_grads(build, [wx, wh, b], tol=1e-3)


class TestPackedLstmCell:
    """The fused cell: one tape node, gradients through h or c alone, and
    packed batches whose rows past ``len(x)`` have finished."""

    def _weights(self, rng, in_width=2, hdim=3):
        wx = Parameter("wx", rng.normal(0, 0.4, size=(in_width, 4 * hdim)))
        wh = Parameter("wh", rng.normal(0, 0.4, size=(hdim, 4 * hdim)))
        b = Parameter("b", rng.normal(0, 0.2, size=4 * hdim))
        return wx, wh, b

    def test_one_step_records_one_node(self):
        rng = np.random.default_rng(40)
        wx, wh, b = self._weights(rng)
        z = Tensor(np.zeros((2, 3)))
        tape = Tape()
        lstm_cell(tape, Tensor(rng.normal(size=(2, 2))), z, z, wx.tensor, wh.tensor, b.tensor)
        assert len(tape.nodes) == 1

    def test_gradients_through_cell_state_only(self):
        rng = np.random.default_rng(41)
        wx, wh, b = self._weights(rng)
        xs = [rng.normal(size=(2, 2)) for _ in range(2)]
        wt = rng.normal(size=(2, 3))

        def build(tape):
            h = Tensor(np.zeros((2, 3)))
            c = Tensor(np.zeros((2, 3)))
            for x in xs:
                h, c = lstm_cell(tape, Tensor(x), h, c, wx.tensor, wh.tensor, b.tensor)
            return sum_of(tape, mul(tape, c, Tensor(wt)))

        check_grads(build, [wx, wh, b], tol=1e-3)

    def test_packed_rows_match_unpacked_cell(self):
        rng = np.random.default_rng(42)
        wx, wh, b = self._weights(rng)
        x = rng.normal(size=(2, 2))
        hp, cp = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        weights = (wx.tensor, wh.tensor, b.tensor)
        h, c = lstm_cell(None, Tensor(x), Tensor(hp), Tensor(cp), *weights)
        h2, c2 = lstm_cell(None, Tensor(x), Tensor(hp[:2]), Tensor(cp[:2]), *weights)
        assert h.data.shape == c.data.shape == (2, 3)
        np.testing.assert_array_equal(h.data, h2.data)
        np.testing.assert_array_equal(c.data, c2.data)

    def test_rows_past_x_take_no_gradient_from_the_cell(self):
        rng = np.random.default_rng(43)
        wx, wh, b = self._weights(rng)
        h_prev = Parameter("h_prev", rng.normal(size=(4, 3)))
        c_prev = Parameter("c_prev", rng.normal(size=(4, 3)))
        x = rng.normal(size=(2, 2))
        wt_h, wt_c = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

        def build(tape):
            h, c = lstm_cell(tape, Tensor(x), h_prev.tensor, c_prev.tensor, wx.tensor, wh.tensor, b.tensor)
            return add(tape, sum_of(tape, mul(tape, h, Tensor(wt_h))), sum_of(tape, mul(tape, c, Tensor(wt_c))))

        tape = Tape()
        tape.backward(build(tape))
        np.testing.assert_array_equal(h_prev.grad[2:], 0.0)
        np.testing.assert_array_equal(c_prev.grad[2:], 0.0)
        for p in (wx, wh, b, h_prev, c_prev):
            p.grad[...] = 0
        check_grads(build, [wx, wh, b, h_prev, c_prev], tol=1e-3)

    def test_finished_rows_keep_state_and_gradient(self):
        """Three sequences of lengths 3, 2 and 1, packed: each final state,
        gathered from the step after which it stops, equals the state of
        that sequence run alone, and the gradient through it is exact."""
        rng = np.random.default_rng(44)
        wx, wh, b = self._weights(rng)
        seqs = [rng.normal(size=(n, 2)) for n in (3, 2, 1)]
        wt = rng.normal(size=(3, 3))
        weights = (wx.tensor, wh.tensor, b.tensor)

        def packed(tape):
            h = c = Tensor(np.zeros((3, 3)))
            states = []
            for t in range(3):
                h, c = lstm_cell(tape, Tensor(np.array([s[t] for s in seqs if len(s) > t])), h, c, *weights)
                states.append(h)
            # Sequence j is row j and stops after step 2 - j.
            return concat_rows(tape, states, [np.array([j]) for j in (2, 1, 0)], [slice(j, j + 1) for j in (2, 1, 0)])

        out = packed(None).data
        for j, s in enumerate(seqs):
            h = c = Tensor(np.zeros((1, 3)))
            for x_t in s:
                h, c = lstm_cell(None, Tensor(x_t[None]), h, c, *weights)
            np.testing.assert_allclose(out[j], h.data[0], rtol=0, atol=1e-15)
        check_grads(lambda tape: sum_of(tape, mul(tape, packed(tape), Tensor(wt))), [wx, wh, b], tol=1e-3)

    def test_saturated_preactivations_stay_finite(self):
        hdim = 2
        b = np.array([800.0, -800.0] * (2 * hdim))
        z = Tensor(np.zeros((1, hdim)))
        with np.errstate(all="raise"):
            h, c = lstm_cell(
                None, Tensor(np.zeros((1, 1))), z, z,
                Tensor(np.zeros((1, 4 * hdim))), Tensor(np.zeros((hdim, 4 * hdim))), Tensor(b),
            )
        assert np.isfinite(h.data).all() and np.isfinite(c.data).all()


class TestClipGradients:
    """Clipping inside the step: with lr 1 and no momentum, each value moves
    by minus its clipped gradient."""

    def test_scales_to_max_norm_and_returns_pre_clip_norm(self):
        p = Parameter("p", np.zeros(2))
        q = Parameter("q", np.zeros((1, 2)))
        p.grad[...] = [3.0, 0.0]
        q.grad[...] = [[0.0, 4.0]]
        norm = sgd_momentum_step([p, q], lr=1.0, mu=0.0, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        clipped = np.sqrt(np.sum(p.value**2) + np.sum(q.value**2))
        assert clipped == pytest.approx(1.0)
        np.testing.assert_allclose(-p.value, [0.6, 0.0])
        np.testing.assert_allclose(-q.value, [[0.0, 0.8]])

    def test_below_limit_untouched(self):
        p = Parameter("p", np.zeros(2))
        p.grad[...] = [0.3, 0.4]
        assert sgd_momentum_step([p], lr=1.0, mu=0.0, max_norm=1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(-p.value, [0.3, 0.4])


class TestElementwiseOps:
    def test_gradients_composite(self):
        rng = np.random.default_rng(8)
        a = Parameter("a", rng.uniform(0.5, 2.0, size=(3, 4)))
        bb = Parameter("bb", rng.uniform(0.5, 2.0, size=(3, 4)))

        def build(tape):
            s = add(tape, mul(tape, a.tensor, bb.tensor), a.tensor)
            d = sub(tape, s, bb.tensor)
            q = sqrt(tape, nncore.add_const(tape, mul(tape, d, d), 0.1))
            w = nncore.cos(tape, scale(tape, q, 0.3))
            return mean_all(tape, w)

        check_grads(build, [a, bb])

    def test_dot_similarity_gradients(self):
        rng = np.random.default_rng(9)
        a = Parameter("a", rng.normal(size=(2, 4)))
        bb = Parameter("bb", rng.normal(size=(3, 4)))
        wt = rng.normal(size=(2, 3))
        check_grads(
            lambda tape: sum_of(
                tape, mul(tape, dot_similarity(tape, a.tensor, bb.tensor), Tensor(wt))
            ),
            [a, bb],
        )

    def test_concat_rows_reassembles_and_routes_gradient(self):
        p1 = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        p2 = Tensor(np.array([[5.0, 6.0]]))
        tape = Tape()
        out = concat_rows(tape, [p1, p2], [np.array([2, 0]), np.array([1])])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]])
        g = np.arange(6.0).reshape(3, 2)
        loss = sum_of(tape, mul(tape, out, Tensor(g)))
        tape.backward(loss)
        np.testing.assert_array_equal(p1.grad, g[[2, 0]])
        np.testing.assert_array_equal(p2.grad, g[[1]])

    def test_concat_rows_takes_part_rows(self):
        p1 = Parameter("p1", np.arange(6.0).reshape(3, 2))
        p2 = Parameter("p2", np.array([[7.0, 8.0]]))
        wt = np.random.default_rng(12).normal(size=(3, 2))

        def build(tape):
            out = concat_rows(tape, [p1.tensor, p2.tensor], [np.array([2, 0]), np.array([1])], [slice(1, 3), slice(None)])
            return sum_of(tape, mul(tape, out, Tensor(wt)))

        out = concat_rows(None, [p1.tensor, p2.tensor], [np.array([2, 0]), np.array([1])], [slice(1, 3), slice(None)])
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [7.0, 8.0], [2.0, 3.0]])
        tape = Tape()
        tape.backward(build(tape))
        np.testing.assert_array_equal(p1.grad, [[0.0, 0.0], wt[2], wt[0]])
        np.testing.assert_array_equal(p2.grad, wt[[1]])

    def test_slice_cols_gradient(self):
        p = Parameter("p", np.random.default_rng(10).normal(size=(3, 5)))
        wt = np.random.default_rng(11).normal(size=(3, 2))
        check_grads(
            lambda tape: sum_of(tape, mul(tape, slice_cols(tape, p.tensor, 1, 3), Tensor(wt))),
            [p],
        )


class TestSgdMomentum:
    def test_zero_momentum_is_plain_sgd(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        p.grad[...] = np.array([0.5, -1.0])
        sgd_momentum_step([p], lr=0.1, mu=0.0)
        np.testing.assert_allclose(p.value, [1.0 - 0.05, 2.0 + 0.1])
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_velocity_geometric_decay(self):
        p = Parameter("p", np.zeros(1))
        p.velocity[...] = 1.0
        positions = []
        for _ in range(5):
            sgd_momentum_step([p], lr=0.1, mu=0.9)
            positions.append(p.value.copy()[0])
        # with zero gradients, v_t = 0.9^t and x_t = sum of v
        expect_v = [0.9**t for t in range(1, 6)]
        np.testing.assert_allclose(p.velocity[0], expect_v[-1], rtol=1e-12)
        np.testing.assert_allclose(positions, np.cumsum(expect_v), rtol=1e-12)

    def test_two_steps_constant_gradient(self):
        g = 2.0
        p = Parameter("p", np.zeros(1))
        p.grad[...] = g
        sgd_momentum_step([p], lr=0.1, mu=0.9)
        p.grad[...] = g
        sgd_momentum_step([p], lr=0.1, mu=0.9)
        # v1 = -0.1g; v2 = -0.19g; total displacement -0.29g
        np.testing.assert_allclose(p.value[0], -0.29 * g, rtol=1e-12)

    def test_gradients_zeroed_after_step(self):
        p = Parameter("p", np.ones(3))
        p.grad[...] = 5.0
        sgd_momentum_step([p], lr=0.01, mu=0.9)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_returns_the_global_norm_without_clipping(self):
        p = Parameter("p", np.zeros(2))
        q = Parameter("q", np.zeros((1, 2)))
        p.grad[...] = [3.0, 0.0]
        q.grad[...] = [[0.0, 4.0]]
        assert sgd_momentum_step([p, q], lr=1.0, mu=0.0) == 5.0
        np.testing.assert_array_equal(-p.value, [3.0, 0.0])
        np.testing.assert_array_equal(-q.value, [[0.0, 4.0]])

    @pytest.mark.parametrize("clip", [None, 1.0])
    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_moves_nothing(self, planted, clip):
        rng = np.random.default_rng(13)
        params = [Parameter(n, rng.normal(size=(3, 4)).astype(np.float32)) for n in "ab"]
        for p in params:
            p.velocity[...] = rng.normal(size=p.shape)
            p.grad[...] = rng.normal(size=p.shape)
        params[1].grad[2, 1] = planted
        before = [(p.value.copy(), p.velocity.copy()) for p in params]
        assert not math.isfinite(sgd_momentum_step(params, lr=0.01, mu=0.9, max_norm=clip))
        for p, (value, velocity) in zip(params, before):
            np.testing.assert_array_equal(p.value, value)
            np.testing.assert_array_equal(p.velocity, velocity)
            assert not p.grad.any()

    def test_float32_gradient_whose_square_overflows_has_a_finite_norm(self):
        p = Parameter("p", np.zeros(3, dtype=np.float32))
        p.grad[...] = [1e20, 0.0, 0.0]
        assert sgd_momentum_step([p], lr=1e-20, mu=0.0) == pytest.approx(1e20, rel=1e-6)
        assert np.isfinite(p.value).all() and p.value[0] == pytest.approx(-1.0, rel=1e-6)

    def test_float32_update_is_bit_equal_to_the_formula(self):
        rng = np.random.default_rng(14)
        p = Parameter("p", rng.normal(size=(50, 7)).astype(np.float32))
        value, velocity = p.value.copy(), p.velocity.copy()
        for _ in range(4):
            g = rng.normal(size=p.shape).astype(np.float32)
            p.grad[...] = g
            sgd_momentum_step([p], lr=0.01, mu=0.9)
            velocity = velocity * 0.9 - 0.01 * g
            value = value + velocity
            np.testing.assert_array_equal(p.velocity, velocity)
            np.testing.assert_array_equal(p.value, value)


class TestTapeBackward:
    def test_sum_of_parameter_gives_ones(self):
        p = Parameter("p", np.random.default_rng(12).normal(size=(2, 3)))
        tape = Tape()
        loss = sum_of(tape, p.tensor)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, np.ones((2, 3)))

    def test_constant_loss_leaves_gradients_zero(self):
        p = Parameter("p", np.ones((2, 2)))
        tape = Tape()
        loss = mean_all(tape, Tensor(np.ones((3, 3))))
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        t = relu(tape, Tensor(np.ones((2, 2))))
        with pytest.raises(ValueError):
            tape.backward(t)

    def test_each_node_touched_exactly_once(self):
        rng = np.random.default_rng(13)
        p = Parameter("p", rng.normal(size=(2, 3)))
        tape = Tape()
        x = relu(tape, p.tensor)
        y = mul(tape, x, x)
        z = add(tape, y, x)
        loss = mean_all(tape, z)
        tape.backward(loss)
        assert tape.backward_visits == len(tape.nodes)


def reference_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_grad(y, g):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def backward_from(tape, out, g):
    """Run ``tape`` backward from the upstream gradient ``g`` of ``out``."""
    out.grad = g
    for node in reversed(tape.nodes):
        if node.output.grad is not None:
            node.backward_fn(node.output.grad)


def assert_no_shared_gradients(tensors):
    grads = list({id(t): t.grad for t in tensors if t.grad is not None}.values())
    for i, a in enumerate(grads):
        for b in grads[:i]:
            assert not np.shares_memory(a, b)


class TestGradientHandover:
    """Backward rules hand their fresh arrays over as gradients; the values
    stay the pre-handover formulas' bit for bit, and no buffer is shared."""

    def test_owned_array_becomes_the_gradient_then_is_added_to(self):
        t = Tensor(np.zeros((2, 3), dtype=np.float32))
        g = np.ones((2, 3), dtype=np.float32)
        t.accumulate_owned(g)
        assert t.grad is g
        t.accumulate_owned(np.full((2, 3), 2.0, dtype=np.float32))
        assert t.grad is g
        np.testing.assert_array_equal(g, 3.0)

    @pytest.mark.parametrize("g", [np.ones((2, 3)), np.ones(3, dtype=np.float32)], ids=["dtype", "shape"])
    def test_other_dtype_or_shape_is_copied_and_cast(self, g):
        t = Tensor(np.zeros((2, 3), dtype=np.float32))
        t.accumulate_owned(g)
        assert t.grad.dtype == np.float32 and not np.shares_memory(t.grad, g)
        np.testing.assert_array_equal(t.grad, np.ones_like(g))

    def test_parameter_keeps_its_gradient_buffer(self):
        p = Parameter("p", np.zeros((2, 3)))
        buf = p.grad
        p.tensor.accumulate_owned(np.ones((2, 3)))
        assert p.grad is buf
        np.testing.assert_array_equal(buf, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax(self, dtype):
        rng = np.random.default_rng(60)
        x = Tensor(rng.normal(scale=4, size=(9, 31)).astype(dtype))
        g = rng.normal(size=(9, 31)).astype(dtype)
        tape = Tape()
        out = softmax(tape, x)
        y = reference_softmax(x.data)
        np.testing.assert_array_equal(out.data, y)
        backward_from(tape, out, g.copy())
        np.testing.assert_array_equal(x.grad, reference_softmax_grad(y, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weighted_centroid(self, dtype):
        rng = np.random.default_rng(61)
        p = Tensor(reference_softmax(rng.normal(size=(9, 31))).astype(dtype))
        centers = rng.normal(size=(31, 2))
        g = rng.normal(size=(9, 2)).astype(dtype)
        tape = Tape()
        backward_from(tape, weighted_centroid(tape, p, centers), g.copy())
        np.testing.assert_array_equal(p.grad, g @ centers.astype(dtype).T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dot_similarity(self, dtype):
        rng = np.random.default_rng(62)
        a = Tensor(rng.normal(size=(9, 5)).astype(dtype))
        b = Tensor(rng.normal(size=(31, 5)).astype(dtype))
        g = rng.normal(size=(9, 31)).astype(dtype)
        tape = Tape()
        backward_from(tape, dot_similarity(tape, a, b), g.copy())
        np.testing.assert_array_equal(a.grad, g @ b.data)
        np.testing.assert_array_equal(b.grad, g.T @ a.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul(self, dtype):
        rng = np.random.default_rng(63)
        a = Tensor(rng.normal(size=(9, 5)).astype(dtype))
        w = Parameter("w", rng.normal(size=(5, 4)).astype(dtype))
        g = rng.normal(size=(9, 4)).astype(dtype)
        tape = Tape()
        backward_from(tape, matmul(tape, a, w.tensor), g.copy())
        np.testing.assert_array_equal(a.grad, g @ w.value.T)
        np.testing.assert_array_equal(w.grad, a.data.T @ g)

    def test_tensor_feeding_two_ops_owns_its_gradient(self):
        rng = np.random.default_rng(64)
        x = Tensor(rng.normal(size=(4, 6)))
        w = Parameter("w", rng.normal(size=(6, 3)))
        tape = Tape()
        s = softmax(tape, x)
        r = relu(tape, x)
        sr = add(tape, s, r)
        m = matmul(tape, sr, w.tensor)
        loss = mean_all(tape, mul(tape, m, m))
        tape.backward(loss)
        assert_no_shared_gradients([x, s, r, sr, m, w.tensor, loss] + [n.output for n in tape.nodes])
        y = reference_softmax(x.data)
        np.testing.assert_array_equal(x.grad, reference_softmax_grad(y, s.grad) + r.grad * (x.data > 0))

    @pytest.mark.parametrize("variant", ["memory_net", "brnn", "mlp_clusters"])
    def test_no_model_gradients_share_memory(self, variant):
        rng = np.random.default_rng(65)
        model = tiny_model(variant)
        batch = tiny_batch(model, rng, n=5, max_len=6)
        cands = tiny_batch(model, rng, n=7) if variant == "memory_net" else None
        tape = Tape()
        tape.backward(training.loss_batch(model, batch, tape, cands))
        outputs = [n.output for n in tape.nodes]
        assert all(t.grad is not None for t in outputs)
        assert_no_shared_gradients(outputs + [p.tensor for p in model.parameters()])

    def test_cell_state_taking_a_handed_over_gradient_runs_its_cell(self):
        rng = np.random.default_rng(66)
        wx = Parameter("wx", rng.normal(0, 0.4, size=(2, 12)))
        wh = Parameter("wh", rng.normal(0, 0.4, size=(3, 12)))
        b = Parameter("b", rng.normal(0, 0.2, size=12))
        xs = [rng.normal(size=(2, 2)) for _ in range(2)]
        centers = rng.normal(size=(3, 2))

        def build(tape):
            h = Tensor(np.zeros((2, 3)))
            c = Tensor(np.zeros((2, 3)))
            for x in xs:
                h, c = lstm_cell(tape, Tensor(x), h, c, wx.tensor, wh.tensor, b.tensor)
            # softmax hands its input gradient to the last c; h is unused.
            return sum_of(tape, weighted_centroid(tape, softmax(tape, c), centers))

        check_grads(build, [wx, wh, b], tol=1e-3)
        assert np.abs(wh.grad).max() > 0
