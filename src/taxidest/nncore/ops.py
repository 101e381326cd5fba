"""Differentiable operations recorded on a :class:`~taxidest.nncore.engine.Tape`.

Every op takes the tape first (``None`` skips recording, for inference),
then Tensors for differentiable arguments and plain arrays or scalars for
constants.  Backward rules accumulate into input tensors: an array built
for one input is handed over with ``Tensor.accumulate_owned`` and may
become that input's gradient without a copy; the upstream gradient itself,
or a view of it, goes through ``Tensor.accumulate``, which copies on first
write.  Constants never receive gradients.
"""

from __future__ import annotations

import numpy as np

from .. import _kernels
from .engine import Tape, Tensor

__all__ = [
    "add",
    "add_bias",
    "add_const",
    "affine_const",
    "concat",
    "concat_rows",
    "cos",
    "dense",
    "dot_similarity",
    "embedding_lookup",
    "lstm_cell",
    "matmul",
    "mean_all",
    "mul",
    "relu",
    "scale",
    "sigmoid",
    "slice_cols",
    "softmax",
    "sqrt",
    "sub",
    "tanh",
    "weighted_centroid",
]


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data @ b.data)
    if tape is not None:
        def bwd(g):
            a.accumulate_owned(g @ b.data.T)
            b.accumulate_owned(a.data.T @ g)
        tape.record(out, bwd)
    return out


def add_bias(tape: Tape, x: Tensor, b: Tensor) -> Tensor:
    if b.data.shape != (x.data.shape[-1],):
        raise ValueError(f"add_bias: bias shape {b.data.shape} vs input {x.data.shape}")
    out = Tensor(x.data + b.data)
    if tape is not None:
        def bwd(g):
            x.accumulate(g)
            b.accumulate_owned(g.sum(axis=0))
        tape.record(out, bwd)
    return out


def dense(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, broadcast over the batch."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"dense: input shape {x.data.shape} vs weights {w.data.shape}")
    return add_bias(tape, matmul(tape, x, w), b)


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    if tape is not None:
        mask = x.data > 0  # subgradient at exactly 0 is 0
        def bwd(g):
            x.accumulate_owned(g * mask)
        tape.record(out, bwd)
    return out


def softmax(tape: Tape, x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by max subtraction."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    if tape is not None:
        def bwd(g):
            # y * (g - sum(g * y)) in one buffer, bit for bit.
            t = g * y
            np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
            t *= y
            x.accumulate_owned(t)
        tape.record(out, bwd)
    return out


def embedding_lookup(tape: Tape, table: Tensor, indices) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds into touched rows only."""
    idx = np.asarray(indices, dtype=np.int64)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = idx[(idx < 0) | (idx >= rows)][0]
        raise IndexError(f"embedding index {bad} out of range [0, {rows})")
    out = Tensor(table.data[idx])
    if tape is not None:
        def bwd(g):
            _kernels.scatter_add_rows(table.ensure_grad(), idx, np.ascontiguousarray(g))
        tape.record(out, bwd)
    return out


def concat(tape: Tape, tensors: list[Tensor]) -> Tensor:
    """Join ``tensors`` along the feature axis (1)."""
    n_rows = tensors[0].data.shape[0]
    for t in tensors[1:]:
        if t.data.shape[0] != n_rows:
            raise ValueError(
                f"concat: row mismatch {tensors[0].data.shape} vs {t.data.shape}"
            )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    if tape is not None:
        widths = [t.data.shape[1] for t in tensors]
        def bwd(g):
            offset = 0
            for t, w in zip(tensors, widths):
                t.accumulate(g[:, offset : offset + w])
                offset += w
        tape.record(out, bwd)
    return out


def slice_cols(tape: Tape, x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[:, start:stop].copy())
    if tape is not None:
        def bwd(g):
            buf = x.ensure_grad()
            buf[:, start:stop] += g
        tape.record(out, bwd)
    return out


def concat_rows(
    tape: Tape, parts: list[Tensor], row_indices: list[np.ndarray], part_rows: list | None = None
) -> Tensor:
    """Scatter row blocks back into one batch-ordered tensor.

    ``parts[i]`` supplies the rows listed in ``row_indices[i]``; the index
    lists must partition the output rows.  ``part_rows[i]``, a slice, takes
    only those rows of ``parts[i]`` (default: all of them).  The recurrent
    models gather each packed sequence's final state this way, from the
    step after which it stops, in batch order.
    """
    if part_rows is None:
        part_rows = [slice(None)] * len(parts)
    total = sum(len(ix) for ix in row_indices)
    width = parts[0].data.shape[1]
    out_data = np.empty((total, width), dtype=parts[0].data.dtype)
    for part, ix, take in zip(parts, row_indices, part_rows):
        out_data[ix] = part.data[take]
    out = Tensor(out_data)
    if tape is not None:
        def bwd(g):
            for part, ix, take in zip(parts, row_indices, part_rows):
                if take == slice(None):
                    part.accumulate(g[ix])
                else:
                    part.ensure_grad()[take] += g[ix]
        tape.record(out, bwd)
    return out


def weighted_centroid(tape: Tape, p: Tensor, centers: np.ndarray) -> Tensor:
    """Probability-weighted average of fixed centers: p @ centers.

    ``centers`` is a constant (C, 2) array and receives no gradient, so the
    output always lies in the convex hull of the centers.
    """
    centers = np.asarray(centers)
    if p.data.shape[-1] != centers.shape[0]:
        raise ValueError(
            f"weighted_centroid: {p.data.shape[-1]} probabilities vs {centers.shape[0]} centers"
        )
    c = centers.astype(p.data.dtype, copy=False)
    out = Tensor(p.data @ c)
    if tape is not None:
        def bwd(g):
            p.accumulate_owned(g @ c.T)
        tape.record(out, bwd)
    return out


def dot_similarity(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Pairwise dot products a @ b.T; both sides receive gradients."""
    if a.data.shape[-1] != b.data.shape[-1]:
        raise ValueError(f"dot_similarity: width mismatch {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data @ b.data.T)
    if tape is not None:
        def bwd(g):
            a.accumulate_owned(g @ b.data)
            b.accumulate_owned(g.T @ a.data)
        tape.record(out, bwd)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    if tape is not None:
        def bwd(g):
            a.accumulate(g)
            b.accumulate(g)
        tape.record(out, bwd)
    return out


def sub(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    if tape is not None:
        def bwd(g):
            a.accumulate(g)
            b.accumulate_owned(-g)
        tape.record(out, bwd)
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    if tape is not None:
        def bwd(g):
            a.accumulate_owned(g * b.data)
            b.accumulate_owned(g * a.data)
        tape.record(out, bwd)
    return out


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * float(c))
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g * float(c))
        tape.record(out, bwd)
    return out


def add_const(tape: Tape, x: Tensor, c) -> Tensor:
    c = np.asarray(c).astype(x.data.dtype, copy=False)
    out = Tensor(x.data + c)
    if tape is not None:
        def bwd(g):
            x.accumulate(g)
        tape.record(out, bwd)
    return out


def affine_const(tape: Tape, x: Tensor, mul_c, add_c) -> Tensor:
    """x * mul_c + add_c with constant (broadcastable) coefficients."""
    mul_c = np.asarray(mul_c).astype(x.data.dtype, copy=False)
    add_c = np.asarray(add_c).astype(x.data.dtype, copy=False)
    out = Tensor(x.data * mul_c + add_c)
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g * mul_c)
        tape.record(out, bwd)
    return out


def cos(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.cos(x.data))
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(-np.sin(x.data) * g)
        tape.record(out, bwd)
    return out


def sqrt(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.sqrt(x.data))
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g * 0.5 / out.data)
        tape.record(out, bwd)
    return out


def tanh(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g * (1.0 - out.data * out.data))
        tape.record(out, bwd)
    return out


def _sigmoid_inplace(v: np.ndarray) -> None:
    """v <- 1 / (1 + exp(-v)) as 0.5 + 0.5 tanh(v / 2), which cannot overflow."""
    v *= 0.5
    np.tanh(v, out=v)
    v *= 0.5
    v += 0.5


def sigmoid(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.array(x.data, copy=True))
    _sigmoid_inplace(out.data)
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g * out.data * (1.0 - out.data))
        tape.record(out, bwd)
    return out


def mean_all(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.mean(), dtype=x.data.dtype))
    if tape is not None:
        n = x.data.size
        def bwd(g):
            x.accumulate_owned(np.full_like(x.data, g / n))
        tape.record(out, bwd)
    return out


class _CellState(Tensor):
    """The ``c`` output of :func:`lstm_cell`: a gradient reaching it, added
    or handed over, also allocates the gradient of its ``h`` twin, whose
    tape node serves both."""

    __slots__ = ("h",)

    def __init__(self, data, h: Tensor):
        super().__init__(data)
        self.h = h

    def accumulate(self, g: np.ndarray) -> None:
        super().accumulate(g)
        self.h.ensure_grad()

    def accumulate_owned(self, g: np.ndarray) -> None:
        super().accumulate_owned(g)
        self.h.ensure_grad()

    def ensure_grad(self) -> np.ndarray:
        self.h.ensure_grad()
        return super().ensure_grad()


def _accumulate_leading_rows(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, handed over, to the gradient of the first ``len(g)`` rows of ``t``."""
    if g.shape[0] == t.data.shape[0]:
        t.accumulate_owned(g)
    else:
        t.ensure_grad()[: g.shape[0]] += g


def lstm_cell(
    tape: Tape,
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
) -> tuple[Tensor, Tensor]:
    """One LSTM step with input/forget/output gates and tanh candidate.

    Gate preactivations are packed (i, f, g, o) along the last axis of
    ``wx`` (in, 4H), ``wh`` (H, 4H) and ``b`` (4H,).  ``x`` may have fewer
    rows than the state: a packed batch, sorted longest sequence first,
    steps only its first ``len(x)`` rows, and ``h`` and ``c`` have
    ``len(x)`` rows.  The state rows past them belong to finished
    sequences; the cell leaves them, and their gradient, to the caller.

    One fused tape node per step: the gates live in one preactivation
    buffer, and the hand-written backward forms that buffer's gradient once
    and accumulates ``dwx``, ``dwh`` and ``db`` from it.  The node is
    recorded on ``h`` and runs when ``h`` or ``c`` receives a gradient.
    """
    hidden = h_prev.data.shape[-1]
    if wx.data.shape != (x.data.shape[-1], 4 * hidden) or wh.data.shape != (hidden, 4 * hidden):
        raise ValueError(
            f"lstm_cell: weight shapes {wx.data.shape}/{wh.data.shape} do not match "
            f"input {x.data.shape} and hidden {h_prev.data.shape}"
        )
    n = x.data.shape[0]
    if c_prev.data.shape != h_prev.data.shape or n > h_prev.data.shape[0] or b.data.shape != (4 * hidden,):
        raise ValueError(
            f"lstm_cell: input {x.data.shape}, states {h_prev.data.shape}/{c_prev.data.shape} "
            f"and bias {b.data.shape} do not fit"
        )
    hp, cp = h_prev.data[:n], c_prev.data[:n]
    gates = x.data @ wx.data + hp @ wh.data
    gates += b.data
    i_g, f_g = gates[:, :hidden], gates[:, hidden : 2 * hidden]
    g_c, o_g = gates[:, 2 * hidden : 3 * hidden], gates[:, 3 * hidden :]
    _sigmoid_inplace(gates[:, : 2 * hidden])
    np.tanh(g_c, out=g_c)
    _sigmoid_inplace(o_g)

    c_data = f_g * cp
    c_data += i_g * g_c
    tanh_c = np.tanh(c_data)
    h = Tensor(o_g * tanh_c)
    c = _CellState(c_data, h)
    if tape is not None:
        def bwd(dh):
            dc = c.grad
            d_tanh_c = dh * o_g
            d_tanh_c *= 1.0 - tanh_c * tanh_c
            if dc is not None:
                d_tanh_c += dc
            d_pre = np.empty_like(gates)
            np.multiply(d_tanh_c, g_c * i_g * (1.0 - i_g), out=d_pre[:, :hidden])
            np.multiply(d_tanh_c, cp * f_g * (1.0 - f_g), out=d_pre[:, hidden : 2 * hidden])
            np.multiply(d_tanh_c, i_g * (1.0 - g_c * g_c), out=d_pre[:, 2 * hidden : 3 * hidden])
            np.multiply(dh, tanh_c * o_g * (1.0 - o_g), out=d_pre[:, 3 * hidden :])

            _accumulate_leading_rows(h_prev, d_pre @ wh.data.T)
            d_tanh_c *= f_g
            _accumulate_leading_rows(c_prev, d_tanh_c)
            x.accumulate_owned(d_pre @ wx.data.T)
            wx.accumulate_owned(x.data.T @ d_pre)
            wh.accumulate_owned(hp.T @ d_pre)
            b.accumulate_owned(d_pre.sum(axis=0))
        tape.record(h, bwd)
    return h, c
