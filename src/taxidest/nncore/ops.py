"""Differentiable operations recorded on a :class:`~taxidest.nncore.engine.Tape`.

Every op takes the tape first (``None`` skips recording, for inference),
then Tensors for differentiable arguments and plain arrays or scalars for
constants.  A backward rule receives its output's gradient ``g`` and owns
it: the tape has already taken it off the output.  So a rule may compute
in ``g`` and hand it to one input with ``Tensor.accumulate_owned``, where
on first write it becomes that input's gradient without a copy; an array
built for one input is handed over the same way, and :func:`lstm_cell`
writes its previous state's gradient over its ``g`` and hands ``g`` on.
Only a view of ``g``, or ``g`` when the rule still reads it afterwards,
goes through ``Tensor.accumulate``, which copies on first write.  Every
value is the plain formula's bit for bit; only the buffers differ, except
that softmax weights and their gradients below the dtype's smallest normal
number are 0 (in both :func:`softmax` and :func:`weighted_centroid`).
Constants never receive gradients.
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
            db = g.sum(axis=0)
            x.accumulate_owned(g)
            b.accumulate_owned(db)
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
            g *= mask
            x.accumulate_owned(g)
        tape.record(out, bwd)
    return out


#: Elements of a row block in softmax's forward and backward: a block's
#: scratch buffers are this size, and the Python loop makes one pass a block.
_ROW_BLOCK = 1 << 16


def _row_blocks(shape: tuple[int, int], dtype, floats: int):
    """Yields ``(rows, scratch)`` for each block of rows of a 2-D array of
    ``shape``: ``rows`` a slice, ``scratch`` that many (rows, width) views of
    block-sized ``dtype`` buffers and then one bool view, the same buffers
    for every block.  A block has about ``_ROW_BLOCK`` elements and at least
    two rows, unless the array has one: a one-row product goes through
    BLAS's matrix-vector path, whose sums round differently from the
    matrix-matrix one, so a lone last row joins the block before it."""
    n_rows, width = shape
    step = max(2, _ROW_BLOCK // max(width, 1))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    stops = starts[1:] + [n_rows]
    size = max((b - a for a, b in zip(starts, stops)), default=0) * width
    bufs = [np.empty(size, dtype) for _ in range(floats)] + [np.empty(size, bool)]
    for a, b in zip(starts, stops):
        yield slice(a, b), [buf[: (b - a) * width].reshape(b - a, width) for buf in bufs]


def _flush_subnormals(v: np.ndarray, magnitude: np.ndarray, mask: np.ndarray) -> None:
    """Zero the entries of ``v`` whose ``magnitude`` (``|v|``, or ``v``
    itself where it cannot be negative) is below the dtype's smallest normal
    number: a float32 GEMM that reads subnormal numbers runs many times
    slower.  Multiplying by the mask costs the same however many there are,
    and is skipped when there are none."""
    np.greater_equal(magnitude, np.finfo(v.dtype).tiny, out=mask)
    if not mask.all():
        np.multiply(v, mask, out=v)


def _softmax_rows(x: np.ndarray, y: np.ndarray) -> None:
    """``y`` <- the softmax of each row of the 2-D ``x``, a block of rows at a
    time: max subtraction, exp, division by the row sum, then subnormal
    weights set to 0."""
    for rows, (mask,) in _row_blocks(x.shape, y.dtype, 0):
        xb, yb = x[rows], y[rows]
        np.subtract(xb, xb.max(axis=-1, keepdims=True), out=yb)
        np.exp(yb, out=yb)
        yb /= yb.sum(axis=-1, keepdims=True)
        _flush_subnormals(yb, yb, mask)


def _softmax_grad_rows(y: np.ndarray, upstream, out: np.ndarray) -> None:
    """Softmax's backward rule, ``y * (g - sum(g * y))`` per row, a block of
    rows at a time into ``out`` (which may be ``y``), then subnormal entries
    set to 0.  ``upstream(rows, buf)`` returns the rows' ``g``: formed in the
    block-sized ``buf``, or a view of an array that the rule may overwrite."""
    for rows, (gbuf, t, mask) in _row_blocks(y.shape, y.dtype, 2):
        yb, ob = y[rows], out[rows]
        gb = upstream(rows, gbuf)
        np.multiply(gb, yb, out=t)
        np.subtract(gb, t.sum(axis=-1, keepdims=True), out=gb)
        np.multiply(gb, yb, out=ob)
        _flush_subnormals(ob, np.abs(ob, out=t), mask)


def softmax(tape: Tape, x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction: the
    weights that :func:`weighted_centroid` computes, as a node of its own.
    Weights and gradient entries below the smallest normal number are 0."""
    width = x.data.shape[-1]
    y = np.empty(x.data.shape, x.data.dtype)
    y2 = y.reshape(-1, width)
    _softmax_rows(x.data.reshape(-1, width), y2)
    out = Tensor(y)
    if tape is not None:
        def bwd(g):
            # The rule runs in g's own buffer, which becomes x's gradient.
            g2 = g.reshape(-1, width)
            _softmax_grad_rows(y2, lambda rows, buf: g2[rows], g2)
            x.accumulate_owned(g2.reshape(x.data.shape))
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


def concat_rows(tape: Tape, parts: list[Tensor], row_indices: list[np.ndarray], part_rows: list) -> Tensor:
    """Scatter row blocks back into one batch-ordered tensor.

    ``parts[i][part_rows[i]]`` supplies the rows listed in
    ``row_indices[i]``; the index lists must partition the output rows.
    ``part_rows[i]`` is any 2-D numpy selection: a row slice, or a (rows,
    columns) pair that also picks each part's columns, as wide as the
    first part's.  The recurrent models gather the ``h`` columns of each
    packed sequence's final ``[h | c]`` state this way, from the step after
    which it stops, in batch order.
    """
    total = sum(len(ix) for ix in row_indices)
    width = parts[0].data[part_rows[0]].shape[1]
    out_data = np.empty((total, width), dtype=parts[0].data.dtype)
    for part, ix, take in zip(parts, row_indices, part_rows):
        out_data[ix] = part.data[take]
    out = Tensor(out_data)
    if tape is not None:
        def bwd(g):
            for part, ix, take in zip(parts, row_indices, part_rows):
                part.ensure_grad()[take] += g[ix]
        tape.record(out, bwd)
    return out


def weighted_centroid(tape: Tape, logits: Tensor, values: np.ndarray) -> Tensor:
    """The softmax-weighted average of constant rows: softmax(logits) @ values.

    ``logits`` is (rows, C) and ``values`` a constant (C, k) array that
    receives no gradient, so each output row lies in the convex hull of the
    values.  One node for the whole head: the forward computes the weights
    as :func:`softmax` does into one buffer that the node owns, then one
    GEMM.  The backward forms ``g @ values.T`` a block of rows at a time in
    block-sized scratch, applies softmax's rule there and writes the result
    over the weights' rows; that buffer becomes the logits' gradient.  So
    backward allocates no (rows, C) array.
    """
    x, values = logits.data, np.asarray(values)
    if x.ndim != 2 or values.ndim != 2 or x.shape[1] != values.shape[0]:
        raise ValueError(f"weighted_centroid: logits {x.shape} vs values {values.shape}")
    c = values.astype(x.dtype, copy=False)
    weights = np.empty(x.shape, x.dtype)
    _softmax_rows(x, weights)
    out = Tensor(weights @ c)
    if tape is not None:
        def bwd(g):
            # The buffer becomes the logits' gradient; the closure lets go
            # of it, so it is freed once the logits' rule has run.
            nonlocal weights
            w, weights = weights, None
            _softmax_grad_rows(w, lambda rows, buf: np.matmul(g[rows], c.T, out=buf), w)
            logits.accumulate_owned(w)
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
            b.accumulate_owned(g)
        tape.record(out, bwd)
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    if tape is not None:
        def bwd(g):
            a.accumulate_owned(g * b.data)
            g *= a.data
            b.accumulate_owned(g)
        tape.record(out, bwd)
    return out


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * float(c))
    if tape is not None:
        def bwd(g):
            g *= float(c)
            x.accumulate_owned(g)
        tape.record(out, bwd)
    return out


def add_const(tape: Tape, x: Tensor, c) -> Tensor:
    c = np.asarray(c).astype(x.data.dtype, copy=False)
    out = Tensor(x.data + c)
    if tape is not None:
        def bwd(g):
            x.accumulate_owned(g)
        tape.record(out, bwd)
    return out


def affine_const(tape: Tape, x: Tensor, mul_c, add_c) -> Tensor:
    """x * mul_c + add_c with constant (broadcastable) coefficients."""
    mul_c = np.asarray(mul_c).astype(x.data.dtype, copy=False)
    add_c = np.asarray(add_c).astype(x.data.dtype, copy=False)
    out = Tensor(x.data * mul_c + add_c)
    if tape is not None:
        def bwd(g):
            g *= mul_c
            x.accumulate_owned(g)
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


def _accumulate_leading_rows(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, handed over, to the gradient of the first ``len(g)`` rows of ``t``."""
    if g.shape[0] == t.data.shape[0]:
        t.accumulate_owned(g)
    else:
        t.ensure_grad()[: g.shape[0]] += g


def lstm_cell(tape: Tape, x: np.ndarray, state: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM step with input/forget/output gates and tanh candidate.

    ``state`` is (rows, 2H): each row's hidden state ``h`` in its first H
    columns and its cell state ``c`` in the last H.  Gate preactivations
    are packed (i, f, g, o) along the last axis of ``wx`` (in, 4H), ``wh``
    (H, 4H) and ``b`` (4H,).  ``x`` is a constant and takes no gradient.  It
    may have fewer rows than the state: a packed batch, sorted longest
    sequence first, steps only its first ``len(x)`` rows, and the new state
    has ``len(x)`` rows.  The state rows past them belong to finished
    sequences; the cell leaves them, and their gradient, to the caller.

    One fused tape node per step: the gates live in one preactivation
    buffer, and the hand-written backward forms that buffer's gradient once
    and accumulates ``dwx``, ``dwh`` and ``db`` from it.  It then writes the
    previous state's gradient ``[dh | dc]`` over its own ``g`` and hands
    ``g`` to the previous state.
    """
    x = np.asarray(x)
    n, hidden = x.shape[0], wh.data.shape[0]
    if (wx.data.shape, wh.data.shape, b.data.shape, state.data.shape[1:]) != (
        (x.shape[-1], 4 * hidden), (hidden, 4 * hidden), (4 * hidden,), (2 * hidden,)
    ) or n > state.data.shape[0]:
        raise ValueError(
            f"lstm_cell: input {x.shape}, state {state.data.shape} and weights "
            f"{wx.data.shape}/{wh.data.shape}/{b.data.shape} do not fit"
        )
    hp, cp = state.data[:n, :hidden], state.data[:n, hidden:]
    gates = x @ wx.data + hp @ wh.data
    gates += b.data
    i_g, f_g = gates[:, :hidden], gates[:, hidden : 2 * hidden]
    g_c, o_g = gates[:, 2 * hidden : 3 * hidden], gates[:, 3 * hidden :]
    _sigmoid_inplace(gates[:, : 2 * hidden])
    np.tanh(g_c, out=g_c)
    _sigmoid_inplace(o_g)

    new = np.empty((n, 2 * hidden), gates.dtype)
    h, c = new[:, :hidden], new[:, hidden:]
    np.multiply(f_g, cp, out=c)
    c += i_g * g_c
    tanh_c = np.tanh(c)
    np.multiply(o_g, tanh_c, out=h)
    out = Tensor(new)
    if tape is not None:
        def bwd(g):
            dh, dc = g[:, :hidden], g[:, hidden:]
            d_tanh_c = dh * o_g
            d_tanh_c *= 1.0 - tanh_c * tanh_c
            d_tanh_c += dc
            d_pre = np.empty_like(gates)
            np.multiply(d_tanh_c, g_c * i_g * (1.0 - i_g), out=d_pre[:, :hidden])
            np.multiply(d_tanh_c, cp * f_g * (1.0 - f_g), out=d_pre[:, hidden : 2 * hidden])
            np.multiply(d_tanh_c, i_g * (1.0 - g_c * g_c), out=d_pre[:, 2 * hidden : 3 * hidden])
            np.multiply(dh, tanh_c * o_g * (1.0 - o_g), out=d_pre[:, 3 * hidden :])

            np.matmul(d_pre, wh.data.T, out=dh)
            np.multiply(d_tanh_c, f_g, out=dc)
            _accumulate_leading_rows(state, g)
            wx.accumulate_owned(x.T @ d_pre)
            wh.accumulate_owned(hp.T @ d_pre)
            b.accumulate_owned(d_pre.sum(axis=0))
        tape.record(out, bwd)
    return out
