"""Tape-based reverse-mode automatic differentiation over numpy buffers.

The tape records every operation node in execution order; backward walks
the list in exact reverse, once per node.  It takes each node's output
gradient off the output before it calls the node's rule, so the rule owns
that array: it may compute in it, hand it to an input, or drop it, and an
intermediate gradient is freed as soon as its rule is done with it.  Only
leaves keep their gradients after backward: parameters and tensors that no
node produced.  A rule accumulates into its inputs: an array it owns (its
``g`` or one it built) is handed over with ``Tensor.accumulate_owned`` and
on first write becomes the input's gradient without a copy; an array it
still reads, or a view of one, is added with ``Tensor.accumulate``, which
copies on first write.  So no two tensors ever share a gradient buffer.
Graphs are rebuilt per batch and nothing is cached between batches.  Most
ops are single primitives; ``lstm_cell`` (one node per step) and
``weighted_centroid`` (softmax and centroid in one node) are fused nodes
with hand-written backwards.  Single precision is the training default, double
precision exists for gradient-check tests.  ``sgd_momentum_step`` updates
the parameters from their gradients: stochastic gradient descent with
classical momentum and optional global-norm gradient clipping (Pascanu et
al., 2013).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

__all__ = ["Parameter", "Tape", "Tensor", "sgd_momentum_step"]


class Tensor:
    """A shaped numpy value plus its (lazily allocated) gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g: np.ndarray) -> None:
        """Add an upstream gradient that the caller may still hold or read;
        copies (and casts to this tensor's dtype) on first write, so the
        buffer is owned."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def accumulate_owned(self, g: np.ndarray) -> None:
        """Add a gradient that the caller built for this call alone and hands
        over.  On first write ``g`` itself becomes the gradient, if it has
        this tensor's dtype and shape; otherwise this is :meth:`accumulate`.
        The caller must not read or write ``g`` afterwards.  A parameter's
        preallocated gradient is never replaced: ``g`` is added to it."""
        if self.grad is None and g.dtype == self.data.dtype and g.shape == self.data.shape:
            self.grad = g
        else:
            self.accumulate(g)

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named, trainable tensor with a preallocated zero gradient and a
    velocity buffer of the same shape."""

    __slots__ = ("name", "velocity")

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(np.array(value, copy=True))
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.velocity = np.zeros_like(self.data)

    @property
    def value(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class _Node:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output: Tensor, backward_fn):
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-order record of operation nodes.

    A tape and its recorded tensors belong to one thread; inference can
    pass ``tape=None`` to every op and skip recording entirely.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, output: Tensor, backward_fn) -> None:
        self.nodes.append(_Node(output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every leaf reachable from ``loss``.

        Each node's rule receives its output's gradient and owns it: the
        output's ``grad`` is set to ``None`` first, so after backward only
        leaves (parameters and tensors that no node produced) hold
        gradients.  Parameters keep pre-allocated zero gradients, so
        parameters not on the loss path simply stay at zero.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.accumulate(np.ones_like(loss.data))
        for node in reversed(self.nodes):
            out = node.output
            g = out.grad
            if g is not None:
                out.grad = None
                node.backward_fn(g)


def sgd_momentum_step(
    params: Iterable[Parameter], lr: float, mu: float, max_norm: Optional[float] = None
) -> float:
    """v <- mu*v - lr*grad; value <- value + v; gradients zeroed afterwards.
    Returns the global L2 norm of the gradients, one g.g per parameter in
    its dtype, redone in float64 only where that is not finite (a float32
    1e20).  A non-finite norm only zeroes the gradients; a norm above
    ``max_norm`` scales them by ``max_norm / norm`` before the update.
    """
    params = list(params)
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            g = p.grad.reshape(-1)
            term = float(np.dot(g, g))
            if not math.isfinite(term):
                g = g.astype(np.float64, copy=False)
                term = float(np.dot(g, g))
            total += term
    norm = math.sqrt(total)
    for p in params:
        g = p.grad
        if math.isfinite(norm):
            if max_norm is not None and norm > max_norm:
                g *= max_norm / norm
            g *= lr  # bit-equal to forming lr * grad, without the temporary
            p.velocity *= mu
            p.velocity -= g
            p.data += p.velocity
        g[...] = 0
    return norm
