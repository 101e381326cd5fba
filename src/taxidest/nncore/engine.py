"""Tape-based reverse-mode automatic differentiation over numpy buffers.

The tape records every operation node in execution order; backward walks
the list in exact reverse, once per node, accumulating gradients into the
input tensors of each node.  Graphs are rebuilt per batch and nothing is
cached between batches.  Most ops are single primitives; ``lstm_cell`` is
one fused node per step with a hand-written backward.  Single precision is
the training default, double precision exists for gradient-check tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter", "Tape", "Tensor", "glorot_uniform"]


class Tensor:
    """A shaped numpy value plus its (lazily allocated) gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g: np.ndarray) -> None:
        """Add an upstream gradient; copies on first write so the buffer is owned."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """A named, trainable tensor with matching gradient and velocity buffers."""

    __slots__ = ("name", "tensor", "velocity")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.tensor = Tensor(np.array(value, copy=True))
        self.tensor.grad = np.zeros_like(self.tensor.data)
        self.velocity = np.zeros_like(self.tensor.data)

    @property
    def value(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray:
        return self.tensor.grad

    @property
    def shape(self):
        return self.tensor.data.shape

    @property
    def size(self) -> int:
        return self.tensor.data.size

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.data.shape})"


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
        self.backward_visits = 0

    def record(self, output: Tensor, backward_fn) -> None:
        self.nodes.append(_Node(output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(input) into every tensor reachable from ``loss``.

        Parameters keep pre-allocated zero gradients, so parameters not on
        the loss path simply stay at zero.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.accumulate(np.ones_like(loss.data))
        self.backward_visits = 0
        for node in reversed(self.nodes):
            self.backward_visits += 1
            g = node.output.grad
            if g is not None:
                node.backward_fn(g)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
