"""Stochastic gradient descent with classical momentum."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .engine import Parameter

__all__ = ["clip_gradients", "sgd_momentum_step"]


def sgd_momentum_step(params: Iterable[Parameter], lr: float, mu: float) -> None:
    """v <- mu*v - lr*grad; value <- value + v; gradients zeroed afterwards."""
    for p in params:
        p.velocity *= mu
        p.velocity -= lr * p.grad
        p.tensor.data += p.velocity
        p.grad[...] = 0


def clip_gradients(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Off by default in training; a guard for the recurrent variants where
    exploding gradients are the known hazard.  Returns the pre-clip norm.
    """
    total = 0.0
    params = list(params)
    for p in params:
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for p in params:
            p.grad[...] *= factor
    return norm
