"""Stochastic gradient descent with classical momentum and optional
global-norm gradient clipping (Pascanu et al., 2013)."""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .engine import Parameter

__all__ = ["sgd_momentum_step"]


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
