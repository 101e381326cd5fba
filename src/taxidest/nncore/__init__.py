"""Reverse-mode autodiff tape and the neural building blocks of the models."""

from . import ops
from .engine import Parameter, Tape, Tensor, sgd_momentum_step
from .ops import *  # noqa: F403

__all__ = ["Parameter", "Tape", "Tensor", "sgd_momentum_step", *ops.__all__]
