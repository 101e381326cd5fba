"""Model checkpoints in the package's binary container, whose docstring
(``taxidest._container``) gives the layout: magic ``TXDMODEL``, version 1."""

from __future__ import annotations

import numpy as np

from .. import _container
from .engine import Parameter

__all__ = ["load_checkpoint", "save_checkpoint"]

_FORMAT = _container.Format(b"TXDMODEL", 1, "checkpoint", "parameter", ValueError)


def save_checkpoint(path, params: list[Parameter], extras: dict) -> None:
    _container.write(path, _FORMAT, {"extras": extras}, params)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (extras, {parameter name: value array}); a file that is
    not a whole version-1 checkpoint raises ValueError naming the path."""
    header, values = _container.read(path, _FORMAT)
    if not isinstance(header.get("extras"), dict):
        raise ValueError(f"{path}: the checkpoint header has no extras object")
    return header["extras"], values
