"""Atomic file replacement for the files the pipeline writes."""

from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing; on a clean exit it
    replaces ``path`` with ``os.replace``, on an exception it is removed and
    ``path`` is left as it was.  ``mode`` is "w" or "wb"."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
