"""The rules of every file of the pipeline: it is written whole or not at
all, and a bad input file raises :class:`DataError`, whose message starts
with the path and names the line (numbered as text mode numbers them) or
the record at fault."""

from __future__ import annotations

import contextlib
import os
import re
import secrets
from typing import Optional


class DataError(Exception):
    """Raised for unusable or inconsistent input data."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing; on a clean exit it
    replaces ``path`` with ``os.replace``, on an exception it is removed and
    ``path`` is left as it was.  ``mode`` is "w" or "wb"."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        f = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as e:  # name the file asked for, not its temp file
        raise OSError(e.errno, e.strerror, path) from e
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


#: A byte that is not UTF-8, as the ``surrogateescape`` error handler reads it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def non_utf8_error(path, sep: str = ": line ") -> DataError:
    """The error for a text file that did not decode: it names ``path``, then
    after ``sep`` the line of the first byte that is not UTF-8 (lines end at
    \\n, \\r\\n or \\r, as text mode and ``csv`` count them), and the byte."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as f:
        for lineno, text in enumerate(f, 1):
            bad = _ESCAPED_BYTE.search(text)
            if bad:
                return DataError(f"{path}{sep}{lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
    return DataError(f"{path}: changed while it was read")


#: A scalar text field: ASCII spaces around an integer, a decimal (or nan,
#: inf) or letters, all ASCII; ``int``, ``float`` and ``str.strip`` also take
#: underscores, other scripts' digits and other white space.
_SCALAR = re.compile(r" *(?:(?P<int>[+-]?\d+)|(?P<float>[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|nan|inf(?:inity)?))"
                     r"|(?P<word>[a-z]*)) *", re.ASCII | re.IGNORECASE)


def scalar(text: str) -> tuple[Optional[str], str]:
    """(kind, token): "int", "float" or "word" and the field without its
    spaces, or (None, ``text``) for a field outside the grammar."""
    if not text:  # the commonest fields, ahead of the regex
        return "word", text
    if text.isdigit() and text.isascii():
        return "int", text
    m = _SCALAR.fullmatch(text)
    return (m.lastgroup, m[m.lastgroup]) if m else (None, text)
