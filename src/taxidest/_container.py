"""The binary container shared by the record cache and the model checkpoint.

Layout, integers little-endian: an 8-byte magic, version u32, header length
u64, the header as sorted-key UTF-8 JSON, then the arrays' raw little-endian
bytes back to back.  The header's ``params`` list gives each array's name,
shape, dtype string (e.g. "<f4"), and offset and nbytes after the header;
it is named for the checkpoint, whose arrays are its parameters.

Record cache ``TXDCACHE`` version 2 (``data.save_records``): header key
``trip_ids``; int64 ``offsets`` (n + 1 rows, record i owns points
[offsets[i]:offsets[i + 1]]); int64 columns of n rows ``call_type`` (0 phone,
1 stand, 2 street), ``origin_call`` and ``origin_stand`` (-1 when absent),
``taxi_id``, ``timestamp`` and ``missing`` (1 when MISSING_DATA); last,
float64 ``points`` (P, 2) of (lat, lon).  Version 1, one packed record after
another, is no longer read.  The cache is regenerable from the CSV
(``taxidest prepare``) and never a source of truth.

Checkpoint ``TXDMODEL`` version 1 (``nncore.checkpoint``): header key
``extras`` holds what makes the model self-contained; the arrays are the
parameters in order.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._atomic import atomic_open

_PREAMBLE = struct.Struct("<IQ")  # version, header length


class Format(NamedTuple):
    """One file type in the container: its magic, its version and how its
    errors read.  ``kind`` names the file type, ``item`` one of its arrays;
    ``hint`` ends the error for a file of another version."""

    magic: bytes
    version: int
    kind: str
    item: str
    error: type
    hint: str = ""


def write(path, fmt: Format, fields: dict, arrays: Sequence) -> None:
    """Write ``fields`` plus the ``params`` list as the header, then each
    array's bytes; ``arrays`` holds objects with ``.name`` and ``.value``.
    The file is replaced whole or not at all."""
    entries, offset = [], 0
    for a in arrays:
        arr = a.value
        entries.append({"name": a.name, "shape": list(arr.shape), "dtype": arr.dtype.newbyteorder("<").str,
                        "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({**fields, "params": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(fmt.magic)
        f.write(_PREAMBLE.pack(fmt.version, len(header)))
        f.write(header)
        for a in arrays:
            arr = a.value
            f.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).reshape(-1).view(np.uint8))


def read(path, fmt: Format, where: Optional[Callable] = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, {array name: native-order array}), arrays in file order.

    Raises ``fmt.error`` naming the path for a bad magic or version, a
    truncated or unreadable header, an array whose bytes the file cuts
    short or which do not match its shape, and bytes after the last one.
    For a cut inside array ``name``, ``where(name, arrays read before it,
    its bytes present)`` may say where the cut lies instead.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(fmt.magic))
        if magic != fmt.magic:
            raise fmt.error(f"{path}: not a {fmt.kind} file (bad magic {magic!r})")
        body = len(fmt.magic) + _PREAMBLE.size
        if size < body:
            raise fmt.error(f"{path}: truncated {fmt.kind} header ({size} bytes)")
        version, hlen = _PREAMBLE.unpack(f.read(_PREAMBLE.size))
        if version != fmt.version:
            raise fmt.error(f"{path}: unsupported {fmt.kind} version {version}{fmt.hint}")
        if size < body + hlen:
            raise fmt.error(f"{path}: truncated {fmt.kind} header ({size} of {body + hlen} bytes)")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except ValueError as e:
            raise fmt.error(f"{path}: unreadable {fmt.kind} header: {e}") from None
        blob, arrays, end = size - body - hlen, {}, 0
        for e in header["params"]:
            name, offset, nbytes, dtype = e["name"], e["offset"], e["nbytes"], np.dtype(e["dtype"])
            if offset + nbytes > blob:
                cut = where(name, arrays, max(blob - offset, 0)) if where else None
                raise fmt.error(f"{path}: truncated in " + (cut or (
                    f"{fmt.item} {name!r}: needs bytes {offset}..{offset + nbytes} after the header, "
                    f"the file has {blob}")))
            if nbytes != dtype.itemsize * int(np.prod(e["shape"])):
                raise fmt.error(f"{path}: {fmt.item} {name!r}: {nbytes} bytes do not hold {e['shape']} of {dtype}")
            arr = np.empty(e["shape"], dtype=dtype)
            f.seek(body + hlen + offset)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise fmt.error(f"{path}: truncated in {fmt.item} {name!r} while reading")
            arrays[name] = arr.astype(dtype.newbyteorder("="), copy=False)
            end = max(end, offset + nbytes)
        if blob > end:
            raise fmt.error(f"{path}: {blob - end} bytes after the last {fmt.item}")
        return header, arrays
