"""Versioned binary checkpoint container.

Layout:
    magic   8s  = b"TXDMODEL"
    version u32 little-endian = 1
    hlen    u64 little-endian
    header  hlen bytes of UTF-8 JSON (sorted keys)
    blobs   concatenated raw little-endian parameter buffers

The header's ``params`` list gives, per parameter and in blob order:
name, shape, dtype (numpy little-endian string, e.g. "<f4"), offset and
nbytes relative to the end of the header.  ``extras`` carries whatever
JSON-serializable metadata makes a model self-contained (configuration,
standardization stats, vocabulary, cluster centers).  Loading checks every
parameter's bytes against the file and rejects a truncated file or bytes
after the last parameter.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .._atomic import atomic_open
from .engine import Parameter

__all__ = ["load_checkpoint", "save_checkpoint"]

_MAGIC = b"TXDMODEL"
_VERSION = 1
_PREAMBLE = struct.Struct("<IQ")  # version, header length


def save_checkpoint(path, params: list[Parameter], extras: dict) -> None:
    entries = []
    offset = 0
    for p in params:
        arr = p.value
        dtype = arr.dtype.newbyteorder("<")
        nbytes = arr.size * dtype.itemsize
        entries.append(
            {
                "name": p.name,
                "shape": list(arr.shape),
                "dtype": dtype.str,
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset += nbytes
    header = json.dumps(
        {"extras": extras, "params": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(_PREAMBLE.pack(_VERSION, len(header)))
        f.write(header)
        for p in params:
            f.write(np.ascontiguousarray(p.value, dtype=p.value.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (extras, {parameter name: value array}).

    Raises ValueError naming the path for a bad magic or version, a
    truncated or unreadable header, a parameter whose bytes the file cuts
    short or which do not match its shape, and bytes after the last one.
    """
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[: len(_MAGIC)]
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
    body = len(_MAGIC) + _PREAMBLE.size
    if len(raw) < body:
        raise ValueError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    version, hlen = _PREAMBLE.unpack_from(raw, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < body + hlen:
        raise ValueError(f"{path}: truncated checkpoint header ({len(raw)} of {body + hlen} bytes)")
    try:
        header = json.loads(raw[body : body + hlen].decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: unreadable checkpoint header: {e}") from None
    blob = memoryview(raw)[body + hlen :]
    values = {}
    end = 0
    for e in header["params"]:
        name, offset, nbytes = e["name"], e["offset"], e["nbytes"]
        dtype = np.dtype(e["dtype"])
        if offset + nbytes > len(blob):
            raise ValueError(
                f"{path}: truncated in parameter {name!r}: needs bytes {offset}..{offset + nbytes} "
                f"after the header, the file has {len(blob)}"
            )
        if nbytes != dtype.itemsize * int(np.prod(e["shape"])):
            raise ValueError(f"{path}: parameter {name!r}: {nbytes} bytes do not hold {e['shape']} of {dtype}")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=dtype).reshape(e["shape"])
        values[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
        end = max(end, offset + nbytes)
    if len(blob) > end:
        raise ValueError(f"{path}: {len(blob) - end} bytes after the last parameter")
    return header["extras"], values
