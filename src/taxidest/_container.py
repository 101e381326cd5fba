"""The binary container that the record cache (``data``) and the model
checkpoint (``models``) use; each documents its own header keys and arrays
beside its ``Format``.

Layout, integers little-endian: an 8-byte magic, version u32, header length
u64, the header as sorted-key UTF-8 JSON, then the arrays' raw little-endian
bytes back to back.  The header's ``params`` list gives each array's name,
shape, dtype string ("<f4", "<f8" or "<i8"), and offset and nbytes after the header;
it is named for the checkpoint, whose arrays are its parameters.  An offset
other than where the array before it ends (0 for the first) is rejected.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._atomic import DataError, atomic_open

_PREAMBLE = struct.Struct("<IQ")  # version, header length


class Format(NamedTuple):
    """One file type in the container: its magic, its version and how its
    errors read.  ``kind`` names the file type, ``item`` one of its arrays;
    ``hint`` ends the error for a file of another version."""

    magic: bytes
    version: int
    kind: str
    item: str
    hint: str = ""


def write(path, fmt: Format, fields: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``fields`` plus the ``params`` list as the header, then each
    array's bytes; ``arrays`` maps each array's name to it, in file order,
    as :func:`read` returns them.  The file is replaced whole or not at all."""
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "dtype": arr.dtype.newbyteorder("<").str,
                        "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({**fields, "params": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(fmt.magic)
        f.write(_PREAMBLE.pack(fmt.version, len(header)))
        f.write(header)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).reshape(-1).view(np.uint8))


#: The dtype strings that :func:`write` produces for the arrays it is given:
#: float32 and float64 parameters, int64 and float64 cache columns.
_DTYPES = ("<f4", "<f8", "<i8")
#: Each ``params`` entry's fields and their JSON types.
_ENTRY_FIELDS = {"name": str, "shape": list, "dtype": str, "offset": int, "nbytes": int}


def _entry(e) -> tuple[str, list, np.dtype, int, int]:
    """(name, shape, dtype, offset, nbytes) of one ``params`` entry;
    ValueError says what is malformed."""
    if not isinstance(e, dict):
        raise ValueError("not an object")
    for key, kind in _ENTRY_FIELDS.items():
        if type(e.get(key)) is not kind:  # type(), so that a bool is no int
            raise ValueError(f"{key!r} is missing or not a JSON {kind.__name__}")
    if not all(type(d) is int and d >= 0 for d in e["shape"]) or e["offset"] < 0 or e["nbytes"] < 0:
        raise ValueError(f"negative or non-integer shape {e['shape']}, offset {e['offset']} or nbytes {e['nbytes']}")
    if e["dtype"] not in _DTYPES:
        raise ValueError(f"dtype {e['dtype']!r} is not one of {', '.join(_DTYPES)}")
    return e["name"], e["shape"], np.dtype(e["dtype"]), e["offset"], e["nbytes"]


def read(path, fmt: Format, where: Optional[Callable] = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, {array name: native-order array}), arrays in file order.

    Raises :class:`DataError` naming the path for a bad magic or version, a
    truncated or unreadable header, a header that is not an object with a
    ``params`` list of well-formed entries, an array that does not start
    where the one before it ends, an array whose bytes the file cuts short or
    which do not match its shape, and bytes after the last one.
    For a cut inside array ``name``, ``where(name, arrays read before it,
    its bytes present)`` may say where the cut lies instead.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(fmt.magic))
        if magic != fmt.magic:
            raise DataError(f"{path}: not a {fmt.kind} file (bad magic {magic!r})")
        body = len(fmt.magic) + _PREAMBLE.size
        if size < body:
            raise DataError(f"{path}: truncated {fmt.kind} header ({size} bytes)")
        version, hlen = _PREAMBLE.unpack(f.read(_PREAMBLE.size))
        if version != fmt.version:
            raise DataError(f"{path}: unsupported {fmt.kind} version {version}{fmt.hint}")
        if size < body + hlen:
            raise DataError(f"{path}: truncated {fmt.kind} header ({size} of {body + hlen} bytes)")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise DataError(f"{path}: unreadable {fmt.kind} header: {e}") from None
        if not isinstance(header, dict) or not isinstance(header.get("params"), list):
            raise DataError(f"{path}: the {fmt.kind} header is not an object with a params list")
        blob, arrays, end = size - body - hlen, {}, 0
        for i, e in enumerate(header["params"]):
            try:
                name, shape, dtype, offset, nbytes = _entry(e)
            except ValueError as why:
                raise DataError(f"{path}: {fmt.kind} header entry {i}: {why}") from None
            if offset != end:
                raise DataError(f"{path}: {fmt.item} {name!r} is placed at byte {offset} after the header, "
                                f"not at {end}; the arrays lie back to back")
            if offset + nbytes > blob:
                cut = where(name, arrays, blob - offset) if where else None
                raise DataError(f"{path}: truncated in " + (cut or (
                    f"{fmt.item} {name!r}: needs bytes {offset}..{offset + nbytes} after the header, "
                    f"the file has {blob}")))
            if nbytes != dtype.itemsize * math.prod(shape):
                raise DataError(f"{path}: {fmt.item} {name!r}: {nbytes} bytes do not hold {shape} of {dtype}")
            arr = np.empty(shape, dtype=dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise DataError(f"{path}: truncated in {fmt.item} {name!r} while reading")
            arrays[name] = arr.astype(dtype.newbyteorder("="), copy=False)
            end += nbytes
        if blob > end:
            raise DataError(f"{path}: {blob - end} bytes after the last {fmt.item}")
        return header, arrays


def check(path, fmt: Format, arrays: dict[str, np.ndarray], expected: Sequence[tuple], owner: str) -> None:
    """Raise :class:`DataError` naming ``path`` at the first of ``arrays``
    (in file order) that is not as in ``owner``'s (name, shape, dtype) list,
    such as "variant brnn's"; ``None`` in a shape stands for any length."""
    names = list(arrays)
    for i, (name, shape, dtype) in enumerate(expected):
        if i == len(names) or names[i] != name:
            found = "none" if i == len(names) else repr(names[i])
            raise DataError(f"{path}: {owner} {fmt.item} {i} is {name!r}; the {fmt.kind} has {found} there")
        arr = arrays[name]
        fits = len(arr.shape) == len(shape) and all(w in (None, d) for w, d in zip(shape, arr.shape))
        if arr.dtype != dtype or not fits:
            raise DataError(f"{path}: {fmt.item} {name!r} is {arr.dtype} {arr.shape}, "
                            f"expected {np.dtype(dtype)} {shape}")
    if len(names) > len(expected):
        raise DataError(f"{path}: {fmt.item} {names[len(expected)]!r} is not one of {owner}")
