"""Every file the library writes, the binary container that holds arrays, and
the one check of every JSON object it reads (``json_object``).

Each write goes to a temporary name beside its target and is then moved over
it with ``os.replace``, so a write that fails midway leaves the previous file
intact; the target's directory is created at the first write into it.

The array container (model checkpoints, train states) is little-endian:
8-byte magic, u32 version, u32 header length, a UTF-8 JSON header, u32 array
count, then per array its u16-length name, u8 rank, u32 dims and float64
data, and last the CRC32 of every byte before it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import zlib

import numpy as np

CONTAINER_VERSION = 2  # the only version read


def write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``, creating its directory."""
    path = os.fspath(path)
    parent, name = os.path.split(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # open() rather than mkstemp, so the file gets the usual umask mode, not 0600
    tmp = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_csv(path, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_bytes(path, buf.getvalue().encode("utf-8"))


def write_netpbm(path, pixels: np.ndarray) -> None:
    """8-bit binary netpbm: P5 (gray) for an (h, w) array, P6 (RGB) for (h, w, 3)."""
    h, w = pixels.shape[:2]
    magic = "P5" if pixels.ndim == 2 else "P6"
    write_bytes(path, f"{magic}\n{w} {h}\n255\n".encode("ascii")
                + pixels.astype(np.uint8).tobytes())


def json_object(text: str, kinds: dict, required, what: str) -> dict:
    """The JSON object in ``text``; ValueError naming the key if a ``required``
    key is missing, a key is not in ``kinds`` or its value is not exactly of
    that type (neither a bool nor a float is an int). A dict kind is a nested
    object whose keys are all required; messages name them by dotted path
    (``'counts.train'``). ``what`` names the object."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    _check_keys(raw, kinds, required, what, "")
    return raw


def _check_keys(raw: dict, kinds: dict, required, what: str, prefix: str) -> None:
    for key in sorted(set(raw) | set(required)):
        name, kind = prefix + key, kinds.get(key)
        if key not in raw:
            raise ValueError(f"{what} key {name!r} is missing")
        if kind is None:
            raise ValueError(f"unknown {what} key {name!r}")
        if isinstance(kind, dict):
            if type(raw[key]) is not dict:
                raise ValueError(f"{what} key {name!r} must be an object, got {raw[key]!r}")
            _check_keys(raw[key], kind, kind, what, name + ".")
        elif type(raw[key]) is not kind:
            raise ValueError(f"{what} key {name!r} must be {kind.__name__}, got {raw[key]!r}")


# -- the array container ------------------------------------------------------------


def write_arrays(path, magic: bytes, header: str, arrays: dict) -> None:
    """A container file: ``header`` text and the named float64 ``arrays`` in order."""
    head = header.encode("utf-8")
    chunks = [magic, struct.pack("<I", CONTAINER_VERSION),
              struct.pack("<I", len(head)), head, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        nbytes = name.encode("utf-8")
        chunks += [struct.pack("<H", len(nbytes)), nbytes,
                   struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    blob = b"".join(chunks)
    write_bytes(path, blob + struct.pack("<I", zlib.crc32(blob)))


def read_arrays(path, magic: bytes, what: str, expect):
    """Read a container written with ``magic``; ``what`` names it in errors.

    ``expect(header_text)`` decodes the header and returns ``(value, specs)``,
    ``specs`` listing the ``(name, shape)`` of every array the file must hold,
    in order. Returns ``(value, arrays)``. Any mismatch, undecodable text, a
    non-finite array, a short or overlong file and, checked last so that a
    malformed file names its structural fault, a CRC32 mismatch raise
    ValueError, its message led by the file's path.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_arrays(blob, magic, what, expect)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_arrays(blob: bytes, magic: bytes, what: str, expect):
    off = 0

    def read(n):
        nonlocal off
        piece = blob[off:off + n]
        if len(piece) != n:
            raise ValueError(f"truncated {what}")
        off += n
        return piece

    if read(8) != magic:
        raise ValueError(f"not a {what} (bad magic)")
    version = struct.unpack("<I", read(4))[0]
    if version != CONTAINER_VERSION:
        raise ValueError(f"unsupported {what} version {version}")
    head_len = struct.unpack("<I", read(4))[0]
    value, specs = expect(read(head_len).decode("utf-8"))
    count = struct.unpack("<I", read(4))[0]
    if count != len(specs):
        raise ValueError(f"{what} holds {count} arrays, its header needs {len(specs)}")
    arrays = {}
    for want_name, want_shape in specs:
        name_len = struct.unpack("<H", read(2))[0]
        name = read(name_len).decode("utf-8")
        ndim = struct.unpack("<B", read(1))[0]
        shape = tuple(struct.unpack("<I", read(4))[0] for _ in range(ndim))
        if (name, shape) != (want_name, tuple(want_shape)):
            raise ValueError(f"{what} array {name!r} {shape} does not match "
                             f"its header's {want_name!r} {tuple(want_shape)}")
        data = np.frombuffer(read(int(np.prod(shape)) * 8), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise ValueError(f"{what} array {name!r} is not finite")
        arrays[name] = data.copy()
    body = blob[:off]
    (crc,) = struct.unpack("<I", read(4))
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes after the arrays")
    if crc != zlib.crc32(body):
        raise ValueError(f"{what} fails its CRC32 check (corrupted bytes)")
    return value, arrays
