"""``.npt``: a self-describing binary container for checkpoint objects.

Layout::

    MAGIC "NPT\\x01" | header_len: u64 LE | header JSON (utf-8) |
    zero padding to 64-byte boundary | tensor payloads (64-byte aligned)

The header is a JSON tree mirroring the saved object; numpy arrays are
replaced by ``{"__tensor__": i}`` markers indexing a ``tensors`` table
of (dtype, shape, offset, nbytes).  Supported leaves: ndarray, int,
float, str, bool, None; containers: dict (str keys) and list.

This replaces ``torch.save`` — same role (one object file per rank /
per atom), but with an explicit, versioned format instead of pickle.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zlib
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

import numpy as np

MAGIC = b"NPT\x01"
_ALIGN = 64


class SerializationError(ValueError):
    """Raised for malformed input objects or corrupt files."""


class ChecksumError(SerializationError):
    """A tensor payload failed its CRC32 integrity check."""


def _align(offset: int) -> int:
    return ((offset + _ALIGN - 1) // _ALIGN) * _ALIGN


def _encode(obj: Any, tensors: List[np.ndarray]) -> Any:
    if isinstance(obj, np.ndarray):
        index = len(tensors)
        tensors.append(np.ascontiguousarray(obj))
        return {"__tensor__": index}
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            if key == "__tensor__":
                raise SerializationError("'__tensor__' is a reserved key")
            out[key] = _encode(value, tensors)
        return out
    if isinstance(obj, (list, tuple)):
        return [_encode(v, tensors) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (str, bool, int, float)) or obj is None:
        return obj
    raise SerializationError(f"unsupported type {type(obj).__name__}")


def _decode(node: Any, tensors: List[np.ndarray]) -> Any:
    if isinstance(node, dict):
        if set(node) == {"__tensor__"}:
            try:
                return tensors[node["__tensor__"]]
            except (IndexError, TypeError) as exc:
                raise SerializationError(
                    f"malformed header: tensor marker {node!r} outside a "
                    f"table of {len(tensors)}"
                ) from exc
        return {key: _decode(value, tensors) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(v, tensors) for v in node]
    return node


def encode(obj: Any) -> List[Any]:
    """Encode an object tree to the ``.npt`` file's bytes, as parts.

    In file order: the header block (magic, length, header JSON, pad to
    the payload boundary), then per tensor its alignment pad, if any,
    and a read-only flat ``uint8`` view of the (contiguous) array's own
    buffer — the buffer its CRC ran over.  Joined, the parts are the
    file; a writer that hands them to the file one by one makes the
    page-cache write the only copy a payload takes.  The views alias
    the arrays, which must not change until the parts are written.
    """
    tensors: List[np.ndarray] = []
    tree = _encode(obj, tensors)
    payloads = [
        memoryview(tensor.reshape(-1).view(np.uint8)).toreadonly()
        for tensor in tensors
    ]

    table: List[Dict] = []
    offset = 0
    for tensor, payload in zip(tensors, payloads):
        offset = _align(offset)
        table.append(
            {
                "dtype": tensor.dtype.str,
                "shape": list(tensor.shape),
                "offset": offset,
                "nbytes": int(tensor.nbytes),
                "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
            }
        )
        offset += tensor.nbytes

    header = json.dumps({"tree": tree, "tensors": table}).encode("utf-8")
    header_block = len(MAGIC) + 8 + len(header)
    parts: List[Any] = [b"".join((
        MAGIC,
        len(header).to_bytes(8, "little"),
        header,
        b"\x00" * (_align(header_block) - header_block),
    ))]
    cursor = 0
    for payload, entry in zip(payloads, table):
        pad = entry["offset"] - cursor
        if pad:
            parts.append(b"\x00" * pad)
        parts.append(payload)
        cursor = entry["offset"] + entry["nbytes"]
    return parts


def serialize(obj: Any) -> bytes:
    """Encode an object tree to ``.npt`` bytes: :func:`encode`'s parts
    joined — one copy of every payload, for small objects and for
    callers that need the file as one value.  The bulk writers stage
    the parts themselves."""
    return b"".join(encode(obj))


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise SerializationError(f"truncated file while reading {what}")
    return data


@dataclasses.dataclass(frozen=True)
class TensorIndexEntry:
    """Header-level description of a tensor payload that was not read,
    *with its location*.

    Stands in for the ``np.ndarray`` leaves when an object is decoded
    from its header alone (:func:`read_npt_header`,
    :func:`read_npt_index`) — shape/dtype analysis without touching
    payload bytes — and carries the payload's absolute byte offset
    inside the ``.npt`` file: the handle a byte-range reader needs to
    ``pread`` any element sub-range of the tensor without materializing
    the file.
    """

    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    crc32: Optional[int] = None

    @property
    def numel(self) -> int:
        """Element count implied by the shape."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return np.dtype(self.dtype).itemsize

    def element_range(self, start: int, count: int) -> Tuple[int, int]:
        """Absolute ``(file offset, byte length)`` of an element run."""
        if start < 0 or count < 0 or (start + count) > self.numel:
            raise SerializationError(
                f"element range [{start}, {start + count}) exceeds tensor "
                f"extent {self.numel}"
            )
        item = self.itemsize
        return self.offset + start * item, count * item


def _stream_size(fh: BinaryIO) -> int:
    """The real byte size behind a stream: the buffer length of
    in-memory bytes, ``fstat`` of an open file's handle."""
    if isinstance(fh, io.BytesIO):
        return fh.getbuffer().nbytes
    return os.fstat(fh.fileno()).st_size


def _parse_header(fh: BinaryIO) -> Tuple[Any, List[TensorIndexEntry]]:
    """Decode magic -> header length -> header JSON, trusting none of it.

    The one place an ``.npt`` header is parsed.  The declared header
    length and every tensor's ``offset + nbytes`` are bounded by the
    stream's real size *before* anything that long is read or
    allocated, and any JSON / key / type / dtype / shape failure is a
    :class:`SerializationError` naming the file.  Returns the object
    tree (tensor leaves still ``__tensor__`` markers) and the tensor
    table as entries with absolute file offsets; only the magic, the
    length and the header JSON are consumed from the stream.
    """
    name = getattr(fh, "name", "<bytes>")
    size = _stream_size(fh)
    magic = _read_exact(fh, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SerializationError(f"{name}: bad magic {magic!r}; not an .npt file")
    header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
    header_block = len(MAGIC) + 8 + header_len
    if header_block > size:
        raise SerializationError(
            f"{name}: truncated file: the header declares {header_len} "
            f"bytes, the file holds {size}"
        )
    raw_header = _read_exact(fh, header_len, "header")
    payload_start = _align(header_block)
    try:
        header = json.loads(raw_header.decode("utf-8"))
        tree = header["tree"]
        entries = [
            TensorIndexEntry(
                dtype=raw["dtype"],
                shape=tuple(int(d) for d in raw["shape"]),
                offset=payload_start + int(raw["offset"]),
                nbytes=int(raw["nbytes"]),
                crc32=raw.get("crc32"),
            )
            for raw in header["tensors"]
        ]
        for entry in entries:
            dtype = np.dtype(entry.dtype)
            if (
                dtype.hasobject
                or min(entry.shape, default=0) < 0
                or entry.nbytes != entry.numel * dtype.itemsize
            ):
                raise ValueError(f"{entry} describes no array")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise SerializationError(f"{name}: malformed header: {exc!r}") from exc
    for index, entry in enumerate(entries):
        if entry.offset < payload_start or entry.offset + entry.nbytes > size:
            raise SerializationError(
                f"{name}: truncated file: tensor {index} is placed at bytes "
                f"[{entry.offset}, {entry.offset + entry.nbytes}), the file "
                f"holds {size}"
            )
    return tree, entries


def _payloads(fh: BinaryIO, entries: List[TensorIndexEntry]):
    """Yield each tensor's raw payload bytes, CRC32-checked."""
    for index, entry in enumerate(entries):
        fh.seek(entry.offset)
        raw = _read_exact(fh, entry.nbytes, "tensor payload")
        if entry.crc32 is not None:
            actual = zlib.crc32(raw) & 0xFFFFFFFF
            if actual != entry.crc32:
                raise ChecksumError(
                    f"tensor {index} failed CRC32: stored "
                    f"{entry.crc32:#010x}, computed {actual:#010x} "
                    f"(corrupt or tampered payload)"
                )
        yield raw


def read_npt(fh: BinaryIO) -> Any:
    """Read an object tree from a binary stream positioned at the file
    start, validating every tensor payload's CRC32 (silent bit-rot in
    optimizer state is far worse than the verification cost)."""
    tree, entries = _parse_header(fh)
    tensors = [
        np.frombuffer(raw, dtype=np.dtype(entry.dtype)).reshape(entry.shape).copy()
        for entry, raw in zip(entries, _payloads(fh, entries))
    ]
    return _decode(tree, tensors)


def deserialize(data: bytes) -> Any:
    """Decode ``.npt`` bytes back to the object tree."""
    return read_npt(io.BytesIO(data))


def read_npt_index(fh: BinaryIO) -> Any:
    """Decode an object tree whose tensor leaves carry file offsets.

    Tensor leaves come back as :class:`TensorIndexEntry` with the
    *absolute* file offset of each payload, so a planner can turn
    (tensor, element range) into exact ``pread`` calls.  Only the header
    bytes are consumed from the stream.
    """
    return _decode(*_parse_header(fh))


def read_npt_header(fh: BinaryIO) -> Any:
    """Decode an object tree from the ``.npt`` header only.

    Tensor leaves come back as :class:`TensorIndexEntry` (dtype, shape,
    nbytes, placement) instead of arrays: no payload bytes are read,
    validated, or materialized.  This is what lets the static layout
    linter inspect a rank file's partition metadata and flat-array
    shapes at header cost regardless of checkpoint size.  (The same
    decode as :func:`read_npt_index`; the two names are the analyzers'
    and the planners' entry points.)

    Args:
        fh: binary stream positioned at the file start.  Only the magic,
            header length, and header JSON are consumed.
    """
    return _decode(*_parse_header(fh))


def validate_npt(data: bytes) -> None:
    """Structurally validate ``.npt`` bytes without materializing arrays.

    Walks the container exactly like :func:`read_npt` — magic, header,
    per-tensor placement and CRC32 — but never reshapes payloads, so
    integrity sweeps over large checkpoints stay cheap.  Raises
    :class:`SerializationError` / :class:`ChecksumError` on any damage.
    """
    fh = io.BytesIO(data)
    _, entries = _parse_header(fh)
    for _ in _payloads(fh, entries):
        pass
