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
            return tensors[node["__tensor__"]]
        return {key: _decode(value, tensors) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(v, tensors) for v in node]
    return node


def _npt_parts(obj: Any) -> List[Any]:
    """The file as an ordered list of bytes-like parts, payloads uncopied.

    Tensor payloads are flat ``uint8`` views of the (contiguous) arrays
    themselves: the CRC runs over the array's own buffer and the one
    copy a payload ever takes is the caller's join or stream write.
    """
    tensors: List[np.ndarray] = []
    tree = _encode(obj, tensors)
    payloads = [tensor.reshape(-1).view(np.uint8) for tensor in tensors]

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
    parts: List[Any] = [
        MAGIC,
        len(header).to_bytes(8, "little"),
        header,
        b"\x00" * (_align(header_block) - header_block),
    ]
    cursor = 0
    for payload, entry in zip(payloads, table):
        pad = entry["offset"] - cursor
        if pad:
            parts.append(b"\x00" * pad)
        parts.append(memoryview(payload))
        cursor = entry["offset"] + entry["nbytes"]
    return parts


def serialize(obj: Any) -> bytes:
    """Encode an object tree to ``.npt`` bytes."""
    return b"".join(_npt_parts(obj))


def write_npt(fh: BinaryIO, obj: Any) -> int:
    """Write an object tree to a binary stream; returns bytes written."""
    return sum(fh.write(part) for part in _npt_parts(obj))


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise SerializationError(f"truncated file while reading {what}")
    return data


def read_npt(fh: BinaryIO, verify_checksums: bool = True) -> Any:
    """Read an object tree from a binary stream.

    Args:
        fh: binary stream positioned at the file start.
        verify_checksums: validate each tensor payload's CRC32 (on by
            default — silent bit-rot in optimizer state is far worse
            than the verification cost).
    """
    magic = _read_exact(fh, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; not an .npt file")
    header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
    header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    header_block = len(MAGIC) + 8 + header_len
    _read_exact(fh, _align(header_block) - header_block, "header padding")

    tensors: List[np.ndarray] = []
    cursor = 0
    for index, entry in enumerate(header["tensors"]):
        pad = entry["offset"] - cursor
        if pad:
            _read_exact(fh, pad, "tensor padding")
            cursor += pad
        raw = _read_exact(fh, entry["nbytes"], "tensor payload")
        cursor += entry["nbytes"]
        expected_crc = entry.get("crc32")
        if verify_checksums and expected_crc is not None:
            actual = zlib.crc32(raw) & 0xFFFFFFFF
            if actual != expected_crc:
                raise ChecksumError(
                    f"tensor {index} failed CRC32: stored "
                    f"{expected_crc:#010x}, computed {actual:#010x} "
                    f"(corrupt or tampered payload)"
                )
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
        tensors.append(arr.reshape(entry["shape"]).copy())
    return _decode(header["tree"], tensors)


def deserialize(data: bytes) -> Any:
    """Decode ``.npt`` bytes back to the object tree."""
    return read_npt(io.BytesIO(data))


@dataclasses.dataclass(frozen=True)
class TensorStub:
    """Header-level description of a tensor payload that was not read.

    Stands in for the ``np.ndarray`` leaves when an object is decoded
    from its header alone (:func:`read_npt_header`) — shape/dtype
    analysis without touching payload bytes.
    """

    dtype: str
    shape: Tuple[int, ...]
    nbytes: int

    @property
    def numel(self) -> int:
        """Element count implied by the shape."""
        n = 1
        for d in self.shape:
            n *= d
        return n


@dataclasses.dataclass(frozen=True)
class TensorIndexEntry:
    """Header-level description of a tensor payload *with its location*.

    Like :class:`TensorStub`, but carrying the payload's absolute byte
    offset inside the ``.npt`` file — the handle a byte-range reader
    needs to ``pread`` any element sub-range of the tensor without
    materializing the file.
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


def read_npt_index(fh: BinaryIO) -> Any:
    """Decode an object tree whose tensor leaves carry file offsets.

    The byte-range counterpart of :func:`read_npt_header`: tensor
    leaves come back as :class:`TensorIndexEntry` with the *absolute*
    file offset of each payload, so a planner can turn (tensor, element
    range) into exact ``pread`` calls.  Only the header bytes are
    consumed from the stream.
    """
    magic = _read_exact(fh, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; not an .npt file")
    header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
    header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    payload_start = _align(len(MAGIC) + 8 + header_len)
    entries = [
        TensorIndexEntry(
            dtype=entry["dtype"],
            shape=tuple(int(d) for d in entry["shape"]),
            offset=payload_start + int(entry["offset"]),
            nbytes=int(entry["nbytes"]),
            crc32=entry.get("crc32"),
        )
        for entry in header["tensors"]
    ]
    return _decode(header["tree"], entries)


def read_npt_header(fh: BinaryIO) -> Any:
    """Decode an object tree from the ``.npt`` header only.

    Tensor leaves come back as :class:`TensorStub` (dtype, shape,
    nbytes) instead of arrays: no payload bytes are read, validated, or
    materialized.  This is what lets the static layout linter inspect a
    rank file's partition metadata and flat-array shapes at header cost
    regardless of checkpoint size.

    Args:
        fh: binary stream positioned at the file start.  Only the magic,
            header length, and header JSON are consumed.
    """
    magic = _read_exact(fh, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; not an .npt file")
    header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
    header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    stubs = [
        TensorStub(
            dtype=entry["dtype"],
            shape=tuple(int(d) for d in entry["shape"]),
            nbytes=int(entry["nbytes"]),
        )
        for entry in header["tensors"]
    ]
    return _decode(header["tree"], stubs)


def validate_npt(data: bytes) -> None:
    """Structurally validate ``.npt`` bytes without materializing arrays.

    Walks the container exactly like :func:`read_npt` — magic, header,
    padding, per-tensor CRC32 — but never copies or reshapes payloads,
    so integrity sweeps over large checkpoints stay cheap.  Raises
    :class:`SerializationError` / :class:`ChecksumError` on any damage.
    """
    fh = io.BytesIO(data)
    magic = _read_exact(fh, len(MAGIC), "magic")
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; not an .npt file")
    header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
    header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    header_block = len(MAGIC) + 8 + header_len
    _read_exact(fh, _align(header_block) - header_block, "header padding")
    cursor = 0
    for index, entry in enumerate(header["tensors"]):
        pad = entry["offset"] - cursor
        if pad:
            _read_exact(fh, pad, "tensor padding")
            cursor += pad
        raw = _read_exact(fh, entry["nbytes"], "tensor payload")
        cursor += entry["nbytes"]
        expected_crc = entry.get("crc32")
        if expected_crc is not None:
            actual = zlib.crc32(raw) & 0xFFFFFFFF
            if actual != expected_crc:
                raise ChecksumError(
                    f"tensor {index} failed CRC32: stored "
                    f"{expected_crc:#010x}, computed {actual:#010x} "
                    f"(corrupt or tampered payload)"
                )
