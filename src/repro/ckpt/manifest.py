"""Per-tag commit manifests: the crash-consistency record of a save.

A distributed save writes many independent rank files; without a commit
protocol a crash mid-save can leave a directory that *looks* complete.
The manifest closes that window:

1. every data file is committed (temp file + atomic rename) and its
   size + SHA-256 recorded;
2. ``<tag>/manifest.npt`` is committed with the full table — this is
   the tag's durable commit point;
3. only then is the ``latest`` marker atomically advanced.

Readers treat a manifest-less tag as uncommitted, and verify each file
they consume against its manifest entry, so a torn save is *never*
silently loaded — recovery either lands on the previous committed tag
or raises :class:`CheckpointIntegrityError`.

The protocol is not trusted on faith: the crash-state check
(``repro lint-trace --crashed``) replays recorded save traces to prove
steps 1-3 actually survive every crash the persistence model permits,
and the save-ordering tests pin the manifest's publish ahead of the
``latest`` write.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError
from repro.storage.serializer import SerializationError, deserialize
from repro.storage.store import ObjectStore, sha256_hex

MANIFEST_VERSION = 1


def manifest_path(tag: str) -> str:
    """Store-relative path of a tag's manifest."""
    return f"{tag}/{naming.MANIFEST_FILE}"


def write_manifest(
    store: ObjectStore, tag: str, files: Dict[str, Dict]
) -> int:
    """Commit a tag's manifest; returns bytes written.

    Args:
        store: checkpoint-root store.
        tag: the tag being committed.
        files: basename -> {"nbytes": int, "sha256": hex} for every
            data file the save wrote under the tag.
    """
    payload = {"format_version": MANIFEST_VERSION, "tag": tag, "files": files}
    return store.save(manifest_path(tag), payload)


def read_manifest(store: ObjectStore, tag: str) -> Optional[Dict]:
    """A tag's manifest payload, or None when the tag is uncommitted.

    Raises:
        CheckpointIntegrityError: the manifest exists but is unreadable,
            from an unsupported version, or its file table is not
            basename -> ``{nbytes: int >= 0, sha256: 64 hex digits}`` —
            the commit record itself is damaged, so nothing under the
            tag can be trusted.
    """
    rel = manifest_path(tag)
    if not store.exists(rel):
        return None
    try:
        payload = store.load(rel)
    except SerializationError as exc:
        raise CheckpointIntegrityError(
            f"{rel}: commit manifest is corrupt: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointIntegrityError(
            f"{rel}: commit manifest is corrupt: decodes to "
            f"{type(payload).__name__}, not a mapping"
        )
    version = payload.get("format_version")
    if version != MANIFEST_VERSION:
        raise CheckpointIntegrityError(
            f"{rel}: unsupported manifest version {version!r}; this build "
            f"reads version {MANIFEST_VERSION}"
        )
    # the file table is checked once, here: every reader indexes it as is
    files = payload.get("files")
    if not isinstance(files, dict) or not all(
        isinstance(entry, dict)
        and type(entry.get("nbytes")) is int and entry["nbytes"] >= 0
        and isinstance(entry.get("sha256"), str)
        and re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])
        for entry in files.values()
    ):
        raise CheckpointIntegrityError(
            f"{rel}: commit manifest is corrupt: its file table is not "
            f"basename -> {{nbytes: int >= 0, sha256: 64 hex digits}}"
        )
    return payload


def require_manifest(store: ObjectStore, tag: str) -> Dict:
    """A tag's manifest, or a typed error for uncommitted tags."""
    manifest = read_manifest(store, tag)
    if manifest is None:
        raise CheckpointIntegrityError(
            f"tag {tag!r} in {store.base} has no commit manifest: the save "
            f"that produced it never completed (or predates the commit "
            f"protocol); refusing to load a torn checkpoint"
        )
    return manifest


def manifest_entry(manifest: Optional[Dict], basename: str) -> Optional[Dict]:
    """The manifest record for one file, if the manifest covers it."""
    if manifest is None:
        return None
    return manifest["files"].get(basename)


def load_verified(
    store: ObjectStore, rel_path: str, entry: Optional[Dict]
) -> Any:
    """Read + deserialize one object, verifying its manifest entry.

    The bytes are read once: digest-checked against the commit record
    (when ``entry`` is present), then decoded.  Structural damage the
    serializer finds (truncation, bad magic, CRC failures) and digest
    mismatches both surface as :class:`CheckpointIntegrityError` whose
    message names the root cause.

    Raises:
        FileNotFoundError: no object at the path.
        CheckpointIntegrityError: digest mismatch or malformed bytes.
    """
    data = store.read_bytes(rel_path)
    if entry is not None and (
        len(data) != entry["nbytes"] or sha256_hex(data) != entry["sha256"]
    ):
        # root-cause the mismatch: torn/corrupt bytes parse loudly,
        # while a well-formed file means out-of-band modification
        try:
            deserialize(data)
        except SerializationError as exc:
            raise CheckpointIntegrityError(f"{rel_path}: {exc}") from exc
        raise CheckpointIntegrityError(
            f"{rel_path}: content digest mismatch: the manifest recorded "
            f"{entry['nbytes']} bytes / sha256 {entry['sha256'][:12]}…, "
            f"found {len(data)} bytes / {sha256_hex(data)[:12]}… — the "
            f"object was modified after commit"
        )
    try:
        return deserialize(data)
    except SerializationError as exc:
        raise CheckpointIntegrityError(f"{rel_path}: {exc}") from exc


def verify_streaming(reader, rel_path: str, entry: Optional[Dict]) -> None:
    """Load one object through a range reader, verifying it as it streams.

    The streaming counterpart of :func:`load_verified`'s integrity
    check, and the ``verify`` step of a
    :class:`~repro.storage.rangeio.RangeReader` load: ``reader.digest``
    reads the file once, sequentially, into the source-file table while
    hashing it, and the table serves consumers only after this function
    returned — the verified bytes are the bytes extraction slices, with
    no second read.

    Raises:
        FileNotFoundError: no object at the path.
        CheckpointIntegrityError: size or digest mismatch vs the
            manifest entry.
    """
    if entry is None:
        reader.digest(rel_path)
        return
    nbytes = reader.store.size(rel_path)
    if nbytes != entry["nbytes"]:
        raise CheckpointIntegrityError(
            f"{rel_path}: size mismatch: the manifest recorded "
            f"{entry['nbytes']} bytes, found {nbytes} — the object "
            f"was modified after commit"
        )
    digest = reader.digest(rel_path)
    if digest != entry["sha256"]:
        raise CheckpointIntegrityError(
            f"{rel_path}: content digest mismatch: the manifest recorded "
            f"sha256 {entry['sha256'][:12]}…, computed {digest[:12]}… — "
            f"the object was modified after commit"
        )


def refresh_entry(store: ObjectStore, tag: str, basename: str) -> None:
    """Re-record one file's size/digest from its current bytes.

    Maintenance hook for legitimate out-of-band edits (offline repair,
    metadata surgery): after rewriting ``<tag>/<basename>``, call this
    to re-commit the manifest so integrity checks reflect the new
    content.
    """
    manifest = require_manifest(store, tag)
    rel = f"{tag}/{basename}"
    data = store.read_bytes(rel)
    manifest["files"][basename] = {
        "nbytes": len(data),
        "sha256": sha256_hex(data),
    }
    store.save(manifest_path(tag), manifest)


ABSENT = "recorded in the commit manifest but absent on disk"


def check_files(
    store: ObjectStore, tag: str, manifest: Dict, deep: bool = True
) -> Dict[str, str]:
    """The one presence / size / digest check of a committed tag: rel
    path -> problem (:data:`ABSENT`, a size or — with ``deep`` — a
    SHA-256 mismatch) per recorded file, in name order."""
    problems: Dict[str, str] = {}
    for basename in sorted(manifest["files"]):
        entry, rel = manifest["files"][basename], f"{tag}/{basename}"
        if not store.exists(rel):
            problems[rel] = ABSENT
        elif store.size(rel) != entry["nbytes"]:
            problems[rel] = (
                f"size mismatch: manifest records {entry['nbytes']} bytes, "
                f"found {store.size(rel)}"
            )
        elif deep and store.digest(rel) != entry["sha256"]:
            problems[rel] = "sha256 digest mismatch vs commit manifest"
    return problems


def verify_tag(store: ObjectStore, tag: str, deep: bool = True) -> Dict[str, str]:
    """:func:`check_files` of a committed tag against its own manifest."""
    return check_files(store, tag, require_manifest(store, tag), deep)
