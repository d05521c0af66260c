"""Checkpoint and UCP directory inspection.

Programmatic summaries (the CLI renders these as text): what kind of
directory this is, which model and topology produced it, a per-pattern
census of the parameters, and an integrity verification pass over every
object file.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.consolidated import CONSOLIDATED_FILE
from repro.ckpt.errors import CheckpointIntegrityError
from repro.ckpt.loader import read_job_config, resolve_tag
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.storage.serializer import SerializationError, validate_npt
from repro.storage.store import ObjectStore


@dataclasses.dataclass(frozen=True)
class PatternCensus:
    """Counts and byte volume per parameter pattern."""

    counts: Dict[str, int]
    elements: Dict[str, int]

    @property
    def total_params(self) -> int:
        """Parameter count across all patterns."""
        return sum(self.counts.values())

    @property
    def total_elements(self) -> int:
        """Element count across all patterns."""
        return sum(self.elements.values())


@dataclasses.dataclass(frozen=True)
class DirectorySummary:
    """What lives at a path.

    Attributes:
        kind: "ucp" | "distributed" | "consolidated" | "unknown".
        model: model config (when identifiable).
        parallel: source topology (distributed/UCP).
        iteration: training step the state captures.
        num_files / total_bytes: on-disk footprint.
        census: per-pattern parameter census (UCP and distributed).
        tag: checkpoint tag (distributed only).
    """

    kind: str
    model: Optional[ModelConfig] = None
    parallel: Optional[ParallelConfig] = None
    iteration: Optional[int] = None
    num_files: int = 0
    total_bytes: int = 0
    census: Optional[PatternCensus] = None
    tag: Optional[str] = None


def _census_from_specs(param_specs: Dict[str, Dict]) -> PatternCensus:
    counts: Dict[str, int] = {}
    elements: Dict[str, int] = {}
    for info in param_specs.values():
        spec = info["spec"] if "spec" in info else info
        pattern = spec["pattern"]
        shape = info.get("shape", spec.get("unpadded_shape", []))
        numel = 1
        for d in shape:
            numel *= d
        counts[pattern] = counts.get(pattern, 0) + 1
        elements[pattern] = elements.get(pattern, 0) + numel
    return PatternCensus(counts=counts, elements=elements)


def _dir_footprint(store: ObjectStore, rel: str = ".") -> Tuple[int, int]:
    files = store.list(rel)
    return len(files), sum((store.base / f).stat().st_size for f in files)


def inspect_directory(directory: str) -> DirectorySummary:
    """Identify and summarize whatever checkpoint lives at a path."""
    store = ObjectStore(directory)
    if store.exists(UCP_META_FILE):
        meta = UCPMetadata.load(store)
        num_files, total_bytes = _dir_footprint(store)
        return DirectorySummary(
            kind="ucp",
            model=ModelConfig.from_dict(meta.model_config),
            parallel=ParallelConfig.from_dict(meta.source_parallel_config),
            iteration=meta.iteration,
            num_files=num_files,
            total_bytes=total_bytes,
            census=_census_from_specs(meta.params),
        )
    if store.exists(CONSOLIDATED_FILE):
        payload = store.load(CONSOLIDATED_FILE)
        num_files, total_bytes = _dir_footprint(store)
        return DirectorySummary(
            kind="consolidated",
            model=ModelConfig.from_dict(payload["model_config"]),
            iteration=int(payload["iteration"]),
            num_files=num_files,
            total_bytes=total_bytes,
        )
    try:
        tag = resolve_tag(store, None)
        job = read_job_config(directory, tag)
    except Exception:
        num_files, total_bytes = _dir_footprint(store)
        return DirectorySummary(
            kind="unknown", num_files=num_files, total_bytes=total_bytes
        )
    num_files, total_bytes = _dir_footprint(store, tag)
    # merge sharding metadata across rank files (each covers one stage),
    # read from their headers: no payload is decoded
    merged: Dict[str, Dict] = {}
    for rel in store.list(tag):
        if naming.OPTIM_STATES_RE.match(rel.rsplit("/", 1)[-1]):
            merged.update(store.load_index(rel)["sharding"])
    census = _census_from_specs(merged) if merged else None
    return DirectorySummary(
        kind="distributed",
        model=ModelConfig.from_dict(job["model_config"]),
        parallel=ParallelConfig.from_dict(job["parallel_config"]),
        iteration=int(job["iteration"]),
        num_files=num_files,
        total_bytes=total_bytes,
        census=census,
        tag=tag,
    )


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of an integrity pass.

    Attributes:
        total: ``.npt`` objects examined.
        corrupt: (rel path, problem) for objects that fail structural
            or digest verification.
        missing: (rel path, problem) for files a commit manifest (or
            the ``latest`` pointer) records but the disk lacks.
        manifests: commit manifests found and cross-checked.
    """

    total: int
    corrupt: List[Tuple[str, str]]
    missing: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    manifests: int = 0

    @property
    def ok(self) -> bool:
        """True when every object read back cleanly and none is lost."""
        return not self.corrupt and not self.missing and self.total > 0


def verify_directory(directory: str, deep: bool = True) -> VerificationReport:
    """Integrity-check every ``.npt`` object under a directory.

    The per-tag manifest cross-check (presence, size, and — when deep —
    digest of every recorded file) is
    :func:`~repro.ckpt.manifest.check_files`, the one the layout linter
    reports too; this function only adds the byte-level structural sweep
    (magic, header, per-tensor CRC32 — without materializing arrays) and
    the ``latest`` pointer check.  With ``deep=False`` only sizes and
    presence are checked, which costs stat calls rather than full reads.
    """
    store = ObjectStore(directory)
    files = [f for f in store.list() if f.endswith(".npt")]
    corrupt: List[Tuple[str, str]] = []
    missing: List[Tuple[str, str]] = []

    manifests: Dict[str, Dict] = {}
    for rel in files:
        parts = rel.split("/")
        if len(parts) == 2 and parts[1] == naming.MANIFEST_FILE:
            try:
                manifests[parts[0]] = manifest_mod.require_manifest(
                    store, parts[0]
                )
            except CheckpointIntegrityError as exc:
                corrupt.append((rel, str(exc)))

    flagged: set = set()
    for tag in sorted(manifests):
        problems = manifest_mod.check_files(store, tag, manifests[tag], deep)
        for rel, why in problems.items():
            flagged.add(rel)
            (missing if why == manifest_mod.ABSENT else corrupt).append((rel, why))

    if deep:
        for rel in files:
            parts = rel.split("/")
            if len(parts) == 2 and parts[1] == naming.MANIFEST_FILE:
                continue  # verified (and CRC-checked) above
            if rel in flagged:
                continue  # already reported by the manifest cross-check
            try:
                data = (store.base / rel).read_bytes()
            except OSError as exc:
                corrupt.append((rel, str(exc)))
                continue
            try:
                validate_npt(data)
            except SerializationError as exc:
                corrupt.append((rel, str(exc)))

    if store.exists(naming.LATEST_FILE):
        try:
            tag = resolve_tag(store, None)
        except CheckpointIntegrityError as exc:
            corrupt.append((naming.LATEST_FILE, str(exc)))
        else:
            if not (store.base / tag).is_dir():
                missing.append(
                    (naming.LATEST_FILE,
                     f"points at tag {tag!r} which does not exist")
                )
            elif tag not in manifests:
                corrupt.append(
                    (naming.LATEST_FILE,
                     f"points at tag {tag!r} which has no commit manifest")
                )

    return VerificationReport(
        total=len(files),
        corrupt=corrupt,
        missing=missing,
        manifests=len(manifests),
    )
