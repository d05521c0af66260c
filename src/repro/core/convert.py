"""Distributed checkpoint -> UCP conversion (paper Algorithm 1).

The converter runs lazily and on demand — only when a resume needs a
different parallelism strategy — so normal training pays nothing for
UCP (the paper's zero-save-overhead claim).  Phases:

1. **Extract** every ``optim_states`` rank file into parameter-state
   fragments (independent per file; optionally threaded).
2. **Union** each parameter's fragments by its pattern from the UCP
   language program (independent per parameter; optionally threaded —
   the paper's parallelism/memory trade-off).
3. **StripPadding** and write one atom per parameter, plus global
   metadata.

No rank file is ever decoded.  Once the byte-provenance pre-flight has
proven the source sound, its interval maps are lowered into
per-parameter *read plans* — exact ``(file, element range) ->
consolidated range`` slices — and the plans fix the read side before
the first payload byte moves: which atoms consume which optimizer files
and in what order.  Each touched file is loaded exactly once, by the
first atom that needs it: one sequential read through
:class:`~repro.storage.rangeio.RangeReader`, hashed as it streams and
checked against its manifest entry before any consumer sees a byte;
every consumer scatters straight out of read-only slices of that one
buffer, and the buffer leaves the source-file table
(:class:`~repro.storage.rangeio.BlockCache`) when its last planned
consumer is assembled.  Per-atom results are written as soon as they
consolidate, so in-flight memory is one file group plus the workers'
atoms, not the checkpoint.  The in-memory operators of
:mod:`repro.core.ops` stay the reference semantics the pipeline is
tested byte-for-byte against (``tests/reference_convert.py``).

Conversion is crash-consistent and resumable: the source tag must be
committed (its manifest is required, and every rank file is verified
against it before use), ``ucp_meta.npt`` is written last as the
destination's commit point, and a re-run after a mid-conversion crash
reuses every atom that already exists and passes its integrity check —
provided a source-identity marker proves the partial output came from
the *same* committed source.

Durability is a *group, write-behind* protocol.  An atom's four files
are one :class:`~repro.storage.store.CommitGroup`: a fan-out worker only
stages them (``*.tmp`` in the page cache) and moves on to the next atom,
while a commit pool of as many threads publishes the groups behind it —
fsync the four temps, rename them (sidecar last), fsync the atom
directory.  Nothing before ``ucp_meta.npt`` needs to be durable any
earlier than ``ucp_meta.npt`` itself: the commit step drains every
publish and fsyncs ``atoms/`` first, and a resumed run trusts an atom
only after re-reading it CRC-checked, never because it is there.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import os
import re
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import LayoutLintError, LintReport, error
from repro.analysis.interchange import preflight_convert
from repro.analysis.provenance import (
    ExtentTable,
    ProvenanceAnalysis,
    analyze_source,
)
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.core.atom import ATOMS_DIR, STATE_KINDS, AtomCheckpoint, AtomStore
from repro.core.errors import PatternMatchError, UCPError, UCPFormatError
from repro.core.intervals import (
    data_bounds,
    intersect_tilings,
    numel as _numel,
)
from repro.core.metadata import UCPMetadata
from repro.core.ops import _KIND_TO_FIELD, strip_padding
from repro.core.patterns import PatternProgram, program_for_config
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.sp import average_param_copies
from repro.parallel.tp import (
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    ShardSpec,
)
from repro.storage.rangeio import BlockCache, RangeReader
from repro.storage.serializer import SerializationError, TensorIndexEntry
from repro.storage.store import CommitGroup, ObjectStore

_OPTIM_FILE_RE = re.compile(r"^zero_dp_rank_(\d+)_mp_rank_(\d+)_optim_states\.npt$")

CONVERT_SOURCE_FILE = "ucp_convert_source.npt"
"""Marker recording which committed source a (possibly partial)
conversion was produced from; gates atom reuse on resume."""


@dataclasses.dataclass(frozen=True)
class ConversionReport:
    """Metrics from one conversion run.

    ``num_reused`` counts atoms carried over from a previous
    (interrupted) conversion of the same committed source — they were
    verified, not rewritten.  ``total_seconds`` is the run's wall
    clock.  ``bytes_read`` / ``bytes_written`` are the
    source/destination store's real byte deltas for this run (headers,
    digest verification, and payload all included), so a conversion can
    *prove* it read less than the full source checkpoint.
    ``peak_window_bytes`` is the largest single store read the run
    issued (at most :data:`~repro.storage.rangeio.WINDOW_AUTO_CAP_BYTES`)
    and ``peak_resident_bytes`` the observed high-water mark of source
    bytes held in the source-file table — the files with a planned
    consumer still pending, never the whole source.

    Byte decomposition: ``bytes_read`` splits into ``header_bytes``
    (manifest + job config + the header-only index pass),
    ``digest_bytes`` (every touched file read and hashed exactly once)
    and nothing else: the extract phase slices the verified buffers.
    ``planned_state_bytes`` is the
    per-rank state payload the lowered plans actually consume (all
    three state kinds) — the number the paper's ~0.25× fraction claim
    is about.  It is *not* a disk-read counter, so it can legitimately
    be smaller than ``bytes_read`` while digest verification hashes
    whole files; keeping the two separate is what stops the metrics
    from contradicting each other.

    Stage/syscall counters: ``stage_seconds`` maps ``plan`` / ``lower``
    / ``finalize`` to wall seconds on the calling thread and ``digest``
    / ``read`` / ``assemble`` / ``write`` to seconds *summed across
    worker threads* (stages overlap, so the sum can exceed
    :attr:`total_seconds`).  ``write`` is serialize -> published and
    durable: a worker's staging plus the group publish, whichever thread
    ran it; waiting for the commit pool to drain is ``finalize``.
    ``num_preads`` counts positioned reads issued to the store (one per
    touched file and read window).  ``ranges_coalesced`` is 0: a planned
    range is a slice of a resident file, so there are no range requests
    left to merge (the field stays for ``benchmarks/e2e/trace.py``).
    """

    source_tag: str
    num_files: int
    num_params: int
    atom_bytes: int
    total_seconds: float
    simulated_read_s: float
    simulated_write_s: float
    num_reused: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    peak_window_bytes: int = 0
    peak_resident_bytes: int = 0
    num_preads: int = 0
    ranges_coalesced: int = 0
    header_bytes: int = 0
    digest_bytes: int = 0
    planned_state_bytes: int = 0
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)


def _optim_files(store: ObjectStore, tag: str) -> List[str]:
    files = []
    for rel in store.list(tag):
        base = rel.split("/")[-1]
        if _OPTIM_FILE_RE.match(base):
            files.append(rel)
    if not files:
        raise UCPFormatError(f"no optimizer-state files under tag {tag!r}")
    return files


def _resolve_workers(workers: Optional[int]) -> int:
    """CPU-aware worker count: ``None`` means ``min(8, cpu_count)``.

    Explicit ``0``/``1`` stay serial; explicit counts are respected.
    The *output bytes* are the same at any count — the parallel map
    preserves input order regardless of completion order.  Which atoms
    have landed when a run dies is only fixed at ``0``/``1``.  Above 1
    the same count also sizes the commit pool (:class:`_CommitPool`).
    """
    if workers is None:
        return min(8, os.cpu_count() or 1)
    return workers


def _map_maybe_parallel(fn, items, workers: int):
    if workers and workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclasses.dataclass(frozen=True, eq=False)
class SliceBlock:
    """All slices of one plan targeting one ``(file, field)``, columnar.

    Row ``i`` of the three parallel int64 arrays says ``lengths[i]``
    elements starting at element ``file_starts[i]`` of the flat array
    ``field`` in ``file`` land at consolidated elements
    ``[full_starts[i], full_starts[i] + lengths[i])``.  Rows are sorted
    into sequential file order.  Keeping the plan columnar lets the
    converter bounds-check and scatter whole blocks with
    numpy index operations instead of per-slice Python loops — the
    per-range overhead that dominates conversion wall-clock at mini
    scale.
    """

    file: str
    field: str
    file_starts: np.ndarray
    lengths: np.ndarray
    full_starts: np.ndarray

    @property
    def planned_elements(self) -> int:
        """Total elements the block reads (per state kind)."""
        return int(self.lengths.sum())


@dataclasses.dataclass(frozen=True)
class ParamReadPlan:
    """Everything the converter reads for one parameter.

    ``primary`` covers the selected copies (what ``union`` consumes);
    ``copies`` the non-selected mp-coordinate replicas the pattern
    additionally demands (all of them for ``params_to_average``, all
    of them under ``verify_replicas`` for ``replicated_params``, none
    otherwise).  All slices are pre-clipped to the parameter's
    non-padding data intervals, so a plan never reads a padding byte —
    the runtime enforcement of UCP019.
    """

    name: str
    pattern: str
    primary: Tuple[SliceBlock, ...]
    copies: Tuple[Tuple[Tuple[int, int, int], Tuple[SliceBlock, ...]], ...]

    @property
    def files(self) -> Tuple[str, ...]:
        """Every source file any slice of this plan touches, sorted."""
        rels = {b.file for b in self.primary}
        for _, blocks in self.copies:
            rels.update(b.file for b in blocks)
        return tuple(sorted(rels))

    @property
    def planned_elements(self) -> int:
        """Total fp32 elements the plan reads (per state kind)."""
        total = sum(b.planned_elements for b in self.primary)
        for _, blocks in self.copies:
            total += sum(b.planned_elements for b in blocks)
        return total


def _build_blocks(
    extents: ExtentTable,
    rows_ext: np.ndarray,
    file_starts: np.ndarray,
    lengths: np.ndarray,
    full_starts: np.ndarray,
) -> Tuple[SliceBlock, ...]:
    """Group clipped slice rows into per-(file, field) blocks.

    ``rows_ext`` maps each row to the extent (hence file/field) it was
    clipped from; blocks come out in order of first appearance among the
    extents, the rows of one block sorted by ``file_starts`` so the
    downstream scatter walks each file forward.
    """
    fields = [(src[0], src[1]) for src in extents.sources]
    if len(set(fields)) == 1:
        # one source (file, field) for the whole part (a dp1 source, a
        # replica copy): skip the group-id machinery entirely
        rel, field = fields[0]
        order = np.argsort(file_starts, kind="stable")
        return (SliceBlock(
            file=rel,
            field=field,
            file_starts=file_starts[order],
            lengths=lengths[order],
            full_starts=full_starts[order],
        ),)
    groups: Dict[Tuple[str, str], int] = {}
    for i in _first_appearance(extents.source):
        groups.setdefault(fields[i], len(groups))
    gid_of_source = np.array(
        [groups.get(key, -1) for key in fields], dtype=np.int64
    )
    row_gid = gid_of_source[extents.source[rows_ext]]
    blocks: List[SliceBlock] = []
    for (rel, field), gid in groups.items():
        mask = row_gid == gid
        if not mask.any():
            continue
        fs, ln, fu = file_starts[mask], lengths[mask], full_starts[mask]
        order = np.argsort(fs, kind="stable")
        blocks.append(SliceBlock(
            file=rel,
            field=field,
            file_starts=fs[order],
            lengths=ln[order],
            full_starts=fu[order],
        ))
    return tuple(blocks)


def _first_appearance(ids: np.ndarray) -> List[int]:
    """The distinct values of ``ids`` in order of first appearance."""
    values, first = np.unique(ids, return_index=True)
    return values[np.argsort(first, kind="stable")].tolist()


_GROUP_STRIDE = np.int64(1) << 41
"""Element-space stride separating lowering jobs inside the one batched
searchsorted domain — far above any real parameter's element count."""


def _lower_batch(
    jobs: Sequence[Tuple[ExtentTable, Tuple[np.ndarray, np.ndarray]]]
) -> List[Tuple[SliceBlock, ...]]:
    """Clip many (extents, data bounds) jobs in one vectorized pass.

    Each job intersects its provenance extents with its sorted disjoint
    non-padding data intervals (:func:`~repro.core.intervals.intersect_tilings`).
    Every job's extent and data intervals are shifted into a private
    ``_GROUP_STRIDE``-wide window of one shared element space, so that
    single pass lowers the whole conversion's plans — the per-call
    numpy dispatch overhead that dominated per-parameter lowering is
    paid once, not once per (parameter, replica) pair.  The extents
    arrive columnar from the provenance composition and stay so.
    """
    out: List[Tuple[SliceBlock, ...]] = [() for _ in jobs]
    live = [
        (i, ext, d_lo, d_hi)
        for i, (ext, (d_lo, d_hi)) in enumerate(jobs)
        if len(ext) and d_lo.size
    ]
    if not live:
        return out
    index, tables, lows, highs = zip(*live)
    ext_counts = np.array([len(table) for table in tables], dtype=np.int64)
    d_counts = np.array([low.size for low in lows], dtype=np.int64)
    first_ext = np.concatenate(([0], np.cumsum(ext_counts)))
    bases = np.arange(len(live), dtype=np.int64) * _GROUP_STRIDE
    e_base = np.repeat(bases, ext_counts)
    e_lo = np.concatenate([table.full_start for table in tables]) + e_base
    e_hi = np.concatenate([table.full_end for table in tables]) + e_base
    f0 = np.concatenate([table.file_start for table in tables])
    d_base = np.repeat(bases, d_counts)
    d_lo = np.concatenate(lows) + d_base
    d_hi = np.concatenate(highs) + d_base
    ext, _, lo, hi = intersect_tilings(e_lo, e_hi, d_lo, d_hi)
    if ext.size == 0:
        return out
    lengths = hi - lo
    file_starts = f0[ext] + (lo - e_lo[ext])
    full_starts = lo - e_base[ext]
    # rows come out sorted by global extent index, so each job's rows
    # are one contiguous stretch
    cut = np.searchsorted(ext, first_ext)
    for k, gi in enumerate(index):
        a, b = int(cut[k]), int(cut[k + 1])
        if a == b:
            continue
        out[gi] = _build_blocks(
            tables[k],
            ext[a:b] - first_ext[k],
            file_starts[a:b],
            lengths[a:b],
            full_starts[a:b],
        )
    return out


def lower_read_plans(
    analysis: ProvenanceAnalysis,
    names: Optional[Sequence[str]] = None,
    verify_replicas: bool = True,
    patterns: Optional[Dict[str, str]] = None,
) -> Dict[str, ParamReadPlan]:
    """Lower provenance interval maps into per-parameter read plans.

    The maps were proven sound by the UCP017–UCP022 theorems (coverage,
    exclusivity, padding hygiene), so the lowered plans inherit the
    guarantee: executing exactly these preads touches every consolidated
    data byte of every selected copy once, and no padding byte ever.

    Args:
        analysis: a *clean* (``report.ok``) source provenance analysis.
        names: parameters to plan (default: all analyzed).
        verify_replicas: include replica reads for ``replicated_params``
            so the converter can bit-compare them; ``False`` plans the
            primary copy only, so the replica files are never read.
        patterns: per-parameter pattern overrides from the resolved
            UCP-language program — a custom program may e.g. reclassify
            a replicated norm as ``params_to_average``, which changes
            *which* copies the plan must read (default: the analyzed
            layout's patterns).
    """
    ordered = sorted(analysis.params) if names is None else list(names)
    jobs = []
    meta: List[Tuple[str, str, List[Tuple[int, int, int]]]] = []
    for name in ordered:
        prov = analysis.params[name]
        pattern = prov.spec.pattern
        if patterns is not None and name in patterns:
            pattern = patterns[name]
        # one parameter's primary part and every replica copy clip
        # against the same (per shape class) data intervals
        bounds = data_bounds(prov.spec)
        coords: List[Tuple[int, int, int]] = []
        if pattern == PATTERN_TO_AVERAGE or (
            pattern == PATTERN_REPLICATED and verify_replicas
        ):
            coords = sorted(prov.replicas)
        meta.append((name, pattern, coords))
        jobs.append((prov.extents, bounds))
        for coord in coords:
            jobs.append((prov.replicas[coord], bounds))
    lowered = _lower_batch(jobs)
    plans: Dict[str, ParamReadPlan] = {}
    j = 0
    for name, pattern, coords in meta:
        primary = lowered[j]
        j += 1
        copies: List[Tuple[Tuple[int, int, int], Tuple[SliceBlock, ...]]] = []
        for coord in coords:
            copies.append((coord, lowered[j]))
            j += 1
        plans[name] = ParamReadPlan(
            name=name,
            pattern=pattern,
            primary=primary,
            copies=tuple(copies),
        )
    return plans


def _index_entry(
    tree: Dict, field: str, kind: str, rel: str
) -> TensorIndexEntry:
    """Resolve a provenance field + state kind to a tensor index entry."""
    node = None
    if field in _KIND_TO_FIELD.values():
        node = tree.get(_KIND_TO_FIELD[kind])
    elif field.startswith("param_states.fp32."):
        pname = field[len("param_states.fp32."):]
        states = tree.get("param_states")
        if isinstance(states, dict):
            node = states.get(kind, {}).get(pname)
    if not isinstance(node, TensorIndexEntry):
        raise UCPFormatError(
            f"{rel}: no {kind!r} tensor behind provenance field {field!r}"
        )
    if np.dtype(node.dtype) != np.float32:
        raise UCPFormatError(
            f"{rel}: {kind!r} state behind {field!r} stored as "
            f"{node.dtype}; conversion requires float32 "
            f"(byte-exact) state arrays"
        )
    return node


_GATHER_INDEX_THRESHOLD = 8
"""Slice count above which a block scatters through precomputed index
arrays (one fancy-index assignment) instead of a per-slice copy loop.
Below it the loop is cheaper than building the indices: the index
arrays cost ~6 numpy ops to build but are reused across all three
state kinds, so the break-even sits at a handful of slices."""

_GATHER_INDEX_MAX_AVG_ELEMS = 1024
"""Mean slice length (elements) above which fancy indexing loses to a
per-slice contiguous copy.  Element-index gather moves one element per
index (and materializes int64 index arrays as large as the data); a
contiguous ``arr[a:b] = view[c:d]`` is a memcpy.  The loop's ~µs of
Python per slice amortizes once slices reach a few KiB, so only blocks
of many *small* slices take the index path."""


class _BlockGather:
    """The scatter of one :class:`SliceBlock`, straight from the file.

    Built once per block and reused across all three state kinds: the
    flat ``fp32``/``exp_avg``/``exp_avg_sq`` buffers share one segment
    map, so only the tensor-index byte offset differs per kind.  The
    source is one slice of the resident file — elements ``[lo, hi)`` of
    the field, from the block's first slice to its furthest end, so it
    never reaches past the field bytes the plan proved in-bounds.
    """

    __slots__ = ("lo", "hi", "rows", "dest_idx", "src_idx")

    def __init__(self, block: SliceBlock) -> None:
        fs, ln, fu = block.file_starts, block.lengths, block.full_starts
        self.lo = int(fs[0])  # rows are sorted into file order
        self.hi = int((fs + ln).max())
        n = int(fs.size)
        total = int(ln.sum())
        self.rows = self.dest_idx = self.src_idx = None
        if (
            n > _GATHER_INDEX_THRESHOLD
            and total < n * _GATHER_INDEX_MAX_AVG_ELEMS
        ):
            pos = np.arange(total) - np.repeat(np.cumsum(ln) - ln, ln)
            self.dest_idx = np.repeat(fu, ln) + pos
            self.src_idx = np.repeat(fs - self.lo, ln) + pos
        else:
            # (source start, destination start, length) per slice
            self.rows = list(zip(
                (fs - self.lo).tolist(), fu.tolist(), ln.tolist()
            ))

    def byte_range(self, entry: TensorIndexEntry) -> Tuple[int, int]:
        """Absolute ``(offset, length)`` of the source slice."""
        return entry.element_range(self.lo, self.hi - self.lo)

    def scatter(self, arr: np.ndarray, buf: memoryview) -> None:
        """Scatter the source slice into the consolidated array.

        The float32 view over the (read-only) file bytes is consumed in
        place — the only copy on the whole path is the assignment into
        ``arr`` itself.
        """
        view = np.frombuffer(buf, dtype=np.float32)
        if self.rows is None:
            arr[self.dest_idx] = view[self.src_idx]
            return
        for src, dst, length in self.rows:
            arr[dst:dst + length] = view[src:src + length]


def _verify_source_commit(
    store: ObjectStore, tag: str, manifest: Dict, files: List[str]
) -> None:
    """Cross-check a committed tag's rank files against its manifest.

    A committed tag whose manifest lists an optimizer-state file the
    disk no longer has would otherwise convert *silently wrong* — the
    missing ranks' fragments would simply be absent from the union.
    """
    on_disk = {rel.split("/")[-1] for rel in files}
    for basename in sorted(manifest["files"]):
        if _OPTIM_FILE_RE.match(basename) and basename not in on_disk:
            raise CheckpointIntegrityError(
                f"missing rank file {tag}/{basename}: it is recorded in the "
                f"commit manifest but absent on disk; converting without it "
                f"would drop that rank's optimizer state"
            )


def _rank_label(rel: str) -> str:
    """Human rank coordinates of an optimizer-state file path."""
    match = _OPTIM_FILE_RE.match(rel.split("/")[-1])
    if match is None:
        return rel
    return f"dp_rank {int(match.group(1))} / mp_rank {int(match.group(2))}"


def _diverging_keys(a: Optional[Dict], b: Optional[Dict]) -> List[str]:
    """Keys on which two (possibly absent) state dicts disagree."""
    if a is None or b is None:
        return ["<entire state>"]
    return sorted(
        k for k in set(a) | set(b)
        if k not in a or k not in b or a[k] != b[k]
    )


def _check_cross_rank_consistency(
    files: List[str], payloads: List[Dict]
) -> Tuple[Dict, Optional[Dict]]:
    """Adam hyperparameters and loss-scaler state, asserted rank-uniform.

    Every rank file records the job-wide Adam hyperparameters and loss
    scaler; a disagreement means the tag mixes incompatible optimizer
    states (e.g. files spliced from different runs) and silently
    picking one would corrupt the converted checkpoint.  Each
    divergence is reported as a UCP015 diagnostic naming *which* ranks
    and *which* hyperparameter disagree, aggregated into one
    :class:`LayoutLintError` so no mismatch hides behind another.
    """
    report = LintReport(subject="cross-rank consistency")
    ref_rel = files[0]
    adam_hyper: Dict = payloads[0]["adam"]
    scaler_state: Optional[Dict] = payloads[0].get("loss_scaler")
    for rel, payload in zip(files[1:], payloads[1:]):
        adam = payload["adam"]
        if adam != adam_hyper:
            keys = _diverging_keys(adam_hyper, adam)
            detail = ", ".join(
                f"{k}: {adam_hyper.get(k)!r} vs {adam.get(k)!r}" for k in keys
            )
            report.add(error(
                "UCP015",
                f"adam hyperparameters disagree across rank files: "
                f"{_rank_label(rel)} differs from {_rank_label(ref_rel)} "
                f"on {detail}; the tag mixes optimizer states from "
                f"incompatible runs",
                location=rel,
            ))
        scaler = payload.get("loss_scaler")
        if scaler != scaler_state:
            keys = _diverging_keys(scaler_state, scaler)
            report.add(error(
                "UCP015",
                f"loss-scaler state disagrees across rank files: "
                f"{_rank_label(rel)} differs from {_rank_label(ref_rel)} "
                f"on {', '.join(keys)} ({scaler_state} vs {scaler}); the "
                f"tag mixes optimizer states from incompatible runs",
                location=rel,
            ))
    if not report.ok:
        raise LayoutLintError(report, prefix="source tag is inconsistent")
    return adam_hyper, scaler_state


def _reusable_atom_entry(
    atom_store: AtomStore, name: str, spec: ShardSpec
) -> Optional[Dict]:
    """A previously written atom's metadata entry, iff it can be trusted.

    Reusable means: the metadata sidecar and all three state files
    exist, decode cleanly (per-tensor CRC checked by the serializer),
    and match the spec the current conversion resolved for the
    parameter.  Anything less re-converts the atom from source.
    """
    try:
        meta = atom_store.read_meta(name)
        kinds = meta.get("kinds")
        if kinds is None or sorted(kinds) != sorted(STATE_KINDS):
            return None
        if meta.get("spec") != spec.to_dict():
            return None
        shape = tuple(meta.get("shape", ()))
        for kind in STATE_KINDS:
            if tuple(atom_store.read_state(name, kind).shape) != shape:
                return None
    except (UCPError, SerializationError):
        return None
    return {
        "shape": [int(d) for d in shape],
        "spec": meta["spec"],
        "kinds": sorted(kinds),
    }


def _verify_source(
    src_store: ObjectStore, src_tag: str, ckpt_dir: str
) -> Tuple[Dict, List[str], Dict, ProvenanceAnalysis]:
    """Plan: manifest, rank files, job config and provenance analysis of
    a committed source.  The pipeline is *gated on the provenance
    theorems*: only a source whose interval maps were proven sound
    (UCP017-UCP022) is converted — the read plans are lowered from them.
    """
    src_manifest = manifest_mod.require_manifest(src_store, src_tag)
    files = _optim_files(src_store, src_tag)
    _verify_source_commit(src_store, src_tag, src_manifest, files)

    job_rel = f"{src_tag}/{naming.JOB_CONFIG_FILE}"
    if not src_store.exists(job_rel):
        raise CheckpointNotFoundError(f"missing {job_rel} in {ckpt_dir}")
    job_config = manifest_mod.load_verified(
        src_store,
        job_rel,
        manifest_mod.manifest_entry(src_manifest, naming.JOB_CONFIG_FILE),
    )
    model_cfg = ModelConfig.from_dict(job_config["model_config"])
    source_cfg = ParallelConfig.from_dict(job_config["parallel_config"])
    optimizer_layout = job_config.get("optimizer_layout", "flat")

    analysis = analyze_source(
        src_store, src_tag, model_cfg, source_cfg, optimizer_layout
    )
    # mandatory pre-flight: prove the source layout self-consistent and
    # the commit manifest structurally complete before reading a single
    # tensor — a doomed conversion is refused at header cost
    preflight = preflight_convert(
        src_store,
        src_tag,
        src_manifest,
        model_cfg,
        source_cfg,
        optimizer_layout,
        analysis=analysis,
    )
    if not preflight.ok:
        # root-cause before reporting: a semantic lint finding on a
        # file that was modified after commit is tampering, not a bad
        # layout — digest-verify the rank files (failure path only, so
        # the full reads cost nothing on healthy conversions) and let
        # the integrity error win
        for rel in files:
            manifest_mod.load_verified(
                src_store,
                rel,
                manifest_mod.manifest_entry(src_manifest, rel.split("/")[-1]),
            )
        raise LayoutLintError(
            preflight, prefix=f"conversion pre-flight failed for {src_tag}"
        )
    return src_manifest, files, job_config, analysis


def _resolve_specs(
    program: PatternProgram,
    names: List[str],
    trees: Dict[str, Dict],
    strict_spec_check: bool,
) -> Dict[str, ShardSpec]:
    """Plan: every parameter's spec through the UCP-language program."""
    shapes: Dict[str, Dict] = {}
    for tree in trees.values():
        for name, saved_spec in tree["sharding"].items():
            shapes[name] = saved_spec
    specs: Dict[str, ShardSpec] = {}
    for name in names:
        saved = shapes.get(name)
        if saved is None:
            raise UCPFormatError(f"no sharding metadata for {name!r}")
        spec = program.resolve_spec(
            name,
            tuple(saved["logical_shape"]),
            tuple(saved["unpadded_shape"]),
        )
        if strict_spec_check:
            saved_spec = ShardSpec.from_dict(
                {k: saved[k] for k in
                 ("pattern", "logical_shape", "unpadded_shape", "fragmenter")}
            )
            if (saved_spec.pattern, saved_spec.fragmenter) != (
                spec.pattern, spec.fragmenter
            ):
                raise PatternMatchError(
                    f"pattern program classifies {name!r} as {spec.pattern} "
                    f"({spec.fragmenter}), but the checkpoint was saved as "
                    f"{saved_spec.pattern} ({saved_spec.fragmenter})"
                )
        specs[name] = spec
    return specs


def _claim_destination(
    atom_store: AtomStore,
    src_store: ObjectStore,
    src_tag: str,
    specs: Dict[str, ShardSpec],
    resume: bool,
) -> Dict[str, Dict]:
    """Plan: the resumability gate; returns the reusable atoms' entries.

    Only atoms proven to come from this exact committed source (tag +
    manifest digest) are reused.
    """
    dst_store = atom_store.store
    src_digest = src_store.digest(manifest_mod.manifest_path(src_tag))
    marker_matches = False
    if dst_store.exists(CONVERT_SOURCE_FILE):
        try:
            marker = dst_store.load(CONVERT_SOURCE_FILE)
            marker_matches = (
                isinstance(marker, dict)
                and marker.get("source_tag") == src_tag
                and marker.get("source_manifest_sha256") == src_digest
            )
        except SerializationError:
            marker_matches = False
    if not marker_matches:
        # declare intent before the first atom write, so a crashed run
        # leaves enough evidence for the next one to trust its output
        dst_store.save(
            CONVERT_SOURCE_FILE,
            {
                "source_dir": str(src_store.base),
                "source_tag": src_tag,
                "source_manifest_sha256": src_digest,
            },
        )
    reused: Dict[str, Dict] = {}
    if resume and marker_matches:
        for name, spec in specs.items():
            entry = _reusable_atom_entry(atom_store, name, spec)
            if entry is not None:
                reused[name] = entry
    return reused


class _CommitPool:
    """Write-behind publisher of the fan-out's staged atoms.

    A fan-out worker stages an atom's :class:`CommitGroup` and hands it
    to :meth:`submit` (installed as the atom store's ``publish``); one
    of ``workers`` commit threads then runs the group's fsyncs and
    renames while the worker is already assembling its next atom — the
    fsyncs wait for writeback with the GIL released, so a pool as wide
    as the fan-out keeps up with it without taking CPU from it.

    A worker :meth:`reserve`-s a slot before it stages and the commit
    thread frees it once the group is published, so at most
    ``2 * workers`` atoms are ever staged-but-unpublished (dirty page
    cache and temp files, not process memory).  Leaving the ``with``
    block waits for every submitted publish, success or not: no file
    effect outlives the conversion that caused it.
    """

    def __init__(self, workers: int) -> None:
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="ucp-commit"
        )
        self._slots = threading.BoundedSemaphore(2 * workers)
        # appended by workers (list.append is atomic), read by drain()
        # only after the fan-out has joined
        self._publishes: List[concurrent.futures.Future] = []
        # Start the commit threads now, ahead of the fan-out's, rather
        # than at the first submit.  glibc hands a new thread the most
        # recently freed malloc arena; with a fixed start order the
        # threads that allocate atoms get the same arenas conversion
        # after conversion, instead of trading them with the commit
        # threads and leaving every arena holding freed atom buffers
        # (measured: ~40 MB of peak RSS per process, at any model size).
        started = threading.Barrier(workers + 1)
        for _ in range(workers):
            self._pool.submit(started.wait)
        started.wait()

    def __enter__(self) -> "_CommitPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True)

    def reserve(self) -> None:
        """Block until fewer than ``2 * workers`` atoms are in flight."""
        self._slots.acquire()

    def release(self) -> None:
        """Give back a reserved slot whose atom was never submitted."""
        self._slots.release()

    def submit(self, group: CommitGroup) -> None:
        """Queue a fully staged group for publishing."""
        self._publishes.append(self._pool.submit(self._publish, group))

    def _publish(self, group: CommitGroup) -> float:
        t_p = time.perf_counter()
        try:
            group.publish()
        finally:
            self._slots.release()
        return time.perf_counter() - t_p

    def drain(self) -> float:
        """Wait until every submitted group is durable; returns the
        publish thread-seconds.  Raises the first publish failure."""
        return sum(fut.result() for fut in self._publishes)


@dataclasses.dataclass(frozen=True, eq=False)
class _ConversionPlan:
    """What the per-atom fan-out executes, fixed before the first atom.

    Shared by every worker and read-only but for ``reader`` (its
    source-file table is the one piece of shared mutable state, behind
    its own lock), ``digest_seconds`` (one ``list.append`` per verified
    file) and ``entry_cache`` (a racing double-compute stores the same
    immutable entry: a benign CPython race, left unsynchronized).
    """

    specs: Dict[str, ShardSpec]
    read_plans: Dict[str, ParamReadPlan]
    trees: Dict[str, Dict]
    file_sizes: Dict[str, int]
    reader: RangeReader
    atom_store: AtomStore
    digest_seconds: List[float]
    entry_cache: Dict[Tuple[str, str, str], TensorIndexEntry]


def _plan_reads(
    src_store: ObjectStore,
    src_manifest: Dict,
    trees: Dict[str, Dict],
    specs: Dict[str, ShardSpec],
    read_plans: Dict[str, ParamReadPlan],
    atom_store: AtomStore,
) -> _ConversionPlan:
    """Plan: count each touched file's consumers, open the reader over
    the source-file table.  A file is loaded once by the first atom that
    needs it — verified against its manifest entry before any consumer
    sees a byte — and leaves when its last planned atom is assembled."""
    consumers = collections.Counter(
        rel for plan in read_plans.values() for rel in plan.files
    )
    entries = {
        rel: manifest_mod.manifest_entry(src_manifest, rel.split("/")[-1])
        for rel in consumers
    }
    digest_seconds: List[float] = []

    def verify(reader: RangeReader, rel: str) -> None:
        t_v = time.perf_counter()
        manifest_mod.verify_streaming(reader, rel, entries[rel])
        digest_seconds.append(time.perf_counter() - t_v)

    return _ConversionPlan(
        specs=specs,
        read_plans=read_plans,
        trees=trees,
        file_sizes={rel: src_store.size(rel) for rel in sorted(consumers)},
        reader=RangeReader(src_store, BlockCache(consumers), verify),
        atom_store=atom_store,
        digest_seconds=digest_seconds,
        entry_cache={},
    )


def _materialize_part(
    plan: _ConversionPlan,
    blocks: Tuple[SliceBlock, ...],
    full_numel: int,
    stats: Dict,
) -> Dict[str, np.ndarray]:
    """Execute: all three state arrays of one plan part at once.

    One ``read_multi`` per touched file carries the source slice of
    every (field, state kind) pair together — the three flat state
    buffers live in the same file.  Read seconds accumulate into
    ``stats``.
    """
    # np.empty, not zeros: the UCP017 coverage theorem the pipeline is
    # gated on proves the plan writes every data element, and
    # strip_padding drops the rest before anything escapes
    arrs = {
        kind: np.empty(full_numel, dtype=np.float32) for kind in STATE_KINDS
    }
    by_file: Dict[str, List[SliceBlock]] = {}
    for block in blocks:
        by_file.setdefault(block.file, []).append(block)
    for rel in sorted(by_file):
        ranges: List[Tuple[int, int]] = []
        segs: List[Tuple[str, _BlockGather]] = []
        for block in by_file[rel]:
            gather = _BlockGather(block)
            for kind in STATE_KINDS:
                ekey = (rel, block.field, kind)
                entry = plan.entry_cache.get(ekey)
                if entry is None:
                    entry = _index_entry(plan.trees[rel], block.field, kind, rel)
                    plan.entry_cache[ekey] = entry
                ranges.append(gather.byte_range(entry))
                segs.append((kind, gather))
        t_r = time.perf_counter()
        bufs = plan.reader.read_multi(rel, ranges)
        stats["read"] += time.perf_counter() - t_r
        for (kind, gather), buf in zip(segs, bufs):
            gather.scatter(arrs[kind], buf)
    return arrs


def _convert_atom(
    plan: _ConversionPlan, name: str, commits: Optional[_CommitPool]
) -> Tuple[str, int, Dict, Dict]:
    """Execute: Extract + Union + StripPadding + write, fused for one
    parameter; returns ``(name, bytes written, metadata entry, stats)``.
    ``commits`` is the write-behind pool ``plan.atom_store.publish``
    points at, or None when atoms are published inline.

    The atom is written the moment it consolidates, so in-flight memory
    is bounded by workers x parameter size, not checkpoint size.
    "Written" means staged and handed to ``atom_store.publish``: inline
    that is durable and visible on return; under the commit pool it is
    four temps whose publish is queued.  Either way a crash mid-fan-out
    leaves whole atoms (sidecar visible), partial ones (no sidecar) and
    temps — and the resume gate reuses an atom only after re-reading
    all four files CRC-checked, so it never has to know which.
    """
    read_plan = plan.read_plans[name]
    plan.reader.load(read_plan.files)
    spec = plan.specs[name]
    full_numel = _numel(spec.logical_shape)
    stats = {"read": 0.0}
    t_task = time.perf_counter()

    primary_arrs = _materialize_part(plan, read_plan.primary, full_numel, stats)
    copy_arrs = [
        _materialize_part(plan, blocks, full_numel, stats)
        for _, blocks in read_plan.copies
    ]
    states = {}
    for kind in STATE_KINDS:
        merged = primary_arrs[kind]
        if read_plan.pattern == PATTERN_TO_AVERAGE and copy_arrs:
            merged = average_param_copies(
                [merged] + [arrs[kind] for arrs in copy_arrs]
            )
        elif read_plan.pattern == PATTERN_REPLICATED:
            for arrs in copy_arrs:
                if not np.array_equal(merged, arrs[kind]):
                    raise PatternMatchError(
                        f"{name!r} is replicated_params but rank "
                        f"copies differ; use params_to_average for "
                        f"independently updated parameters"
                    )
        states[kind] = strip_padding(merged.reshape(spec.logical_shape), spec)
    # this atom no longer needs its source files: the last planned
    # consumer of a file drops it from the table
    for rel in read_plan.files:
        plan.reader.cache.release(rel)
    stats["assemble"] = time.perf_counter() - t_task - stats["read"]
    atom = AtomCheckpoint(name=name, states=states, spec=spec.to_dict())
    if commits is not None:
        commits.reserve()
    t_w = time.perf_counter()
    try:
        nbytes = plan.atom_store.write(atom)
    except BaseException:
        # staging died before the group reached the pool
        if commits is not None:
            commits.release()
        raise
    stats["write"] = time.perf_counter() - t_w
    return name, nbytes, {
        "shape": list(atom.shape),
        "spec": atom.spec,
        "kinds": sorted(atom.states),
    }, stats


def _commit(
    dst_store: ObjectStore,
    commits: Optional[_CommitPool],
    params: Dict[str, Dict],
    job_config: Dict,
    analysis: ProvenanceAnalysis,
    program: PatternProgram,
    trees: Dict[str, Dict],
    adam_hyper: Dict,
    loss_scaler: Optional[Dict],
) -> Tuple[int, float]:
    """Commit: write ``ucp_meta.npt``, the destination's commit point —
    only after every atom is durable: every queued publish is drained
    (one that failed fails the conversion here) and ``atoms/`` is
    fsynced, because each ``atoms/<name>/`` was made by ``mkdir`` and a
    group publish fsyncs only the directory *its files* are in.
    Returns ``ucp_meta.npt``'s byte size and the drained publishes'
    thread-seconds."""
    publish_s = commits.drain() if commits is not None else 0.0
    dst_store.fsync_dir(ATOMS_DIR)
    optimizer_step = 0
    for tree in trees.values():
        optimizer_step = max(optimizer_step, int(tree["optimizer_step"]))
    metadata = UCPMetadata(
        iteration=int(job_config["iteration"]),
        optimizer_step=optimizer_step,
        model_config=analysis.model_cfg.to_dict(),
        source_parallel_config=analysis.source_cfg.to_dict(),
        params=params,
        adam=adam_hyper,
        training={
            "seed": job_config["seed"],
            "data_seed": job_config["data_seed"],
            "global_batch_size": job_config["global_batch_size"],
            "seq_len": job_config["seq_len"],
            "mp_policy": job_config["mp_policy"],
        },
        pattern_program=program.to_dict(),
        loss_scaler=loss_scaler,
    )
    return metadata.save(dst_store), publish_s


def ucp_convert(
    ckpt_dir: str,
    ucp_dir: str,
    tag: Optional[str] = None,
    program: Optional[PatternProgram] = None,
    workers: Optional[int] = None,
    verify_replicas: bool = True,
    strict_spec_check: bool = True,
    dst_store: Optional[ObjectStore] = None,
    resume: bool = True,
    cluster=None,
) -> ConversionReport:
    """Convert a distributed checkpoint into UCP atom format.

    Args:
        ckpt_dir: source distributed-checkpoint directory.
        ucp_dir: output UCP directory (created).
        tag: source tag; defaults to the checkpoint's ``latest``.
        program: UCP-language pattern program; defaults to the built-in
            program for the checkpoint's model family.
        workers: thread count for the Extract/Union/write fan-out.
            ``None`` (default) resolves CPU-aware to
            ``min(8, os.cpu_count())``; ``0``/``1`` run serial.  The
            *output bytes* are the same at any count; the order writes
            land in — what a run that dies partway leaves behind — is
            fixed only when serial (marker, then per atom four staged
            writes and one group publish).  Above 1 the publishes run
            write-behind on a commit pool of the same width.
        verify_replicas: fail if replicated copies are not bit-equal.
        strict_spec_check: cross-check the program's classification
            against the sharding metadata recorded at save time.
        dst_store: optional pre-built destination store (shares
            simulated-IO accounting and fault policy with the caller).
        resume: reuse intact atoms left by a previous interrupted
            conversion of the same committed source.
        cluster: optional :class:`~repro.dist.cluster.Cluster` whose
            collective trace should bracket the conversion with
            ``convert:<tag>:enter``/``:commit`` barriers — the
            happens-before analyzer then proves the conversion's
            critical section does not overlap a concurrent save's.

    Raises:
        CheckpointNotFoundError: missing directory or tag.
        CheckpointIntegrityError: uncommitted source tag, or a source
            file that is missing or fails digest verification.
        UCPFormatError: structurally valid but semantically
            inconsistent source (e.g. rank files disagreeing on Adam
            hyperparameters).
        repro.analysis.diagnostics.LayoutLintError: the mandatory
            static pre-flight found the source layout unsound — the
            byte-provenance theorems (UCP017-UCP022) included — or the
            manifest structurally incomplete (a UCPFormatError
            subclass; carries the individual rule-ID diagnostics).
    """
    workers = _resolve_workers(workers)
    src_store = ObjectStore(ckpt_dir)
    src_tag = resolve_tag(src_store, tag)
    if not (src_store.base / src_tag).is_dir():
        raise CheckpointNotFoundError(f"no tag {src_tag!r} under {ckpt_dir}")
    src_read0 = src_store.bytes_read

    # --- plan: verified source -> specs -> reusable atoms -> read plans;
    # everything up to the fan-out is manifest and header IO ---
    t0 = time.perf_counter()
    src_manifest, files, job_config, analysis = _verify_source(
        src_store, src_tag, ckpt_dir
    )
    if cluster is not None:
        cluster.barrier(f"convert:{src_tag}:enter")
    if program is None:
        program = program_for_config(
            analysis.model_cfg,
            expert_parallel=analysis.source_cfg.expert_parallel,
        )
    # header/index pass only: the per-file tensor *index* carries every
    # non-tensor field (adam, loss scaler, sharding, step) plus absolute
    # payload offsets — no flat buffer is read here
    trees = dict(zip(
        files,
        _map_maybe_parallel(src_store.load_index, files, workers),
    ))
    adam_hyper, loss_scaler = _check_cross_rank_consistency(
        files, [trees[rel] for rel in files]
    )
    names = sorted(analysis.params)
    specs = _resolve_specs(program, names, trees, strict_spec_check)

    atom_store = AtomStore(ucp_dir, dst_store)
    dst_store = atom_store.store
    dst_written0 = dst_store.bytes_written
    reused = _claim_destination(atom_store, src_store, src_tag, specs, resume)
    fresh_names = [n for n in names if n not in reused]

    header_bytes = src_store.bytes_read - src_read0
    t_lower = time.perf_counter()
    read_plans = lower_read_plans(
        analysis,
        fresh_names,
        verify_replicas=verify_replicas,
        patterns={n: specs[n].pattern for n in fresh_names},
    )
    stage_seconds = {"lower": time.perf_counter() - t_lower}
    plan = _plan_reads(
        src_store, src_manifest, trees, specs, read_plans, atom_store
    )
    # everything since t0 that is not lowering — manifest + provenance
    # analysis + pre-flight lints + the header/index pass — is the
    # planning stage; together with the per-task stage sums below the
    # stage map accounts for the whole wall
    stage_seconds["plan"] = time.perf_counter() - t0 - stage_seconds["lower"]

    # --- execute: fan the per-parameter pipeline out, grouped by the
    # source files the plans touch, so each file's consumers run back to
    # back and the file leaves the table as soon as the last of them is
    # assembled — the resident set is one file group, not the source.
    # Output is order-independent (atoms are keyed by name), so
    # scheduling is free to chase locality. ---
    fan_order = sorted(fresh_names, key=lambda n: (read_plans[n].files, n))
    with (
        _CommitPool(workers) if workers > 1 else contextlib.nullcontext()
    ) as commits:
        if commits is not None:
            atom_store.publish = commits.submit
        try:
            results = _map_maybe_parallel(
                lambda name: _convert_atom(plan, name, commits), fan_order, workers
            )
        finally:
            # every worker has stopped: assembled or failed, no source
            # byte stays resident
            plan.reader.cache.clear()
        t2 = time.perf_counter()
        stage_seconds["digest"] = sum(plan.digest_seconds)
        for stage in ("read", "assemble", "write"):
            stage_seconds[stage] = sum(s[stage] for *_, s in results)

        # --- commit: params in canonical name order so resumed and clean
        # conversions produce byte-identical metadata ---
        fresh_entries = {name: entry for name, _, entry, _ in results}
        params = {
            name: reused[name] if name in reused else fresh_entries[name]
            for name in names
        }
        meta_bytes, publish_s = _commit(
            dst_store, commits, params, job_config, analysis, program, trees,
            adam_hyper, loss_scaler,
        )
    atom_bytes = sum(nbytes for _, nbytes, _, _ in results) + meta_bytes
    stage_seconds["write"] += publish_s
    if cluster is not None:
        cluster.barrier(f"convert:{src_tag}:commit")
    t3 = time.perf_counter()
    stage_seconds["finalize"] = t3 - t2

    reader = plan.reader
    return ConversionReport(
        source_tag=src_tag,
        num_files=len(files),
        num_params=len(params),
        atom_bytes=atom_bytes,
        total_seconds=t3 - t0,
        simulated_read_s=src_store.simulated_read_s,
        simulated_write_s=dst_store.simulated_write_s,
        num_reused=len(reused),
        bytes_read=src_store.bytes_read - src_read0,
        bytes_written=dst_store.bytes_written - dst_written0,
        peak_window_bytes=reader.peak_window_bytes,
        peak_resident_bytes=reader.cache.peak_resident_bytes,
        num_preads=reader.read_ops,
        ranges_coalesced=reader.ranges_coalesced,
        header_bytes=header_bytes,
        digest_bytes=sum(plan.file_sizes.values()),
        planned_state_bytes=(
            sum(p.planned_elements for p in read_plans.values())
            * np.dtype(np.float32).itemsize
            * len(STATE_KINDS)
        ),
        stage_seconds=stage_seconds,
    )
