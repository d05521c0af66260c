"""Distributed checkpoint -> UCP conversion (paper Algorithm 1).

The converter runs lazily and on demand — only when a resume needs a
different parallelism strategy — so normal training pays nothing for
UCP (the paper's zero-save-overhead claim).  Algorithm 1 is a plan —
which source bytes become which atom bytes — followed by byte movement,
and this module is the byte movement: it orchestrates, executes and
commits a plan that :mod:`repro.core.plan` builds.

* **Plan** (:mod:`repro.core.plan`) — one header pass over the rank
  files composes every parameter's source -> consolidated interval map
  (the paper's Extract + Union, over intervals instead of tensors) and
  proves it sound; the mandatory pre-flight refuses an unsound source
  at header cost.  Once the resume gate below has said which atoms are
  missing, their maps are lowered into an immutable
  :class:`~repro.core.plan.ConversionPlan`: exact ``(file, element
  range) -> consolidated range`` read items with their byte ranges, plus
  which atoms consume which optimizer files.
* **Execute** (here) — no rank file is ever decoded.  The plan fixes the
  read side before the first payload byte moves, the fan-out order
  included: atoms run file group by file group, each dp-straddling atom
  as the later group opens.  Each touched file is loaded exactly once,
  by the first atom that needs it: one sequential read through
  :class:`~repro.storage.rangeio.RangeReader` into a recycled buffer,
  hashed as it streams and checked against its manifest entry before
  any consumer sees a byte.  An atom takes its files one at a time —
  resident ones first — scatters each straight out of read-only slices
  of that one buffer and releases it at once; the file leaves the
  source-file table (:class:`~repro.storage.rangeio.BlockCache`) with
  its last planned consumer, and no worker loads a file while one only
  earlier atoms still need is held.  **StripPadding** and the atom
  write follow as soon as a parameter consolidates, so in-flight memory
  is one file group plus the workers' atoms, not the checkpoint.  The in-memory
  operators of :mod:`repro.core.ops` stay the reference semantics the
  pipeline is tested byte-for-byte against
  (``tests/reference_convert.py``).

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
publish and fsyncs the directory holding the atoms first, and a resumed
run trusts an atom only after ``AtomStore.reusable_entry`` re-read it
CRC-checked, never because it is there.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import LayoutLintError
from repro.analysis.interchange import preflight_convert
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.core.atom import STATE_KINDS, AtomCheckpoint, AtomStore
from repro.core.errors import PatternMatchError, UCPFormatError
from repro.core.intervals import numel as _numel
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.core.ops import strip_padding
from repro.core.patterns import PatternProgram, program_for_config
from repro.core.plan import (
    ConversionPlan,
    ParamReadPlan,
    ProvenanceAnalysis,
    ReadItem,
    _check_cross_rank_consistency,
    _plan_reads,
    _resolve_specs,
    analyze_source,
    lower_read_plans,
)
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.sp import average_param_copies
from repro.parallel.tp import (
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    ShardSpec,
)
from repro.storage.rangeio import BlockCache, RangeReader
from repro.storage.serializer import SerializationError
from repro.storage.store import CommitPool, ObjectStore, resolve_workers

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
    bytes held in the source-file table, counted from the moment a
    file's read starts — the files with a planned consumer still
    pending, never the whole source.

    Byte decomposition: ``bytes_read`` splits into ``header_bytes``
    (manifest + job config + the planner's one index pass: each rank
    file's header decoded once, no payload byte),
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
        if naming.OPTIM_STATES_RE.match(base):
            files.append(rel)
    if not files:
        raise UCPFormatError(f"no optimizer-state files under tag {tag!r}")
    return files


def _map_maybe_parallel(fn, items, workers: int):
    if workers and workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _strided_runs(item: ReadItem) -> List[Tuple[int, int, int, int, int, int]]:
    """An item's rows as ``(source start, destination start, length,
    source step, destination step, row count)`` runs, sources counted
    from the item's first row.  Row ``i`` joins row ``i - 1``'s run when
    it has the same length, both starts advance by a positive step (the
    destination's by at least the length: no overlap where rows land)
    and — if row ``i - 1`` met that too — by the same steps; every other
    row starts a run.  The row-major tiling of a TP shard is one run."""
    fs, dst, lengths = item.file_starts, item.full_starts, item.lengths
    n = int(fs.size)
    if n == 1:
        return [(0, int(dst[0]), int(lengths[0]), 0, 0, 1)]
    src = fs - fs[0]
    ds, dd = np.diff(src), np.diff(dst)
    joins = (lengths[1:] == lengths[:-1]) & (ds > 0) & (dd >= lengths[1:])
    joins[1:] &= ~joins[:-1] | ((ds[1:] == ds[:-1]) & (dd[1:] == dd[:-1]))
    first = np.flatnonzero(np.concatenate(([True], ~joins)))
    second = np.minimum(first + 1, n - 1)
    return list(zip(
        src[first].tolist(), dst[first].tolist(), lengths[first].tolist(),
        (src[second] - src[first]).tolist(), (dst[second] - dst[first]).tolist(),
        np.diff(np.append(first, n)).tolist(),
    ))


def _rows(flat: np.ndarray, start: int, step: int, count: int, length: int):
    """``count`` rows of ``length`` elements of ``flat``, ``step`` apart
    (a view: writable iff ``flat`` is)."""
    size = flat.itemsize
    return np.lib.stride_tricks.as_strided(
        flat[start:], (count, length), (step * size, size)
    )


def _scatter_item(
    item: ReadItem, arrs: Dict[str, np.ndarray], bufs: List[memoryview]
) -> None:
    """Scatter one :class:`~repro.core.plan.ReadItem`'s source slices —
    one buffer per state kind, ``item.ranges`` of the resident file —
    into the consolidated arrays, one strided assignment per run.

    The flat ``fp32``/``exp_avg``/``exp_avg_sq`` buffers share one
    segment map, so the runs are derived once for all three kinds.  The
    float32 views over the (read-only) file bytes are consumed in place
    — the only copy on the whole path is the assignment into ``arrs``.
    Strided views are not bounds-checked, so each run's extent (first
    row lowest, last row highest) is checked on both sides first.
    """
    runs = _strided_runs(item)
    views = [np.frombuffer(buf, dtype=np.float32) for buf in bufs]
    lo = min(min(s, d) for s, d, *_ in runs)
    src_end = max(s + (k - 1) * s_step + n for s, _, n, s_step, _, k in runs)
    dst_end = max(d + (k - 1) * d_step + n for _, d, n, _, d_step, k in runs)
    if (
        lo < 0
        or src_end > min(view.size for view in views)
        or dst_end > min(arr.size for arr in arrs.values())
    ):
        raise UCPFormatError(
            f"{item.file}: read item of {item.field!r} reaches source element "
            f"{src_end} and destination element {dst_end} (lowest start "
            f"{lo}); it does not fit the arrays it scatters between"
        )
    for kind, view in zip(STATE_KINDS, views):
        arr = arrs[kind]
        for s, d, length, s_step, d_step, count in runs:
            if count == 1:
                arr[d:d + length] = view[s:s + length]
            else:
                _rows(arr, d, d_step, count, length)[...] = _rows(
                    view, s, s_step, count, length
                )


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
        if naming.OPTIM_STATES_RE.match(basename) and basename not in on_disk:
            raise CheckpointIntegrityError(
                f"missing rank file {tag}/{basename}: it is recorded in the "
                f"commit manifest but absent on disk; converting without it "
                f"would drop that rank's optimizer state"
            )


def _verify_source(
    src_store: ObjectStore, src_tag: str, ckpt_dir: str
) -> Tuple[Dict, List[str], Dict, ProvenanceAnalysis]:
    """Plan: manifest, rank files, job config and the composed source
    map of a committed source (:func:`~repro.core.plan.analyze_source`,
    the conversion's one header pass).  The pipeline is *gated on the
    provenance theorems*: only a source whose interval maps were proven
    sound (UCP017-UCP022) is converted — the read plans are lowered from
    them.
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
        src_store, src_tag, src_manifest, analysis, optimizer_layout
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


def converted_from(
    dst_store: ObjectStore, src_store: ObjectStore, src_tag: str
) -> bool:
    """Whether the source marker in ``dst_store`` names ``src_tag``'s
    current commit manifest (tag and SHA-256) — the only evidence that
    output already in a directory came from that source.  A missing or
    torn marker, one of another shape, or a tag without a manifest,
    proves nothing."""
    try:
        marker = dst_store.load(CONVERT_SOURCE_FILE)
        src_digest = src_store.digest(manifest_mod.manifest_path(src_tag))
    except (FileNotFoundError, SerializationError):
        return False
    if not isinstance(marker, dict):
        return False
    claimed = (marker.get("source_tag"), marker.get("source_manifest_sha256"))
    return all(type(c) is str for c in claimed) and claimed == (src_tag, src_digest)


def _claim_destination(
    atom_store: AtomStore,
    src_store: ObjectStore,
    src_tag: str,
    specs: Dict[str, ShardSpec],
) -> Dict[str, Dict]:
    """Plan: the resumability gate; returns the reusable atoms' entries.

    Only atoms proven to come from this exact committed source
    (:func:`converted_from`) are reused.  Otherwise the destination
    starts over: its commit point and every atom in it are deleted,
    durably, before the new marker is declared — so no crash point
    leaves another source's output under this source's marker.  An
    empty destination has nothing to delete.
    """
    if converted_from(atom_store.store, src_store, src_tag):
        entries = (
            (n, atom_store.reusable_entry(n, s.to_dict()))
            for n, s in specs.items()
        )
        return {name: entry for name, entry in entries if entry is not None}
    dst_store = atom_store.store
    dst_store.delete(UCP_META_FILE)
    atom_store.clear()
    # declare intent before the first atom write, so a crashed run
    # leaves enough evidence for the next one to trust its output
    dst_store.save(
        CONVERT_SOURCE_FILE,
        {
            "source_dir": str(src_store.base),
            "source_tag": src_tag,
            "source_manifest_sha256": src_store.digest(
                manifest_mod.manifest_path(src_tag)
            ),
        },
    )
    return {}


def _open_reader(
    src_store: ObjectStore, plan: ConversionPlan, workers: int
) -> Tuple[RangeReader, List[float]]:
    """Execute: the reader over the plan's source-file table, and the
    list its verify step appends each file's digest seconds to (one
    ``list.append`` per verified file).  The table is the one piece of
    state the fan-out's workers share and mutate, behind its own lock;
    it recycles up to ``workers + 1`` read buffers — one per worker
    loading, one for the file its group is finishing."""
    digest_seconds: List[float] = []

    def verify(reader: RangeReader, rel: str) -> None:
        t_v = time.perf_counter()
        manifest_mod.verify_streaming(reader, rel, plan.entries[rel])
        digest_seconds.append(time.perf_counter() - t_v)

    cache = BlockCache(
        plan.consumers, buffers=max(workers, 1) + 1, last_use=plan.last_use
    )
    return RangeReader(src_store, cache, verify), digest_seconds


def _extract(
    reader: RangeReader,
    read_plan: ParamReadPlan,
    full_numel: int,
    position: int,
    stats: Dict[str, float],
) -> List[Dict[str, np.ndarray]]:
    """Execute: the state arrays of an atom's primary part and of each
    copy, filled file by file as the table hands the files out.

    One ``read_multi`` per file carries the source slice of every (part,
    field, state kind); the file is released the moment they are
    scattered.  Seconds in ``read_multi`` add to ``stats["read"]``,
    seconds taking files (loading or waiting) to ``stats["wait"]``.
    """
    left = list(read_plan.files)
    try:
        # np.empty, not zeros: the UCP017 coverage theorem the pipeline
        # is gated on proves the plan writes every data element, and
        # strip_padding drops the rest before anything escapes
        parts = [read_plan.primary, *read_plan.copies]
        arrs = [
            {kind: np.empty(full_numel, dtype=np.float32) for kind in STATE_KINDS}
            for _ in parts
        ]
        by_file: Dict[str, List[Tuple[int, ReadItem]]] = {}
        for p, items in enumerate(parts):
            for item in items:
                by_file.setdefault(item.file, []).append((p, item))
        k = len(STATE_KINDS)  # one buffer per state kind, item after item
        while left:
            t_n = time.perf_counter()
            rel = reader.next_ready(left, position)
            t_r = time.perf_counter()
            stats["wait"] += t_r - t_n
            bufs = reader.read_multi(
                rel, [rng for _, item in by_file[rel] for rng in item.ranges]
            )
            stats["read"] += time.perf_counter() - t_r
            for i, (p, item) in enumerate(by_file[rel]):
                _scatter_item(item, arrs[p], bufs[i * k:(i + 1) * k])
            # scattered, so released: the buffer may take another file next
            left.remove(rel)
            reader.cache.release(rel)
    finally:
        # a failed atom is done with its files too: a peer waiting for
        # one of them to leave the table must not wait forever
        for rel in left:
            reader.cache.release(rel)
    return arrs


def _convert_atom(
    plan: ConversionPlan,
    reader: RangeReader,
    atom_store: AtomStore,
    commits: CommitPool,
    position: int,
) -> Tuple[str, int, Dict, Dict]:
    """Execute: Extract + Union + StripPadding + write, fused for the
    parameter at ``position`` in the plan's order; returns ``(name,
    bytes written, metadata entry, stats)``.  ``commits`` is the pool
    ``atom_store.publish`` points at (write-behind above one worker,
    inline otherwise).

    Extract (:func:`_extract`) runs file by file, in the order the table
    hands the files out (:meth:`~repro.storage.rangeio.RangeReader.next_ready`:
    resident ones first, a peer's load waited on last, and no new file
    loaded while one only earlier atoms still need is held), releasing
    each file the moment it is scattered, so its last consumer drops it
    before loading the next.  The atom is written the moment it consolidates,
    so in-flight memory is bounded by workers x parameter size, not
    checkpoint size.
    "Written" means staged and handed to ``atom_store.publish``: inline
    that is durable and visible on return; under the commit pool it is
    four temps whose publish is queued.  Either way a crash mid-fan-out
    leaves whole atoms (sidecar visible), partial ones (no sidecar) and
    temps — and the resume gate reuses an atom only after re-reading
    all four files CRC-checked, so it never has to know which.
    """
    name = plan.order[position]
    read_plan = plan.reads[name]
    spec = plan.specs[name]
    stats = {"read": 0.0, "wait": 0.0}
    t_task = time.perf_counter()
    arrs = _extract(reader, read_plan, _numel(spec.logical_shape), position, stats)
    states = {}
    for kind in STATE_KINDS:
        merged = arrs[0][kind]
        if read_plan.pattern == PATTERN_TO_AVERAGE and len(arrs) > 1:
            merged = average_param_copies([a[kind] for a in arrs])
        elif read_plan.pattern == PATTERN_REPLICATED:
            for copy in arrs[1:]:
                if not np.array_equal(merged, copy[kind]):
                    raise PatternMatchError(
                        f"{name!r} is replicated_params but rank "
                        f"copies differ; use params_to_average for "
                        f"independently updated parameters"
                    )
        states[kind] = strip_padding(merged.reshape(spec.logical_shape), spec)
    stats["assemble"] = time.perf_counter() - t_task - stats["read"] - stats["wait"]
    atom = AtomCheckpoint(name=name, states=states, spec=spec.to_dict())
    commits.reserve()
    t_w = time.perf_counter()
    try:
        nbytes = atom_store.write(atom)
    except BaseException:
        # staging died before the group reached the pool
        commits.release()
        raise
    stats["write"] = time.perf_counter() - t_w
    return name, nbytes, atom.entry, stats


def _commit(
    atom_store: AtomStore,
    commits: CommitPool,
    params: Dict[str, Dict],
    job_config: Dict,
    analysis: ProvenanceAnalysis,
    program: PatternProgram,
    adam_hyper: Dict,
    loss_scaler: Optional[Dict],
    optimizer_step: int,
) -> Tuple[int, float]:
    """Commit: write ``ucp_meta.npt``, the destination's commit point —
    only after every atom is durable: every queued publish is drained
    (one that failed fails the conversion here) and the atoms' own
    directory entries are fsynced (``AtomStore.fsync_dir``).  Returns
    ``ucp_meta.npt``'s byte size and the drained publishes'
    thread-seconds."""
    publish_s = commits.drain()
    atom_store.fsync_dir()
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
    return metadata.save(atom_store.store), publish_s


def ucp_convert(
    ckpt_dir: str,
    ucp_dir: str,
    tag: Optional[str] = None,
    program: Optional[PatternProgram] = None,
    workers: Optional[int] = None,
    dst_store: Optional[ObjectStore] = None,
) -> ConversionReport:
    """Convert a distributed checkpoint into UCP atom format.

    One fixed pipeline: the program is always checked against the
    placement recorded at save time, replicated copies always compared,
    and a partial conversion of the same committed source always resumed.

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
        dst_store: optional pre-built destination store (shares
            simulated-IO accounting and fault policy with the caller).

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
        PatternMatchError: the program places a parameter differently
            than the checkpoint recorded, or replicated copies differ.
    """
    workers = resolve_workers(workers)
    src_store = ObjectStore(ckpt_dir)
    src_tag = resolve_tag(src_store, tag)
    if not (src_store.base / src_tag).is_dir():
        raise CheckpointNotFoundError(f"no tag {src_tag!r} under {ckpt_dir}")
    src_read0 = src_store.bytes_read

    # --- plan: verified source -> specs -> reusable atoms -> read plans;
    # everything up to the fan-out is manifest and header IO, and every
    # rank-file header was decoded once, inside _verify_source ---
    t0 = time.perf_counter()
    src_manifest, files, job_config, analysis = _verify_source(
        src_store, src_tag, ckpt_dir
    )
    if program is None:
        program = program_for_config(
            analysis.model_cfg,
            expert_parallel=analysis.source_cfg.expert_parallel,
        )
    adam_hyper, loss_scaler, optimizer_step = _check_cross_rank_consistency(
        analysis
    )
    names = sorted(analysis.params)
    specs = _resolve_specs(program, analysis)

    atom_store = AtomStore(ucp_dir, dst_store)
    dst_store = atom_store.store
    dst_written0 = dst_store.bytes_written
    reused = _claim_destination(atom_store, src_store, src_tag, specs)
    fresh_names = [n for n in names if n not in reused]

    header_bytes = src_store.bytes_read - src_read0
    t_lower = time.perf_counter()
    read_plans = lower_read_plans(
        analysis, {n: specs[n].pattern for n in fresh_names}
    )
    stage_seconds = {"lower": time.perf_counter() - t_lower}
    plan = _plan_reads(analysis, src_manifest, specs, read_plans)
    # everything since t0 that is not lowering — manifest + the header
    # pass and composition + pre-flight lints + the resume gate — is the
    # planning stage; together with the per-task stage sums below the
    # stage map accounts for the whole wall
    stage_seconds["plan"] = time.perf_counter() - t0 - stage_seconds["lower"]

    # --- execute: fan the per-parameter pipeline out in the plan's
    # order, so each file group's consumers run back to back and a file
    # leaves the table as soon as the last of them has scattered it —
    # the resident set is one file group, not the source.  Output is
    # order-independent (atoms are keyed by name), so scheduling is
    # free to chase locality. ---
    reader, digest_seconds = _open_reader(src_store, plan, workers)
    with CommitPool(workers) as commits:
        atom_store.publish = commits.submit
        try:
            results = _map_maybe_parallel(
                lambda position: _convert_atom(
                    plan, reader, atom_store, commits, position
                ),
                range(len(plan.order)),
                workers,
            )
        finally:
            # every worker has stopped: assembled or failed, no source
            # byte stays resident
            reader.cache.clear()
        t2 = time.perf_counter()
        stage_seconds["digest"] = sum(digest_seconds)
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
            atom_store, commits, params, job_config, analysis, program,
            adam_hyper, loss_scaler, optimizer_step,
        )
    atom_bytes = sum(nbytes for _, nbytes, _, _ in results) + meta_bytes
    stage_seconds["write"] += publish_s
    t3 = time.perf_counter()
    stage_seconds["finalize"] = t3 - t2

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
