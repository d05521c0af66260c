"""Outside-in span tracer and the per-layer metric table.

The tracer lives entirely in the benchmark: ``install`` wraps a fixed
table of the program's public callables (methods on their class,
module-level functions in every module that imported them by name),
``uninstall`` puts the originals back.  Nothing under ``src/`` knows it
exists, so the end-to-end numbers — measured with no wrapper installed —
are the program's own.

:data:`PER_LAYER` is the one place a per-layer metric is defined: its
name and unit, how its value is computed, which callables feed it, and
which end-to-end metric it is expected to move on which workload.
``BENCHMARK.json`` echoes the names and units; the smoke test keeps the
two in step.  A later in-program tracer (ROADMAP aim 4) can be checked
against this table span for span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

OPS = ("save", "standard_restart", "convert", "ucp_load")
ALL = ("fig12-large", "reshard-medium", "reshard-small-moe", "resume-half-medium")
BYTE_BOUND = ("fig12-large",)
FIXED_COST = ("reshard-small-moe",)
RESHARD = ("reshard-medium", "resume-half-medium")


# --- span sizes: how many payload bytes one call moved ---------------------

def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_data(args, kwargs, result) -> int:
    # ``data`` is the last positional of ``deserialize(data)`` and of
    # ``put_bytes(self, rel_path, data)``
    return len(kwargs["data"] if "data" in kwargs else args[-1])


def _len_chunks(args, kwargs, result) -> int:
    return sum(len(chunk) for chunk in result)


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname`` and the layer it belongs to."""

    path: str
    layer: str
    size: Optional[Callable] = None
    counters: Tuple[str, ...] = ()  # attributes of ``self`` read when the operation ends


TARGETS: Tuple[Target, ...] = (
    Target("repro.parallel.engine:TrainingEngine.__init__", "parallel.engine"),
    Target("repro.parallel.engine:TrainingEngine.sync_model_from_masters", "parallel.engine"),
    Target("repro.ckpt.saver:save_distributed_checkpoint", "ckpt.saver"),
    Target("repro.ckpt.loader:load_distributed_checkpoint", "ckpt.loader"),
    Target("repro.ckpt.manifest:load_verified", "ckpt.manifest"),
    Target("repro.ckpt.manifest:verify_streaming", "ckpt.manifest"),
    Target("repro.ckpt.manifest:read_manifest", "ckpt.manifest"),
    Target("repro.ckpt.manifest:write_manifest", "ckpt.manifest"),
    Target("repro.storage.serializer:serialize", "storage.serializer", _len_result),
    Target("repro.storage.serializer:deserialize", "storage.serializer", _len_data),
    Target("repro.storage.serializer:read_npt_header", "storage.serializer"),
    Target("repro.storage.serializer:read_npt_index", "storage.serializer"),
    Target("repro.storage.store:ObjectStore.put_bytes", "storage.store", _len_data),
    Target("repro.storage.store:ObjectStore.read_bytes", "storage.store", _len_result),
    Target("repro.storage.store:ObjectStore.read_range", "storage.store", _len_result),
    Target("repro.storage.store:ObjectStore.read_ranges", "storage.store", _len_chunks),
    Target("repro.storage.store:ObjectStore.digest", "storage.store"),
    Target("repro.storage.store:sha256_hex", "storage.store"),
    Target("repro.storage.rangeio:RangeReader.__init__", "storage.rangeio",
           counters=("read_ops", "num_batches", "ranges_coalesced", "peak_window_bytes")),
    Target("repro.storage.rangeio:RangeReader.digest", "storage.rangeio"),
    Target("repro.storage.rangeio:RangeReader.read_multi", "storage.rangeio"),
    Target("repro.storage.rangeio:BlockCache.__init__", "storage.rangeio",
           counters=("hits", "misses")),
    Target("repro.analysis.interchange:preflight_convert", "analysis.interchange"),
    Target("repro.analysis.provenance:analyze_source", "analysis.provenance"),
    Target("repro.core.convert:ucp_convert", "core.convert"),
    Target("repro.core.convert:lower_read_plans", "core.convert"),
    Target("repro.core.atom:AtomStore.write", "core.atom"),
    Target("repro.core.atom:AtomStore.read_state", "core.atom"),
    Target("repro.core.atom:AtomStore.read_meta", "core.atom"),
    Target("repro.core.ops:gen_ucp_metadata", "core.ops"),
    Target("repro.core.ops:load", "core.ops"),
    Target("repro.core.ops:AtomShardCache.shard_slice", "core.ops"),
    Target("repro.core.loader:load_ucp_into_engine", "core.loader"),
    Target("repro.core.metadata:UCPMetadata.load", "core.metadata"),
    Target("repro.core.metadata:UCPMetadata.save", "core.metadata"),
)

# file-system calls counted (not timed) while an operation runs
EVENTS = {"os:fsync": (os, "fsync"), "os:replace": (os, "replace")}


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: where its value comes from and what it should move.

    ``source`` selects the rule in :func:`cycle_values`:
    ``self_s``/``calls``/``bytes`` aggregate the spans of ``callables``
    (restricted to ``ops`` when given), ``event`` counts a file-system
    call, ``reader``/``cache`` read counters off the ``RangeReader`` /
    ``BlockCache`` objects the cycle created, ``report`` reads a
    ``ConversionReport`` field, ``untraced`` is an operation's wall time
    in the untraced cycles, ``derived`` is computed from the others.
    """

    name: str
    unit: str
    better: str
    source: str
    callables: Tuple[str, ...]
    moves: Tuple[str, ...]
    where: Tuple[str, ...]
    ops: Optional[Tuple[str, ...]] = None


def _m(name, unit, better, source, callables, moves, where, ops=None) -> LayerMetric:
    return LayerMetric(name, unit, better, source, tuple(callables),
                       tuple(moves), tuple(where), ops)


_ENGINE_INIT = "repro.parallel.engine:TrainingEngine.__init__"
_SYNC = "repro.parallel.engine:TrainingEngine.sync_model_from_masters"
_SAVER = "repro.ckpt.saver:save_distributed_checkpoint"
_LOADER = "repro.ckpt.loader:load_distributed_checkpoint"
_VERIFY = (
    "repro.ckpt.manifest:load_verified",
    "repro.ckpt.manifest:verify_streaming",
    "repro.ckpt.manifest:read_manifest",
)
_ENCODE = "repro.storage.serializer:serialize"
_DECODE = "repro.storage.serializer:deserialize"
_HEADERS = (
    "repro.storage.serializer:read_npt_header",
    "repro.storage.serializer:read_npt_index",
)
_PUT = "repro.storage.store:ObjectStore.put_bytes"
_READS = (
    "repro.storage.store:ObjectStore.read_bytes",
    "repro.storage.store:ObjectStore.read_range",
    "repro.storage.store:ObjectStore.read_ranges",
)
_HASH = ("repro.storage.store:sha256_hex", "repro.storage.store:ObjectStore.digest")
_READER = "repro.storage.rangeio:RangeReader.__init__"
_READ_MULTI = "repro.storage.rangeio:RangeReader.read_multi"
_CACHE = "repro.storage.rangeio:BlockCache.__init__"
_CONVERT = "repro.core.convert:ucp_convert"
_ATOM_WRITE = "repro.core.atom:AtomStore.write"
_ATOM_READS = ("repro.core.atom:AtomStore.read_state", "repro.core.atom:AtomStore.read_meta")
_UCP_LOADER = "repro.core.loader:load_ucp_into_engine"
_META_IO = ("repro.core.metadata:UCPMetadata.load", "repro.core.metadata:UCPMetadata.save")

# which end-to-end metrics a layer should move (``moves``) ...
_RESTARTS = ("standard_restart_s", "ucp_load_s", "restart_ratio")
_WRITES = ("save_s", "convert_s")
_READ_SIDE = ("standard_restart_s", "ucp_load_s", "convert_s")
_CONVERTS = ("convert_s", "ucp_restart_s", "restart_ratio")
_LOADS = ("ucp_load_s", "ucp_restart_s", "restart_ratio")
_BOTH = ("convert_s", "ucp_load_s")
# ... and on which workloads (``where``)
_PLANNED = ("reshard-medium", "resume-half-medium", "reshard-small-moe")
_SLICED = ("reshard-medium", "fig12-large")
_RESUMED = ("resume-half-medium",)

PER_LAYER: Tuple[LayerMetric, ...] = (
    _m("parallel.engine.build_s", "s", "lower", "self_s", [_ENGINE_INIT], _RESTARTS, ALL),
    _m("parallel.engine.sync_masters_s", "s", "lower", "self_s", [_SYNC], _RESTARTS, ALL),
    _m("ckpt.saver.self_s", "s", "lower", "self_s", [_SAVER], ["save_s"], BYTE_BOUND),
    _m("ckpt.saver.files", "count", "lower", "calls", [_PUT], ["save_s"], FIXED_COST,
       ops=("save",)),
    _m("ckpt.loader.self_s", "s", "lower", "self_s", [_LOADER], ["standard_restart_s"], ALL),
    _m("ckpt.manifest.verify_s", "s", "lower", "self_s", _VERIFY,
       ["standard_restart_s", "convert_s"], ALL),
    _m("ckpt.manifest.write_s", "s", "lower", "self_s",
       ["repro.ckpt.manifest:write_manifest"], ["save_s"], FIXED_COST),
    _m("storage.serializer.encode_s", "s", "lower", "self_s", [_ENCODE], _WRITES, BYTE_BOUND),
    _m("storage.serializer.encode_bytes", "B", "lower", "bytes", [_ENCODE], _WRITES,
       BYTE_BOUND),
    _m("storage.serializer.decode_s", "s", "lower", "self_s", [_DECODE],
       ["standard_restart_s"], BYTE_BOUND),
    _m("storage.serializer.decode_bytes", "B", "lower", "bytes", [_DECODE],
       ["standard_restart_s"], BYTE_BOUND),
    _m("storage.serializer.header_s", "s", "lower", "self_s", _HEADERS, _BOTH, FIXED_COST),
    _m("storage.serializer.header_calls", "count", "lower", "calls", _HEADERS, _BOTH,
       FIXED_COST),
    _m("storage.store.put_s", "s", "lower", "self_s", [_PUT], _WRITES, ALL),
    _m("storage.store.put_calls", "count", "lower", "calls", [_PUT], _WRITES, FIXED_COST),
    _m("storage.store.put_bytes", "B", "lower", "bytes", [_PUT], _WRITES, BYTE_BOUND),
    _m("storage.store.fsyncs", "count", "lower", "event", ["os:fsync"], _WRITES, FIXED_COST),
    _m("storage.store.renames", "count", "lower", "event", ["os:replace"], _WRITES,
       FIXED_COST),
    _m("storage.store.read_s", "s", "lower", "self_s", _READS, _READ_SIDE, ALL),
    _m("storage.store.read_calls", "count", "lower", "calls", _READS, _READ_SIDE,
       FIXED_COST),
    _m("storage.store.read_bytes", "B", "lower", "bytes", _READS, _READ_SIDE, BYTE_BOUND),
    _m("storage.store.digest_s", "s", "lower", "self_s", _HASH,
       ["save_s", "standard_restart_s"], BYTE_BOUND),
    _m("storage.rangeio.digest_s", "s", "lower", "self_s",
       ["repro.storage.rangeio:RangeReader.digest"], ["convert_s"], BYTE_BOUND),
    _m("storage.rangeio.read_multi_s", "s", "lower", "self_s", [_READ_MULTI], _BOTH, RESHARD),
    _m("storage.rangeio.read_multi_calls", "count", "lower", "calls", [_READ_MULTI], _BOTH,
       RESHARD),
    _m("storage.rangeio.preads", "count", "lower", "reader", [_READER],
       _BOTH + ("load_read_ratio",), RESHARD),
    _m("storage.rangeio.batches", "count", "lower", "reader", [_READER], _BOTH, RESHARD),
    _m("storage.rangeio.ranges_coalesced", "count", "higher", "reader", [_READER], _BOTH,
       RESHARD),
    _m("storage.rangeio.peak_window_bytes", "B", "lower", "reader", [_READER],
       ["peak_rss_mb"], BYTE_BOUND),
    _m("storage.rangeio.cache_hit_ratio", "x", "higher", "cache", [_CACHE],
       ["convert_read_ratio", "load_read_ratio"], RESHARD),
    _m("analysis.interchange.preflight_s", "s", "lower", "self_s",
       ["repro.analysis.interchange:preflight_convert"], _CONVERTS, _PLANNED),
    _m("analysis.provenance.analyze_s", "s", "lower", "self_s",
       ["repro.analysis.provenance:analyze_source"], _CONVERTS, _PLANNED),
    _m("core.convert.lower_s", "s", "lower", "self_s",
       ["repro.core.convert:lower_read_plans"], _CONVERTS, _PLANNED),
    _m("core.convert.plan_s", "s", "lower", "report", [_CONVERT], _CONVERTS, _PLANNED),
    _m("core.convert.digest_s", "s", "lower", "report", [_CONVERT], _CONVERTS, BYTE_BOUND),
    _m("core.convert.assemble_s", "s", "lower", "report", [_CONVERT], _CONVERTS, RESHARD),
    _m("core.convert.write_s", "s", "lower", "report", [_CONVERT], _CONVERTS, ALL),
    _m("core.convert.finalize_s", "s", "lower", "report", [_CONVERT], _CONVERTS, FIXED_COST),
    _m("core.convert.self_s", "s", "lower", "self_s", [_CONVERT], _CONVERTS, ALL),
    _m("core.convert.atoms_written", "count", "lower", "report", [_CONVERT], _CONVERTS,
       _RESUMED),
    _m("core.convert.atoms_reused", "count", "higher", "report", [_CONVERT],
       ["convert_s", "convert_read_ratio"], _RESUMED),
    _m("core.convert.ranges_coalesced", "count", "higher", "report", [_CONVERT], _CONVERTS,
       RESHARD),
    _m("core.convert.overlap", "x", "higher", "derived", [_CONVERT], _CONVERTS, BYTE_BOUND),
    _m("core.atom.write_s", "s", "lower", "self_s", [_ATOM_WRITE], _CONVERTS, FIXED_COST),
    _m("core.atom.write_calls", "count", "lower", "calls", [_ATOM_WRITE], _CONVERTS,
       FIXED_COST),
    _m("core.atom.read_s", "s", "lower", "self_s", _ATOM_READS, _BOTH,
       _RESUMED + BYTE_BOUND),
    _m("core.ops.gen_plan_s", "s", "lower", "self_s", ["repro.core.ops:gen_ucp_metadata"],
       _LOADS, _SLICED),
    _m("core.ops.load_s", "s", "lower", "self_s", ["repro.core.ops:load"], _LOADS, _SLICED),
    _m("core.ops.load_calls", "count", "lower", "calls", ["repro.core.ops:load"], _LOADS,
       _SLICED),
    _m("core.ops.slice_s", "s", "lower", "self_s",
       ["repro.core.ops:AtomShardCache.shard_slice"], _LOADS, _SLICED),
    _m("core.loader.self_s", "s", "lower", "self_s", [_UCP_LOADER], _LOADS, _SLICED),
    _m("core.metadata.io_s", "s", "lower", "self_s", _META_IO, _BOTH, FIXED_COST),
) + tuple(
    # the operation itself, from the traced run's untraced cycles: the
    # timings BENCHMARK.json carries without a bound
    _m(f"bench.{op}_s", "s", "lower", "untraced", [f"bench:{op}"], [f"{op}_s"], ALL)
    for op in OPS
) + tuple(
    # traced p50 / untraced p50 of the operation whose per-layer seconds it inflates
    _m(f"trace.overhead_ratio.{op}", "x", "lower", "derived", [f"bench:{op}"],
       [f"{op}_s"], ALL)
    for op in OPS
)

_REPORT_FIELDS = {
    **{
        f"core.convert.{stage}_s": lambda r, stage=stage: r["stage_seconds"].get(stage, 0.0)
        for stage in ("plan", "digest", "assemble", "write", "finalize")
    },
    "core.convert.atoms_written": lambda r: r["num_params"] - r["num_reused"],
    "core.convert.atoms_reused": lambda r: r["num_reused"],
    "core.convert.ranges_coalesced": lambda r: r["ranges_coalesced"],
}
_READER_FIELDS = {
    "storage.rangeio.preads": ("read_ops", sum),
    "storage.rangeio.batches": ("num_batches", sum),
    "storage.rangeio.ranges_coalesced": ("ranges_coalesced", sum),
    "storage.rangeio.peak_window_bytes": ("peak_window_bytes", max),
}


@dataclasses.dataclass
class Span:
    """One timed call; ``parent`` is the span that made it (None for an operation)."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    cycle: int
    op: str
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(path: str):
    """``module:qualname`` -> (owner object, attribute name, raw attribute)."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans of the :data:`TARGETS` while an operation is open.

    Spans are kept in memory; :meth:`write_spans` dumps them when the
    workload ends.  Wrappers are pass-through outside an operation, so
    the harness's own correctness checks never show up as spans.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Tuple[int, str]] = []  # (cycle, EVENTS key)
        self.counters: List[Tuple[int, str, Dict[str, int]]] = []  # (cycle, target, values)
        self._live: List[Tuple[Target, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._cycle = -1
        self._op: Optional[str] = None
        self._root: Optional[int] = None
        self._patched: List[Tuple[object, str, object]] = []

    # --- wrapping ------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(
                next(self._ids), target.path, target.layer, 0.0, 0.0,
                stack[-1] if stack else self._root,
                threading.get_ident(), self._cycle, op,
            )
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if target.size is not None:
                    span.nbytes = target.size(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
                if target.counters:
                    self._live.append((target, args[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn: Callable, key: str) -> Callable:
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.events.append((self._cycle, key))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner: object, attr: str, new: object, old: object) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def install(self) -> None:
        """Wrap every target; a function is patched wherever it was imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            owner, attr, raw = _resolve(target.path)
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(self._wrap(raw.__func__, target)), raw)
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(raw, target), raw)
            else:
                wrapped = self._wrap(raw, target)
                for module in list(sys.modules.values()):
                    names = getattr(module, "__dict__", {})
                    for key in [k for k, v in names.items() if v is raw]:
                        self._set(module, key, wrapped, raw)
        for key, (owner, attr) in EVENTS.items():
            raw = getattr(owner, attr)
            self._set(owner, attr, self._count(raw, key), raw)

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers exist only inside this block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- recording -----------------------------------------------------

    @contextlib.contextmanager
    def operation(self, cycle: int, op: str):
        """Open the root span of one timed operation; yields the Span."""
        span = Span(next(self._ids), f"bench:{op}", "bench", 0.0, 0.0, None,
                    threading.get_ident(), cycle, op)
        self._cycle, self._root, self._op = cycle, span.id, op
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._op = self._root = None
            self.spans.append(span)
            # read the counters now and let the readers and caches go:
            # a conversion's block cache can hold the whole source
            for target, obj in self._live:
                self.counters.append((
                    cycle, target.path,
                    {name: getattr(obj, name) for name in target.counters},
                ))
            self._live.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its same-thread children cover.

    A span started on a pool thread has the operation as parent but runs
    concurrently with it, so it is not subtracted from the operation's
    own time: its seconds are thread-seconds.
    """
    by_id = {span.id: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            covered[parent.id] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def cycle_values(
    tracer: Tracer, cycle: int, report: Dict, op_seconds: Dict[str, float]
) -> Dict[str, float]:
    """Every span-, counter- and report-backed per-layer value of one traced cycle."""
    spans = [s for s in tracer.spans if s.cycle == cycle]
    own = self_seconds(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    events = [key for ev_cycle, key in tracer.events if ev_cycle == cycle]
    counters: Dict[str, List[Dict[str, int]]] = defaultdict(list)
    for c_cycle, path, values in tracer.counters:
        if c_cycle == cycle:
            counters[path].append(values)

    out: Dict[str, float] = {}
    for metric in PER_LAYER:
        picked = [
            s for path in metric.callables for s in by_name.get(path, ())
            if metric.ops is None or s.op in metric.ops
        ]
        if metric.source == "self_s":
            out[metric.name] = sum(own[s.id] for s in picked)
        elif metric.source == "calls":
            out[metric.name] = len(picked)
        elif metric.source == "bytes":
            out[metric.name] = sum(s.nbytes for s in picked)
        elif metric.source == "event":
            out[metric.name] = events.count(metric.callables[0])
        elif metric.source == "reader":
            field, fold = _READER_FIELDS[metric.name]
            out[metric.name] = fold([r[field] for r in counters[_READER]] or [0])
        elif metric.source == "cache":
            hits = sum(c["hits"] for c in counters[_CACHE])
            lookups = hits + sum(c["misses"] for c in counters[_CACHE])
            out[metric.name] = hits / lookups if lookups else 0.0
        elif metric.source == "report":
            out[metric.name] = _REPORT_FIELDS[metric.name](report)
    stages = report["stage_seconds"]
    pool = sum(stages.get(k, 0.0) for k in ("digest", "read", "assemble", "write"))
    fan_out = op_seconds["convert"] - sum(
        stages.get(k, 0.0) for k in ("plan", "lower", "finalize")
    )
    out["core.convert.overlap"] = pool / fan_out if fan_out > 0 else 0.0
    return out


def coverage(tracer: Tracer, cycle: int) -> Dict[str, float]:
    """Per operation: main-thread self time of the traced layers / operation wall.

    The remainder is time in callables the table does not name; the
    smoke test keeps it under a tenth so the per-layer seconds explain
    the operation they are charged to.
    """
    spans = [s for s in tracer.spans if s.cycle == cycle]
    own = self_seconds(spans)
    out = {}
    for root in (s for s in spans if s.parent is None):
        named = sum(
            own[s.id] for s in spans
            if s.op == root.op and s.thread == root.thread and s.id != root.id
        )
        out[root.op] = named / root.seconds
    return out
