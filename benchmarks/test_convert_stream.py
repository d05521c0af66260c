"""BENCH_convert_stream — conversion & sliced-load byte costs.

The conversion pipeline groups the source layout's lowering into
byte-range read plans, so conversion never touches ``model_states`` files and a
sliced load pulls only each rank's partition bytes.  This benchmark
sweeps fig2-style interchange points (including the TP-degree change
the CI ``convert-perf`` job gates on) and records, per point:

* conversion — source bytes read (split into header / digest / planned
  state), atom bytes written, the source reads issued (one per touched
  file), the largest of them and the high-water mark of resident
  source bytes;
* loading — UCP bytes read per target engine against the UCP
  directory's size, and the store read calls the load issued (gated
  exactly: a header read and a payload read per atom state file, plus
  ``ucp_meta``);
* the CI gate fraction: a single target rank's sliced read over the
  checkpoint's total state bytes (must stay under 0.5 for the
  TP-degree-change row);
* planning — how many times a cold conversion and a cold whole-engine
  load executed a real fragmenter (``Fragmenter.shard`` over an
  ``arange``), gated *exactly* at the number of distinct ``(fragmenter,
  logical shape, degree, rank)`` shape classes the topology implies: a
  count, not a stopwatch (``plan_s`` is recorded beside it, ungated).
  The same cold conversion is gated at one header decode per source rank
  file, one ``ModelParallelLayout`` construction and one
  ``gen_ucp_metadata`` call: the plan is the source layout's lowering,
  built once, from one header pass.

Wall time lives in the repo benchmark (``benchmarks/e2e``, ``convert_s``
on four workloads); the retired full-read converter's last measurement
is frozen in ``results/BENCH_convert_wallclock.json``.
"""

import contextlib
import sys

from repro.core import intervals, ops
from repro.core.convert import ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.sharding import _FRAGMENTER_KINDS
from repro.parallel.tp import PATTERN_FRAGMENT
from repro.storage.faults import FaultPolicy
from repro.storage.store import ObjectStore

from bench_util import make_engine, record_result

# (label, model, source parallel, target parallel)
SWEEP = [
    (
        "tp4->tp2",
        "gpt3-mini",
        ParallelConfig(tp=4, dp=2),
        ParallelConfig(tp=2, dp=2),
    ),
    (
        "tp2.pp2->dp4.zero2",
        "gpt3-mini",
        ParallelConfig(tp=2, pp=2, dp=2),
        ParallelConfig(dp=4, zero_stage=2),
    ),
    (
        "moe.ep->dp2",
        "moe-mini",
        ParallelConfig(tp=2, dp=2, expert_parallel=True),
        ParallelConfig(dp=2),
    ),
]
GATE_LABEL = "tp4->tp2"
GATE_MAX_FRACTION = 0.5


@contextlib.contextmanager
def fragmenter_executions():
    """Every ``Fragmenter.shard`` call made inside the block, as
    ``(fragmenter, input shape, degree, rank)`` tuples."""
    calls, originals = [], {}
    for cls in _FRAGMENTER_KINDS.values():
        originals[cls] = real = cls.shard

        def counting(self, full, degree, rank, _real=real):
            calls.append((self, tuple(full.shape), degree, rank))
            return _real(self, full, degree, rank)

        cls.shard = counting
    try:
        yield calls
    finally:
        for cls, real in originals.items():
            cls.shard = real


@contextlib.contextmanager
def planner_counts():
    """What the block's planner did, as counts: ``header_decodes`` of
    source rank files (through the header-only store entry point),
    ``layout_builds`` (``ModelParallelLayout`` constructions) and
    ``lowerings`` (``gen_ucp_metadata`` calls, wherever it was imported)."""
    counts = {"header_decodes": 0, "layout_builds": 0, "lowerings": 0}
    originals = []

    def counting(owner, attr, key, counted=lambda *args: True):
        real = getattr(owner, attr)
        originals.append((owner, attr, real))

        def wrapper(self, *args, **kwargs):
            counts[key] += counted(*args)
            return real(self, *args, **kwargs)

        setattr(owner, attr, wrapper)

    def is_rank_file(rel_path, *_):
        return rel_path.endswith("_optim_states.npt")

    counting(ObjectStore, "load_index_sized", "header_decodes", is_rank_file)
    counting(ModelParallelLayout, "__init__", "layout_builds")
    lower = ops.gen_ucp_metadata

    def lowering(*args, **kwargs):
        counts["lowerings"] += 1
        return lower(*args, **kwargs)

    for module in list(sys.modules.values()):
        names = getattr(module, "__dict__", {})
        for key in [k for k, v in list(names.items()) if v is lower]:
            originals.append((module, key, lower))
            setattr(module, key, lowering)
    try:
        yield counts
    finally:
        for owner, attr, real in originals:
            setattr(owner, attr, real)


def shape_classes(model: str, parallel: ParallelConfig) -> set:
    """The distinct shard maps a topology implies (none at tp 1)."""
    if parallel.tp == 1:
        return set()
    specs = ModelParallelLayout(get_config(model), parallel).shard_specs
    return {
        (spec.fragmenter, tuple(spec.logical_shape), parallel.tp, rank)
        for spec in specs.values()
        if spec.pattern == PATTERN_FRAGMENT
        for rank in range(parallel.tp)
    }


def test_bench_convert_stream(benchmark, tmp_path):
    rows = []
    gate_fraction = None
    for label, model, source, target in SWEEP:
        engine = make_engine(model, parallel=source)
        engine.train(2)
        ckpt = str(tmp_path / f"{label}-ckpt".replace(">", ""))
        engine.save_checkpoint(ckpt)
        src_store = ObjectStore(ckpt)
        ckpt_bytes = sum(src_store.size(rel) for rel in src_store.list("."))

        stream_dir = str(tmp_path / f"{label}-stream".replace(">", ""))
        # serial, so that peak_resident_bytes is the plan's own figure
        # (above one worker it depends on which atoms overlap); every
        # byte column is the same at any worker count
        intervals.clear_memo()
        with fragmenter_executions() as convert_calls, planner_counts() as planned:
            streamed = ucp_convert(ckpt, stream_dir, workers=1)
        # conversion must never read the model_states / padding bytes
        assert 0 < streamed.bytes_read < ckpt_bytes, label
        # CI planner gate: one fragmenter execution per shape class
        convert_classes = shape_classes(model, source)
        assert sorted(convert_calls, key=repr) == sorted(
            convert_classes, key=repr
        ), (label, len(convert_calls), len(convert_classes))
        # CI planner gate: one header pass, one layout and one lowering
        # (the source layout's gen_ucp_metadata) per conversion
        assert planned == {
            "header_decodes": streamed.num_files, "layout_builds": 1,
            "lowerings": 1,
        }, (label, planned, streamed.num_files)

        # the base policy injects nothing; it counts every read call
        reads = FaultPolicy()
        ucp_store = ObjectStore(stream_dir, faults=reads)
        target_engine = make_engine(model, parallel=target, seed=0)
        intervals.clear_memo()
        with fragmenter_executions() as load_calls, planner_counts() as loaded:
            load_ucp_into_engine(target_engine, stream_dir, store=ucp_store)
        load_classes = shape_classes(model, target)
        assert sorted(load_calls, key=repr) == sorted(load_classes, key=repr), (
            label, len(load_calls), len(load_classes),
        )
        # CI planner gate: the load lowers from the engine's own layout
        assert loaded["layout_builds"] == 0, (label, loaded)
        sliced_bytes = ucp_store.bytes_read
        ucp_dir_bytes = sum(ucp_store.size(rel) for rel in ucp_store.list("."))
        assert 0 < sliced_bytes < ucp_dir_bytes, label
        # CI convert-perf gate: the load is atom-major, one header read
        # and one payload read per atom state file, plus ucp_meta
        state_files = sum(
            not rel.endswith("atom_meta.npt") for rel in ucp_store.list("atoms")
        )
        assert reads.read_ops <= 2 * state_files + 1, (label, reads.read_ops)

        n_partitions = target.tp * target.pp * target.sp * target.dp
        state_bytes = streamed.atom_bytes
        fraction = (sliced_bytes / n_partitions) / state_bytes
        if label == GATE_LABEL:
            gate_fraction = fraction

        rows.append(
            {
                "interchange": label,
                "model": model,
                "source": source.describe(),
                "target": target.describe(),
                "checkpoint_bytes": ckpt_bytes,
                "streamed_bytes_read": streamed.bytes_read,
                "streamed_header_bytes": streamed.header_bytes,
                "streamed_digest_bytes": streamed.digest_bytes,
                "streamed_planned_state_bytes": streamed.planned_state_bytes,
                "atom_bytes_written": streamed.atom_bytes,
                "num_preads": streamed.num_preads,
                "peak_window_bytes": streamed.peak_window_bytes,
                "peak_resident_bytes": streamed.peak_resident_bytes,
                "sliced_load_bytes": sliced_bytes,
                "ucp_dir_bytes": ucp_dir_bytes,
                "load_read_calls": reads.read_ops,
                "atom_state_files": state_files,
                "per_rank_read_fraction": round(fraction, 4),
                "fragmenter_executions": {
                    "convert": len(convert_calls), "load": len(load_calls),
                },
                "shape_classes": {
                    "convert": len(convert_classes), "load": len(load_classes),
                },
                "header_decodes": planned["header_decodes"],
                "rank_files": streamed.num_files,
                "layout_builds": planned["layout_builds"],
                "lowerings": planned["lowerings"],
                "plan_s": round(streamed.stage_seconds["plan"], 4),
            }
        )

    # CI convert-perf gate: a TP-degree-change target rank reads under
    # half the checkpoint's state bytes via sliced atom reads
    assert gate_fraction is not None
    assert gate_fraction < GATE_MAX_FRACTION, gate_fraction

    # benchmark the gated interchange's conversion precisely
    counter = [0]
    gate_ckpt = str(tmp_path / "tp4-tp2-ckpt")

    def streamed_convert_once():
        counter[0] += 1
        ucp_convert(gate_ckpt, str(tmp_path / f"bench-ucp-{counter[0]}"))

    benchmark.pedantic(streamed_convert_once, rounds=3, iterations=1)

    record_result(
        "BENCH_convert_stream",
        {
            "rows": rows,
            "gate": {
                "interchange": GATE_LABEL,
                "per_rank_read_fraction": round(gate_fraction, 4),
                "max_fraction": GATE_MAX_FRACTION,
            },
            "fields": {
                "streamed_bytes_read": "total source bytes the streamed "
                    "conversion pulled from disk: headers + manifest "
                    "digest verification + planned state, each byte read "
                    "once through the shared block cache",
                "streamed_header_bytes": "shard header bytes parsed "
                    "during planning",
                "streamed_digest_bytes": "bytes hashed to verify the "
                    "manifest digests of plan-touched files (whole "
                    "files, so this can exceed the planned state bytes)",
                "streamed_planned_state_bytes": "state bytes the "
                    "lowered read plans actually need — the conversion "
                    "analogue of the sliced-load claim",
                "load_read_calls": "store read calls of the whole-engine "
                    "load, gated at 2 per atom state file (header, "
                    "payload) + 1 for ucp_meta",
                "fragmenter_executions": "Fragmenter.shard calls during "
                    "the row's cold (memo emptied) conversion / "
                    "whole-engine load; gated equal to shape_classes",
                "shape_classes": "distinct (fragmenter, logical shape, "
                    "degree, rank) shard maps the source / target "
                    "topology implies — 0 at tp 1",
                "header_decodes": "header-only decodes of source rank "
                    "files during the row's cold conversion; gated equal "
                    "to rank_files (one header pass)",
                "layout_builds": "ModelParallelLayout constructions "
                    "during the same conversion; gated at 1",
                "lowerings": "gen_ucp_metadata calls during the same "
                    "conversion: its reads are the source layout's "
                    "lowering; gated at 1",
                "plan_s": "the cold conversion's planning stage, wall "
                    "seconds on the calling thread (recorded, not gated)",
                "per_rank_read_fraction": "sliced-LOAD metric: one "
                    "target rank's sliced UCP read over the "
                    "checkpoint's state bytes — about loading the "
                    "converted checkpoint, not about conversion reads",
            },
            "note": "conversion reads exclude model_states files, and "
                    "the 0.25x gate fraction is a sliced-load "
                    "(per_rank_read_fraction) claim — conversion still "
                    "reads whole optimizer files once, for digest "
                    "verification",
        },
    )
