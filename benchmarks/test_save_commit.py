"""BENCH_save_commit — what one cold save does, as counts.

The save stages its rank files in order on the calling thread while a
fan-out encodes ahead of it and the store's commit pool publishes behind
it (``repro.ckpt.saver``).  Overlap must not buy its speed with extra
work, so the CI ``convert-perf`` step gates, per save and *exactly*:

* one encode (``repro.storage.serializer.encode``) and one SHA-256 pass
  per data file — the digest is taken over the bytes that are
  committed, once;
* each data file is staged as parts that sum to its size: its header
  block, then pads and payloads none larger than the file's largest
  tensor payload — the file is never joined into one buffer, whatever
  the allocator does with buffers that size;
* ``os.fsync`` calls at most the serial save's ``2 x files + 4`` (temp +
  directory per data file, then the manifest's and ``latest``'s) and
  ``os.replace`` calls exactly ``files + 2``;
* commit threads started == the resolved width (none at one core).

Counts, not stopwatches: wall time lives in the repo benchmark
(``benchmarks/e2e``, ``save_s`` / ``save_ratio`` on four workloads).
"""

import contextlib
import os
import threading

import pytest

from repro.ckpt import saver
from repro.dist.topology import ParallelConfig
from repro.storage.serializer import TensorIndexEntry
from repro.storage.store import CommitGroup, ObjectStore, resolve_workers

from bench_util import make_engine, record_result

# (label, model, parallel, optimizer layout)
SWEEP = [
    ("tp2.pp2.dp2.zero1", "gpt3-mini", ParallelConfig(tp=2, pp=2, dp=2), "flat"),
    ("moe.pp2.dp4.zero1", "moe-mini", ParallelConfig(pp=2, dp=4), "flat"),
    ("tp2.dp2.zero0.per_param", "gpt3-mini",
     ParallelConfig(tp=2, dp=2, zero_stage=0), "per_param"),
    ("dp4.zero3", "gpt3-mini", ParallelConfig(dp=4, zero_stage=3), "flat"),
]
WIDTHS = (1, 2, 8)


@contextlib.contextmanager
def save_counts(monkeypatch, width):
    """What a save inside the block did: encodes, hashes, fsyncs,
    renames, and the commit threads it started — on a ``width``-core
    machine as the save resolves it — plus the part sizes each file was
    staged from, under ``counts["staged"][rel_path]``."""
    counts = {"encode": 0, "sha256": 0, "fsync": 0, "replace": 0,
              "commit_threads": 0, "staged": {}}
    lock = threading.Lock()

    with monkeypatch.context() as patch:

        def counting(owner, attr, key, counted=lambda *args: True):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                with lock:
                    counts[key] += counted(*args)
                return real(*args, **kwargs)

            patch.setattr(owner, attr, wrapper)

        patch.setattr(os, "cpu_count", lambda: width)
        # the saver's own names: the manifest's encode and digest go
        # through the store's and are not rank-file work
        counting(saver, "encode", "encode")
        counting(saver, "sha256_hex", "sha256")
        counting(os, "fsync", "fsync")
        counting(os, "replace", "replace")
        counting(threading.Thread, "start", "commit_threads",
                 lambda thread: thread.name.startswith("ucp-commit"))
        real_stage = CommitGroup.stage

        def stage(group, rel_path, *parts):
            counts["staged"][rel_path] = [memoryview(p).nbytes for p in parts]
            return real_stage(group, rel_path, *parts)

        patch.setattr(CommitGroup, "stage", stage)
        yield counts


def split_staged(root, rel_path, parts):
    """Whether a committed ``.npt`` file was staged from ``parts`` (their
    sizes) that sum to the file, the first its header block and none
    other larger than its largest tensor payload; and that payload's
    size."""
    path = os.path.join(root, rel_path)
    with open(path, "rb") as fh:
        head = fh.read(12)
    header_len = int.from_bytes(head[4:12], "little")
    header_block = -(-(12 + header_len) // 64) * 64
    index = ObjectStore(root).load_index(rel_path)
    largest = max((entry.nbytes for entry in tensor_entries(index)), default=0)
    size = os.path.getsize(path)
    ok = (
        sum(parts) == size
        and parts[0] == header_block
        and max(parts[1:], default=0) <= largest
    )
    return ok, largest


def tensor_entries(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from tensor_entries(value)
    elif isinstance(node, list):
        for value in node:
            yield from tensor_entries(value)
    elif isinstance(node, TensorIndexEntry):
        yield node


@pytest.fixture(scope="module")
def engines():
    built = {}
    for label, model, parallel, _ in SWEEP:
        built[label] = make_engine(model, parallel=parallel)
        built[label].train(1)
    return built


def test_bench_save_commit(engines, monkeypatch, tmp_path):
    rows = []
    for label, _, _, layout in SWEEP:
        for width in WIDTHS:
            root = str(tmp_path / f"{label}-w{width}")
            store = ObjectStore(root, durable=True)
            with save_counts(monkeypatch, width) as counts:
                info = saver.save_distributed_checkpoint(
                    engines[label], root, store=store, optimizer_layout=layout
                )
                resolved = resolve_workers(None)
            files = len(info.files)
            staged = counts.pop("staged")
            split = {rel: split_staged(root, rel, staged[rel]) for rel in info.files}
            row = {"save": label, "cpus": width, "data_files": files,
                   "width": resolved, **counts,
                   "max_staged_part": max(max(staged[rel][1:], default=0)
                                          for rel in info.files),
                   "max_tensor_payload": max(largest for _, largest in split.values()),
                   "files_split": sum(ok for ok, _ in split.values())}
            rows.append(row)
            assert counts["encode"] == counts["sha256"] == files, row
            assert row["files_split"] == files, row
            assert counts["fsync"] <= 2 * files + 4, row
            assert counts["replace"] == files + 2, row
            assert counts["commit_threads"] == (resolved if resolved > 1 else 0), row

    record_result(
        "BENCH_save_commit",
        {
            "rows": rows,
            "fields": {
                "encode": "encodes of rank-file payloads (gated == data_files)",
                "sha256": "SHA-256 passes over rank-file bytes (gated == "
                          "data_files: one digest, over the committed bytes)",
                "fsync": "os.fsync calls of the durable save, manifest and "
                         "`latest` included (gated <= 2 x data_files + 4, "
                         "the serial save's)",
                "replace": "os.replace calls (gated == data_files + 2)",
                "commit_threads": "ucp-commit threads started (gated == "
                                  "width, 0 when width is 1: inline publish)",
                "width": "min(8, cpus): the fan-out's and the commit pool's",
                "files_split": "data files staged as their header block, "
                               "then parts none larger than the file's "
                               "largest tensor payload, summing to the "
                               "file's size (gated == data_files)",
                "max_staged_part": "largest part staged after a header "
                                   "block, over the save's data files (B)",
                "max_tensor_payload": "largest tensor payload of any data "
                                      "file (B)",
            },
        },
    )
