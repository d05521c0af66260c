"""Crash matrix: injected crashes at every file-write boundary.

The commit-protocol invariant under test: whatever the crash point,
recovery either lands on the previous committed tag bit-identically or
fails with a typed error — a torn save or conversion is never silently
loaded as wrong weights.  Conversion additionally resumes: a re-run
after a crash reuses every atom that already committed intact.
"""

import dataclasses
import errno
import os
import shutil
import sys

import numpy as np
import pytest

from repro.ckpt.errors import CheckpointError, CheckpointNotFoundError
from repro.ckpt.loader import latest_committed_tag, load_distributed_checkpoint
from repro.ckpt.naming import LATEST_FILE, MANIFEST_FILE
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.atom import AtomStore
from repro.core.convert import CONVERT_SOURCE_FILE, ucp_convert
from repro.core.inspect import verify_directory
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.optim.lr_schedule import ConstantLRSchedule
from repro.parallel.engine import TrainingEngine
from repro.storage.faults import (
    CrashAtWrite,
    FaultPolicy,
    InjectedCrash,
    NoSpaceAtPublish,
    RankKillAtWrite,
    RankKilled,
)
from repro.storage.store import ObjectStore

PARALLEL = ParallelConfig(tp=2, dp=2, zero_stage=1)


def tiny_engine(seed: int = 7) -> TrainingEngine:
    """A one-layer model keeps the write-boundary count tractable."""
    cfg = dataclasses.replace(get_config("gpt3-mini"), num_layers=1)
    return TrainingEngine(
        cfg, PARALLEL, seed=seed, global_batch_size=4, seq_len=16
    )


def dir_digests(root, sub: str = "."):
    """rel path -> sha256 for every committed object under a directory."""
    store = ObjectStore(str(root))
    return {rel: store.digest(rel) for rel in store.list(sub)}


def leftover_tmps(root):
    """Every ``*.tmp`` under a directory (``ObjectStore.list`` hides them)."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.tmp"))


def whole_atoms(root):
    """Atoms whose sidecar is visible — what a resumed run may reuse."""
    return sorted(p.parent.name for p in root.glob("atoms/*/atom_meta.npt"))


@pytest.fixture(scope="module")
def save_setup(tmp_path_factory):
    """A committed tag, a trained-further engine, and the boundary count
    of the save that would commit the next tag."""
    root = tmp_path_factory.mktemp("crash_save")
    baseline = root / "baseline"
    engine = tiny_engine()
    engine.train(2)
    save_distributed_checkpoint(engine, str(baseline))
    engine.train(2)  # iteration 4: the next save writes global_step4
    committed = dir_digests(baseline, "global_step2")

    probe = root / "probe"
    shutil.copytree(baseline, probe)
    counter = FaultPolicy()
    save_distributed_checkpoint(
        engine, str(probe), store=ObjectStore(str(probe), faults=counter)
    )
    return engine, baseline, committed, counter.write_ops


class TestSaveCrashMatrix:
    def test_boundary_count_covers_manifest_and_latest(self, save_setup):
        _, _, committed, n_boundaries = save_setup
        # every data file + the manifest + the `latest` marker
        assert n_boundaries == len(committed) - 1 + 2

    def test_crash_at_every_write_boundary(self, save_setup, tmp_path):
        engine, baseline, committed, n_boundaries = save_setup
        for k in range(n_boundaries):
            for torn in (False, True):
                work = tmp_path / f"k{k}_{'torn' if torn else 'clean'}"
                shutil.copytree(baseline, work)
                store = ObjectStore(str(work), faults=CrashAtWrite(k, torn=torn))
                with pytest.raises(InjectedCrash):
                    save_distributed_checkpoint(engine, str(work), store=store)

                # recovery via `latest` always succeeds...
                recovered = tiny_engine(seed=0)
                tag = None
                try:
                    tag = load_distributed_checkpoint(recovered, str(work))
                except CheckpointError as exc:
                    pytest.fail(
                        f"crash at boundary {k} (torn={torn}) broke "
                        f"recovery via latest: {exc}"
                    )
                if k < n_boundaries - 1:
                    # ...onto the previous tag, bit-identical on disk
                    assert tag == "global_step2", (k, torn)
                    assert dir_digests(work, "global_step2") == committed
                else:
                    # crash during the `latest` write itself: the new
                    # tag is already committed, only the pointer is old
                    assert tag == "global_step2"

                # the in-flight tag loads only once its manifest
                # committed; anything less raises a typed error
                probe = tiny_engine(seed=0)
                try:
                    load_distributed_checkpoint(
                        probe, str(work), tag="global_step4"
                    )
                except CheckpointError:
                    assert k < n_boundaries - 1, (k, torn)
                else:
                    assert k == n_boundaries - 1, (k, torn)

                # an integrity sweep never flags the directory: torn
                # bytes live only in .tmp files outside committed state
                assert verify_directory(str(work)).ok, (k, torn)


@pytest.fixture(scope="module")
def convert_setup(tmp_path_factory):
    """A committed source, its reference conversion, and the conversion
    write-boundary count."""
    root = tmp_path_factory.mktemp("crash_convert")
    ckpt = root / "ckpt"
    engine = tiny_engine()
    engine.train(2)
    save_distributed_checkpoint(engine, str(ckpt))

    ref_ucp = root / "ref_ucp"
    ucp_convert(str(ckpt), str(ref_ucp))
    ref_digests = dir_digests(ref_ucp)

    probe = root / "probe_ucp"
    counter = FaultPolicy()
    # workers=1 throughout this matrix: the boundary arithmetic below
    # assumes the serial write order (marker, then per atom 4 staged
    # writes and one group publish, in name order, then ucp_meta); the
    # parallel pipeline's crash-resume behavior is covered by
    # tests/test_convert_stream.py
    ucp_convert(
        str(ckpt), str(probe), workers=1,
        dst_store=ObjectStore(str(probe), faults=counter),
    )
    return engine, ckpt, ref_digests, counter.write_ops


class TestConversionCrashMatrix:
    def test_boundary_count_decomposes(self, convert_setup):
        _, _, _, n_boundaries = convert_setup
        # source marker + 4 files per atom + ucp_meta
        assert n_boundaries > 2
        assert (n_boundaries - 2) % 4 == 0

    def test_crash_at_every_write_boundary_then_resume(
        self, convert_setup, tmp_path
    ):
        engine, ckpt, ref_digests, n_boundaries = convert_setup
        total_reused = 0
        for k in range(n_boundaries):
            work = tmp_path / f"k{k}"
            store = ObjectStore(str(work), faults=CrashAtWrite(k))
            with pytest.raises(InjectedCrash):
                ucp_convert(str(ckpt), str(work), workers=1, dst_store=store)

            report = ucp_convert(str(ckpt), str(work))
            # atoms commit in 4 writes each, after the boundary-0
            # source marker; every fully committed atom is reused
            expected_reused = (k - 1) // 4 if k >= 1 else 0
            assert report.num_reused == expected_reused, k
            total_reused += report.num_reused
            # resumed output is bit-identical to a clean conversion
            assert dir_digests(work) == ref_digests, k
            # ... and overwrote-and-published whatever the kill left staged
            assert leftover_tmps(work) == [], k
        assert total_reused > 0

    def test_torn_conversion_crash_resumes_identically(
        self, convert_setup, tmp_path
    ):
        _, ckpt, ref_digests, n_boundaries = convert_setup
        for k in (1, n_boundaries - 1):
            work = tmp_path / f"torn{k}"
            store = ObjectStore(str(work), faults=CrashAtWrite(k, torn=True))
            with pytest.raises(InjectedCrash):
                ucp_convert(str(ckpt), str(work), workers=1, dst_store=store)
            assert leftover_tmps(work), "the torn temp is the crash's evidence"
            ucp_convert(str(ckpt), str(work))
            assert dir_digests(work) == ref_digests, k
            assert leftover_tmps(work) == [], k

    def test_mid_atom_kill_leaves_the_group_staged_not_published(
        self, convert_setup, tmp_path
    ):
        """A kill at an atom's fourth write finds three temps and no
        final file: nothing of a group is visible before its publish."""
        _, ckpt, _, _ = convert_setup
        work = tmp_path / "ucp"
        store = ObjectStore(str(work), faults=CrashAtWrite(4))
        with pytest.raises(InjectedCrash):
            ucp_convert(str(ckpt), str(work), workers=1, dst_store=store)
        (atom_dir,) = (work / "atoms").iterdir()
        assert sorted(p.name for p in atom_dir.iterdir()) == [
            "exp_avg.npt.tmp", "exp_avg_sq.npt.tmp", "fp32.npt.tmp"
        ]

    def test_serial_conversion_fsyncs_five_times_per_atom(
        self, convert_setup, tmp_path, monkeypatch
    ):
        """Group commit: 4 temps + 1 directory per atom, plus the marker
        (2), ``atoms/`` (1) and ``ucp_meta`` (2).  Per-file commits cost
        ``8 * atoms + 4``."""
        _, ckpt, ref_digests, n_boundaries = convert_setup
        atoms = (n_boundaries - 2) // 4
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
        )
        work = tmp_path / "ucp"
        ucp_convert(
            str(ckpt), str(work), workers=1,
            dst_store=ObjectStore(str(work), durable=True),
        )
        assert len(calls) == 5 * atoms + 5
        assert dir_digests(work) == ref_digests

    def test_benchmark_kill_then_default_resume_reuses_half(
        self, convert_setup, tmp_path
    ):
        """The repo benchmark's ``resume-half`` shape: a serial run
        killed at store write ``2 * num_params``, resumed at default
        workers (the commit pool), reuses exactly the whole atoms."""
        _, ckpt, ref_digests, n_boundaries = convert_setup
        num_params = (n_boundaries - 2) // 4
        work = tmp_path / "ucp"
        store = ObjectStore(
            str(work), faults=RankKillAtWrite(ranks=[0], at=2 * num_params)
        )
        with pytest.raises(RankKilled):
            ucp_convert(str(ckpt), str(work), workers=1, dst_store=store)
        report = ucp_convert(str(ckpt), str(work))
        assert report.num_reused == (2 * num_params - 1) // 4
        assert dir_digests(work) == ref_digests
        assert leftover_tmps(work) == []

    def test_reference_conversion_loads_exactly(self, convert_setup, tmp_path):
        engine, ckpt, _, _ = convert_setup
        ucp = tmp_path / "ucp"
        ucp_convert(str(ckpt), str(ucp))
        target = tiny_engine(seed=0)
        target.load_universal(str(ucp))
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            a = engine.zero.consolidated_tensors(kind)
            b = target.zero.consolidated_tensors(kind)
            for name in a:
                cut = tuple(
                    slice(0, d)
                    for d in engine.layout.spec(name).unpadded_shape
                )
                assert np.array_equal(a[name][cut], b[name][cut]), (name, kind)

    @pytest.mark.parametrize("leftover", ["state", "sidecar", "marker"])
    def test_wrong_shaped_leftover_is_reconverted_not_a_traceback(
        self, convert_setup, tmp_path, leftover
    ):
        """A leftover that decodes cleanly but is not what its name says
        — a state file without ``values``, a sidecar or a source marker
        that is a list — is "not reusable": the resume re-converts."""
        _, ckpt, ref_digests, n_boundaries = convert_setup
        num_params = (n_boundaries - 2) // 4
        work = tmp_path / "ucp"
        ucp_convert(str(ckpt), str(work))
        store = ObjectStore(str(work))
        atom = AtomStore(str(work)).list_atoms()[0]
        store.save(*{
            "state": (f"atoms/{atom}/fp32.npt", {"vals": np.zeros(3, np.float32)}),
            "sidecar": (f"atoms/{atom}/atom_meta.npt", ["not", "a", "mapping"]),
            "marker": (CONVERT_SOURCE_FILE, ["not", "a", "mapping"]),
        }[leftover])
        report = ucp_convert(str(ckpt), str(work))
        assert report.num_reused == (
            0 if leftover == "marker" else num_params - 1
        )
        assert dir_digests(work) == ref_digests

    def test_sidecar_with_wrong_typed_kinds_is_reconverted(
        self, convert_setup, tmp_path
    ):
        """A sidecar that is a mapping but records ``kinds = 5``, under a
        matching source marker, with the commit point gone: the resumed
        run re-converts that one atom instead of dying on ``sorted(5)``."""
        _, ckpt, ref_digests, n_boundaries = convert_setup
        num_params = (n_boundaries - 2) // 4
        work = tmp_path / "ucp"
        ucp_convert(str(ckpt), str(work))
        store = ObjectStore(str(work))
        rel = f"atoms/{AtomStore(str(work)).list_atoms()[0]}/atom_meta.npt"
        store.save(rel, {**store.load(rel), "kinds": 5})
        store.delete("ucp_meta.npt")
        report = ucp_convert(str(ckpt), str(work))
        assert report.num_reused == num_params - 1
        assert dir_digests(work) == ref_digests

    def test_stale_output_from_other_source_not_reused(
        self, convert_setup, tmp_path
    ):
        """Atoms left by a conversion of a *different* committed source
        must be rewritten, not reused — the identity marker gates it."""
        _, ckpt, ref_digests, _ = convert_setup
        other = tiny_engine(seed=3)
        other.train(2)
        other_ckpt = tmp_path / "other_ckpt"
        save_distributed_checkpoint(other, str(other_ckpt))

        work = tmp_path / "ucp"
        ucp_convert(str(other_ckpt), str(work))
        report = ucp_convert(str(ckpt), str(work))
        assert report.num_reused == 0
        # fully rewritten: every object matches the clean conversion
        assert dir_digests(work) == ref_digests


def rolled_back(root):
    """A checkpoint directory whose ``global_step4`` was converted in
    full into ``root/ucp``, then rolled back to ``global_step2``,
    retrained (another learning rate) and re-saved under the same tag.
    Returns ``(ckpt, ucp, num_params)``."""
    ckpt, ucp = root / "ckpt", root / "ucp"
    engine = tiny_engine()
    engine.train(2)
    save_distributed_checkpoint(engine, str(ckpt))
    engine.train(2)
    save_distributed_checkpoint(engine, str(ckpt))
    ucp_convert(str(ckpt), str(ucp))
    old = ObjectStore(str(ckpt)).digest(f"global_step4/{MANIFEST_FILE}")
    redo = TrainingEngine(
        engine.model_cfg, PARALLEL, seed=7, global_batch_size=4, seq_len=16,
        lr_schedule=ConstantLRSchedule(5e-5),
    )
    redo.load_checkpoint(str(ckpt), tag="global_step2")
    redo.train(2)
    save_distributed_checkpoint(redo, str(ckpt))
    assert ObjectStore(str(ckpt)).digest(f"global_step4/{MANIFEST_FILE}") != old
    return ckpt, ucp, len(engine.layout.shard_specs)


class TestStaleDestination:
    """A destination that holds another commit's conversion — here the
    same tag, re-saved after a rollback — is emptied before it is
    claimed: a killed re-conversion and its resume reuse only atoms of
    the new commit."""

    def test_killed_reconversion_resumes_only_its_own_atoms(self, tmp_path):
        ckpt, ucp, num_params = rolled_back(tmp_path)
        store = ObjectStore(
            str(ucp), faults=RankKillAtWrite(ranks=[0], at=2 * num_params)
        )
        with pytest.raises(RankKilled):
            ucp_convert(str(ckpt), str(ucp), workers=1, dst_store=store)
        # the old commit point and every old atom are gone; what is
        # whole is what this run wrote before the kill
        assert not (ucp / "ucp_meta.npt").exists()
        assert len(whole_atoms(ucp)) == (2 * num_params - 1) // 4

        report = ucp_convert(str(ckpt), str(ucp))
        assert report.num_reused == (2 * num_params - 1) // 4
        clean = tmp_path / "clean"
        ucp_convert(str(ckpt), str(clean))
        assert dir_digests(ucp) == dir_digests(clean)

    def test_old_output_is_durably_gone_before_the_marker(self, tmp_path):
        """``ucp_meta.npt`` first, then every atom file, each removal
        covered by a directory fsync — all before the new marker's first
        byte is written, so no crash point leaves another commit's atom
        under this commit's marker."""
        from repro.analysis.fswitness import fstrace

        ckpt, ucp, num_params = rolled_back(tmp_path)
        with fstrace(capture_data=False) as rec:
            ucp_convert(
                str(ckpt), str(ucp), workers=1,
                dst_store=ObjectStore(str(ucp), durable=True),
            )
        ops = rec.ops()
        marker = min(
            i for i, op in enumerate(ops)
            if op.kind == "write" and op.path == f"s0/{CONVERT_SOURCE_FILE}.tmp"
        )
        unlinked = [
            (i, op.path) for i, op in enumerate(ops) if op.kind == "unlink"
        ]
        assert unlinked[0][1] == "s0/ucp_meta.npt"
        assert len(unlinked) == 1 + 4 * num_params
        for i, path in unlinked:
            parent = path.rsplit("/", 1)[0]
            assert any(
                op.kind == "fsync_dir" and op.path == parent
                for op in ops[i + 1:marker]
            ), path

    def test_empty_destination_deletes_nothing(self, convert_setup, tmp_path):
        """The clearing costs an empty destination no file effect: its
        trace is the marker, the atoms and ``ucp_meta.npt``."""
        from repro.analysis.fswitness import fstrace

        _, ckpt, _, _ = convert_setup
        with fstrace(capture_data=False) as rec:
            ucp_convert(str(ckpt), str(tmp_path / "ucp"), workers=1)
        assert "unlink" not in {op.kind for op in rec.ops()}
        assert rec.ops()[0].path == f"s0/{CONVERT_SOURCE_FILE}.tmp"


class TestGroupCommitProtocol:
    """The conversion's write-behind group commit: publish failures,
    the ``atoms/`` fsync, and the FS witness's verdict on a
    ``workers=2`` run."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_publish_failure_fails_before_commit_point_and_leaks_nothing(
        self, convert_setup, tmp_path, workers
    ):
        _, ckpt, ref_digests, _ = convert_setup
        work = tmp_path / "ucp"
        # publish 0 is the marker's rename, an atom is four: index 6 is
        # the second rename of the second atom published
        store = ObjectStore(str(work), faults=NoSpaceAtPublish(at=6))
        with pytest.raises(OSError) as excinfo:
            ucp_convert(str(ckpt), str(work), workers=workers, dst_store=store)
        assert excinfo.value.errno == errno.ENOSPC
        assert not (work / "ucp_meta.npt").exists()
        assert leftover_tmps(work) == []
        reusable = whole_atoms(work)
        if workers == 1:
            assert len(reusable) == 1  # exactly the atom before the fault

        report = ucp_convert(str(ckpt), str(work), workers=workers)
        assert report.num_reused == len(reusable)
        assert dir_digests(work) == ref_digests
        assert leftover_tmps(work) == []

    def test_atoms_dir_is_fsynced_before_the_commit_point(
        self, convert_setup, tmp_path
    ):
        """Each ``atoms/<name>/`` is an entry of ``atoms/`` that no
        group publish makes durable; ``ucp_meta.npt`` must not be able
        to outlive them."""
        from repro.analysis.fswitness import fstrace

        _, ckpt, _, _ = convert_setup
        work = tmp_path / "ucp"
        with fstrace(capture_data=False) as rec:
            ucp_convert(
                str(ckpt), str(work),
                dst_store=ObjectStore(str(work), durable=True),
            )
        ops = rec.ops()
        synced = [
            i for i, op in enumerate(ops)
            if op.kind == "fsync_dir" and op.path == "s0/atoms"
        ]
        (commit,) = [
            i for i, op in enumerate(ops)
            if op.kind == "rename" and op.dst == "s0/ucp_meta.npt"
        ]
        last_atom_rename = max(
            i for i, op in enumerate(ops)
            if op.kind == "rename" and (op.dst or "").startswith("s0/atoms/")
        )
        assert len(synced) == 1
        assert last_atom_rename < synced[0] < commit

    @staticmethod
    def _resumed_trace(convert_setup, work):
        """A durable ``workers=2`` conversion traced while it resumes
        over all but four atoms of an uncommitted destination."""
        from repro.analysis.fswitness import fstrace

        _, ckpt, _, _ = convert_setup
        ucp_convert(str(ckpt), str(work), workers=1)
        os.remove(work / "ucp_meta.npt")
        for atom in whole_atoms(work)[:4]:
            shutil.rmtree(work / "atoms" / atom)

        with fstrace() as rec:
            report = ucp_convert(
                str(ckpt), str(work), workers=2,
                dst_store=ObjectStore(str(work), durable=True),
            )
        assert report.num_params - report.num_reused == 4
        return rec

    def test_two_worker_trace_is_clean_under_the_crash_enumerator(
        self, convert_setup, tmp_path
    ):
        """UCP032-UCP035 over a recorded ``workers=2`` group-commit run:
        every rename's temp was fsynced first, every rename is covered
        by a later parent-directory fsync, no temp survives, and every
        enumerated post-crash state recovers — exhaustively, at the
        default state cap (the CI ``chaos`` job enumerates a whole
        conversion)."""
        from repro.analysis.fswitness import check_fs_trace

        _, _, ref_digests, _ = convert_setup
        work = tmp_path / "ucp"
        rec = self._resumed_trace(convert_setup, work)
        threads = {op.thread for op in rec.ops() if op.kind == "fsync"}
        assert any(name.startswith("ucp-commit") for name in threads)
        verdict = check_fs_trace(rec)
        assert verdict.diagnostics == [], verdict.render_text()
        assert dir_digests(work) == ref_digests

    def test_commit_point_before_drain_is_a_recovery_failure(
        self, convert_setup, tmp_path, monkeypatch
    ):
        """``_commit`` mutated from its own body to save ``ucp_meta.npt``
        ahead of ``commits.drain()``: the commit point can then survive
        a crash that loses atoms it names.  Each publish is held back
        200 ms so the mutated commit point lands before the last
        atom's publish on any box."""
        import inspect
        import time

        from repro.analysis.fswitness import check_fs_trace
        from repro.core import convert
        from repro.storage.store import CommitPool
        from tests.helpers import mutate

        source = inspect.getsource(convert._commit)
        drain = "    publish_s = commits.drain()\n    atom_store.fsync_dir()\n"
        commit = "    return metadata.save(atom_store.store), publish_s\n"
        old = source[source.index(drain):source.index(commit) + len(commit)]
        new = old.replace(drain, "").replace(commit, (
            "    meta_bytes = metadata.save(atom_store.store)\n" + drain
            + "    return meta_bytes, publish_s\n"
        ))
        mutate(monkeypatch, convert, "_commit", old, new)
        publish = CommitPool._publish

        def held_back(pool, group):
            time.sleep(0.2)
            return publish(pool, group)

        monkeypatch.setattr(CommitPool, "_publish", held_back)
        rec = self._resumed_trace(convert_setup, tmp_path / "ucp")
        failures = check_fs_trace(rec).by_rule("UCP033")
        assert failures
        assert all("store s0: ucp_meta.npt survived" in d.message
                   for d in failures), failures[0].message

    def test_resume_gate_that_skips_the_states_is_a_recovery_failure(
        self, convert_setup, tmp_path, monkeypatch
    ):
        """``AtomStore.reusable_entry`` mutated from its own body to
        accept any atom whose sidecar matches, without reading its
        states: a crash state where one state file's rename was lost
        but the sidecar's survived is then reused as whole."""
        from repro.analysis.fswitness import check_fs_trace
        from tests.helpers import mutate

        rec = self._resumed_trace(convert_setup, tmp_path / "ucp")
        mutate(
            monkeypatch, AtomStore, "reusable_entry",
            "for kind in STATE_KINDS:", "for kind in ():",
        )
        ops = rec.ops()
        failures = check_fs_trace(rec).by_rule("UCP033")
        assert failures
        for diag in failures:
            assert "store s0: a resume would reuse atom" in diag.message
            dropped = ops[int(diag.location.rsplit("/drop#", 1)[1])]
            assert dropped.kind == "rename"
            assert dropped.dst.rsplit("/", 1)[1] in {
                "fp32.npt", "exp_avg.npt", "exp_avg_sq.npt"
            }

    def test_commit_pool_under_oversubscription(self, convert_setup, tmp_path):
        """More workers (and commit threads) than cores, a 10 us switch
        interval: every staged group is published exactly once — the
        digest map is the reference's, nothing is left staged, and the
        byte counter saw every file."""
        _, ckpt, ref_digests, n_boundaries = convert_setup
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for attempt in range(3):
                work = tmp_path / f"ucp{attempt}"
                report = ucp_convert(str(ckpt), str(work), workers=8)
                assert dir_digests(work) == ref_digests
                assert leftover_tmps(work) == []
                assert report.num_reused == 0
                assert set(report.stage_seconds) == {
                    "lower", "plan", "digest", "read", "assemble", "write",
                    "finalize",
                }
        finally:
            sys.setswitchinterval(previous)


class TestLatestCommittedSelection:
    """``latest_committed_tag`` under partial and torn final saves.

    The elastic supervisor resumes from this function's answer, so it
    must always name the newest tag whose commit manifest is intact —
    never a torn save, and *newer* than the ``latest`` pointer when a
    crash struck between the manifest commit and the pointer update.
    """

    def _trained(self, steps: int = 2) -> TrainingEngine:
        engine = tiny_engine()
        engine.train(steps)
        return engine

    @pytest.mark.parametrize("torn", [False, True])
    def test_pre_commit_kill_keeps_previous_tag(self, tmp_path, torn):
        engine = self._trained(2)
        save_distributed_checkpoint(engine, str(tmp_path))
        engine.train(2)
        store = ObjectStore(
            str(tmp_path),
            faults=RankKillAtWrite(ranks=(1,), match=MANIFEST_FILE, torn=torn),
        )
        with pytest.raises(RankKilled):
            save_distributed_checkpoint(engine, str(tmp_path), store=store)
        # the torn/partial global_step4 never committed
        assert latest_committed_tag(str(tmp_path)) == "global_step2"
        # and the plain loader agrees via the untouched pointer
        probe = tiny_engine(seed=0)
        assert load_distributed_checkpoint(probe, str(tmp_path)) == "global_step2"
        assert verify_directory(str(tmp_path)).ok

    def test_post_commit_kill_advances_past_stale_pointer(self, tmp_path):
        engine = self._trained(2)
        save_distributed_checkpoint(engine, str(tmp_path))
        engine.train(2)
        store = ObjectStore(
            str(tmp_path),
            faults=RankKillAtWrite(ranks=(1,), match=LATEST_FILE),
        )
        with pytest.raises(RankKilled):
            save_distributed_checkpoint(engine, str(tmp_path), store=store)
        # manifest committed before the pointer died: the new tag is
        # durable even though `latest` still names its predecessor
        assert latest_committed_tag(str(tmp_path)) == "global_step4"
        probe = tiny_engine(seed=0)
        assert load_distributed_checkpoint(probe, str(tmp_path)) == "global_step2"
        assert verify_directory(str(tmp_path)).ok

    def test_committed_saves_pick_newest(self, tmp_path):
        engine = self._trained(2)
        save_distributed_checkpoint(engine, str(tmp_path))
        assert latest_committed_tag(str(tmp_path)) == "global_step2"
        engine.train(2)
        save_distributed_checkpoint(engine, str(tmp_path))
        assert latest_committed_tag(str(tmp_path)) == "global_step4"

    def test_no_committed_tag_raises_typed_error(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            latest_committed_tag(str(tmp_path))
        # a save killed before its manifest leaves only a torn tag
        engine = self._trained(2)
        store = ObjectStore(
            str(tmp_path),
            faults=RankKillAtWrite(ranks=(0,), match=MANIFEST_FILE, torn=True),
        )
        with pytest.raises(RankKilled):
            save_distributed_checkpoint(engine, str(tmp_path), store=store)
        with pytest.raises(CheckpointNotFoundError):
            latest_committed_tag(str(tmp_path))
