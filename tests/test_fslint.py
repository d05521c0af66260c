"""The crash-consistency findings SRC009-SRC012, each pinned where it is
now caught: at runtime, on the one commit implementation ``src/`` has.

The four rules were once an AST dataflow lint (retired; the IDs stay
reserved and name the classes below).  ``CommitGroup`` in
``storage/store.py`` is the only code that renames or fsyncs a file
(``tests/test_srclint.py::TestRepoIsClean::test_only_the_store_publishes``),
so each class applies the mutation its rule existed to catch to the real
code — monkeypatched from its own source — and shows the runtime check
that fires:

* SRC009, temp fsync removed from ``publish``: UCP032 on the recorded
  trace, an empty published file among the crash states, one fsync
  fewer per file;
* SRC010, directory fsync removed from ``publish``: UCP032;
* SRC011, ``abandon()`` removed from ``stage`` or ``publish``: a temp
  left behind, UCP034 on the trace of a run that handled the error;
* SRC012, ``latest`` written before the manifest: a kill at the manifest
  leaves ``latest`` naming an uncommitted tag — the loader refuses it,
  ``verify`` and ``lint-ckpt`` (UCP016) report it.
"""

import errno
import inspect
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.fswitness import check_fs_trace, enumerate_crash_states, fstrace
from repro.analysis.layout_lint import lint_checkpoint
from repro.ckpt import saver
from repro.ckpt.errors import CheckpointIntegrityError
from repro.ckpt.loader import (
    latest_committed_tag,
    load_distributed_checkpoint,
    resolve_tag,
)
from repro.ckpt.naming import LATEST_FILE, MANIFEST_FILE
from repro.core.diagnostics import RULES
from repro.core.inspect import verify_directory
from repro.storage.faults import (
    CrashAtWrite,
    InjectedCrash,
    NoSpaceAtPublish,
    RankKillAtWrite,
    RankKilled,
)
from repro.storage.store import CommitGroup, CommitPool, ObjectStore

from tests.helpers import mutate
from tests.test_crash_consistency import tiny_engine

REPO_ROOT = Path(__file__).resolve().parent.parent

TEMP_FSYNC = "store._fsync(tmp)"
DIR_FSYNC = "store._sync_dir(parent)"
ABANDON = "self.abandon()"
LATEST_AFTER_MANIFEST = """\
    manifest_mod.write_manifest(store, tag, entries)
    manifest_digest = store.digest(manifest_mod.manifest_path(tag))
    store.write_text(naming.LATEST_FILE, tag)
"""
LATEST_BEFORE_MANIFEST = """\
    store.write_text(naming.LATEST_FILE, tag)
    manifest_mod.write_manifest(store, tag, entries)
    manifest_digest = store.digest(manifest_mod.manifest_path(tag))
"""


def leftover_tmps(root):
    """Every temp file under a directory."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.tmp"))


def disk_full_writing(monkeypatch, name):
    """Fail the store's write of the temp called ``name`` with ENOSPC
    once the temp exists — where a full disk fails a real stage."""
    import builtins

    from repro.storage import store as store_mod

    def open_(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        if Path(path).name == name:
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return fh

    monkeypatch.setattr(store_mod, "open", open_, raising=False)


def rules(report):
    return sorted({d.rule_id for d in report.diagnostics})


def traced_put(tmp_path):
    """One durable ``put_bytes`` under the recorder."""
    store = ObjectStore(str(tmp_path), durable=True)
    with fstrace() as rec:
        store.put_bytes("d/a.npt", b"payload")
    return rec


def traced_group(tmp_path, faults=None):
    """Stage three files in one group and publish them; an injected
    publish fault is caught, as a caller that carries on would."""
    store = ObjectStore(str(tmp_path), durable=True, faults=faults)
    with fstrace() as rec:
        group = CommitGroup(store)
        for name in ("a", "b", "c"):
            group.stage(f"d/{name}.npt", name.encode())
        try:
            group.publish()
        except OSError as exc:
            assert exc.errno == errno.ENOSPC
    return rec


class TestSRC009PublishWithoutDurableTemp:
    def test_unfsynced_publish_fires(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", TEMP_FSYNC)
        rec = traced_put(tmp_path)
        report = check_fs_trace(rec)
        assert rules(report) == ["UCP032"]
        (diag,) = report.diagnostics
        assert "before its bytes were fsynced" in diag.message
        assert diag.location == "s0/d/a.npt"

    def test_flush_alone_is_not_durable(self, tmp_path, monkeypatch):
        """Bytes written to a temp sit in the page cache until an fsync:
        without one, a crash can keep the rename and lose the data — a
        committed-looking empty file among the enumerated states."""
        mutate(monkeypatch, CommitGroup, "publish", TEMP_FSYNC)
        rec = traced_put(tmp_path)
        published = [
            s.files["s0/d/a.npt"]
            for s in enumerate_crash_states(rec.ops()).states
            if "s0/d/a.npt" in s.files
        ]
        assert b"" in published

    def test_fsynced_publish_is_quiet(self, tmp_path):
        rec = traced_put(tmp_path)
        assert check_fs_trace(rec).diagnostics == []
        states = enumerate_crash_states(rec.ops()).states
        assert {
            s.files["s0/d/a.npt"] for s in states if "s0/d/a.npt" in s.files
        } == {b"payload"}

    def test_conditional_fsync_counts_as_dominating(
        self, tmp_path, monkeypatch
    ):
        """Every recorded ``fsync`` / ``fsync_dir`` is a real syscall on
        a file or directory of the store, and ``durable=False`` (an
        operator's choice, not a protocol bug) makes none and records
        none."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode)), real_fsync(fd)
        )[1])
        for durable, expected in ((True, [False, True, True]), (False, [])):
            synced.clear()
            store = ObjectStore(str(tmp_path / str(durable)), durable=durable)
            with fstrace() as rec:
                store.put_bytes("d/a.npt", b"payload")
                store.delete("d/a.npt")
            recorded = [
                op.kind == "fsync_dir" for op in rec.ops()
                if op.kind in ("fsync", "fsync_dir")
            ]
            assert recorded == synced == expected, durable

    def test_rename_into_tmp_name_is_not_a_publish(self, tmp_path):
        """A staged group that is abandoned never renames anything: no
        publish to make durable, and its temp is gone."""
        store = ObjectStore(str(tmp_path), durable=True)
        with fstrace() as rec:
            group = CommitGroup(store)
            group.stage("d/a.npt", b"payload")
            group.abandon()
        assert [op.kind for op in rec.ops()] == ["write", "unlink"]
        assert check_fs_trace(rec).diagnostics == []


class TestSRC010MissingDirFsyncAfterPublish:
    def test_publish_without_dir_fsync_fires(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", DIR_FSYNC)
        rec = traced_put(tmp_path)
        report = check_fs_trace(rec)
        assert rules(report) == ["UCP032"]
        (diag,) = report.diagnostics
        assert "directory s0/d" in diag.message

    def test_os_fsync_of_dirfd_satisfies(self, tmp_path, monkeypatch):
        """The directory fsync is one real ``os.fsync`` of the parent's
        descriptor, recorded after the rename it covers."""
        dirs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (
            dirs.append(os.fstat(fd).st_ino)
            if stat.S_ISDIR(os.fstat(fd).st_mode) else None,
            real_fsync(fd),
        )[1])
        rec = traced_put(tmp_path)
        assert dirs == [(tmp_path / "d").stat().st_ino]
        assert [op.kind for op in rec.ops()][-2:] == ["rename", "fsync_dir"]
        assert check_fs_trace(rec).diagnostics == []


class TestSRC011TempFileLeakOnException:
    def test_unprotected_publish_leaks_fire(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", ABANDON)
        rec = traced_group(tmp_path, faults=NoSpaceAtPublish(at=0))
        assert leftover_tmps(tmp_path) == [
            "d/a.npt.tmp", "d/b.npt.tmp", "d/c.npt.tmp"
        ]
        report = check_fs_trace(rec, enumerate_states=False)
        assert rules(report) == ["UCP034"]

    def test_finally_cleanup_is_quiet(self, tmp_path):
        rec = traced_group(tmp_path, faults=NoSpaceAtPublish(at=0))
        assert leftover_tmps(tmp_path) == []
        assert check_fs_trace(rec, enumerate_states=False).diagnostics == []

    def test_except_cleanup_is_quiet(self, tmp_path, monkeypatch):
        """A stage whose write fails unlinks its own temp and the ones
        already staged."""
        disk_full_writing(monkeypatch, "b.npt.tmp")
        store = ObjectStore(str(tmp_path), durable=True)
        with fstrace() as rec:
            group = CommitGroup(store)
            group.stage("d/a.npt", b"first")
            with pytest.raises(OSError):
                group.stage("d/b.npt", b"second")
        assert leftover_tmps(tmp_path) == []
        assert check_fs_trace(rec, enumerate_states=False).diagnostics == []

    def test_fault_injection_torn_write_is_quiet(self, tmp_path):
        """The fault harness tears a temp *on purpose* and the store
        never wrote it: the kill's evidence, not a leak of the store's."""
        store = ObjectStore(str(tmp_path), faults=CrashAtWrite(0, torn=True))
        with fstrace() as rec, pytest.raises(InjectedCrash):
            store.put_bytes("d/a.npt", b"payload")
        assert leftover_tmps(tmp_path) == ["d/a.npt.tmp"]
        assert check_fs_trace(rec).diagnostics == []


class TestSRC011StagedCommitAcrossMethods:
    """The temp is written by ``stage`` and renamed by ``publish`` —
    possibly on a commit-pool thread — and each half cleans up the
    whole group through ``abandon``."""

    def test_cleanup_through_a_sibling_method_is_quiet(self, tmp_path):
        store = ObjectStore(str(tmp_path), durable=True,
                            faults=NoSpaceAtPublish(at=0))
        with fstrace() as rec, CommitPool(2) as pool:
            group = CommitGroup(store)
            group.stage("d/a.npt", b"a")
            group.stage("d/b.npt", b"b")
            pool.reserve()
            pool.submit(group)
            with pytest.raises(OSError):
                pool.drain()
        assert leftover_tmps(tmp_path) == []
        assert check_fs_trace(rec, enumerate_states=False).diagnostics == []

    def test_stage_without_cleanup_fires(self, tmp_path, monkeypatch):
        disk_full_writing(monkeypatch, "b.npt.tmp")  # before the copy
        mutate(monkeypatch, CommitGroup, "stage", ABANDON)
        store = ObjectStore(str(tmp_path), durable=True)
        with fstrace() as rec:
            group = CommitGroup(store)
            group.stage("d/a.npt", b"first")
            with pytest.raises(OSError):
                group.stage("d/b.npt", b"second")
        assert leftover_tmps(tmp_path) == ["d/a.npt.tmp", "d/b.npt.tmp"]
        report = check_fs_trace(rec, enumerate_states=False)
        assert [d.location for d in report.diagnostics] == [
            "s0/d/a.npt.tmp", "s0/d/b.npt.tmp"
        ]
        assert rules(report) == ["UCP034"]

    def test_publish_without_cleanup_fires(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", ABANDON)
        rec = traced_group(tmp_path, faults=NoSpaceAtPublish(at=0))
        assert len(leftover_tmps(tmp_path)) == 3
        report = check_fs_trace(rec, enumerate_states=False)
        assert [d.rule_id for d in report.diagnostics] == ["UCP034"] * 3

    def test_store_commit_group_is_the_shape_under_test(
        self, tmp_path, monkeypatch
    ):
        """Pin the finding to the code it exists for: ``CommitGroup`` has
        exactly two ``self.abandon()`` calls (``stage``'s handler,
        ``publish``'s), and without either the group leaks its temps."""
        assert inspect.getsource(CommitGroup).count(ABANDON) == 2

        disk_full_writing(monkeypatch, "b.npt.tmp")

        def leaked(method):
            with monkeypatch.context() as patch:
                mutate(patch, CommitGroup, method, ABANDON)
                work = tmp_path / method
                store = ObjectStore(str(work), durable=True,
                                    faults=NoSpaceAtPublish(at=0))
                group = CommitGroup(store)
                group.stage("d/a.npt", b"a")
                with pytest.raises(OSError):
                    group.stage("d/b.npt", b"b")  # stage's handler
                group = CommitGroup(store)
                group.stage("d/c.npt", b"c")
                with pytest.raises(OSError):
                    group.publish()  # publish's handler
            return leftover_tmps(work)

        assert leaked("stage") == ["d/a.npt.tmp", "d/b.npt.tmp"]
        assert leaked("publish") == ["d/c.npt.tmp"]

    def test_unfsynced_staged_publish_still_fires_src009(
        self, tmp_path, monkeypatch
    ):
        """The temp-fsync mutation, published write-behind on a commit
        thread: the trace names the skipped fsync all the same."""
        mutate(monkeypatch, CommitGroup, "publish", TEMP_FSYNC)
        store = ObjectStore(str(tmp_path), durable=True)
        with fstrace() as rec, CommitPool(2) as pool:
            for name in ("a", "b"):
                group = CommitGroup(store)
                group.stage(f"d/{name}.npt", name.encode())
                pool.reserve()
                pool.submit(group)
            pool.drain()
        report = check_fs_trace(rec, enumerate_states=False)
        assert [d.rule_id for d in report.diagnostics] == ["UCP032"] * 2


def killed_at_manifest(directory):
    """Commit ``global_step2``, then die writing ``global_step4``'s
    manifest (after every rank file of it is durable)."""
    engine = tiny_engine()
    engine.train(2)
    saver.save_distributed_checkpoint(engine, str(directory))
    engine.train(2)
    store = ObjectStore(
        str(directory), faults=RankKillAtWrite(ranks=(1,), match=MANIFEST_FILE)
    )
    with pytest.raises(RankKilled):
        saver.save_distributed_checkpoint(engine, str(directory), store=store)


class TestSRC012CommitOrderViolation:
    @pytest.fixture
    def latest_first(self, monkeypatch):
        mutate(
            monkeypatch, saver, "save_distributed_checkpoint",
            LATEST_AFTER_MANIFEST, LATEST_BEFORE_MANIFEST,
        )

    def test_latest_before_manifest_fires(self, tmp_path, latest_first):
        killed_at_manifest(tmp_path)
        assert (tmp_path / LATEST_FILE).read_text() == "global_step4"
        with pytest.raises(CheckpointIntegrityError, match="no commit manifest"):
            load_distributed_checkpoint(tiny_engine(seed=0), str(tmp_path))
        assert not verify_directory(str(tmp_path)).ok

    def test_latest_with_no_manifest_at_all_fires(self, tmp_path, latest_first):
        killed_at_manifest(tmp_path)
        report = lint_checkpoint(str(tmp_path))
        assert rules(report) == ["UCP016"]

    def test_manifest_then_latest_is_quiet(self, tmp_path):
        killed_at_manifest(tmp_path)
        assert (tmp_path / LATEST_FILE).read_text() == "global_step2"
        probe = tiny_engine(seed=0)
        assert load_distributed_checkpoint(probe, str(tmp_path)) == "global_step2"
        assert verify_directory(str(tmp_path)).ok
        assert lint_checkpoint(str(tmp_path)).diagnostics == []

    def test_reading_latest_is_quiet(self, tmp_path):
        """Resolving ``latest`` has no file effect at all."""
        killed_at_manifest(tmp_path)
        with fstrace() as rec:
            assert resolve_tag(ObjectStore(str(tmp_path)), None) == "global_step2"
            assert latest_committed_tag(str(tmp_path)) == "global_step2"
        assert rec.ops() == []


class TestSuppression:
    """What silences a runtime finding is a statement about the run —
    ``--crashed`` for a deliberately killed one — never about a rule
    in general."""

    def test_disable_comment_silences_fs_rule(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", ABANDON)
        rec = traced_group(tmp_path, faults=NoSpaceAtPublish(at=0))
        assert rules(check_fs_trace(rec, enumerate_states=False)) == ["UCP034"]
        report = check_fs_trace(rec, enumerate_states=False, clean_exit=False)
        assert report.diagnostics == []

    def test_unrelated_disable_keeps_firing(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", TEMP_FSYNC)
        rec = traced_put(tmp_path)
        report = check_fs_trace(rec, clean_exit=False)
        assert rules(report) == ["UCP032"]


class TestTreeIsClean:
    def test_src_tree_has_no_fs_findings(self):
        """Nothing produces SRC009-SRC012 any more (the tree-wide lint
        gate is ``tests/test_srclint.py::TestRepoIsClean``); the IDs stay
        reserved so no later rule can reuse them."""
        assert {"SRC009", "SRC010", "SRC011", "SRC012"} <= set(RULES)
        analysis = Path(repro.__file__).parent / "analysis"
        assert not (analysis / "fseffects.py").exists()
        assert "SRC009" not in (analysis / "srclint.py").read_text()

    def _lint_trace(self, tmp_path, rec):
        path = tmp_path / "fs_trace.json"
        path.write_text(json.dumps(rec.to_payload()))
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint-trace",
             "--format", "json", str(path)],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )

    def test_cli_fs_filter_gate_passes(self, tmp_path):
        """The gate CI runs now: a recorded durable trace replays clean
        through ``repro lint-trace``; ``lint-src --fs`` is gone."""
        rec = traced_group(tmp_path / "store")
        proc = self._lint_trace(tmp_path, rec)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []
        gone = subprocess.run(
            [sys.executable, "-m", "repro", "lint-src", "--fs"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert gone.returncode == 2
        assert "unrecognized arguments: --fs" in gone.stderr

    def test_cli_fs_filter_reports_only_fs_rules(self, tmp_path, monkeypatch):
        mutate(monkeypatch, CommitGroup, "publish", TEMP_FSYNC)
        rec = traced_group(tmp_path / "store")
        proc = self._lint_trace(tmp_path, rec)
        assert proc.returncode == 1
        found = {d["rule_id"] for d in json.loads(proc.stdout)["diagnostics"]}
        assert found == {"UCP032"}
