"""Filesystem-effect lint (SRC009-SRC012): every crash-consistency
rule fires on an injected bad commit sequence and stays quiet on the
durable protocol ``src/repro`` actually uses.

The safe shapes encode the precision contract: the store's full
fsync-temp / rename / fsync-dir / cleanup sequence, the fault
harness's deliberate torn-temp writes (no publish, so no SRC011), and
the saver's manifest-before-``latest`` order must never be flagged —
the final class pins the whole tree lint-clean under ``--fs``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.srclint import lint_source_file, lint_source_tree

REPO_ROOT = Path(__file__).resolve().parent.parent

DURABLE_PUT = """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(os.path.dirname(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
"""


def lint_snippet(tmp_path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_source_file(path, "snippet.py")


def rules(findings):
    return sorted(d.rule_id for d in findings)


class TestSRC009PublishWithoutDurableTemp:
    def test_unfsynced_publish_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        _fsync_dir(os.path.dirname(path))
    except BaseException:
        tmp_cleanup = os.unlink(tmp)
        raise
""")
        assert rules(findings) == ["SRC009"]
        (diag,) = findings
        assert "never fsynced" in diag.message
        assert diag.location.startswith("snippet.py:")

    def test_flush_alone_is_not_durable(self, tmp_path):
        """``flush()`` empties userspace buffers into the page cache —
        it proves nothing about the platter."""
        findings = lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
        os.replace(tmp, path)
        _fsync_dir(os.path.dirname(path))
    except BaseException:
        os.unlink(tmp)
        raise
""")
        assert rules(findings) == ["SRC009"]

    def test_fsynced_publish_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, DURABLE_PUT) == []

    def test_conditional_fsync_counts_as_dominating(self, tmp_path):
        """The store's ``if self.durable:`` fsync satisfies the lint:
        the off-switch is an operator choice, not a protocol bug."""
        findings = lint_snippet(tmp_path, """\
import os
def put(self, path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if self.durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if self.durable:
            _fsync_dir(os.path.dirname(path))
    except BaseException:
        os.unlink(tmp)
        raise
""")
        assert findings == []

    def test_rename_into_tmp_name_is_not_a_publish(self, tmp_path):
        """Staging moves between scratch names never commit anything."""
        assert lint_snippet(tmp_path, """\
import os
def stage(path):
    os.replace(path + ".a.tmp", path + ".b.tmp")
""") == []


class TestSRC010MissingDirFsyncAfterPublish:
    def test_publish_without_dir_fsync_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
""")
        assert rules(findings) == ["SRC010"]
        (diag,) = findings
        assert "directory fsync" in diag.message

    def test_os_fsync_of_dirfd_satisfies(self, tmp_path):
        """Inlined ``os.open``+``os.fsync`` counts, not just helpers."""
        assert lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dfd = os.open(os.path.dirname(path), os.O_RDONLY)
        os.fsync(dfd)
        os.close(dfd)
    except BaseException:
        os.unlink(tmp)
        raise
""") == []


class TestSRC011TempFileLeakOnException:
    def test_unprotected_publish_leaks_fire(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))
""")
        assert rules(findings) == ["SRC011"]
        (diag,) = findings
        assert "leaks" in diag.message

    def test_finally_cleanup_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, """\
import os
def put(path, data):
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(os.path.dirname(path))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
""") == []

    def test_except_cleanup_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, DURABLE_PUT) == []

    def test_fault_injection_torn_write_is_quiet(self, tmp_path):
        """The fault harness writes torn temps *on purpose* and never
        publishes them — a tmp write with no rename in the function is
        not a leak candidate."""
        assert lint_snippet(tmp_path, """\
def on_write(self, rel_path, tmp_path, data):
    with open(tmp_path, "wb") as fh:
        fh.write(data[: max(1, len(data) // 2)])
    raise InjectedCrash(rel_path)
""") == []


STAGED_COMMIT = """\
import os
class Group:
    def stage(self, path, data):
        tmp = path + ".tmp"
        self.staged.append((tmp, path))
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
        except BaseException:
            {stage_cleanup}
            raise
    def publish(self):
        try:
            for tmp, path in self.staged:
                with open(tmp, "rb") as fh:
                    os.fsync(fh.fileno())
            for tmp, path in self.staged:
                os.replace(tmp, path)
            _fsync_dir(self.parent)
        except BaseException:
            {publish_cleanup}
            raise
    def abandon(self):
        for tmp, _ in self.staged:
            os.unlink(tmp)
"""


class TestSRC011StagedCommitAcrossMethods:
    """A temp written by one method and renamed by a sibling (stage ->
    publish) is followed across the two: both halves need the unlink on
    their exception path, directly or through a sibling that has it."""

    @staticmethod
    def staged(stage_cleanup: str, publish_cleanup: str) -> str:
        return STAGED_COMMIT.format(
            stage_cleanup=stage_cleanup, publish_cleanup=publish_cleanup
        )

    def test_cleanup_through_a_sibling_method_is_quiet(self, tmp_path):
        source = self.staged("self.abandon()", "self.abandon()")
        assert lint_snippet(tmp_path, source) == []

    def test_stage_without_cleanup_fires(self, tmp_path):
        source = self.staged("pass", "self.abandon()")
        (diag,) = lint_snippet(tmp_path, source)
        assert diag.rule_id == "SRC011"
        assert diag.location == "snippet.py:7"  # the temp's open()

    def test_publish_without_cleanup_fires(self, tmp_path):
        source = self.staged("os.unlink(tmp)", "pass")
        (diag,) = lint_snippet(tmp_path, source)
        assert diag.rule_id == "SRC011"
        assert diag.location == "snippet.py:18"  # the rename

    def test_unfsynced_staged_publish_still_fires_src009(self, tmp_path):
        source = self.staged("self.abandon()", "self.abandon()").replace(
            "os.fsync(fh.fileno())", "fh.read(0)"
        )
        assert rules(lint_snippet(tmp_path, source)) == ["SRC009"]

    def test_store_commit_group_is_the_shape_under_test(self):
        """Pin the rule to the code it exists for: taking either
        ``self.abandon()`` out of ``CommitGroup`` must fire SRC011."""
        import ast

        from repro.analysis.fseffects import lint_fs_effects

        store_py = Path(repro.__file__).parent / "storage" / "store.py"
        pieces = store_py.read_text().split("self.abandon()")
        assert len(pieces) == 3  # stage's handler, publish's handler
        for dropped in (0, 1):
            calls = ["self.abandon()", "self.abandon()"]
            calls[dropped] = "pass"
            broken = pieces[0] + calls[0] + pieces[1] + calls[1] + pieces[2]
            findings = lint_fs_effects("store.py", broken, ast.parse(broken))
            assert rules(findings) == ["SRC011"], (dropped, findings)


class TestSRC012CommitOrderViolation:
    def test_latest_before_manifest_fires(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
def commit(store, tag, entries):
    store.write_text("latest", tag)
    write_manifest(store, tag, entries)
""")
        assert rules(findings) == ["SRC012"]
        (diag,) = findings
        assert "uncommitted tag" in diag.message

    def test_latest_with_no_manifest_at_all_fires(self, tmp_path):
        assert rules(lint_snippet(tmp_path, """\
def advance(store, tag):
    store.write_text(LATEST_FILE, tag)
""")) == ["SRC012"]

    def test_manifest_then_latest_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, """\
def commit(store, tag, entries):
    write_manifest(store, tag, entries)
    store.write_text("latest", tag)
""") == []

    def test_reading_latest_is_quiet(self, tmp_path):
        assert lint_snippet(tmp_path, """\
def resolve(store):
    return store.read_text("latest").strip()
""") == []


class TestSuppression:
    def test_disable_comment_silences_fs_rule(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
def advance(store, tag):
    store.write_text("latest", tag)  # srclint: disable=SRC012
""")
        assert findings == []

    def test_unrelated_disable_keeps_firing(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
def advance(store, tag):
    store.write_text("latest", tag)  # srclint: disable=SRC001
""")
        assert rules(findings) == ["SRC012"]


class TestTreeIsClean:
    def test_src_tree_has_no_fs_findings(self):
        """The store durability fix leaves zero SRC009-SRC012 findings
        — with no baseline entries excusing any."""
        report = lint_source_tree(Path(repro.__file__).parent)
        fs_rules = {"SRC009", "SRC010", "SRC011", "SRC012"}
        assert [d for d in report.diagnostics if d.rule_id in fs_rules] == []
        baseline = json.loads(
            (REPO_ROOT / "srclint-baseline.json").read_text()
        )
        assert baseline == {}

    def test_cli_fs_filter_gate_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint-src", "--fs",
             "--format", "json"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_cli_fs_filter_reports_only_fs_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("""\
import os
def put(path, data, acc=[]):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
""")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint-src", str(bad), "--fs",
             "--format", "json"],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 1
        found = {d["rule_id"] for d in json.loads(proc.stdout)["diagnostics"]}
        # SRC004 (mutable default) present in the file but filtered out
        assert found == {"SRC009", "SRC010", "SRC011"}
