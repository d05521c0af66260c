"""Damaged input ends at its decode boundary, never in a raw traceback.

Seven boundaries: :func:`repro.ckpt.manifest.read_manifest` for a commit
manifest's file table, :func:`repro.ckpt.loader.resolve_tag` for the
``latest`` pointer, :meth:`repro.core.metadata.UCPMetadata.from_payload`
for the ``ucp_meta`` tree, :class:`repro.core.atom.AtomStore` for atom
names, an atom's sidecar and its state headers, the UCP load
(:func:`repro.core.loader.load_ucp_into_engine`) for an atom's state
payloads, :func:`repro.core.convert.converted_from` for the
conversion's source marker, and
:func:`repro.analysis.fswitness.ops_from_payload` for an FS-op trace
file.  Whatever each is handed, a reader above it
sees a typed error (``CheckpointIntegrityError``,
``CheckpointNotFoundError``, ``AtomMissingError``, ``UCPFormatError``,
``TraceFormatError``), "atom not reusable" or "marker proves nothing".
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fswitness import (
    FSOpRecorder,
    TraceFormatError,
    check_fs_trace,
    enumerate_crash_states,
    ops_from_payload,
)
from repro.analysis.layout_lint import crosscheck_manifest, lint_checkpoint
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import CheckpointIntegrityError, CheckpointNotFoundError
from repro.ckpt.loader import resolve_tag
from repro.core.atom import STATE_KINDS, AtomCheckpoint, AtomStore
from repro.core.convert import (
    CONVERT_SOURCE_FILE,
    _claim_destination,
    converted_from,
    ucp_convert,
)
from repro.core.errors import AtomMissingError, UCPFormatError
from repro.core.inspect import verify_directory
from repro.core.loader import load_ucp_into_engine
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.dist.topology import ParallelConfig
from repro.parallel.tp import PATTERN_REPLICATED, ShardSpec
from repro.storage.serializer import TensorIndexEntry
from repro.storage.store import ObjectStore

from tests.helpers import make_engine
from tests.test_crash_consistency import dir_digests

TP2_DP2 = ParallelConfig(tp=2, dp=2)


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """A committed gpt3-mini tp2·dp2 save and its tag."""
    root = tmp_path_factory.mktemp("manifest_table") / "ckpt"
    engine = make_engine(parallel=TP2_DP2)
    engine.train(1)
    return root, engine.save_checkpoint(str(root)).tag


def _first(files):
    return sorted(files)[0]


TABLE_DAMAGE = {
    "files-as-list": lambda files: sorted(files),
    "entry-without-sha256": lambda files: {
        **files, _first(files): {"nbytes": files[_first(files)]["nbytes"]},
    },
    "entry-not-a-mapping": lambda files: {**files, _first(files): [1, 2]},
}


@pytest.mark.parametrize("reader", ["load", "convert", "verify"])
@pytest.mark.parametrize("damage", sorted(TABLE_DAMAGE))
def test_malformed_manifest_table_is_a_typed_error(
    committed, tmp_path, damage, reader
):
    """A file table that is not basename -> ``{nbytes, sha256}`` makes
    both loaders raise the integrity error naming the manifest, and
    ``verify`` report the tag corrupt (it used to be AttributeError /
    KeyError / TypeError out of whichever reader indexed it first)."""
    source, tag = committed
    ckpt = tmp_path / "ckpt"
    shutil.copytree(source, ckpt)
    store = ObjectStore(str(ckpt))
    rel = manifest_mod.manifest_path(tag)
    manifest = store.load(rel)
    manifest["files"] = TABLE_DAMAGE[damage](manifest["files"])
    store.save(rel, manifest)

    if reader == "verify":
        report = verify_directory(str(ckpt))
        assert not report.ok
        assert rel in [where for where, _ in report.corrupt]
        return
    with pytest.raises(CheckpointIntegrityError, match=rel):
        if reader == "load":
            make_engine(parallel=TP2_DP2).load_checkpoint(str(ckpt))
        else:
            ucp_convert(str(ckpt), str(tmp_path / "ucp"))


@pytest.fixture(scope="module")
def converted(committed, tmp_path_factory):
    """The committed save converted to a UCP directory."""
    ucp = tmp_path_factory.mktemp("ucp_meta") / "ucp"
    ucp_convert(str(committed[0]), str(ucp))
    return ucp


def _drop_iteration(meta):
    del meta["iteration"]


META_DAMAGE = {
    "version-one": lambda meta: meta.update(version="one"),
    "iteration-missing": _drop_iteration,
    "model-config-int": lambda meta: meta.update(model_config=5),
}


@pytest.mark.parametrize("reader", ["load", "lint"])
@pytest.mark.parametrize("damage", sorted(META_DAMAGE))
def test_damaged_ucp_meta_is_a_typed_error(converted, tmp_path, damage, reader):
    """A ``ucp_meta`` tree of the wrong shape is a ``UCPFormatError``
    naming the file, which the lint reports as UCP013 (it used to be
    ValueError / KeyError / TypeError out of the first reader)."""
    ucp = tmp_path / "ucp"
    shutil.copytree(converted, ucp)
    store = ObjectStore(str(ucp))
    meta = store.load(UCP_META_FILE)
    META_DAMAGE[damage](meta)
    store.save(UCP_META_FILE, meta)

    if reader == "lint":
        (diag,) = lint_checkpoint(str(ucp)).diagnostics
        assert (diag.rule_id, diag.location) == ("UCP013", UCP_META_FILE)
        return
    with pytest.raises(UCPFormatError, match=UCP_META_FILE):
        load_ucp_into_engine(make_engine(parallel=ParallelConfig()), str(ucp))


def _flip_payload_bit(ucp, kind: str, pick: int, bit: int) -> None:
    """Flip one bit of one atom's ``kind`` payload; the load must refuse
    it with a ``UCPFormatError`` naming the file.  The file is restored
    afterwards (``ucp`` is shared)."""
    atoms = AtomStore(str(ucp))
    names = atoms.list_atoms()
    name = names[pick % len(names)]
    entry = atoms.state_index(name, kind)
    path = atoms.store.base / atoms.path(name, kind)
    clean = path.read_bytes()
    damaged = bytearray(clean)
    damaged[entry.offset + (bit // 8) % entry.nbytes] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    try:
        with pytest.raises(UCPFormatError, match=re.escape(atoms.path(name, kind))):
            load_ucp_into_engine(make_engine(parallel=ParallelConfig()), str(ucp))
    finally:
        path.write_bytes(clean)


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_flipped_payload_bit_fails_the_load(converted, kind):
    """One flipped bit in an atom's payload, which the header's CRC32
    catches (it used to load with no error)."""
    _flip_payload_bit(converted, kind, pick=0, bit=0)


MARKER_DAMAGE = {
    "junk-bytes": lambda store: store.put_bytes(CONVERT_SOURCE_FILE, b"junk"),
    "tag-as-array": lambda store: store.save(CONVERT_SOURCE_FILE, {
        **store.load(CONVERT_SOURCE_FILE),
        "source_tag": np.zeros(2, np.float32),
    }),
}


@pytest.mark.parametrize("damage", sorted(MARKER_DAMAGE))
def test_reconversion_over_damaged_marker_starts_over(
    committed, converted, tmp_path, damage
):
    """A damaged source marker proves nothing: re-converting into the
    directory rewrites every atom (a tampered one is not reused) and
    ends byte-identical to a clean conversion."""
    ucp = tmp_path / "ucp"
    shutil.copytree(converted, ucp)
    store = ObjectStore(str(ucp))
    rel = "atoms/final_norm.weight/fp32.npt"
    values = store.load(rel)
    values["values"] = values["values"] + 1.0
    store.save(rel, values)
    MARKER_DAMAGE[damage](store)

    report = ucp_convert(str(committed[0]), str(ucp))
    assert report.num_reused == 0
    assert dir_digests(ucp) == dir_digests(converted)


ESCAPING_NAMES = ["a/../../x", "../x", "a/./b", "a//b", "a/", "/etc/passwd", ""]


@pytest.mark.parametrize("call", ["read_meta", "state_index", "write"])
@pytest.mark.parametrize("name", ESCAPING_NAMES)
def test_atom_name_cannot_leave_the_atom_dir(tmp_path, name, call):
    """An empty, ``.`` or ``..`` path component is illegal: no atom file
    resolves outside ``atoms/<name>/`` (``a/../../x`` used to reach
    ``x/fp32.npt``)."""
    atoms = AtomStore(str(tmp_path / "ucp"))
    with pytest.raises(UCPFormatError, match="illegal atom name"):
        if call == "read_meta":
            atoms.read_meta(name)
        elif call == "state_index":
            atoms.state_index(name, "fp32")
        else:
            atoms.write(AtomCheckpoint(name, {"fp32": np.zeros(2, np.float32)}, {}))
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("name", ["blocks.0.attn.qkv.weight", "a..b", "moe/e.0"])
def test_dotted_atom_names_stay_legal(tmp_path, name):
    atoms = AtomStore(str(tmp_path))
    atoms.write(AtomCheckpoint(name, {"fp32": np.ones(2, np.float32)}, {}))
    assert atoms.read_meta(name)["name"] == name
    assert atoms.list_atoms() == [name]


# --- property: every damaged tree ends typed or "not reusable" ----------

SPEC = {"pattern": PATTERN_REPLICATED}
SIDECAR_REL = "atoms/p/atom_meta.npt"
TAG = "global_step1"
HEX = "0123456789abcdef" * 4

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.just(np.zeros(2, np.float32)),
)

sidecar_cases = st.tuples(
    st.just("sidecar"),
    st.sampled_from(["drop", "extra", "retype"]),
    st.sampled_from(["name", "shape", "kinds", "spec"]),
    WRONG,
)
state_cases = st.tuples(
    st.just("state"),
    st.sampled_from(STATE_KINDS),
    st.sampled_from(["float32", "float64", "int32", "float16"]),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    st.sampled_from(["values", "other-key", "not-a-mapping", "absent"]),
)
ENTRY = st.one_of(
    WRONG,
    st.fixed_dictionaries({
        "nbytes": st.one_of(st.integers(-2, 64), WRONG),
        "sha256": st.one_of(
            st.sampled_from([HEX, HEX.upper(), HEX[:63], "g" * 64]), WRONG
        ),
    }),
)
META = UCPMetadata(
    iteration=1, optimizer_step=1, model_config={"name": "m"},
    source_parallel_config={"tp": 1}, adam={"lr": 0.1}, training={},
    pattern_program={"rules": []},
    params={"p": {"shape": [3, 2], "spec": SPEC, "kinds": sorted(STATE_KINDS)}},
)
meta_cases = st.tuples(
    st.just("meta"),
    st.sampled_from(["drop", "extra", "retype"]),
    st.sampled_from(sorted(META.to_payload()) + ["params.p.shape", "params.p.spec",
                                                 "params.p.kinds", "params.p"]),
    WRONG,
)
name_cases = st.tuples(
    st.just("name"),
    st.lists(
        st.sampled_from(["p", "x", ".", "..", "", "a..b", "blocks.0"]),
        min_size=1, max_size=4,
    ).map("/".join),
)
table_cases = st.tuples(
    st.just("table"),
    st.one_of(
        WRONG,
        st.dictionaries(st.text("abc", min_size=1, max_size=3), ENTRY, max_size=3),
    ),
)

FS_TRACE = FSOpRecorder()
for _op in [
    ("write", "t/f.npt.tmp", None, b"data"),
    ("fsync", "t/f.npt.tmp", None, None),
    ("rename", "t/f.npt.tmp", "t/f.npt", None),
    ("fsync_dir", "t", None, None),
    ("unlink", "t/old.npt", None, None),
]:
    FS_TRACE.on_fs_op(_op[0], "/ckpt", *_op[1:])
FS_TRACE_JSON = json.dumps(FS_TRACE.to_payload())
trace_cases = st.one_of(
    st.tuples(
        st.just("trace"),
        st.sampled_from(["drop", "extra", "retype"]),
        st.sampled_from([
            "version", "captured_data", "roots", "fs_ops", "roots.0",
            "fs_ops.0", "fs_ops.4", "fs_ops.2.dst",
            *(f"fs_ops.0.{key}" for key in (
                "kind", "path", "nbytes", "sha256", "data_b64", "thread",
            )),
        ]),
        WRONG,
    ),
    st.tuples(
        st.just("trace"), st.just("truncate"), st.just(""),
        st.integers(0, len(FS_TRACE_JSON)),
    ),
)


MARKER_FIELDS = ("source_tag", "source_manifest_sha256")
marker_cases = st.one_of(
    st.tuples(st.just("marker"), st.just("bytes"), st.binary(max_size=48)),
    st.tuples(st.just("marker"), st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("marker"), st.just("tree"), WRONG),
    st.tuples(
        st.just("marker"),
        st.sampled_from(["drop", "retype"]),
        st.tuples(st.sampled_from(MARKER_FIELDS), WRONG),
    ),
)
payload_cases = st.tuples(
    st.just("payload"),
    st.sampled_from(STATE_KINDS),
    st.integers(0, 10**3),
    st.integers(0, 2**40),
)
latest_cases = st.tuples(
    st.just("latest"),
    st.one_of(
        st.binary(max_size=16),
        st.text("ab./\\\x00 \n\xe9", max_size=6).map(str.encode),
    ),
)


def _atom_store(root: str, spec=SPEC) -> AtomStore:
    """A one-atom UCP directory: atom ``p``, shape (3, 2)."""
    store = AtomStore(root)
    rng = np.random.default_rng(0)
    store.write(AtomCheckpoint(
        "p",
        {k: rng.standard_normal((3, 2)).astype(np.float32) for k in STATE_KINDS},
        dict(spec),
    ))
    return store


def _check_sidecar(root, how, field, value):
    atoms = _atom_store(root)
    clean = atoms.reusable_entry("p", SPEC)
    assert clean == {"shape": [3, 2], "spec": SPEC, "kinds": sorted(STATE_KINDS)}
    meta = atoms.store.load(SIDECAR_REL)
    if how == "drop":
        del meta[field]
    elif how == "extra":
        meta[f"{field}_extra"] = value
    else:
        meta[field] = value
    atoms.store.save(SIDECAR_REL, meta)
    entry = atoms.reusable_entry("p", SPEC)
    assert entry is None or (how == "retype" and entry == clean)


def _check_state(root, kind, dtype, shape, variant):
    atoms = _atom_store(root)
    rel = f"atoms/p/{kind}.npt"
    if variant == "absent":
        atoms.store.delete(rel)
    else:
        values = np.zeros(shape, dtype=dtype)
        atoms.store.save(rel, {
            "values": {"values": values},
            "other-key": {"other": values},
            "not-a-mapping": [values],
        }[variant])
    try:
        assert isinstance(atoms.state_index("p", kind), TensorIndexEntry)
    except (AtomMissingError, UCPFormatError):
        pass
    entry = atoms.reusable_entry("p", SPEC)
    whole = variant == "values" and dtype == "float32" and shape == (3, 2)
    assert (entry is not None) == whole


def _check_meta(root, how, field, value):
    store = ObjectStore(root)
    meta = copy.deepcopy(META.to_payload())  # the payload aliases META's fields
    *path, key = field.split(".")
    tree = meta
    for step in path:
        tree = tree[step]
    if how == "drop":
        del tree[key]
    elif how == "extra":
        tree[f"{key}_extra"] = value
    else:
        tree[key] = value
    store.save(UCP_META_FILE, meta)
    try:
        loaded = UCPMetadata.load(store)
    except UCPFormatError:
        return
    # a tree the boundary let through is read the way the loader does
    assert loaded.version == 1 and type(loaded.iteration) is int
    for info in loaded.params.values():
        tuple(info["shape"]), dict(info["spec"]), sorted(info["kinds"])
    dict(loaded.model_config), dict(loaded.loss_scaler or {})


def _check_trace(root, how, field, value):
    if how == "truncate":
        path = os.path.join(root, "fs_trace.json")
        with open(path, "w") as f:
            f.write(FS_TRACE_JSON[:value])
        try:
            check_fs_trace(path, enumerate_states=False)
        except TraceFormatError as exc:
            assert path in str(exc)
            return
        assert value == len(FS_TRACE_JSON)  # only the whole file decodes
        return
    payload = FS_TRACE.to_payload()
    *path, key = field.split(".")
    tree = payload
    for step in path:
        tree = tree[int(step)] if isinstance(tree, list) else tree[step]
    if isinstance(tree, list):
        key = int(key)
    if how == "drop":
        del tree[key]
    elif how == "extra":
        if isinstance(tree, list):
            tree.append(value)
        else:
            tree[f"{key}_extra"] = value
    else:
        tree[key] = value
    try:
        ops = ops_from_payload(payload, source="t.json")
    except TraceFormatError as exc:
        assert "t.json" in str(exc)
        return
    # a tree the boundary let through is replayed without guards
    check_fs_trace(payload, enumerate_states=False)
    enumerate_crash_states(ops)


def _check_name(root, name):
    atoms = _atom_store(root)
    for read in (
        atoms.read_meta,
        lambda n: atoms.state_index(n, "fp32"),
        lambda n: atoms.reusable_entry(n, SPEC),
    ):
        try:
            found = read(name)
        except (AtomMissingError, UCPFormatError):
            continue
        # only the one atom on disk can be read, and only by its name
        assert found is None or name == "p"


def _check_latest(root, data):
    store = ObjectStore(root)
    store.put_bytes(naming.LATEST_FILE, data)
    try:
        tag = resolve_tag(store, None)
    except (CheckpointIntegrityError, CheckpointNotFoundError):
        return
    # a pointer the boundary let through names one entry of the root
    assert tag not in ("", ".", "..") and "\x00" not in tag
    assert os.path.basename(tag) == tag and "\\" not in tag
    assert store._resolve(tag).parent == store._resolve(".")


def _check_marker(root, how, damage):
    src = ObjectStore(os.path.join(root, "src"))
    manifest_mod.write_manifest(src, TAG, {})
    specs = {"p": ShardSpec(PATTERN_REPLICATED, (3, 2), (3, 2))}
    atoms = AtomStore(os.path.join(root, "ucp"))
    assert _claim_destination(atoms, src, TAG, specs) == {}  # writes the marker
    atoms = _atom_store(atoms.store.base, specs["p"].to_dict())
    assert set(_claim_destination(atoms, src, TAG, specs)) == {"p"}

    dst = atoms.store
    clean = dst.read_bytes(CONVERT_SOURCE_FILE)
    if how == "bytes":
        dst.put_bytes(CONVERT_SOURCE_FILE, damage)
    elif how == "truncate":
        # cut before the header ends; the trailing NULs are alignment
        # padding, and a marker without them is whole
        header = clean.rstrip(b"\0")
        dst.put_bytes(CONVERT_SOURCE_FILE, clean[: damage % len(header)])
    elif how == "tree":
        dst.save(CONVERT_SOURCE_FILE, damage)
    else:
        marker = dst.load(CONVERT_SOURCE_FILE)
        field, value = damage
        if how == "drop":
            del marker[field]
        else:
            marker[field] = value
        dst.save(CONVERT_SOURCE_FILE, marker)
    assert not converted_from(dst, src, TAG)
    assert _claim_destination(atoms, src, TAG, specs) == {}
    assert atoms.list_atoms() == []
    assert dst.read_bytes(CONVERT_SOURCE_FILE) == clean


def _check_table(root, files):
    store = ObjectStore(root)
    store.put_bytes(f"{TAG}/a", b"x" * 7)
    manifest_mod.write_manifest(store, TAG, files)
    try:
        manifest = manifest_mod.read_manifest(store, TAG)
    except CheckpointIntegrityError:
        return
    # a table the boundary let through is indexed without guards
    for basename in manifest["files"]:
        manifest_mod.manifest_entry(manifest, basename)
    manifest_mod.verify_tag(store, TAG)
    crosscheck_manifest(store, TAG, manifest, deep=True)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
    sidecar_cases, state_cases, table_cases, meta_cases, name_cases,
    trace_cases, latest_cases, marker_cases, payload_cases,
))
def test_damaged_trees_end_typed_or_not_reusable(converted, case):
    """Missing, extra and wrong-typed fields of an atom sidecar, an atom
    state header's ``values`` dtype/shape, a manifest file table, a
    ``ucp_meta`` tree, an FS-op trace and a conversion's
    source marker, arbitrary ``latest`` bytes, atom names built from
    ``.``/``..``/empty components, and a single flipped bit in an
    atom's ``fp32``/``exp_avg``/``exp_avg_sq`` payload: nothing escapes
    but the typed errors, "not reusable" and "marker proves nothing"."""
    with tempfile.TemporaryDirectory() as root:
        {
            "sidecar": _check_sidecar,
            "state": _check_state,
            "table": _check_table,
            "meta": _check_meta,
            "name": _check_name,
            "trace": _check_trace,
            "latest": _check_latest,
            "marker": _check_marker,
            "payload": lambda _, *args: _flip_payload_bit(converted, *args),
        }[case[0]](root, *case[1:])
