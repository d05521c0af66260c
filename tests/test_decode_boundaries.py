"""Damaged input ends at its decode boundary, never in a raw traceback.

Eight boundaries: :func:`repro.ckpt.manifest.read_manifest` for a commit
manifest's file table, :class:`repro.parallel.layout.HeaderCheck` for a
rank file's ``partition_meta`` (one check behind ``lint-ckpt``, the
conversion pre-flight and the strict load), :func:`repro.ckpt.loader.resolve_tag` for the
``latest`` pointer, :meth:`repro.core.metadata.UCPMetadata.from_payload`
for the ``ucp_meta`` tree, :class:`repro.core.atom.AtomStore` for atom
names, an atom's sidecar and its state headers (its ``check_state``
the one state-file check behind the UCP load, ``lint-ckpt`` and
``lint-plan --provenance``), the UCP load
(:func:`repro.core.loader.load_ucp_into_engine`) for an atom's state
payloads, :func:`repro.core.convert.converted_from` for the
conversion's source marker, and
:func:`repro.analysis.fswitness.ops_from_payload` for an FS-op trace
file.  Whatever each is handed, a reader above it
sees a typed error (``CheckpointIntegrityError``,
``CheckpointIncompatibleError``, ``CheckpointNotFoundError``,
``AtomMissingError``, ``UCPFormatError``, ``TraceFormatError``), "atom not reusable" or "marker proves nothing".
"""

from __future__ import annotations

import base64
import copy
import json
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.fswitness import (
    FSOpRecorder,
    TraceFormatError,
    check_fs_trace,
    enumerate_crash_states,
    ops_from_payload,
)
from repro.analysis.layout_lint import crosscheck_manifest, lint_checkpoint
from repro.analysis.provenance import analyze_interchange
from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.errors import (
    CheckpointIncompatibleError,
    CheckpointIntegrityError,
    CheckpointNotFoundError,
)
from repro.ckpt.loader import load_distributed_checkpoint, resolve_tag
from repro.core.atom import STATE_KINDS, AtomCheckpoint, AtomStore
from repro.core.convert import (
    CONVERT_SOURCE_FILE,
    _claim_destination,
    converted_from,
    ucp_convert,
)
from repro.core.diagnostics import LayoutLintError
from repro.core.errors import AtomMissingError, UCPFormatError, UCPIncompatibleError
from repro.core.inspect import verify_directory
from repro.core.loader import load_ucp_into_engine
from repro.core.metadata import UCP_META_FILE, UCPMetadata
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.models.configs import ModelConfig
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


def _reverse_first_shard_shape(meta):
    segment = meta["segments"][0]
    assert segment["shard_shape"] != segment["shard_shape"][::-1]
    segment["shard_shape"] = segment["shard_shape"][::-1]


def _meta(edit):
    return lambda payload: edit(payload["partition_meta"])


def _bogus_fragmenter(payload):
    payload["sharding"]["embedding.weight"]["fragmenter"] = {"kind": "bogus"}


def _state(kind, edit):
    field = naming.FLAT_STATE_FIELDS[kind]
    return lambda payload: payload.update({field: edit(payload[field])})


HEADER_DAMAGE = {
    "padding-7": (_meta(lambda meta: meta.update(padding=7)), "UCP003", 0),
    "alignment-3": (_meta(lambda meta: meta.update(alignment=3)), "UCP011", 0),
    # the file of dp rank 1 claims partition window 0
    "dp-rank-0-in-dp1-file": (_meta(lambda meta: meta.update(dp_rank=0)), "UCP011", 0),
    "shard-shape-reversed": (_meta(_reverse_first_shard_shape), "UCP004", 0),
    "padding-not-an-int": (
        _meta(lambda meta: meta.update(padding="x")), "UCP022", 0
    ),
    "segment-without-name": (
        _meta(lambda meta: meta["segments"][0].pop("name")), "UCP022", 0
    ),
    "optimizer-step-deleted": (lambda p: p.pop("optimizer_step"), "UCP022", 0),
    "adam-deleted": (lambda p: p.pop("adam"), "UCP022", 0),
    "sharding-deleted": (lambda p: p.pop("sharding"), "UCP022", 0),
    # embedding.weight's entry is recorded by both mp ranks: each
    # file's copy is checked, not only the one the conversion resolves
    "sharding-bogus-fragmenter-mp0": (_bogus_fragmenter, "UCP004", 0),
    "sharding-bogus-fragmenter-mp1": (_bogus_fragmenter, "UCP004", 1),
    # a narrowed master or a widened moment is not the state that was
    # trained: the strict load used to cast both back to float32
    "fp32-float16": (
        _state("fp32", lambda values: values.astype(np.float16)), "UCP020", 0
    ),
    "exp_avg-float64": (
        _state("exp_avg", lambda values: values.astype(np.float64)), "UCP020", 0
    ),
    "exp_avg_sq-deleted": (
        lambda p: p.pop(naming.FLAT_STATE_FIELDS["exp_avg_sq"]), "UCP001", 0
    ),
    "exp_avg-one-short": (
        _state("exp_avg", lambda values: values[:-1]), "UCP011", 0
    ),
}
"""Edit to one rank file's header -> the rule every reader names first,
and the mp rank of the dp-rank-1 file edited (the derived padding is 0
and the alignment 8)."""


@pytest.mark.parametrize("reader", ["lint", "convert", "load"])
@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_damaged_rank_header_is_one_rule_everywhere(
    committed, tmp_path, damage, reader
):
    """A rank file whose ``partition_meta``, ``sharding`` table or state
    arrays disagree with the derived layout, or that lacks a field
    beside them, re-recorded in the manifest
    so only the header check can catch it, is refused by every reader
    with the same rule at the same file: a ``lint-ckpt`` error, the
    conversion pre-flight's ``LayoutLintError`` and the strict load's
    ``CheckpointIncompatibleError`` (the lint used to raise ValueError /
    KeyError, the conversion and the load to accept most of these
    edits or fail on a bare KeyError)."""
    source, tag = committed
    ckpt = tmp_path / "ckpt"
    shutil.copytree(source, ckpt)
    store = ObjectStore(str(ckpt))
    edit, rule, mp_rank = HEADER_DAMAGE[damage]
    basename = naming.optim_states_name(1, mp_rank)
    rel = f"{tag}/{basename}"
    payload = store.load(rel)
    edit(payload)
    store.save(rel, payload)
    manifest_mod.refresh_entry(store, tag, basename)

    if reader == "load":
        with pytest.raises(
            CheckpointIncompatibleError, match=f"^{re.escape(rel)}: {rule} "
        ):
            load_distributed_checkpoint(make_engine(parallel=TP2_DP2), str(ckpt))
        return
    if reader == "lint":
        errors = lint_checkpoint(str(ckpt)).errors
    else:
        with pytest.raises(LayoutLintError) as refused:
            ucp_convert(str(ckpt), str(tmp_path / "ucp"))
        errors = refused.value.report.errors
    assert (errors[0].rule_id, errors[0].location) == (rule, rel)


@pytest.fixture(scope="module")
def converted(committed, tmp_path_factory):
    """The committed save converted to a UCP directory."""
    ucp = tmp_path_factory.mktemp("ucp_meta") / "ucp"
    ucp_convert(str(committed[0]), str(ucp))
    return ucp


def _resave(make):
    return lambda store, rel: store.save(rel, make(store.load(rel)["values"]))


def _truncate(store, rel):
    store.put_bytes(rel, store.read_bytes(rel)[:-100])


_FLOAT64 = _resave(lambda values: {"values": values.astype(np.float64)})
_SEVEN_EXTRA = _resave(lambda values: {
    "values": np.concatenate([values.ravel(), np.zeros(7, np.float32)]),
})

ATOM_DAMAGE = {
    "exp_avg-float64": ("exp_avg", _FLOAT64, "UCP020"),
    "fp32-float64": ("fp32", _FLOAT64, "UCP020"),
    "exp_avg-7-extra": ("exp_avg", _SEVEN_EXTRA, "UCP004"),
    "fp32-7-extra": ("fp32", _SEVEN_EXTRA, "UCP004"),
    "exp_avg-deleted": ("exp_avg", lambda store, rel: store.delete(rel), "UCP001"),
    "exp_avg-truncated": ("exp_avg", _truncate, "UCP022"),
    "fp32-truncated": ("fp32", _truncate, "UCP022"),
    "exp_avg-without-values": (
        "exp_avg", _resave(lambda values: {"other": values}), "UCP022"
    ),
}
"""Damage to one of ``embedding.weight``'s state files -> the rule every
reader names first."""


@pytest.mark.parametrize("reader", ["lint", "provenance", "load"])
@pytest.mark.parametrize("damage", sorted(ATOM_DAMAGE))
def test_damaged_atom_state_is_one_rule_everywhere(
    converted, tmp_path, damage, reader
):
    """An atom state file that is absent, undecodable, not float32 or not
    of the derived unpadded shape is refused by every reader of atoms
    with the same rule at the same file: a ``lint-ckpt`` error, a
    ``lint-plan --provenance`` error and the UCP load's exception (the
    lint used to pass both float64 files, the provenance pass six of the
    eight, reading ``fp32`` only)."""
    ucp = tmp_path / "ucp"
    shutil.copytree(converted, ucp)
    atoms = AtomStore(str(ucp))
    kind, edit, rule = ATOM_DAMAGE[damage]
    rel = atoms.path("embedding.weight", kind)
    edit(atoms.store, rel)

    if reader == "load":
        refusal = AtomMissingError if rule == "UCP001" else UCPFormatError
        with pytest.raises(refusal, match=f"^{re.escape(rel)}: {rule} "):
            load_ucp_into_engine(make_engine(parallel=TP2_DP2), str(ucp))
        return
    if reader == "lint":
        errors = lint_checkpoint(str(ucp)).errors
    else:
        target = ParallelConfig.from_describe("tp1.pp1.dp4.sp1.zero1")
        errors = analyze_interchange(str(ucp), target).report.errors
    assert (errors[0].rule_id, errors[0].location) == (rule, rel)


def _drop_iteration(meta):
    del meta["iteration"]


def _flip_model_config_key(meta):
    """What one flipped bit of ``ucp_meta.npt`` makes of the key ``name``."""
    meta["model_config"]["oame"] = meta["model_config"].pop("name")


META_DAMAGE = {
    "version-one": lambda meta: meta.update(version="one"),
    "iteration-missing": _drop_iteration,
    "model-config-int": lambda meta: meta.update(model_config=5),
    "model-config-key-flipped": _flip_model_config_key,
}


@pytest.mark.parametrize("reader", ["load", "lint"])
@pytest.mark.parametrize("damage", sorted(META_DAMAGE))
def test_damaged_ucp_meta_is_a_typed_error(converted, tmp_path, damage, reader):
    """A ``ucp_meta`` tree of the wrong shape, or a model config that
    does not decode, is a ``UCPFormatError`` naming the file, which the
    lint reports as UCP013 (it used to be ValueError / KeyError /
    TypeError out of the first reader)."""
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


def _flip_meta_bit(ucp, position: int, bit: int) -> None:
    """Flip one bit of ``ucp_meta.npt``; the load must end in a typed
    error or load cleanly.  The file is restored afterwards (``ucp`` is
    shared)."""
    path = ucp / UCP_META_FILE
    clean = path.read_bytes()
    damaged = bytearray(clean)
    damaged[position % len(clean)] ^= 1 << bit
    path.write_bytes(bytes(damaged))
    try:
        load_ucp_into_engine(make_engine(parallel=ParallelConfig()), str(ucp))
    except (UCPFormatError, UCPIncompatibleError):
        pass
    finally:
        path.write_bytes(clean)


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


def test_reconversion_replaces_an_atom_the_load_refuses(
    committed, converted, tmp_path
):
    """An atom rewritten whole, sidecar included, as a flat copy of its
    matrix states is not reused: the resume gate holds each state to the
    load's own check, so the re-run converts that atom again and the
    load succeeds (the gate used to reuse it, record its flat shape in
    ``ucp_meta`` and leave the load to refuse it with UCP004)."""
    ucp = tmp_path / "ucp"
    shutil.copytree(converted, ucp)
    atoms = AtomStore(str(ucp))
    atom = atoms.read("blocks.0.attn.out.weight")
    assert len(atom.shape) == 2
    atoms.write(AtomCheckpoint(
        atom.name, {kind: v.reshape(-1) for kind, v in atom.states.items()},
        atom.spec,
    ))

    report = ucp_convert(str(committed[0]), str(ucp))
    assert report.num_reused == report.num_params - 1
    assert dir_digests(ucp) == dir_digests(converted)
    load_ucp_into_engine(make_engine(parallel=TP2_DP2), str(ucp))


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

SPEC = ShardSpec(PATTERN_REPLICATED, (3, 2), (3, 2)).to_dict()
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
    iteration=1, optimizer_step=1, model_config=get_config("gpt3-mini").to_dict(),
    source_parallel_config=ParallelConfig().to_dict(), adam={"lr": 0.1}, training={},
    pattern_program={"rules": []},
    params={"p": {"shape": [3, 2], "spec": SPEC, "kinds": sorted(STATE_KINDS)}},
)
meta_cases = st.tuples(
    st.just("meta"),
    st.sampled_from(["drop", "extra", "retype"]),
    st.sampled_from(sorted(META.to_payload()) + ["params.p.shape", "params.p.spec",
                                                 "params.p.kinds", "params.p",
                                                 "model_config.name",
                                                 "model_config.num_heads",
                                                 "source_parallel_config.tp"]),
    WRONG,
)
meta_byte_cases = st.tuples(
    st.just("meta-bytes"), st.integers(0, 2**20), st.integers(0, 7)
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
    ModelConfig.from_dict(loaded.model_config), dict(loaded.loss_scaler or {})
    ParallelConfig.from_dict(loaded.source_parallel_config)


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



def test_flipped_trace_payload_byte_is_refused_by_op_index():
    """Crash states are deduplicated by each write's recorded digest, so
    captured bytes that disagree with it are refused at the decode
    boundary, naming the op — never replayed."""
    payload = FS_TRACE.to_payload()
    data = bytearray(base64.b64decode(payload["fs_ops"][0]["data_b64"]))
    data[1] ^= 0x01
    payload["fs_ops"][0]["data_b64"] = base64.b64encode(data).decode("ascii")
    with pytest.raises(TraceFormatError, match=r"t\.json.*fs_ops\[0\]"):
        ops_from_payload(payload, source="t.json")

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
    specs = {"p": ShardSpec.from_dict(SPEC)}
    atoms = AtomStore(os.path.join(root, "ucp"))
    assert _claim_destination(atoms, src, TAG, specs) == {}  # writes the marker
    atoms = _atom_store(atoms.store.base)
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
    trace_cases, latest_cases, marker_cases, payload_cases, meta_byte_cases,
))
@example(case=("meta", "extra", "model_config.name", 0))
@example(case=("sidecar", "retype", "shape", [2, 3]))
def test_damaged_trees_end_typed_or_not_reusable(converted, case):
    """Missing, extra and wrong-typed fields of an atom sidecar, an atom
    state header's ``values`` dtype/shape, a manifest file table, a
    ``ucp_meta`` tree (its model and source configs included), an FS-op
    trace and a conversion's source marker, arbitrary ``latest`` bytes,
    atom names built from ``.``/``..``/empty components, a single
    flipped bit in an atom's ``fp32``/``exp_avg``/``exp_avg_sq`` payload
    and one in ``ucp_meta.npt``: nothing escapes but the typed errors,
    "not reusable" and "marker proves nothing"."""
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
            "meta-bytes": lambda _, *args: _flip_meta_bit(converted, *args),
        }[case[0]](root, *case[1:])
