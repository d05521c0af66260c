"""The byte-identity oracles for ``ucp_convert`` and the UCP loader.

The paper's Algorithm 1 composed naively from its own operators
(:func:`repro.core.ops.extract` / ``union`` / ``strip_padding``) over
fully read, digest-verified rank files — no plans, no byte ranges, no
cache, no threads.  The planned byte-range pipeline must reproduce every
atom state bit for bit.  :func:`reference_load_shard` is the same for
the paper's Load: whole-atom read, ``add_padding``, fragment.
"""

from typing import Dict, Optional

import numpy as np

from repro.ckpt import manifest as manifest_mod
from repro.ckpt import naming
from repro.ckpt.loader import resolve_tag
from repro.core.atom import AtomStore
from repro.core.ops import add_padding, extract, strip_padding, union
from repro.core.patterns import PatternProgram, program_for_config
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.parallel.tp import ShardSpec
from repro.storage.store import ObjectStore


def reference_convert(
    ckpt_dir: str, program: Optional[PatternProgram] = None
) -> Dict[str, Dict[str, np.ndarray]]:
    """``{parameter: {state kind: consolidated unpadded array}}``."""
    store = ObjectStore(ckpt_dir)
    tag = resolve_tag(store, None)
    manifest = manifest_mod.require_manifest(store, tag)

    def load(basename: str) -> Dict:
        entry = manifest_mod.manifest_entry(manifest, basename)
        return manifest_mod.load_verified(store, f"{tag}/{basename}", entry)

    job = load(naming.JOB_CONFIG_FILE)
    source_cfg = ParallelConfig.from_dict(job["parallel_config"])
    if program is None:
        program = program_for_config(
            ModelConfig.from_dict(job["model_config"]),
            expert_parallel=source_cfg.expert_parallel,
        )
    fragments, sharding = {}, {}
    for basename in sorted(manifest["files"]):
        if basename.endswith("_optim_states.npt"):
            payload = load(basename)
            sharding.update(payload["sharding"])
            for frag in extract(payload):
                fragments.setdefault((frag.name, frag.kind), []).append(frag)
    atoms: Dict[str, Dict[str, np.ndarray]] = {}
    for (name, kind), parts in fragments.items():
        saved = sharding[name]
        spec = program.resolve_spec(
            name, tuple(saved["logical_shape"]), tuple(saved["unpadded_shape"])
        )
        merged = union(parts, spec, source_cfg.tp)
        atoms.setdefault(name, {})[kind] = strip_padding(merged, spec)
    return atoms


def assert_matches_reference(
    ucp_dir: str, ckpt_dir: str, program: Optional[PatternProgram] = None
) -> None:
    """Every atom state under ``ucp_dir`` equals the reference's, bitwise."""
    expected = reference_convert(ckpt_dir, program)
    atom_store = AtomStore(ucp_dir)
    assert sorted(atom_store.list_atoms()) == sorted(expected)
    for name, states in expected.items():
        for kind, values in states.items():
            got = atom_store.read_state(name, kind)
            assert (got.dtype, got.shape) == (values.dtype, values.shape), name
            assert got.tobytes() == values.tobytes(), (name, kind)


def reference_load_shard(
    atom_store: AtomStore,
    name: str,
    kind: str,
    spec: ShardSpec,
    tp: int,
    tp_rank: int,
) -> np.ndarray:
    """One flattened target TP shard of one atom state, padding included."""
    shard = add_padding(atom_store.read_state(name, kind), spec)
    if spec.fragmenter is not None and tp > 1:
        shard = spec.fragmenter.shard(shard, tp, tp_rank)
    return np.ascontiguousarray(shard, dtype=np.float32).reshape(-1)
