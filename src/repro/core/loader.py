"""Target-side UCP loading.

Fills a :class:`TrainingEngine`'s ZeRO partitions from atom checkpoints
under an *arbitrary* target parallelism strategy: ``gen_ucp_metadata``
lowers the engine's own layout into one :class:`~repro.core.ops.LoadPlan`
of every atom -> (mp, dp) partition byte move, and
:class:`~repro.core.ops.AtomShardCache` executes it — the same plan
``lint-plan --provenance`` proves.
After loading, the fp32 flat state is re-broadcast into the model's
working-precision weights (the paper's ``fp16_partitioned_groups_flat``
rebroadcast), so the target may even run a different mixed-precision
dtype than the source.
"""

from __future__ import annotations

from typing import Optional

from repro.core.atom import STATE_KINDS, AtomStore
from repro.core.errors import UCPIncompatibleError
from repro.core.metadata import UCPMetadata
from repro.core.ops import AtomShardCache, gen_ucp_metadata
from repro.models.configs import ModelConfig
from repro.storage.store import ObjectStore


def load_ucp_into_engine(
    engine,
    ucp_dir: str,
    store: Optional[ObjectStore] = None,
) -> UCPMetadata:
    """Resume an engine (any topology) from a UCP checkpoint.

    The load is planned and atom-major: every partition slice of every
    target rank is scattered in place from one sequential read of each
    atom state file, and each payload is checked against the CRC32 its
    header records as it streams.

    Args:
        engine: target :class:`repro.parallel.engine.TrainingEngine`.
        ucp_dir: UCP directory produced by :func:`repro.core.convert.ucp_convert`.
        store: optional pre-built store over ``ucp_dir`` (shares byte
            accounting and fault policy with the caller).

    Returns:
        The UCP metadata that was loaded.

    Raises:
        UCPIncompatibleError: model architecture mismatch.
        AtomMissingError: an atom state file is absent.
        UCPFormatError: an atom state file fails
            :meth:`~repro.core.atom.AtomStore.check_state` (its header
            does not decode, or it is not float32 of the derived
            unpadded shape), or its payload does not match its header's
            CRC32.
    """
    if store is None:
        store = ObjectStore(ucp_dir)
    metadata = UCPMetadata.load(store)
    saved_model = ModelConfig.from_dict(metadata.model_config)
    if saved_model != engine.model_cfg:
        raise UCPIncompatibleError(
            f"UCP checkpoint holds model {saved_model.name!r}; the target "
            f"engine runs {engine.model_cfg.name!r}"
        )

    expected = set(engine.layout.shard_specs)
    present = set(metadata.params)
    if expected - present:
        raise UCPIncompatibleError(
            f"UCP checkpoint is missing atoms for "
            f"{sorted(expected - present)[:5]}..."
        )

    # one plan of every (mp, dp) partition, lowered from the engine's
    # own validated layout; executed atom-major, so each state file is
    # read once for all stages and tp ranks
    plan = gen_ucp_metadata(engine.layout)
    dests = []
    for pp, sp, tp, dp in plan.targets:
        partition = engine.zero.partitions[(pp, sp, tp)][dp]
        partition.state.step = metadata.optimizer_step
        dests.append([
            engine.zero._partition_array(partition, kind) for kind in STATE_KINDS
        ])
    AtomShardCache(AtomStore(ucp_dir, store), engine.layout).execute(
        plan, STATE_KINDS, dests
    )

    engine.iteration = metadata.iteration
    if metadata.loss_scaler is not None and engine.loss_scaler is not None:
        engine.loss_scaler.load_state_dict(metadata.loss_scaler)
    engine.sync_model_from_masters()
    return metadata
