"""Global UCP metadata: everything a target needs besides the atoms."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.errors import UCPFormatError
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore

UCP_VERSION = 1
UCP_META_FILE = "ucp_meta.npt"


@dataclasses.dataclass
class UCPMetadata:
    """The ``ucp_meta`` record written at conversion time.

    Attributes:
        iteration: global step the source checkpoint was taken at.
        optimizer_step: Adam step counter (usually == iteration).
        model_config: dict form of the :class:`ModelConfig`.
        source_parallel_config: the *Source* strategy (provenance only —
            targets never depend on it; that independence is UCP's
            point).
        params: parameter name -> {"shape": unpadded shape,
            "spec": shard-spec dict, "kinds": state kinds present}.
        adam: optimizer hyperparameters.
        training: seeds / batch geometry needed to continue the run.
        pattern_program: the rule program used for conversion
            (provenance + cross-framework reuse).
        loss_scaler: dynamic loss-scale state, if the source used fp16.
    """

    iteration: int
    optimizer_step: int
    model_config: Dict
    source_parallel_config: Dict
    params: Dict[str, Dict]
    adam: Dict
    training: Dict
    pattern_program: Dict
    loss_scaler: Optional[Dict] = None
    version: int = UCP_VERSION

    def param_names(self) -> List[str]:
        """All parameter names, sorted."""
        return sorted(self.params)

    def to_payload(self) -> Dict:
        """Serializable form."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict) -> "UCPMetadata":
        """Inverse of :meth:`to_payload`, with version checking."""
        version = int(payload.get("version", -1))
        if version != UCP_VERSION:
            raise UCPFormatError(
                f"unsupported UCP version {version}; this build reads "
                f"version {UCP_VERSION}"
            )
        return cls(
            iteration=int(payload["iteration"]),
            optimizer_step=int(payload["optimizer_step"]),
            model_config=payload["model_config"],
            source_parallel_config=payload["source_parallel_config"],
            params=payload["params"],
            adam=payload["adam"],
            training=payload["training"],
            pattern_program=payload["pattern_program"],
            loss_scaler=payload.get("loss_scaler"),
            version=version,
        )

    def save(self, store: ObjectStore) -> int:
        """Write to a UCP directory; returns bytes written."""
        return store.save(UCP_META_FILE, self.to_payload())

    @classmethod
    def load(cls, store: ObjectStore) -> "UCPMetadata":
        """Read from a UCP directory."""
        if not store.exists(UCP_META_FILE):
            raise UCPFormatError(
                f"no {UCP_META_FILE} in {store.base}; not a UCP directory"
            )
        try:
            payload = store.load(UCP_META_FILE)
        except SerializationError as exc:
            raise UCPFormatError(f"{UCP_META_FILE} is corrupt: {exc}") from exc
        if not isinstance(payload, dict):
            raise UCPFormatError(
                f"{UCP_META_FILE} is corrupt: decodes to "
                f"{type(payload).__name__}, not a mapping"
            )
        return cls.from_payload(payload)
