"""Global UCP metadata: everything a target needs besides the atoms."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.errors import UCPFormatError
from repro.dist.topology import ParallelConfig
from repro.models.configs import ModelConfig
from repro.storage.serializer import SerializationError
from repro.storage.store import ObjectStore

UCP_VERSION = 1
UCP_META_FILE = "ucp_meta.npt"

_MAPPINGS = (
    "model_config", "source_parallel_config", "params", "adam", "training",
    "pattern_program",
)


def _damaged(what: str) -> UCPFormatError:
    return UCPFormatError(f"{UCP_META_FILE} is damaged: {what}")


def _kind(value) -> str:
    return "missing" if value is None else type(value).__name__


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
        """Serializable form: the fields themselves, not copies — the
        ``params`` tree is read once, by the encode; a caller that edits
        the payload copies it first."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_payload(cls, payload: Dict) -> "UCPMetadata":
        """Inverse of :meth:`to_payload`.  The tree is checked here, once
        (``model_config`` and ``source_parallel_config`` must decode to
        their config classes): a damaged one is a
        :class:`UCPFormatError` naming the file."""
        version = payload.get("version")
        if type(version) is not int or version != UCP_VERSION:
            raise UCPFormatError(
                f"{UCP_META_FILE}: unsupported UCP version {version!r}; "
                f"this build reads version {UCP_VERSION}"
            )
        for key in ("iteration", "optimizer_step"):
            if type(payload.get(key)) is not int:
                raise _damaged(f"{key} is {_kind(payload.get(key))}, not an int")
        for key in _MAPPINGS:
            if not isinstance(payload.get(key), dict):
                raise _damaged(f"{key} is {_kind(payload.get(key))}, not a mapping")
        if not isinstance(payload.get("loss_scaler", {}), (dict, type(None))):
            raise _damaged("loss_scaler is neither None nor a mapping")
        for key, config in (("model_config", ModelConfig),
                            ("source_parallel_config", ParallelConfig)):
            try:
                config.from_dict(payload[key])
            except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
                raise _damaged(f"{key} is not a {config.__name__}: {exc}") from exc
        for name, entry in payload["params"].items():
            entry = entry if isinstance(entry, dict) else {}
            shape, kinds = entry.get("shape"), entry.get("kinds")
            if not (
                isinstance(name, str) and isinstance(entry.get("spec"), dict)
                and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)
                and isinstance(kinds, list)
                and all(isinstance(k, str) for k in kinds)
            ):
                raise _damaged(f"params entry {name!r} is not "
                               f"{{shape: [int >= 0], spec: mapping, kinds: [str]}}")
        return cls(**{f.name: payload.get(f.name) for f in dataclasses.fields(cls)})

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
