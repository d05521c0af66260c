"""Atom checkpoints: the UCP on-disk representation.

One directory per model parameter, holding a *consolidated* (padding-
free, topology-free) copy of each training state (paper §3.1)::

    <ucp_dir>/
        ucp_meta.npt                   <- global metadata (UCPMetadata)
        atoms/<param name>/fp32.npt
        atoms/<param name>/exp_avg.npt
        atoms/<param name>/exp_avg_sq.npt
        atoms/<param name>/atom_meta.npt

Keeping one file per (parameter, state) is what allows the target-side
``Load`` to stream exactly the fragments a rank needs, parameter by
parameter, without materializing the whole model in memory.

An atom's four files only mean something together, so they are one
:class:`~repro.storage.store.CommitGroup`: staged in the order above and
published as a unit, the sidecar renamed last — a visible
``atom_meta.npt`` implies the three state files beside it are whole.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import AtomMissingError, UCPFormatError
from repro.storage.serializer import serialize
from repro.storage.store import CommitGroup, ObjectStore

STATE_KINDS: Tuple[str, ...] = ("fp32", "exp_avg", "exp_avg_sq")
"""Per-parameter states an atom persists (Adam training)."""

ATOMS_DIR = "atoms"
ATOM_META_FILE = "atom_meta.npt"


@dataclasses.dataclass
class AtomCheckpoint:
    """In-memory form of one parameter's atom.

    Attributes:
        name: dotted parameter name.
        states: state kind -> consolidated, padding-free array.
        spec: the parameter's shard-spec dict (pattern + fragmenter),
            recorded so targets can re-fragment without re-deriving it.
    """

    name: str
    states: Dict[str, np.ndarray]
    spec: Dict

    def __post_init__(self) -> None:
        shapes = {v.shape for v in self.states.values()}
        if len(shapes) > 1:
            raise UCPFormatError(
                f"atom {self.name!r} state shapes disagree: {shapes}"
            )

    @property
    def shape(self) -> Tuple[int, ...]:
        """Consolidated (unpadded) shape."""
        first = next(iter(self.states.values()))
        return tuple(first.shape)

    @property
    def nbytes(self) -> int:
        """Total bytes across all states."""
        return sum(int(v.nbytes) for v in self.states.values())


class AtomStore:
    """Reads and writes atoms under a UCP directory.

    Attributes:
        publish: what :meth:`write` hands each atom's staged
            :class:`CommitGroup` to.  By default the group is published
            inline, so ``write`` returns with the atom durable; the
            converter's fan-out points it at its commit pool instead
            (write-behind: ``write`` returns once the atom is staged).
    """

    def __init__(self, ucp_dir: str, store: Optional[ObjectStore] = None) -> None:
        self.store = store if store is not None else ObjectStore(ucp_dir)
        self.publish: Callable[[CommitGroup], None] = CommitGroup.publish

    def _atom_path(self, name: str, filename: str) -> str:
        if not name or name.startswith(("/", ".")) or ".." in name.split("."):
            raise UCPFormatError(f"illegal atom name {name!r}")
        return f"{ATOMS_DIR}/{name}/{filename}"

    def write(self, atom: AtomCheckpoint) -> int:
        """Persist one atom as one commit group; returns bytes written."""
        group = CommitGroup(self.store)
        total = 0
        for kind, values in atom.states.items():
            total += group.stage(
                self._atom_path(atom.name, f"{kind}.npt"),
                serialize({"values": np.asarray(values, dtype=np.float32)}),
            )
        total += group.stage(
            self._atom_path(atom.name, ATOM_META_FILE),
            serialize({
                "name": atom.name,
                "shape": list(atom.shape),
                "kinds": sorted(atom.states),
                "spec": atom.spec,
            }),
        )
        self.publish(group)
        return total

    def read_state(self, name: str, kind: str) -> np.ndarray:
        """Read one state array of one parameter."""
        rel = self._atom_path(name, f"{kind}.npt")
        if not self.store.exists(rel):
            raise AtomMissingError(f"missing atom state {rel}")
        obj = self.store.load(rel)
        if not isinstance(obj, dict) or not isinstance(
            obj.get("values"), np.ndarray
        ):
            raise UCPFormatError(
                f"atom state file {rel} is damaged: it decodes, but holds "
                f"no 'values' array"
            )
        return obj["values"]

    def read_meta(self, name: str) -> Dict:
        """Read one atom's metadata sidecar."""
        rel = self._atom_path(name, ATOM_META_FILE)
        if not self.store.exists(rel):
            raise AtomMissingError(f"missing atom metadata {rel}")
        meta = self.store.load(rel)
        if not isinstance(meta, dict):
            raise UCPFormatError(
                f"atom metadata {rel} is damaged: it decodes to "
                f"{type(meta).__name__}, not a mapping"
            )
        return meta

    def read(self, name: str) -> AtomCheckpoint:
        """Read a full atom (all states)."""
        meta = self.read_meta(name)
        states = {kind: self.read_state(name, kind) for kind in meta["kinds"]}
        return AtomCheckpoint(name=name, states=states, spec=meta["spec"])

    def list_atoms(self) -> List[str]:
        """Names of all atoms present, sorted."""
        names = set()
        prefix = f"{ATOMS_DIR}/"
        for rel in self.store.list(ATOMS_DIR):
            remainder = rel[len(prefix):]
            name = remainder.rsplit("/", 1)[0]
            names.add(name)
        return sorted(names)

    def has_atom(self, name: str) -> bool:
        """Whether an atom (metadata sidecar) exists for a parameter."""
        return self.store.exists(self._atom_path(name, ATOM_META_FILE))
