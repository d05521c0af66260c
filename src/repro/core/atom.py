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
That is all the sidecar is: the atom's commit marker, which the resume
gate (:meth:`AtomStore.reusable_entry`) checks.  Its fields duplicate
the atom's ``ucp_meta`` params entry, and the load
(:func:`repro.core.loader.load_ucp_into_engine`) never opens it — it
reads each state file's header and payload, the payload checked
against the header's CRC32, so a load reads the same bytes whether or
not the sidecar is there.

:class:`AtomStore` is the only code that knows this container (where an
atom's parts live, how they decode, when one on disk is whole); every
other module names atoms and state kinds.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import AtomMissingError, UCPError, UCPFormatError
from repro.storage.serializer import (
    SerializationError,
    TensorIndexEntry,
    encode,
    serialize,
)
from repro.storage.store import CommitGroup, ObjectStore

STATE_KINDS: Tuple[str, ...] = ("fp32", "exp_avg", "exp_avg_sq")
"""Per-parameter states an atom persists (Adam training)."""

SIDECAR = "atom_meta"
"""The atom part holding its metadata (name, shape, kinds, spec)."""

ATOMS_DIR = "atoms"


def _sidecar(name: str, shape: List[int], kinds: List[str], spec: Dict) -> bytes:
    return serialize({"name": name, "shape": shape, "kinds": kinds, "spec": spec})


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

    @property
    def entry(self) -> Dict:
        """This atom's ``ucp_meta`` params entry."""
        return dict(shape=list(self.shape), spec=self.spec, kinds=sorted(self.states))


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

    def path(self, name: str, part: Optional[str] = None) -> str:
        """Where an atom, or the file holding one of its parts (a state
        kind or :data:`SIDECAR`), lives: a location to name, not read."""
        where = f"{ATOMS_DIR}/{name}"
        return where if part is None else f"{where}/{part}.npt"

    def _file(self, name: str, part: str) -> str:
        # no empty, "." or ".." component: the file stays under atoms/
        if {"", ".", ".."} & set(name.split("/")):
            raise UCPFormatError(f"illegal atom name {name!r}")
        return self.path(name, part)

    def _decode(self, name: str, part: str, full: bool) -> Any:
        """One part's tree — a full CRC-checked decode, or its index —
        with absent and undecodable files typed errors naming the file."""
        rel = self._file(name, part)
        what = "atom metadata" if part == SIDECAR else "atom state"
        try:
            if full and not self.store.exists(rel):  # costs no read call
                raise FileNotFoundError(rel)
            return self.store.load(rel) if full else self.store.load_index(rel)
        except FileNotFoundError:
            raise AtomMissingError(f"missing {what} {rel}") from None
        except SerializationError as exc:
            raise UCPFormatError(f"{what} file {rel} is damaged: {exc}") from exc

    def _values(self, name: str, kind: str, full: bool) -> Any:
        tree = self._decode(name, kind, full)
        values = tree.get("values") if isinstance(tree, dict) else None
        if not isinstance(values, np.ndarray if full else TensorIndexEntry):
            raise UCPFormatError(
                f"atom state file {self.path(name, kind)} is damaged: it "
                f"decodes, but holds no 'values' array"
            )
        return values

    def write(self, atom: AtomCheckpoint) -> int:
        """Persist one atom as one commit group; returns bytes written.
        Each state is staged from its array's own buffer."""
        group = CommitGroup(self.store)
        total = 0
        for kind, values in atom.states.items():
            total += group.stage(
                self._file(atom.name, kind),
                *encode({"values": np.asarray(values, dtype=np.float32)}),
            )
        total += group.stage(self._file(atom.name, SIDECAR), _sidecar(
            atom.name, list(atom.shape), sorted(atom.states), atom.spec
        ))
        self.publish(group)
        return total

    def read_state(self, name: str, kind: str) -> np.ndarray:
        """Read one state array of one parameter (CRC-checked)."""
        return self._values(name, kind, True)

    def state_index(self, name: str, kind: str) -> TensorIndexEntry:
        """The ``values`` index entry of one state file (header only;
        the payload's placement is checked against the file's size)."""
        return self._values(name, kind, False)

    def read_ranges(
        self, name: str, kind: str, ranges: List[Tuple[int, int]]
    ) -> List[bytes]:
        """Byte ranges of one state file (each an ``element_range`` of its
        :meth:`state_index` entry), in one read call."""
        return self.store.read_ranges(self._file(name, kind), ranges)

    def read_meta(self, name: str) -> Dict:
        """Read one atom's metadata sidecar."""
        meta = self._decode(name, SIDECAR, True)
        if not isinstance(meta, dict):
            raise UCPFormatError(
                f"atom metadata {self.path(name, SIDECAR)} is damaged: it "
                f"decodes to {type(meta).__name__}, not a mapping"
            )
        return meta

    def read(self, name: str) -> AtomCheckpoint:
        """Read a full atom (all states)."""
        meta = self.read_meta(name)
        states = {kind: self.read_state(name, kind) for kind in meta["kinds"]}
        return AtomCheckpoint(name=name, states=states, spec=meta["spec"])

    def reusable_entry(self, name: str, spec: Dict) -> Optional[Dict]:
        """An atom's ``ucp_meta`` entry iff the one on disk is whole: its
        sidecar is byte for byte what :meth:`write` stages for a ``shape``
        and this ``spec``, and every state reads back CRC-checked as
        float32 of that shape.  Anything else is None: re-convert."""
        try:
            meta = self.read_meta(name)
            shape = meta.get("shape")
            if not (
                isinstance(shape, list) and all(type(d) is int for d in shape)
                and serialize(meta) == _sidecar(
                    name, shape, sorted(STATE_KINDS), spec
                )
            ):
                return None
            for kind in STATE_KINDS:
                values = self.read_state(name, kind)
                if values.dtype != np.float32 or list(values.shape) != shape:
                    return None
        except (UCPError, SerializationError):
            return None
        return {"shape": shape, "spec": meta["spec"], "kinds": meta["kinds"]}

    def fsync_dir(self) -> None:
        """Make the atom directories' own entries durable (made by
        ``mkdir``; a group publish fsyncs only its files' directory)."""
        self.store.fsync_dir(ATOMS_DIR)

    def clear(self) -> None:
        """Delete every atom on disk, durably: once this returns no crash
        brings one back (how a destination another source's conversion
        left is emptied before it is claimed)."""
        self.store.delete(*self.store.list(ATOMS_DIR))

    def list_atoms(self) -> List[str]:
        """Names of all atoms present, sorted."""
        skip = len(ATOMS_DIR) + 1
        return sorted({
            rel[skip:].rsplit("/", 1)[0] for rel in self.store.list(ATOMS_DIR)
        })

    def has_atom(self, name: str) -> bool:
        """Whether an atom (metadata sidecar) exists for a parameter."""
        return self.store.exists(self._file(name, SIDECAR))
