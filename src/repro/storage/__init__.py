"""Storage substrate: serialization, object store, NVMe cost model.

Stands in for torch.save/torch.load + DeepNVMe: a compact binary tensor
container (``.npt``), a directory-backed object store with atomic
commits, byte accounting, and injectable fault policies, and a
calibrated NVMe timing model so benchmarks can report simulated I/O
time alongside wall-clock time.
"""

from repro.storage.serializer import deserialize, serialize, read_npt
from repro.storage.store import ObjectStore, sha256_hex
from repro.storage.nvme import NVMeModel, DEFAULT_NVME
from repro.storage.faults import (
    CrashAtWrite,
    FaultPolicy,
    InjectedCrash,
)

__all__ = [
    "serialize",
    "deserialize",
    "read_npt",
    "ObjectStore",
    "sha256_hex",
    "NVMeModel",
    "DEFAULT_NVME",
    "FaultPolicy",
    "InjectedCrash",
    "CrashAtWrite",
]
