"""NVMe storage cost model (the DeepNVMe substitute).

The paper's ``Load`` op uses DeepNVMe to reach near-peak sequential read
bandwidth.  We cannot measure real NVMe behaviour portably, so I/O time
in benchmarks is reported both as wall-clock (real file I/O on the test
machine) and as *simulated* time from this model: per-request latency
plus bytes / bandwidth, with parallel readers sharing the device up to
a queue-depth cap — the regime where DeepNVMe's batching wins.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class NVMeModel:
    """A device profile.

    Attributes:
        read_gbps / write_gbps: peak sequential bandwidth, GB/s.
        latency_s: per-request setup latency, seconds.
        max_parallel: queue depth at which bandwidth saturates.
    """

    read_gbps: float = 3.2
    write_gbps: float = 1.8
    latency_s: float = 100e-6
    max_parallel: int = 8

    def __post_init__(self) -> None:
        if self.read_gbps <= 0 or self.write_gbps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency_s < 0 or self.max_parallel < 1:
            raise ValueError("latency must be >= 0 and max_parallel >= 1")

    def read_time(self, nbytes: int, parallel: int = 1) -> float:
        """Seconds to read ``nbytes`` with ``parallel`` concurrent requests."""
        return self._transfer_time(nbytes, self.read_gbps, parallel)

    def write_time(self, nbytes: int, parallel: int = 1) -> float:
        """Seconds to write ``nbytes`` with ``parallel`` concurrent requests."""
        return self._transfer_time(nbytes, self.write_gbps, parallel)

    def _transfer_time(self, nbytes: int, gbps: float, parallel: int) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        effective = min(max(parallel, 1), self.max_parallel)
        # parallel requests amortize latency but share device bandwidth
        return self.latency_s / effective + nbytes / (gbps * 1e9)


DEFAULT_NVME = NVMeModel()
"""A mid-range datacenter NVMe profile."""
