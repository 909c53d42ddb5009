"""CPU and bandwidth accounting (Table 1).

The paper reports per-replica CPU utilisation (as a percentage of the 8-vCPU
machine, so 800% is the ceiling) and NIC bandwidth.  Neither protocol is
CPU-bound; the interesting observation is the *relative* cost of Ladon vs ISS
with and without stragglers.  We reproduce this with an accounting model:

* bandwidth — bytes actually pushed through the simulated network per second
  per replica (taken from :class:`repro.sim.network.NetworkStats`);
* CPU — a cost model charging a fixed number of CPU-microseconds per message
  handled and per cryptographic operation, normalised by wall-clock duration
  into a utilisation percentage comparable across protocols.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from typing import Dict


def peak_rss_bytes() -> int:
    """This host process's peak resident set size, in bytes.

    Not part of the accounting model: it measures the simulator itself.
    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return rss
    return rss * 1024


@dataclass(frozen=True)
class CryptoCostModel:
    """CPU cost (in seconds) charged per operation type.

    Defaults approximate Ed25519 sign/verify and BLS aggregation on the
    paper's c5a.2xlarge instances.
    """

    sign: float = 25e-6
    verify: float = 60e-6
    aggregate: float = 120e-6
    verify_aggregate: float = 250e-6
    message_handling: float = 3e-6
    per_byte: float = 0.3e-9

    def cost_of(self, operation: str) -> float:
        if operation == "sign":
            return self.sign
        if operation == "verify":
            return self.verify
        if operation == "aggregate":
            return self.aggregate
        if operation == "verify_aggregate":
            return self.verify_aggregate
        raise KeyError(f"unknown crypto operation {operation!r}")


@dataclass(slots=True)
class ResourceUsage:
    """Accumulated per-replica resource usage."""

    cpu_seconds: float = 0.0
    bytes_sent: int = 0
    messages_handled: int = 0
    crypto_ops: Dict[str, int] = field(default_factory=dict)

    def cpu_percent(self, duration: float, vcpus: int = 8) -> float:
        """CPU utilisation in the paper's convention (100% = one vCPU busy)."""
        if duration <= 0:
            return 0.0
        return 100.0 * self.cpu_seconds / duration

    def bandwidth_mbps(self, duration: float) -> float:
        """Outbound bandwidth in MB/s."""
        if duration <= 0:
            return 0.0
        return self.bytes_sent / duration / 1e6


class ResourceModel:
    """Accumulates resource usage across replicas during one run."""

    def __init__(self, cost_model: CryptoCostModel = None) -> None:
        self.cost_model = cost_model or CryptoCostModel()
        # Hot path: one dict lookup per operation instead of an if-chain;
        # cost_of stays the single source of the op -> cost mapping.
        self._costs: Dict[str, float] = {
            op: self.cost_model.cost_of(op)
            for op in ("sign", "verify", "aggregate", "verify_aggregate")
        }
        self._per_replica: Dict[int, ResourceUsage] = {}

    def usage(self, replica: int) -> ResourceUsage:
        if replica not in self._per_replica:
            self._per_replica[replica] = ResourceUsage()
        return self._per_replica[replica]

    def per_replica(self) -> Dict[int, ResourceUsage]:
        """The live per-replica usage records (callers must not mutate)."""
        return self._per_replica

    def absorb(self, records: Dict[int, ResourceUsage]) -> None:
        """Adopt usage records collected elsewhere (sharded-runtime merge).

        Insertion order is aggregation order (the float sums in Table 1
        iterate it), so callers pass records already in the order they want —
        the sharded merge uses ascending replica id.
        """
        self._per_replica.update(records)

    def cost_table(self) -> Dict[str, float]:
        """The op -> CPU-seconds mapping (hot-path callers index it directly)."""
        return self._costs

    # ------------------------------------------------------------- recording
    def record_crypto(self, replica: int, operation: str, count: int = 1) -> None:
        cost = self._costs.get(operation)
        if cost is None:
            raise KeyError(f"unknown crypto operation {operation!r}")
        usage = self.usage(replica)
        usage.crypto_ops[operation] = usage.crypto_ops.get(operation, 0) + count
        usage.cpu_seconds += cost * count

    def record_message_handled(self, replica: int, size_bytes: int = 0) -> None:
        usage = self.usage(replica)
        usage.messages_handled += 1
        usage.cpu_seconds += (
            self.cost_model.message_handling + self.cost_model.per_byte * size_bytes
        )

    def record_bytes_sent(self, replica: int, size_bytes: int) -> None:
        usage = self.usage(replica)
        usage.bytes_sent += size_bytes
        usage.cpu_seconds += self.cost_model.per_byte * size_bytes

    # ------------------------------------------------------------ aggregation
    def average_cpu_percent(self, duration: float) -> float:
        if not self._per_replica:
            return 0.0
        values = [u.cpu_percent(duration) for u in self._per_replica.values()]
        return sum(values) / len(values)

    def average_bandwidth_mbps(self, duration: float) -> float:
        if not self._per_replica:
            return 0.0
        values = [u.bandwidth_mbps(duration) for u in self._per_replica.values()]
        return sum(values) / len(values)

    def total_bytes(self) -> int:
        return sum(u.bytes_sent for u in self._per_replica.values())

    def total_crypto_ops(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for usage in self._per_replica.values():
            for op, count in usage.crypto_ops.items():
                totals[op] = totals.get(op, 0) + count
        return totals
