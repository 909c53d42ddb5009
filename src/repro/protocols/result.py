"""One result path: per-replica state in, a :class:`SystemResult` out.

``MultiBFTSystem.collect_part`` reads one process's replicas into a
:class:`ResultPart`.  A single-process run assembles its one part; the
sharded hub assembles the N parts its workers ship.  Both go through
:func:`assemble_result` with the audit of
:func:`repro.metrics.auditor.audit_system` over the same parts, and merging
a single part is the identity, so the single-process result is exactly
what its replicas hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ordering import ConfirmedBlock
from repro.metrics.auditor import SafetyAuditReport
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.resources import ResourceModel


@dataclass
class SystemResult:
    """Everything a benchmark needs from one finished run."""

    metrics: RunMetrics
    confirmed: Tuple[ConfirmedBlock, ...]
    network_stats: Any
    resources: ResourceModel
    throughput_series: List[Tuple[float, float]]
    view_change_times: List[Tuple[float, int, int]]
    epoch_advancements: List[Tuple[float, int]]
    crash_log: List[Tuple[float, int, str]]
    #: unified fault/dynamics/attack timeline: (time, kind, detail)
    dynamics_log: List[Tuple[float, str, str]] = field(default_factory=list)
    #: safety/liveness audit of the honest replicas (always computed)
    audit: Optional[SafetyAuditReport] = None


@dataclass
class ObserverBundle:
    """The observer replica's full metrics state (exactly one part carries it)."""

    collector: MetricsCollector
    confirmed: Tuple[ConfirmedBlock, ...]
    epoch_log: List[Tuple[float, int]]


@dataclass
class ResultPart:
    """What one process's replicas contribute to a :class:`SystemResult`.

    Picklable, so a shard worker ships it to the hub as is.
    """

    #: replica -> instance -> (round, digest, committed_at) partial commits
    commit_logs: Dict[int, Dict[int, List[Tuple[int, str, float]]]]
    #: replica -> (sn, instance, round, rank, digest) confirmed fingerprints
    confirmed_fps: Dict[int, List[Tuple[int, int, int, int, str]]]
    view_change_log: List[Tuple[float, int, int]]
    crash_log: List[Tuple[float, int, str]]
    event_log: List[Tuple[float, str, str]]
    #: summed interceptor counters; None when no adversary is armed here
    adversary_stats: Optional[Dict[str, int]]
    observer: Optional[ObserverBundle]


def commit_log(instance) -> List[Tuple[int, str, float]]:
    """An instance's (round, digest, committed_at) partial-commit log.

    Instances keep this compact log for the auditor — full Block histories
    exist only on the observer in bounded-memory mode.
    """
    log = getattr(instance, "commit_log", None)
    if log is None:
        log = [
            (block.round, block.payload_digest, block.committed_at or 0.0)
            for block in getattr(instance, "delivered_blocks", ())
        ]
    return log


#: dynamics-log kinds armed identically on every shard (time-driven network
#: dynamics + the install-time rank-manipulation marker): only the first
#: part's copies are kept
_GLOBAL_EVENT_KINDS = frozenset(
    {
        "partition",
        "heal",
        "degrade",
        "degrade-end",
        "loss-burst",
        "loss-burst-end",
        "attack:rank-manipulation",
    }
)


def _chronological(entries) -> list:
    """``entries`` stably sorted by time (a single timeline is unchanged)."""
    return sorted(entries, key=lambda entry: entry[0])


def _merge_dynamics_logs(
    logs: Sequence[List[Tuple[float, str, str]]]
) -> List[Tuple[float, str, str]]:
    """One chronological dynamics timeline from per-part event logs.

    Global kinds come from the first part only; crash/recover entries are
    owned by the hosting part and concatenate; attack-window entries that
    an earlier part already logged are dropped (identical "on" markers from
    parts sharing a conspiracy collapse, per-part "-end" stats entries all
    survive).  One log comes back unchanged.
    """
    merged = list(logs[0])
    seen = set(merged)
    for log in logs[1:]:
        merged.extend(
            entry
            for entry in log
            if entry[1] not in _GLOBAL_EVENT_KINDS and entry not in seen
        )
        seen.update(log)
    return _chronological(merged)


def assemble_result(
    system, parts: Sequence[ResultPart], audit: SafetyAuditReport
) -> SystemResult:
    """Build a finished run's :class:`SystemResult` from its parts.

    ``system`` supplies ``config``, ``effective_faults``, ``resources`` (with
    every replica's usage already absorbed) and ``runtime.stats``; ``audit``
    is ``audit_system(system, parts)``.
    """
    config = system.config
    stats = system.runtime.stats
    resources = system.resources
    # Attribute network byte counts to per-replica resource usage so that
    # the bandwidth numbers reflect what was actually pushed to the NIC.
    for replica_id, byte_count in stats.bytes_per_node.items():
        usage = resources.usage(replica_id)
        usage.bytes_sent = max(usage.bytes_sent, byte_count)
    observers = [part.observer for part in parts if part.observer is not None]
    if len(observers) != 1:  # pragma: no cover - structural invariant
        raise RuntimeError(
            f"expected exactly one part to host the observer, got {len(observers)}"
        )
    observer = observers[0]
    metrics = observer.collector.summarise(
        protocol=config.protocol,
        n=config.n,
        stragglers=system.effective_faults.straggler_count(),
        duration=config.duration,
        resources=resources,
        warmup=config.warmup,
    )
    metrics.extra["safety_violations"] = float(len(audit.violations))
    metrics.extra["stalled_instances"] = float(len(audit.stalled_instances))
    adversary: Dict[str, int] = {}
    for part in parts:
        for key, value in (part.adversary_stats or {}).items():
            adversary[key] = adversary.get(key, 0) + value
    for key, value in adversary.items():
        metrics.extra[f"adversary_{key}"] = float(value)
    return SystemResult(
        metrics=metrics,
        confirmed=observer.confirmed,
        network_stats=stats,
        resources=resources,
        throughput_series=observer.collector.throughput.series(until=config.duration),
        view_change_times=sorted(
            entry for part in parts for entry in part.view_change_log
        ),
        epoch_advancements=observer.epoch_log,
        crash_log=_chronological(entry for part in parts for entry in part.crash_log),
        dynamics_log=_merge_dynamics_logs([part.event_log for part in parts]),
        audit=audit,
    )
