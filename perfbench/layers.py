"""Per-layer span tracing, installed from outside the program.

The traced cell process calls :func:`install` before ``build_system``: it
replaces the entry points of each layer (class attributes and module
functions) with timing wrappers.  It has to happen before the build because
the replicas capture bound methods then (``Network.register`` stores
``replica._receive``, the route tables store the consensus handlers, the
instance contexts store ``replica.multicast_protocol_message``).

Every span records its name and its parent span's name.  Spans are
aggregated in memory per (name, parent) edge -- a run makes millions of
them -- into calls, total seconds and self seconds, where self time is the
span's duration minus the time its child spans cover.  Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, parent span name or None) -> [calls, total_s, self_s]
SpanTable = Dict[Tuple[str, Optional[str]], List[float]]


class Tracer:
    """A span stack plus the aggregated span table."""

    def __init__(self) -> None:
        self.spans: SpanTable = {}
        self._stack: List[List] = []

    def reset(self) -> None:
        self.spans = {}
        self._stack = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            frame = [name, 0.0]  # [name, seconds covered by child spans]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (name, parent[0])
                else:
                    key = (name, None)
                row = tracer.spans.get(key)
                if row is None:
                    row = tracer.spans[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]

        span.__wrapped_span__ = name
        return span

    def wrap_methods(self, base: type, names: Iterable[str], name: str) -> None:
        """Wrap ``names`` wherever ``base`` or a loaded subclass defines them."""
        names = tuple(names)
        for cls in _family(base):
            self._wrap_own(cls, names, name)

    def wrap_prefixed(self, base: type, prefix: str, extra: Iterable[str], name: str) -> None:
        """Wrap every ``prefix*`` method (plus ``extra``) of ``base``'s family."""
        extra = tuple(extra)
        for cls in _family(base):
            own = [a for a in cls.__dict__ if a.startswith(prefix) or a in extra]
            self._wrap_own(cls, own, name)

    def _wrap_own(self, cls: type, names: Iterable[str], name: str) -> None:
        for attr in names:
            fn = cls.__dict__.get(attr)
            if inspect.isfunction(fn) and not hasattr(fn, "__wrapped_span__"):
                setattr(cls, attr, self.wrap(fn, name))

    def wrap_function(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.wrap(getattr(module, attr), name))


def _family(base: type) -> List[type]:
    seen = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points; call once, before ``build_system``."""
    import repro.metrics.auditor as auditor
    import repro.protocols.base as protocols_base
    import repro.protocols.registry  # noqa: F401  (loads every system class)
    import repro.shard.worker as shard_worker
    from repro.consensus.base import ConsensusInstance
    from repro.consensus.quorum import QuorumTracker
    from repro.core.epoch import EpochPacemaker
    from repro.core.ordering import GlobalOrderer
    from repro.metrics.collector import MetricsCollector
    from repro.sim.network import Network
    from repro.sim.simulator import Simulator

    # sim: the event loop and the transport fan-out
    tracer.wrap_methods(Simulator, ["run"], "sim.loop")
    tracer.wrap_methods(Network, ["send", "multicast"], "sim.fanout")
    # protocols: replica delivery/dispatch, outbound accounting, pacing, commit path
    replica = protocols_base.MultiBFTReplica
    tracer.wrap_methods(replica, ["_receive"], "protocols.receive")
    tracer.wrap_methods(
        replica, ["send_protocol_message", "multicast_protocol_message"], "protocols.send"
    )
    tracer.wrap_methods(replica, ["_proposal_tick"], "protocols.pacing")
    tracer.wrap_methods(replica, ["make_batch"], "protocols.batch")
    tracer.wrap_methods(replica, ["on_partial_commit"], "protocols.commit")
    # consensus: every handler / timeout (``_on_*``) plus the proposal path
    tracer.wrap_prefixed(
        ConsensusInstance,
        "_on_",
        ["propose", "ready_to_propose", "on_message", "begin_epoch"],
        "consensus.handler",
    )
    tracer.wrap_methods(QuorumTracker, ["add_vote"], "consensus.quorum")
    # core: the global orderer and the epoch pacemaker
    tracer.wrap_methods(GlobalOrderer, ["add_partially_committed"], "core.orderer")
    tracer.wrap_methods(
        EpochPacemaker, ["observe_commit", "observe_checkpoint", "try_advance"], "core.epoch"
    )
    # metrics: per-confirmation recording and the safety/liveness audit
    tracer.wrap_methods(
        MetricsCollector, ["record_partial_commit", "record_confirmations"], "metrics.record"
    )
    tracer.wrap_function(protocols_base, "audit_system", "metrics.audit")
    tracer.wrap_function(auditor, "audit_logs", "metrics.audit")
    _install_shard_hooks(tracer, shard_worker)


def _install_shard_hooks(tracer: Tracer, shard_worker) -> None:
    """Carry worker-side spans back to the hub on the sharded runtime.

    Workers are forked from the traced process, so they inherit the wrappers
    above; a worker starts from an empty span table and attaches it (plus its
    observer's orderer backlog) to the :class:`ShardResult` it returns.
    """
    entry = shard_worker.worker_entry
    collect = shard_worker.collect_shard_result

    def worker_entry(*args, **kwargs):
        tracer.reset()
        return entry(*args, **kwargs)

    def collect_shard_result(system, *args, **kwargs):
        result = collect(system, *args, **kwargs)
        result.layer_spans = dict(tracer.spans)
        observer = system.replicas.get(system.observer_id())
        result.observer_pending = (
            observer.orderer.pending_count if observer is not None else None
        )
        return result

    shard_worker.worker_entry = worker_entry
    shard_worker.collect_shard_result = collect_shard_result


def merge_spans(total: SpanTable, part: SpanTable, key=lambda edge: edge) -> None:
    """Add ``part``'s rows into ``total``, keyed by ``key(edge)``."""
    for edge, (calls, seconds, self_seconds) in part.items():
        row = total.setdefault(key(edge), [0, 0.0, 0.0])
        row[0] += calls
        row[1] += seconds
        row[2] += self_seconds


def by_name(spans: SpanTable) -> Dict[str, List[float]]:
    """Collapse the (name, parent) edges to per-name [calls, total_s, self_s]."""
    out: Dict[str, List[float]] = {}
    merge_spans(out, spans, key=lambda edge: edge[0])
    return out
