"""Run one benchmark cell in this (fresh) interpreter and print one JSON row.

Usage: ``python3 perfbench/cell.py '<json>'`` where the JSON object holds
``cell`` (every :class:`repro.bench.config.ExperimentCell` field),
``trace`` (install the per-layer span wrappers first), ``builds`` (how
many times to build the system to time set-up; the last build is run) and
``slices`` (how many pieces the run phase is cut into).

Phases, each timed with ``time.perf_counter``:

* set-up: ``build_system`` plus, on a single-process runtime, ``start()``
  (fault arming, replica timers).  On the sharded runtime set-up ends when
  ``build_system`` returns (shard plan and lookahead); the workers fork and
  build their replicas inside ``runtime.run``, so that cost is in the run
  phase.
* run: ``runtime.run(until=duration)``.  A chunk of a fixed reference loop
  is timed between pieces of the run phase, and its time is left out of the
  run phase's: on a single-process runtime the run phase is ``slices``
  consecutive ``runtime.run(until=...)`` calls of equal simulated length
  (the DES resumes exactly where it stopped, so the schedule is unchanged);
  the sharded runtime drives exactly one ``run``, so there a chunk follows
  each of the hub's barrier rounds (``_round``, wrapped from outside).
  ``run.py`` scales the host times by the chunks' speed.
* collect: ``collect_result()`` on a single-process runtime;
  ``runtime.collect_results()`` plus the hub-side merge and audit on the
  sharded one.

The row carries the run's own correctness verdict and its workload
fingerprint (event count plus a sha256 over the observer's confirmed
``(instance, round, digest)`` sequence); the parent process compares rows.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: candidate tail levels, highest first; the reported tail is the highest
#: level with at least TAIL_MIN_BEYOND blocks beyond it
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: iterations of the reference loop in one chunk (about a millisecond)
REFERENCE_ITERATIONS = 1000


def latency_summary(confirmed):
    """Tx-weighted submission-to-confirmation latency over confirmed blocks.

    Recomputed from the observer's confirmed log (the same definition as its
    ``MetricsCollector``), because the sharded hub only returns the log.
    """
    from repro.metrics.latency import LatencyAccumulator

    latency = LatencyAccumulator()
    for record in confirmed:
        block = record.block
        submitted = block.batch_submitted_at or block.proposed_at
        latency.record_block(submitted, record.confirmed_at, block.tx_count)
    if not latency.count:
        return None
    for level in TAIL_LEVELS:
        tail = latency.percentile(level)
        beyond = sum(1 for sample in latency.samples if sample > tail)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return {
        "p50_s": latency.percentile(50.0),
        "tail_s": tail,
        "tail_level": level,
        "tail_beyond": beyond,
        "samples": latency.count,
    }


def order_errors(confirmed):
    """Independent checks of the observer's global log (Ladon's total order).

    Sequence numbers are consecutive, ordering keys ``(rank, instance)``
    strictly increase, and every instance's confirmed rounds are 1, 2, 3, ...
    """
    errors = []
    next_round = {}
    previous = None
    for index, record in enumerate(confirmed):
        block = record.block
        if record.sn != index:
            errors.append(f"sn {record.sn} at position {index}")
            break
        key = (block.rank, block.instance)
        if previous is not None and key <= previous:
            errors.append(f"ordering key {key} after {previous} at sn {index}")
            break
        previous = key
        expected = next_round.get(block.instance, 1)
        if block.round != expected:
            errors.append(
                f"instance {block.instance} confirmed round {block.round}, expected {expected}"
            )
            break
        next_round[block.instance] = expected + 1
    return errors


def fingerprint(confirmed, events):
    digest = hashlib.sha256()
    for record in confirmed:
        block = record.block
        digest.update(f"{block.instance},{block.round},{block.payload_digest}\n".encode())
    return {"events": events, "confirmed_sha256": digest.hexdigest()}


def peak_rss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _timed(fn, name, phase):
    def timed(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phase[name] = time.perf_counter() - begin

    return timed


def reference_chunk():
    """Time one chunk of a fixed pure-Python loop (heap, dict, tuples).

    It runs between pieces of the run phase, so it samples the machine's
    speed while the program runs; ``run.py`` scales host times by it.  The
    collector
    is paused so that the chunk's allocations, all freed again, neither pay
    for nor move the program's own collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap = []
    counts = {}
    x = 12345
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i, (i, x)))
        counts[x & 255] = counts.get(x & 255, 0) + 1
    while heap:
        heapq.heappop(heap)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def run_cell(spec):
    from repro.bench.config import ExperimentCell

    fields = dict(spec["cell"])
    fields["compat_flags"] = tuple(fields.get("compat_flags", ()))
    cell = ExperimentCell(**fields)
    config = cell.to_system_config()
    sharded = config.runtime == "sharded"

    tracer = None
    if spec["trace"]:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.protocols.registry import build_system

    setups = []
    for _ in range(spec["builds"]):
        system = None  # free the previous build before timing the next
        gc.collect()
        start = time.perf_counter()
        system = build_system(config)
        if not sharded:
            system.start()
        setups.append(time.perf_counter() - start)
    runtime = system.runtime
    gc.collect()  # every run phase starts from the same collector state

    row = {"setup_s": statistics.median(setups), "setup_builds_s": setups}
    if sharded:
        # ShardedSystem.run() = runtime.run() + runtime.collect_results() +
        # the hub-side merge and audit; time the two runtime phases from
        # outside, and add a reference chunk after each barrier round, with
        # instance attributes removed again afterwards.
        phase = {}
        for attr in ("run", "collect_results"):
            setattr(runtime, attr, _timed(getattr(runtime, attr), attr, phase))
        reference = []
        round_fn = runtime._round

        def round_then_reference(*args, **kwargs):
            try:
                return round_fn(*args, **kwargs)
            finally:
                reference.append(reference_chunk())

        runtime._round = round_then_reference
        start = time.perf_counter()
        result = system.run()
        total = time.perf_counter() - start
        del runtime.run, runtime.collect_results, runtime._round
        row["run_s"] = phase["run"] - sum(reference)
        row["reference_s"] = reference
        row["collect_s"] = total - phase["run"]
        row["peak_rss_bytes"] = runtime.total_peak_rss_bytes()
        row["shard"] = {
            "sync_rounds": runtime.sync.rounds,
            "frames_routed": runtime.sync.frames_routed,
            "collect_results_s": phase["collect_results"],
            "worker_rss_bytes": sum(runtime.worker_peak_rss_bytes),
        }
    else:
        run_s = 0.0
        reference = []
        for index in range(1, spec["slices"] + 1):
            start = time.perf_counter()
            runtime.run(until=config.duration * index / spec["slices"])
            run_s += time.perf_counter() - start
            reference.append(reference_chunk())
        row["run_s"] = run_s
        row["reference_s"] = reference
        start = time.perf_counter()
        result = system.collect_result()
        row["collect_s"] = time.perf_counter() - start
        row["peak_rss_bytes"] = peak_rss_bytes()

    confirmed = result.confirmed
    stats = result.network_stats
    audit = result.audit
    errors = []
    if audit is None:
        errors.append("no audit report")
    else:
        if not audit.safety_ok:
            errors.append(f"audit: {len(audit.violations)} safety violations")
        if not audit.live:
            errors.append(f"audit: stalled instances {list(audit.stalled_instances)}")
    if not confirmed:
        errors.append("no block confirmed at the observer")
    errors.extend(order_errors(confirmed))
    tx = sum(record.block.tx_count for record in confirmed)
    sim_tps = tx / config.duration
    if abs(sim_tps - result.metrics.throughput_tps) > 1e-6 * max(1.0, sim_tps):
        errors.append(
            f"throughput mismatch: {sim_tps} from the log, "
            f"{result.metrics.throughput_tps} reported"
        )
    latency = latency_summary(confirmed)
    if latency is None:
        errors.append("no transaction confirmed")

    crypto = result.resources.total_crypto_ops()
    row.update(
        {
            "errors": errors,
            "fingerprint": fingerprint(confirmed, runtime.events_processed),
            "blocks": len(confirmed),
            "sim_tps": sim_tps,
            "latency": latency,
            "counts": {
                "events": runtime.events_processed,
                "messages_sent": stats.messages_sent,
                "messages_delivered": stats.messages_delivered,
                "bytes_sent": stats.bytes_sent,
                "view_changes": len(result.view_change_times),
                "epoch_advances": len(result.epoch_advancements),
                "verify": crypto.get("verify", 0),
                "sign": crypto.get("sign", 0),
            },
        }
    )
    if tracer is not None:
        from layers import merge_spans

        spans = dict(tracer.spans)
        if sharded:
            pending = None
            for shard_result in runtime.collect_results():
                merge_spans(spans, getattr(shard_result, "layer_spans", {}))
                if getattr(shard_result, "observer_pending", None) is not None:
                    pending = shard_result.observer_pending
        else:
            pending = system.replicas[system.observer_id()].orderer.pending_count
        row["spans"] = [
            [name, parent, calls, seconds, self_seconds]
            for (name, parent), (calls, seconds, self_seconds) in sorted(
                spans.items(), key=lambda item: (item[0][0], item[0][1] or "")
            )
        ]
        row["pending_at_end"] = pending
    return row


def main(argv):
    if len(argv) != 2:
        print("usage: python3 perfbench/cell.py '<json spec>'", file=sys.stderr)
        return 2
    spec = json.loads(argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        row = run_cell(spec)
    except Exception:  # one failed run is reported, not fatal to the benchmark
        row = {"errors": ["raised:\n" + traceback.format_exc()]}
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
