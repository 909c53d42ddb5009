"""The repository benchmark: named Ladon workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pbft-wan-n64 --seed 1 --seconds 30 --trace 0

``--seed`` selects the workload's inputs: it becomes the cell's simulation
seed, which draws link jitter and, where the workload has one, picks the
straggler.  The same seed gives the same cell and, with unchanged code, the
same confirmed log.

``--trace 0`` runs the cell again and again, each time in a fresh
interpreter (``cell.py``), for about ``--seconds`` of wall time, and
prints the end-to-end metrics.  Every run times chunks of a fixed reference
loop between pieces of its run phase, and its host times are scaled to a
nominal machine speed, the one at which a chunk takes ``REFERENCE_CHUNK_S``;
this takes the machine's drifting speed out of them (``DESIGN.md``, "Run
length and noise").  Host times are medians over the runs (with quartiles;
the unscaled median is printed beside them), the ``sim_*`` metrics are the
run's simulated-time results.
``--trace 1`` runs the cell once untraced and once with the per-layer span
wrappers of ``layers.py`` installed, checks that both runs produced the same
fingerprint and ``sim_*`` values, and prints the per-layer metrics.

Every run is checked: it must not raise, the program's audit must find it
safe and live, the observer's global log must pass the independent order
checks in ``cell.py``, and its workload fingerprint must equal that of the
other runs of the same cell.  A run that fails any of these is counted in
``failed`` (``failed_run_share`` = failed / attempted).  The last line of
standard output is the JSON result; the lines before it are the same numbers
for a reader, plus the machine fingerprint and the full cell.  Each
invocation also writes its rows to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: an invocation stops starting runs, and kills a run still going, here
HARD_LIMIT_S = 170.0
#: the single-process run phase is cut into this many slices of equal
#: simulated length, each followed by a reference chunk
RUN_SLICES = 200
#: the time of one reference chunk (``cell.reference_chunk``) on the nominal
#: machine that host times are scaled to: the fastest chunk time measured on
#: the 2-core machine the benchmark was tuned on
REFERENCE_CHUNK_S = 0.8e-3

#: Shared load model: the paper's saturated open loop, every proposal a full
#: 4096-tx batch, 16 blocks/s in total on the WAN (4 regions, 40-140 ms
#: one-way, up to 5 ms jitter, 1 Gbps uplinks) and 32 blocks/s on the LAN
#: (0.5 ms + 0.3 ms jitter).  Why each workload exists is in DESIGN.md.
WORKLOADS = {
    "pbft-wan-straggler": dict(
        protocol="ladon-pbft", n=16, environment="wan", stragglers=1,
        straggler_slowdown=10.0, duration=40.0,
    ),
    "pbft-wan-n64": dict(protocol="ladon-pbft", n=64, environment="wan", duration=8.0),
    "hotstuff-lan-n64": dict(
        protocol="ladon-hotstuff", n=64, environment="lan", duration=20.0
    ),
    "pbft-wan-n64-sharded2": dict(
        protocol="ladon-pbft", n=64, environment="wan", duration=8.0,
        runtime="sharded", shards=2,
    ),
}

#: set-up is timed over this many builds per run; the last one is run.
#: Cheap set-ups are built more often so that their median is steady.
SETUP_BUILDS = {
    "pbft-wan-straggler": 15,
    "pbft-wan-n64": 3,
    "hotstuff-lan-n64": 5,
    "pbft-wan-n64-sharded2": 15,
}

END_TO_END_UNITS = {
    "host_s_per_sim_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tps": "tx/s",
    "sim_latency_p50_s": "s",
    "sim_latency_tail_s": "s",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.loop_self_s": "s",
    "sim.fanout_s": "s",
    "sim.fanout_calls": "count",
    "sim.messages_sent": "count",
    "sim.bytes_sent": "B",
    "sim.messages_per_block": "count",
    "sim.bytes_per_block": "B",
    "runtime.timer_events": "count",
    "protocols.receive_calls": "count",
    "protocols.receive_self_s": "s",
    "protocols.proposals": "count",
    "consensus.handler_self_s": "s",
    "consensus.quorum_calls": "count",
    "consensus.quorum_s": "s",
    "consensus.view_changes": "count",
    "consensus.verify_per_block": "count",
    "consensus.sign_per_block": "count",
    "core.orderer_calls": "count",
    "core.orderer_s": "s",
    "core.epoch_s": "s",
    "core.epoch_advances": "count",
    "core.pending_at_end": "count",
    "metrics.record_s": "s",
    "metrics.audit_s": "s",
    "metrics.collect_s": "s",
    "shard.sync_rounds": "count",
    "shard.frames_routed": "count",
    "shard.barrier_s": "s",
    "shard.collect_s": "s",
    "shard.worker_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def make_cell(workload, seed):
    """Every ExperimentCell field of the workload's cell, so a row can be rerun."""
    from repro.bench.config import ExperimentCell

    cell = asdict(ExperimentCell(batch_size=4096, seed=seed, **WORKLOADS[workload]))
    cell["compat_flags"] = list(cell["compat_flags"])
    return cell


def machine_fingerprint():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "visible_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_child(cell, builds, trace, deadline):
    """One cell run in a fresh interpreter; returns its row (``errors`` set on failure)."""
    spec = json.dumps({"cell": cell, "trace": trace, "builds": builds, "slices": RUN_SLICES})
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "cell.py"), spec],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own group: a kill reaches shard workers too
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return {"trace": trace, "errors": ["timed out"]}
        raise
    lines = out.strip().splitlines()
    try:
        row = json.loads(lines[-1]) if process.returncode == 0 and lines else None
    except ValueError:
        row = None
    if not isinstance(row, dict):
        return {"trace": trace, "errors": [f"exit {process.returncode}: {err.strip()[-2000:]}"]}
    row["trace"] = trace
    return row


def outcome_key(row):
    """What must repeat exactly across runs of one cell, traced or not."""
    return json.dumps(
        [row["fingerprint"], row["sim_tps"], row["latency"], row["counts"]], sort_keys=True
    )


def judge(rows):
    """Mark failed rows; return the reference row (None if every run failed)."""
    good = [row for row in rows if not row["errors"]]
    if not good:
        return None
    untraced = [row for row in good if not row["trace"]] or good
    common, _count = Counter(outcome_key(row) for row in untraced).most_common(1)[0]
    reference = next(row for row in untraced if outcome_key(row) == common)
    for row in good:
        if outcome_key(row) != common:
            row["errors"].append("workload fingerprint or sim_* values differ from the other runs")
    return reference


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_speed(row):
    """How fast the machine ran beside this row's run phase, relative to nominal.

    Every reference chunk is the same work, timed between pieces of the run
    phase, so their mean time follows the machine through the run.
    """
    return REFERENCE_CHUNK_S / statistics.fmean(row["reference_s"])


def end_to_end(rows, reference, duration):
    good = [row for row in rows if not row["errors"]]
    speeds = [machine_speed(row) for row in good]
    samples = {
        "host_s_per_sim_s": [
            row["run_s"] * speed / duration for row, speed in zip(good, speeds)
        ],
        "setup_s": [row["setup_s"] * speed for row, speed in zip(good, speeds)],
        "peak_rss_mb": [row["peak_rss_bytes"] / 1e6 for row in good],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    latency = reference["latency"]
    metrics["sim_tps"] = reference["sim_tps"]
    metrics["sim_latency_p50_s"] = latency["p50_s"]
    metrics["sim_latency_tail_s"] = latency["tail_s"]
    notes = {name: "median of {} runs, quartiles [{:.6g}, {:.6g}]".format(
        len(values), *quartiles(values)) for name, values in samples.items()}
    unscaled = {
        "host_s_per_sim_s": [row["run_s"] / duration for row in good],
        "setup_s": [row["setup_s"] for row in good],
    }
    for name, values in unscaled.items():
        notes[name] += "; unscaled median {:.6g}".format(statistics.median(values))
    notes["host_s_per_sim_s"] += "; machine speed median {:.4f}".format(statistics.median(speeds))
    notes["sim_latency_tail_s"] = "p{:g} over {} blocks ({} beyond it)".format(
        latency["tail_level"], latency["samples"], latency["tail_beyond"])
    return metrics, notes


def per_layer(traced, untraced):
    from layers import by_name

    spans = by_name({(name, parent): rest for name, parent, *rest in traced["spans"]})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    counts = traced["counts"]
    blocks = traced["blocks"]
    shard = traced.get("shard")
    return {
        "sim.events": counts["events"],
        "sim.events_per_s": counts["events"] / untraced["run_s"],
        "sim.loop_self_s": self_s("sim.loop"),
        "sim.fanout_s": self_s("sim.fanout"),
        "sim.fanout_calls": calls("sim.fanout"),
        "sim.messages_sent": counts["messages_sent"],
        "sim.bytes_sent": counts["bytes_sent"],
        "sim.messages_per_block": counts["messages_sent"] / blocks,
        "sim.bytes_per_block": counts["bytes_sent"] / blocks,
        "runtime.timer_events": counts["events"] - counts["messages_delivered"],
        "protocols.receive_calls": calls("protocols.receive"),
        "protocols.receive_self_s": self_s("protocols.receive"),
        "protocols.proposals": calls("protocols.batch"),
        "consensus.handler_self_s": self_s("consensus.handler"),
        "consensus.quorum_calls": calls("consensus.quorum"),
        "consensus.quorum_s": self_s("consensus.quorum"),
        "consensus.view_changes": counts["view_changes"],
        "consensus.verify_per_block": counts["verify"] / blocks,
        "consensus.sign_per_block": counts["sign"] / blocks,
        "core.orderer_calls": calls("core.orderer"),
        "core.orderer_s": self_s("core.orderer"),
        "core.epoch_s": self_s("core.epoch"),
        "core.epoch_advances": counts["epoch_advances"],
        "core.pending_at_end": traced["pending_at_end"] or 0,
        "metrics.record_s": self_s("metrics.record"),
        "metrics.audit_s": self_s("metrics.audit"),
        "metrics.collect_s": traced["collect_s"],
        "shard.sync_rounds": shard["sync_rounds"] if shard else 0,
        "shard.frames_routed": shard["frames_routed"] if shard else 0,
        "shard.barrier_s": traced["run_s"] if shard else 0.0,
        "shard.collect_s": shard["collect_results_s"] if shard else 0.0,
        "shard.worker_rss_mb": shard["worker_rss_bytes"] / 1e6 if shard else 0.0,
        "trace.overhead_ratio": traced["run_s"] / untraced["run_s"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall seconds to spend on repeated runs (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "protocols", "registry.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # SIGTERM unwinds like Ctrl-C, so run_child kills the running cell's group.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    cell = make_cell(args.workload, args.seed)
    builds = SETUP_BUILDS[args.workload]
    rows = []
    if args.trace:
        rows.append(run_child(cell, builds, False, deadline))
        rows.append(run_child(cell, builds, True, deadline))
    else:
        while True:
            rows.append(run_child(cell, builds, False, deadline))
            elapsed = time.monotonic() - start
            # Start another run only if it should end within half a run of
            # --seconds: the invocation then lasts about --seconds on average.
            if elapsed + 0.5 * elapsed / len(rows) > args.seconds or elapsed >= HARD_LIMIT_S:
                break
    reference = judge(rows)
    failed = sum(1 for row in rows if row["errors"])
    if reference is None or (args.trace and failed):
        metrics, notes = {}, {}
    elif args.trace:
        traced = next(row for row in rows if row["trace"])
        metrics = per_layer(traced, reference)
        notes = {}
    else:
        metrics, notes = end_to_end(rows, reference, cell["duration"])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    machine = machine_fingerprint()
    print(f"workload  {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine   " + json.dumps(machine, sort_keys=True))
    print("cell      " + json.dumps(cell, sort_keys=True))
    if reference is not None:
        print("fingerprint " + json.dumps(reference["fingerprint"], sort_keys=True))
    for row in rows:
        for error in row["errors"]:
            print(f"FAILED run ({'traced' if row['trace'] else 'untraced'}): {error}")
    print(f"failed_run_share  {failed}/{len(rows)} = {failed / len(rows):.3f}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "cell": cell, "rows": rows, "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    correct = reference is not None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
