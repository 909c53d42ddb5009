"""Performance measurement harness: events/s, peak RSS, scaling sweeps.

``python -m repro.bench perf`` runs saturated cells through the DES engine
and reports wall-clock events/second plus peak resident set size, the two
axes the protocol-layer hot path is engineered for (see EXPERIMENTS.md
"Performance").  Modes:

* default — one cell (``--n``, 10 simulated seconds by default);
* ``--scaling`` — the scale-out curve over n ∈ {8, 16, 32, 64, 128}
  (extended to 256 and 512 when sharded), one **subprocess per cell** so
  each row's peak RSS is that cell's own high-water mark rather than the
  running maximum of earlier cells;
* ``--n-list`` — an explicit comma-separated ladder instead of the canon;
* ``--shards K`` — run on the conservative-parallel sharded DES backend
  with K worker processes (K >= 2);
* ``--profile`` — attach cProfile and print the top-25 functions by
  internal time (single-cell mode only; the profiler slows the run, so the
  events/s of a profiled run is reported but not comparable).

Peak RSS is read from ``resource.getrusage`` (ru_maxrss is in KiB on
Linux), a *process* high-water mark — which is why the scaling sweep
forks per cell.  Sharded cells instead sum the workers' self-reported
peaks plus the hub's own (``ShardedDESRuntime.total_peak_rss_bytes``):
``getrusage(RUSAGE_CHILDREN)`` reports the max over *terminated* children,
not their sum, so it would under-count an N-worker fleet N-fold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import List, Optional, Sequence

from repro.bench.config import ExperimentCell
from repro.metrics.resources import peak_rss_bytes

#: the canonical scale-out ladder
SCALING_NS = (8, 16, 32, 64, 128)

#: the extended ladder the sharded backend unlocks (single-process n=512
#: holds n*m = 262k instance state machines in one heap — the sharded
#: runtime splits that across workers)
SCALING_NS_SHARDED = (8, 16, 32, 64, 128, 256, 512)


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_cell(
    protocol: str = "ladon-pbft",
    n: int = 32,
    duration: float = 10.0,
    batch_size: int = 1024,
    environment: str = "wan",
    seed: int = 0,
    profile: bool = False,
    shards: int = 1,
) -> dict:
    """Run one saturated cell; return events/s, wall time, and peak RSS."""
    from repro.protocols.registry import build_system

    cell = ExperimentCell(
        protocol=protocol,
        n=n,
        environment=environment,
        duration=duration,
        batch_size=batch_size,
        seed=seed,
        runtime="sharded" if shards > 1 else "des",
        shards=shards,
    )
    system = build_system(cell.to_system_config())
    rss_before = peak_rss_bytes()
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
        import io
        import pstats

        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(25)
        print(buf.getvalue())
    events = system.runtime.events_processed
    # Sharded runs: the work (and the memory) lives in the worker
    # processes, so RUSAGE_SELF on the hub alone would be a lie — sum the
    # workers' self-reported peaks plus the hub's own.
    total_rss = getattr(system.runtime, "total_peak_rss_bytes", peak_rss_bytes)()
    row = {
        "cell": cell.label(),
        "n": n,
        "duration_simulated_s": duration,
        "events": events,
        "wall_seconds": round(elapsed, 3),
        "events_per_sec": round(events / elapsed),
        "peak_rss_mb": round(total_rss / 1e6, 1),
        "rss_before_mb": round(rss_before / 1e6, 1),
        "confirmed_blocks": len(result.confirmed),
        "throughput_tps": result.metrics.throughput_tps,
        "audit_safe": bool(result.audit and result.audit.safety_ok),
        "profiled": profile,
    }
    if shards > 1:
        row["shards"] = shards
        row["sync_rounds"] = result.metrics.extra.get("sync_rounds")
        row["lookahead_ms"] = result.metrics.extra.get("lookahead_ms")
    return row


def run_cell_subprocess(**kwargs) -> dict:
    """Run one cell in a fresh interpreter so peak RSS is per-cell."""
    import subprocess

    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {src_root!r})\n"
        "from repro.bench.perf import run_cell\n"
        f"print(json.dumps(run_cell(**{kwargs!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _print_row(row: dict, stream=sys.stdout) -> None:
    stream.write(
        f"{row['cell']:28s} {row['events']:>10,} events  "
        f"{row['wall_seconds']:>7.2f}s  {row['events_per_sec']:>9,} ev/s  "
        f"peak RSS {row['peak_rss_mb']:>7.1f} MB\n"
    )
    stream.flush()


def perf_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Hot-path performance harness: events/s + peak RSS, "
        "optionally profiled, optionally swept over the n scaling ladder.",
    )
    parser.add_argument("--protocol", default="ladon-pbft")
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds (default: 10)")
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--environment", choices=["wan", "lan"], default="wan")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scaling", action="store_true",
                        help=f"sweep n over {list(SCALING_NS)} instead of one cell "
                             f"({list(SCALING_NS_SHARDED)} with --shards)")
    parser.add_argument("--n-list", dest="n_list",
                        help="comma-separated n ladder for --scaling "
                             "(e.g. 64,128,256), replacing the canon")
    parser.add_argument("--shards", type=int, default=1,
                        help="run on the sharded DES backend with this many "
                             "worker processes (>= 2); default: single-process")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the run and print the top-25 functions "
                             "(single-cell mode)")
    parser.add_argument("--json", dest="json_path",
                        help="write the results (with machine info) as JSON")
    args = parser.parse_args(argv)

    if args.scaling and args.profile:
        parser.error("--profile applies to a single cell, not --scaling")
    if args.shards < 1:
        parser.error("--shards must be >= 2 (or omitted for single-process)")
    if args.shards > 1 and args.profile:
        parser.error("--profile profiles the hub only; not meaningful with --shards")
    if args.n_list and not args.scaling:
        parser.error("--n-list only applies to --scaling")

    rows: List[dict] = []
    if args.scaling:
        if args.n_list:
            try:
                ladder = tuple(int(part) for part in args.n_list.split(","))
            except ValueError:
                parser.error(f"--n-list must be comma-separated ints, got {args.n_list!r}")
        else:
            ladder = SCALING_NS_SHARDED if args.shards > 1 else SCALING_NS
        for n in ladder:
            row = run_cell_subprocess(
                protocol=args.protocol,
                n=n,
                duration=args.duration,
                batch_size=args.batch_size,
                environment=args.environment,
                seed=args.seed,
                shards=args.shards,
            )
            rows.append(row)
            _print_row(row)
    else:
        row = run_cell(
            protocol=args.protocol,
            n=args.n,
            duration=args.duration,
            batch_size=args.batch_size,
            environment=args.environment,
            seed=args.seed,
            profile=args.profile,
            shards=args.shards,
        )
        rows.append(row)
        _print_row(row)

    if args.json_path:
        payload = {"machine": machine_info(), "results": rows}
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return 0
