"""Tests for the sharded conservative-parallel DES backend (PR 9).

Covers the full stack: partitioner, lookahead derivation, IPC contracts,
config validation, and — the load-bearing part — **equivalence against the
single-process DES oracle** plus bit-exact within-backend determinism.

Equivalence semantics
---------------------

The sharded runtime gives each worker its own seeded RNG stream (shard-local
jitter draws must not be correlated across processes), so sharded and
single-process runs of the same cell are *different valid schedules* of the
same protocol execution — exactly the relationship the schedule-space fuzzer
(PR 7) establishes between perturbed and unperturbed runs.  Rank labels and
confirmation timestamps are schedule-dependent (ranks are collected from
whichever 2f+1 replies land first), so the oracle compares what the protocol
*guarantees* to be schedule-independent:

* the **set** of confirmed ``(instance, round, payload digest)`` blocks;
* the **per-instance confirmed sequence** of ``(round, digest)`` (each
  instance's log is totally ordered by its consensus rounds);
* the confirmed-block **count**, the **audit verdict** (safety + liveness +
  stalled instances), and the **crash/recovery log**;
* what both backends derive through the one result path: the audit's
  honest/adversarial sets and stall window, the dynamics timeline, and the
  order of the metrics-row keys (shard diagnostics aside).

Within one backend, determinism is still bit-exact: same (seed, shards)
implies identical full tuples including ranks and timestamps.
"""

import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.bench.config import ExperimentCell
from repro.bench.sweep import cell_key
from repro.metrics.auditor import audit_system
from repro.protocols.base import SystemConfig
from repro.protocols.registry import build_system
from repro.protocols.result import _merge_dynamics_logs
from repro.runtime import build_runtime
from repro.runtime.sharded import ShardedSystem
from repro.scenario import get_scenario
from repro.shard import derive_lookahead, plan_shards
from repro.shard.ipc import (
    check_flyweight,
    decode_batch,
    derive_shard_seed,
    encode_batch,
    validate_entries,
)
from repro.shard.partition import ShardPlan
from repro.sim.faults import CrashSpec, DegradationSpec, FaultConfig
from repro.sim.latency import LanLatency, UniformLatency, WanLatency


# ------------------------------------------------------------- partitioner
class TestPartitioner:
    def test_affine_keeps_regions_whole(self):
        latency = WanLatency(16)  # 4 regions, round-robin assignment
        plan = plan_shards(16, 4, latency)
        for shard_members in plan.members_by_shard():
            regions = {latency.region_of(r) for r in shard_members}
            assert len(regions) == 1, "affine placement split a region"
        assert sorted(len(m) for m in plan.members_by_shard()) == [4, 4, 4, 4]

    def test_affine_balances_without_regions(self):
        plan = plan_shards(10, 3, UniformLatency())
        sizes = sorted(len(m) for m in plan.members_by_shard())
        assert sizes == [2, 3, 5] or max(sizes) - min(sizes) <= 3
        assert sum(sizes) == 10

    def test_affine_splits_when_fewer_regions_than_shards(self):
        latency = WanLatency(8)  # 4 regions
        plan = plan_shards(8, 6, latency)
        assert plan.shards == 6
        assert all(plan.members(s) for s in range(6))

    def test_hash_strategy(self):
        plan = plan_shards(8, 3, UniformLatency(), strategy="hash")
        assert plan.assignment == (0, 1, 2, 0, 1, 2, 0, 1)

    def test_plan_is_deterministic(self):
        a = plan_shards(32, 4, WanLatency(32))
        b = plan_shards(32, 4, WanLatency(32))
        assert a == b

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            plan_shards(8, 0, UniformLatency())
        with pytest.raises(ValueError, match="cannot spread"):
            plan_shards(2, 3, UniformLatency())
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_shards(8, 2, UniformLatency(), strategy="random")
        with pytest.raises(ValueError, match="every shard"):
            ShardPlan(shards=2, assignment=(0, 0, 0), strategy="affine")


# --------------------------------------------------------------- lookahead
class TestLookahead:
    def test_wan_affine_lookahead_is_the_wan_floor(self):
        latency = WanLatency(8)
        plan = plan_shards(8, 2, latency)
        lookahead = derive_lookahead(plan, latency)
        # Every cross-shard link is inter-region, so the window is the
        # smallest inter-region one-way delay — tens of milliseconds.
        assert lookahead.seconds >= 0.01
        sender, receiver = lookahead.min_pair
        assert latency.region_of(sender) != latency.region_of(receiver)

    def test_hash_placement_shrinks_the_window(self):
        latency = WanLatency(8)
        affine = derive_lookahead(plan_shards(8, 2, latency), latency)
        hashed = derive_lookahead(
            plan_shards(8, 2, latency, strategy="hash"), latency
        )
        assert hashed.seconds <= affine.seconds

    def test_degradation_below_one_shrinks_the_window(self):
        latency = WanLatency(8)
        plan = plan_shards(8, 2, latency)
        base = derive_lookahead(plan, latency)
        faults = FaultConfig(
            degradations=(DegradationSpec(at=1.0, until=2.0, factor=0.5),)
        )
        shrunk = derive_lookahead(plan, latency, faults=faults)
        assert shrunk.min_scale == 0.5
        assert shrunk.seconds == pytest.approx(base.seconds * 0.5)

    def test_slowdown_degradation_does_not_grow_the_window(self):
        latency = WanLatency(8)
        plan = plan_shards(8, 2, latency)
        faults = FaultConfig(
            degradations=(DegradationSpec(at=1.0, until=2.0, factor=4.0),)
        )
        assert derive_lookahead(plan, latency, faults=faults).min_scale == 1.0

    def test_zero_min_delay_is_refused(self):
        plan = plan_shards(8, 2, UniformLatency(base=0.0))
        with pytest.raises(ValueError, match="non-positive lookahead"):
            derive_lookahead(plan, UniformLatency(base=0.0))

    def test_requires_two_shards(self):
        latency = LanLatency()
        with pytest.raises(ValueError, match=">= 2 shards"):
            derive_lookahead(plan_shards(8, 1, latency), latency)


# --------------------------------------------------------------------- ipc
class TestIpc:
    def test_shard_seeds_are_distinct_and_stable(self):
        seeds = [derive_shard_seed(42, shard) for shard in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [derive_shard_seed(42, shard) for shard in range(8)]
        assert derive_shard_seed(42, 0) != derive_shard_seed(43, 0)

    def test_batch_roundtrip(self):
        from repro.consensus.messages import Prepare

        message = Prepare(instance=1, view=0, round=3, digest="d" * 8, sender=2)
        entries = [(1.25, 2, 5, message)]
        assert decode_batch(encode_batch(entries)) == entries

    def test_flyweight_contract(self):
        from repro.consensus.messages import Prepare

        message = Prepare(instance=1, view=0, round=3, digest="d" * 8, sender=2)
        assert check_flyweight(message)
        assert not check_flyweight({"not": "a dataclass"})
        validate_entries([(0.5, 0, 1, message)])
        with pytest.raises(TypeError, match="non-flyweight"):
            validate_entries([(0.5, 0, 1, object())])


# ------------------------------------------------------------ config seams
class TestConfigValidation:
    def test_shards_require_the_sharded_runtime(self):
        with pytest.raises(ValueError):
            SystemConfig(protocol="ladon-pbft", n=8, shards=2)

    def test_sharded_runtime_requires_shards(self):
        with pytest.raises(ValueError):
            SystemConfig(protocol="ladon-pbft", n=8, runtime="sharded")

    def test_more_shards_than_replicas_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(protocol="ladon-pbft", n=4, runtime="sharded", shards=8)

    def test_trace_is_single_process_only(self):
        with pytest.raises(ValueError, match="single-process"):
            SystemConfig(
                protocol="ladon-pbft", n=8, runtime="sharded", shards=2, trace=True
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(
                protocol="ladon-pbft",
                n=8,
                runtime="sharded",
                shards=2,
                shard_strategy="roulette",
            )

    def test_build_runtime_needs_the_system_config(self):
        with pytest.raises(ValueError, match="system_config"):
            build_runtime("sharded")

    def test_build_system_dispatches_to_sharded(self):
        config = SystemConfig(
            protocol="ladon-pbft", n=8, duration=1.0, runtime="sharded", shards=2
        )
        system = build_system(config)
        assert isinstance(system, ShardedSystem)
        assert system.plan.shards == 2
        assert system.lookahead.seconds > 0
        system.runtime.close()

    def test_cell_label_and_cache_key(self):
        base = ExperimentCell(protocol="ladon-pbft", n=64)
        sharded = replace(base, runtime="sharded", shards=4)
        assert "rt:shardedx4" in sharded.label()
        assert cell_key(base) != cell_key(sharded)
        assert cell_key(sharded) != cell_key(replace(sharded, shards=2))


# ----------------------------------------------------- dynamics-log merging
class TestDynamicsMerge:
    def test_global_kinds_come_from_shard_zero_only(self):
        logs = [
            [(1.0, "partition", "groups=2"), (2.0, "crash", "replica 0")],
            [(1.0, "partition", "groups=2"), (3.0, "crash", "replica 5")],
        ]
        merged = _merge_dynamics_logs(logs)
        assert merged == [
            (1.0, "partition", "groups=2"),
            (2.0, "crash", "replica 0"),
            (3.0, "crash", "replica 5"),
        ]

    def test_attack_entries_dedupe_exact_duplicates(self):
        logs = [
            [(1.0, "attack:equivocation", "on")],
            [(1.0, "attack:equivocation", "on"), (2.0, "attack:equivocation-end", "shard stats")],
        ]
        merged = _merge_dynamics_logs(logs)
        assert merged.count((1.0, "attack:equivocation", "on")) == 1
        assert (2.0, "attack:equivocation-end", "shard stats") in merged


# ---------------------------------------------------- one result path
class TestResultAssembly:
    def test_one_part_merges_to_itself(self):
        log = [
            (0.0, "attack:rank-manipulation", "rank"),
            (1.0, "attack:silence", "on"),
            (1.0, "attack:silence", "on"),
            (2.0, "partition", "groups=2"),
        ]
        assert _merge_dynamics_logs([log]) == log

    def test_prefix_tie_reference_is_the_lowest_id_across_parts(self):
        system = SimpleNamespace(
            config=SystemConfig(protocol="ladon-pbft", n=4, duration=1.0),
            effective_faults=FaultConfig(),
        )
        parts = [
            SimpleNamespace(commit_logs={3: {}}, confirmed_fps={3: [(0, 0, 1, 0, "b")]}),
            SimpleNamespace(commit_logs={1: {}}, confirmed_fps={1: [(0, 0, 1, 0, "a")]}),
        ]
        audit = audit_system(system, parts)
        assert audit.honest_replicas == (1, 3)
        assert [v.detail.split(" at ")[0] for v in audit.violations] == [
            "replica 3 diverges from replica 1"
        ]


# --------------------------------------------------- equivalence vs oracle
def confirmed_set(result):
    return {
        (c.block.instance, c.block.round, c.block.payload_digest)
        for c in result.confirmed
    }


def per_instance_sequences(result):
    sequences = {}
    for c in result.confirmed:
        sequences.setdefault(c.block.instance, []).append(
            (c.block.round, c.block.payload_digest)
        )
    return sequences


def full_tuples(result):
    return [
        (
            c.block.instance,
            c.block.round,
            c.block.rank,
            c.block.payload_digest,
            c.confirmed_at,
        )
        for c in result.confirmed
    ]


#: the oracle cells: four protocol families, plus crash/recovery,
#: straggler, adversary and network-partition cells, across 2/3/4-shard
#: plans
ORACLE_CELLS = [
    pytest.param(
        SystemConfig(
            protocol="ladon-pbft", n=8, duration=5.0, batch_size=64, seed=7
        ),
        2,
        id="ladon-pbft-2sh",
    ),
    pytest.param(
        SystemConfig(protocol="iss-pbft", n=8, duration=5.0, batch_size=64, seed=3),
        2,
        id="iss-pbft-2sh",
    ),
    pytest.param(
        SystemConfig(protocol="mir", n=8, duration=5.0, batch_size=64, seed=5),
        4,
        id="mir-4sh",
    ),
    pytest.param(
        SystemConfig(protocol="dqbft", n=8, duration=5.0, batch_size=64, seed=1),
        2,
        id="dqbft-2sh",
    ),
    pytest.param(
        SystemConfig(
            protocol="ladon-pbft",
            n=12,
            duration=6.0,
            batch_size=64,
            seed=11,
            faults=FaultConfig(
                crashes=(CrashSpec(replica=3, at=2.0, recover_at=4.0),)
            ),
        ),
        3,
        id="crash-recover-3sh",
    ),
    pytest.param(
        SystemConfig(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=2,
            faults=FaultConfig.with_stragglers(2, 8, slowdown=10.0, seed=2),
        ),
        2,
        id="stragglers-2sh",
    ),
    pytest.param(
        get_scenario("byz-silence").system_config(
            protocol="ladon-pbft", n=8, duration=8.0, batch_size=64, seed=3
        ),
        2,
        id="byz-silence-2sh",
    ),
    pytest.param(
        # splits at 8 s and heals at 16 s: both dynamics fire in the run
        get_scenario("wan-partition").system_config(
            protocol="ladon-pbft", n=8, duration=17.0, batch_size=64, seed=3
        ),
        2,
        id="wan-partition-2sh",
    ),
]

#: metrics-row keys only the sharded backend adds
SHARD_EXTRA_KEYS = {"shards", "sync_rounds", "lookahead_ms", "sync_min_margin_ms"}


class TestEquivalence:
    @pytest.mark.parametrize("config,shards", ORACLE_CELLS)
    def test_sharded_matches_single_process_oracle(self, config, shards):
        single = build_system(config).run()
        sharded = build_system(
            replace(config, runtime="sharded", shards=shards)
        ).run()

        assert len(sharded.confirmed) == len(single.confirmed)
        assert confirmed_set(sharded) == confirmed_set(single)
        assert per_instance_sequences(sharded) == per_instance_sequences(single)
        assert sharded.audit.safety_ok == single.audit.safety_ok
        assert sharded.audit.live == single.audit.live
        assert sharded.audit.stalled_instances == single.audit.stalled_instances
        assert sorted(sharded.crash_log) == sorted(single.crash_log)
        assert sharded.audit.stall_window == single.audit.stall_window
        assert sharded.audit.honest_replicas == single.audit.honest_replicas
        assert sharded.audit.adversarial_replicas == single.audit.adversarial_replicas
        assert sharded.dynamics_log == single.dynamics_log
        assert [
            key for key in sharded.metrics.extra if key not in SHARD_EXTRA_KEYS
        ] == list(single.metrics.extra)

    def test_sharded_run_is_bit_deterministic(self):
        config = SystemConfig(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=7,
            runtime="sharded",
            shards=2,
        )
        first = build_system(config).run()
        second = build_system(config).run()
        assert full_tuples(first) == full_tuples(second)
        assert first.metrics.extra["sync_rounds"] == second.metrics.extra["sync_rounds"]
        assert first.metrics.extra.get("sync_min_margin_ms") == second.metrics.extra.get(
            "sync_min_margin_ms"
        )

    def test_lookahead_safety_margin_never_negative(self):
        # ShardSyncError would have aborted the run; the recorded minimum
        # margin double-checks that no remote arrival ever landed at or
        # before a shard's executed horizon.
        config = SystemConfig(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=9,
            runtime="sharded",
            shards=4,
        )
        result = build_system(config).run()
        assert result.metrics.extra["shards"] == 4.0
        assert result.metrics.extra["sync_rounds"] > 0
        assert result.metrics.extra["lookahead_ms"] > 0
        margin = result.metrics.extra.get("sync_min_margin_ms")
        assert margin is not None and margin >= 0.0

    def test_worker_rss_accounting(self):
        config = SystemConfig(
            protocol="ladon-pbft",
            n=8,
            duration=2.0,
            batch_size=64,
            seed=0,
            runtime="sharded",
            shards=2,
        )
        system = build_system(config)
        system.run()
        workers = system.runtime.worker_peak_rss_bytes
        assert len(workers) == 2
        assert all(rss > 0 for rss in workers)
        assert system.runtime.total_peak_rss_bytes() >= sum(workers)
