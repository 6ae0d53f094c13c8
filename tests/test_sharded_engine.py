"""Zone-partitioned (sharded) engine ≡ flat engine, date for date.

The partitioned kernel runs one pair of fluid models (LMM systems) per
top-level :class:`~repro.platform.routing.NetZone` over one completion
heap per model kind, and merges the per-shard solve results into flat
order.  Every simulated date it pins must be *bit-identical* to the flat
single-model kernel — including under failure-injection churn whose
victims sit on cross-zone routes, and while a cross-zone flow migrates a
closure whose actions have live heap entries.
"""

from hypothesis import given, settings, strategies as st

from zoned_scenarios import (
    run_burst_workload,
    run_churn_workload,
    run_exchange_workload,
    run_modulated_workload,
)


def work_counters(engine):
    solver = engine.kernel_stats()["solver"]
    return {key: solver[key] for key in
            ("constraints_solved", "variables_solved",
             "elements_visited", "heap_pops")}


class TestShardedEquivalence:
    def test_exchange_dates_bit_identical(self):
        flat_log, flat_engine = run_exchange_workload(sharded=False)
        shard_log, shard_engine = run_exchange_workload(sharded=True)
        assert shard_log == flat_log
        stats = shard_engine.kernel_stats()
        assert stats["shards"]["count"] == 4  # root + 3 sites
        assert stats["shards"]["migrations"] > 0
        # identical actual solver work, only spread across more models
        assert work_counters(shard_engine) == work_counters(flat_engine)

    def test_churn_crossing_zone_boundaries_bit_identical(self):
        flat_log, _ = run_churn_workload(sharded=False)
        shard_log, shard_engine = run_churn_workload(sharded=True)
        assert shard_log == flat_log
        assert shard_engine.kernel_stats()["shards"]["migrations"] > 0


class TestAvailabilityModulationEquivalence:
    def test_trace_dips_flat_vs_sharded_bit_identical(self):
        flat_log, flat_engine = run_modulated_workload(sharded=False)
        shard_log, shard_engine = run_modulated_workload(sharded=True)
        assert shard_log == flat_log
        assert shard_engine.kernel_stats()["shards"]["count"] == 3
        assert work_counters(shard_engine) == work_counters(flat_engine)
        # The dips actually fired (observer saw trace + set_speed events).
        assert any(entry[1].startswith("speed:") for entry in flat_log)


class TestBurstsWhileClosuresMigrate:
    """One heap per kind: the flat pop loop serves N shards unchanged.

    The case the per-shard heaps needed a merged pop and a heap-entry
    migration for: same-date completions spread over several shards, and
    closures that migrate with completion events still scheduled.
    """

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(num_sites=st.integers(2, 5), hosts_per_site=st.integers(3, 6),
           crossing_fraction=st.floats(0.0, 1.0))
    def test_event_log_flat_equals_sharded(self, num_sites, hosts_per_site,
                                           crossing_fraction):
        workers = hosts_per_site - 1
        # At least one worker crosses and at least one stays local.
        crossing = min(workers - 1, max(1, round(crossing_fraction * workers)))
        flat_log, _ = run_burst_workload(num_sites, hosts_per_site,
                                         crossing, sharded=False)
        shard_log, moved_running = run_burst_workload(
            num_sites, hosts_per_site, crossing, sharded=True)
        assert shard_log == flat_log
        assert moved_running > 0
        # The bursts are real: several events share one date.
        dates = [entry[0] for entry in flat_log]
        assert len(set(dates)) < len(dates)


class TestShardStats:
    def test_kernel_stats_shape(self):
        _, engine = run_exchange_workload(sharded=True)
        stats = engine.kernel_stats()
        assert stats["shards"]["names"][0] == "<root>"
        assert set(stats["shards"]["names"][1:]) == \
            {"site-0", "site-1", "site-2"}
        assert "route_caches" in stats

    def test_flat_engine_has_no_shard_block(self):
        _, engine = run_exchange_workload(sharded=False)
        assert "shards" not in engine.kernel_stats()
