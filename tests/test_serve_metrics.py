"""Metrics tests: latency sentinels, rejection kinds, wave counters."""

import math

import pytest

from repro.serve.cache import CacheStats
from repro.serve.metrics import LatencyStats, ServiceMetrics


class TestLatencyStats:
    def test_empty_stats_report_zero_not_inf(self):
        """Regression: ``min`` stayed ``float("inf")`` with no records."""
        empty = LatencyStats()
        assert empty.min == 0.0
        assert empty.max == 0.0
        assert empty.mean == 0.0
        snap = empty.snapshot()
        assert snap.min == 0.0 and math.isfinite(snap.min)

    def test_min_max_after_records(self):
        stats = LatencyStats()
        stats.record(0.5)
        assert stats.min == 0.5 and stats.max == 0.5
        stats.record(0.2)
        stats.record(0.9)
        assert stats.min == 0.2 and stats.max == 0.9
        assert stats.mean == (0.5 + 0.2 + 0.9) / 3

    def test_empty_tenant_latency_renders_finite(self):
        """The rendered table carries no inf even without the old ad-hoc
        ``count`` guard in ``format_table``."""
        metrics = ServiceMetrics()
        metrics.record_request("t", 0.0, 0.001, answers=1)
        table = metrics.snapshot(CacheStats()).format_table()
        assert "inf" not in table


class TestQueueWaitSplit:
    def test_queue_wait_and_evaluate_recorded_separately(self):
        """Regression: the old recorder timed the global evaluation
        lock's wait inside "latency"; the two must stay apart so pool
        overlap is measurable."""
        metrics = ServiceMetrics()
        metrics.record_request("t", 0.010, 0.002, answers=1)
        metrics.record_request("t", 0.030, 0.004, answers=0)
        snap = metrics.snapshot()
        assert snap.latency.count == 2
        assert snap.latency.max == 0.004
        assert snap.queue_wait.count == 2
        assert snap.queue_wait.min == 0.010
        assert snap.queue_wait.max == 0.030
        # Per-tenant latency tracks evaluation only.
        assert snap.tenants["t"].latency.max == 0.004

    def test_pool_gauges_flow_into_snapshot(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(in_flight=3, peak_in_flight=5, pool_size=8)
        assert snap.in_flight_evaluations == 3
        assert snap.peak_in_flight == 5
        assert snap.pool_size == 8
        assert "evaluation pool: size 8, 3 in flight (peak 5)" in snap.describe()

    def test_no_pool_no_pool_line(self):
        snap = ServiceMetrics().snapshot()
        assert "evaluation pool" not in snap.describe()


class TestRejectionKinds:
    def test_rejections_classified(self):
        metrics = ServiceMetrics()
        metrics.record_rejection("authorization")
        metrics.record_rejection("authorization")
        metrics.record_rejection("invalid-query")
        metrics.record_rejection()  # default kind
        snap = metrics.snapshot()
        assert snap.rejected == 4
        assert snap.rejected_kinds == {
            "authorization": 2,
            "invalid-query": 1,
            "service": 1,
        }
        assert "2 authorization" in snap.describe()

    def test_describe_without_rejections(self):
        snap = ServiceMetrics().snapshot()
        assert "0 rejected" in snap.describe()


class TestWaveCounters:
    def test_record_wave_accumulates(self):
        metrics = ServiceMetrics()
        metrics.record_wave(4, admitted=4)
        metrics.record_wave(6, admitted=5)
        metrics.record_wave(2, admitted=2)
        snap = metrics.snapshot()
        assert snap.waves == 3
        assert snap.wave_requests == 12
        assert snap.wave_admitted == 11
        assert snap.largest_wave == 6
        assert snap.mean_wave_size == 4.0
        assert "admission: 12 request(s) in 3 wave(s)" in snap.describe()

    def test_no_waves_no_admission_line(self):
        snap = ServiceMetrics().snapshot()
        assert snap.mean_wave_size == 0.0
        assert "admission" not in snap.describe()


class TestAsDict:
    def test_snapshot_as_dict_is_json_shaped(self):
        import json

        metrics = ServiceMetrics()
        metrics.record_request("t", 0.001, 0.002, answers=3)
        metrics.record_wave(2, admitted=2)
        metrics.record_rejection("authorization")
        payload = metrics.snapshot(
            CacheStats(hits=1, misses=2),
            in_flight=1,
            peak_in_flight=2,
            pool_size=4,
        ).as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["requests"] == 1
        assert round_tripped["rejected_kinds"] == {"authorization": 1}
        assert round_tripped["waves"] == 1
        assert round_tripped["cache"]["misses"] == 2
        assert round_tripped["tenants"]["t"]["answers"] == 3
        assert round_tripped["latency"]["min"] == 0.002
        assert round_tripped["queue_wait"]["max"] == 0.001
        assert round_tripped["in_flight_evaluations"] == 1
        assert round_tripped["pool"] == {"size": 4, "peak_in_flight": 2}


class TestPlanTierSplit:
    def test_tier_counters_surface_in_snapshot(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(CacheStats(hits=3, misses=2, l2_hits=4))
        assert snap.plan_l1_hits == 3
        assert snap.plan_l2_hits == 4
        assert snap.plan_misses == 2
        assert snap.cache.total_hits == 7
        assert snap.cache.hit_rate == (3 + 4) / (3 + 4 + 2)

    def test_describe_renders_both_tiers(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot(CacheStats(hits=3, misses=2, l2_hits=4))
        assert "plan cache: 3 L1 + 4 L2 hit(s), 2 miss(es)" in snap.describe()

    def test_as_dict_exposes_tier_and_compile_counters(self):
        import json

        from repro.compile.pipeline import CompileMetrics

        compile_metrics = CompileMetrics()
        compile_metrics.record("rewrite", 0.004)
        compile_metrics.record("rewrite", 0.006)
        compile_metrics.record("trim", 0.001)
        metrics = ServiceMetrics()
        payload = metrics.snapshot(
            CacheStats(hits=1, misses=2, l2_hits=3),
            compile=compile_metrics.snapshot(),
        ).as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["plan_l1_hits"] == 1
        assert round_tripped["plan_l2_hits"] == 3
        assert round_tripped["plan_misses"] == 2
        assert round_tripped["cache"]["l2_hits"] == 3
        assert round_tripped["compile"]["rewrite"]["count"] == 2
        assert round_tripped["compile"]["rewrite"]["seconds"] > 0.009
        assert round_tripped["compile"]["trim"]["count"] == 1
        assert round_tripped["compile"]["parse"]["count"] == 0

    def test_describe_lists_only_stages_that_ran(self):
        from repro.compile.pipeline import CompileMetrics

        compile_metrics = CompileMetrics()
        compile_metrics.record("translate", 0.002)
        metrics = ServiceMetrics()
        text = metrics.snapshot(
            CacheStats(), compile=compile_metrics.snapshot()
        ).describe()
        assert "compile stages: translate 1x" in text
        assert "rewrite" not in text

    def test_no_compile_activity_no_stage_line(self):
        snap = ServiceMetrics().snapshot(CacheStats())
        assert "compile stages" not in snap.describe()


class TestStoreStatsSurface:
    def test_store_counters_flow_into_snapshot(self):
        from repro.compile.store import StoreStats

        metrics = ServiceMetrics()
        snap = metrics.snapshot(
            CacheStats(), store=StoreStats(hits=2, misses=1, corrupt=3, errors=1)
        )
        assert "plan store: 2 hit(s), 1 miss(es)" in snap.describe()
        assert "3 CORRUPT" in snap.describe()
        assert "1 I/O error(s)" in snap.describe()
        payload = snap.as_dict()
        assert payload["plan_store"] == {
            "hits": 2,
            "misses": 1,
            "corrupt": 3,
            "stores": 0,
            "errors": 1,
            "gc_removed": 0,
        }

    def test_no_store_no_line_and_null_payload(self):
        snap = ServiceMetrics().snapshot(CacheStats())
        assert "plan store" not in snap.describe()
        assert snap.as_dict()["plan_store"] is None


class TestTenantRejections:
    def test_rejections_attributed_to_their_tenant(self):
        metrics = ServiceMetrics()
        metrics.record_request("good", 0.0, 0.001, answers=1)
        metrics.record_rejection("authorization", tenant="bad")
        metrics.record_rejection("overloaded", tenant="bad")
        metrics.record_rejection("invalid-query", tenant="good")
        snap = metrics.snapshot()
        assert snap.rejected == 3
        assert snap.tenants["bad"].rejections == 2
        assert snap.tenants["bad"].requests == 0
        assert snap.tenants["good"].rejections == 1

    def test_anonymous_rejection_stays_global_only(self):
        """No tenant (e.g. a malformed request before tenant resolution)
        still counts globally without inventing a tenant row."""
        metrics = ServiceMetrics()
        metrics.record_rejection("invalid-query")
        snap = metrics.snapshot()
        assert snap.rejected == 1
        assert snap.tenants == {}

    def test_rejections_rendered_in_table_and_payload(self):
        metrics = ServiceMetrics()
        metrics.record_request("t", 0.0, 0.001, answers=1)
        metrics.record_rejection("authorization", tenant="t")
        snap = metrics.snapshot(CacheStats())
        assert "rejections" in snap.format_table()
        assert snap.as_dict()["tenants"]["t"]["rejections"] == 1


class TestLatencyPercentiles:
    def test_latency_as_dict_carries_percentiles(self):
        stats = LatencyStats()
        for ms in range(1, 101):
            stats.record(ms / 1000.0)
        payload = stats.as_dict()
        assert set(payload) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert payload["p50"] <= payload["p95"] <= payload["p99"] <= payload["max"]
        assert payload["p50"] == stats.hist.p50

    def test_snapshot_preserves_the_histogram(self):
        stats = LatencyStats()
        stats.record(0.005)
        snap = stats.snapshot()
        stats.record(5.0)  # must not bleed into the snapshot
        assert snap.hist.count == 1
        assert snap.p99 == pytest.approx(0.005)

    def test_describe_quotes_the_same_percentiles_as_as_dict(self):
        """Parity: the human and machine surfaces must agree."""
        metrics = ServiceMetrics()
        for ms in (1, 2, 3, 50, 400):
            metrics.record_request("t", 0.0, ms / 1000.0, answers=1)
        snap = metrics.snapshot(CacheStats(), pool_size=2)
        text = snap.describe()
        payload = snap.as_dict()
        for q in ("p50", "p95", "p99"):
            assert f"{payload['latency'][q] * 1000:.2f}" in text


class TestDescribeAsDictParity:
    def test_every_describe_figure_exists_in_as_dict(self):
        """Audit: each counter describe() quotes has a machine-readable
        counterpart, so nothing is CLI-only."""
        from repro.compile.store import StoreStats

        metrics = ServiceMetrics()
        metrics.record_request("t", 0.001, 0.002, answers=2)
        metrics.record_rejection("authorization", tenant="t")
        metrics.record_wave(3, admitted=2)
        metrics.record_batch(2, visited=5, sequential_visited=9)
        snap = metrics.snapshot(
            CacheStats(hits=2, misses=1, l2_hits=1, evictions=1),
            in_flight=1,
            peak_in_flight=2,
            pool_size=4,
            store=StoreStats(hits=1, misses=1, stores=1),
        )
        payload = snap.as_dict()
        # requests line
        assert payload["requests"] == snap.requests
        assert payload["rejected"] == snap.rejected
        assert payload["rejected_kinds"] == snap.rejected_kinds
        # plan-cache line
        assert payload["plan_l1_hits"] == snap.plan_l1_hits
        assert payload["plan_l2_hits"] == snap.plan_l2_hits
        assert payload["plan_misses"] == snap.plan_misses
        assert payload["cache"]["evictions"] == snap.cache.evictions
        assert payload["cache"]["hit_rate"] == snap.cache.hit_rate
        # plan-store line
        assert payload["plan_store"]["hits"] == snap.store.hits
        assert payload["plan_store"]["stores"] == snap.store.stores
        # admission line
        assert payload["waves"] == snap.waves
        assert payload["mean_wave_size"] == snap.mean_wave_size
        assert payload["largest_wave"] == snap.largest_wave
        assert payload["wave_admitted"] == snap.wave_admitted
        # batching line
        assert payload["batch_runs"] == snap.batch_runs
        assert payload["batched_queries"] == snap.batched_queries
        assert payload["batch_visited"] == snap.batch_visited
        assert payload["sequential_visited"] == snap.sequential_visited
        # pool line
        assert payload["pool"]["size"] == snap.pool_size
        assert payload["in_flight_evaluations"] == snap.in_flight_evaluations
        assert payload["pool"]["peak_in_flight"] == snap.peak_in_flight
        assert payload["queue_wait"]["mean"] == snap.queue_wait.mean
        assert payload["latency"]["mean"] == snap.latency.mean
        assert payload["latency"]["p99"] == snap.latency.p99

    def test_stats_dataclasses_fully_mirrored(self):
        """Every dataclass counter field of the cache / store / doc-store
        stats appears verbatim in as_dict — new fields can't silently
        skip the wire format."""
        from dataclasses import fields

        from repro.compile.store import StoreStats
        from repro.docstore.store import DocStoreStats

        metrics = ServiceMetrics()
        snap = metrics.snapshot(
            CacheStats(), store=StoreStats(), doc_store=DocStoreStats()
        )
        payload = snap.as_dict()
        assert set(payload["plan_store"]) == {
            f.name for f in fields(StoreStats)
        }
        assert set(payload["doc_store"]) == {
            f.name for f in fields(DocStoreStats)
        }
        cache_fields = {f.name for f in fields(CacheStats)}
        assert cache_fields <= set(payload["cache"])
