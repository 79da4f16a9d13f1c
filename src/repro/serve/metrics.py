"""Service metrics: request, latency, cache and batching counters.

The recorder (:class:`ServiceMetrics`) is thread-safe and cheap to update
on the hot path; :meth:`ServiceMetrics.snapshot` produces an immutable
:class:`MetricsSnapshot` whose :meth:`MetricsSnapshot.format_table`
renders through :func:`repro.bench.tables.format_series`, so service
numbers drop straight into the benchmark harness' output format.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

from ..bench.tables import format_series
from ..compile.pipeline import CompileStats
from ..compile.store import StoreStats
from ..docstore.store import DocStoreStats
from ..obs.hist import Histogram
from .cache import CacheStats


def _stats_fields(stats) -> dict:
    """Every declared counter of a stats dataclass, by name.

    The parity contract of :meth:`MetricsSnapshot.as_dict`: a counter
    added to ``CacheStats``/``StoreStats``/``DocStoreStats`` shows up in
    the JSON payload automatically, so ``describe()`` can never render a
    number the dict omits (locked by the parity test).
    """
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


@dataclass
class LatencyStats:
    """Aggregated request latencies (seconds).

    ``min``/``max`` are ``0.0`` until the first record, so empty stats
    render as zeros instead of leaking a ``float("inf")`` sentinel.
    Every record also lands in a log-bucket histogram
    (:class:`repro.obs.hist.Histogram`), so tail percentiles
    (:attr:`p50`/:attr:`p95`/:attr:`p99`) report alongside the legacy
    count/mean/min/max aggregates.
    """

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    hist: Histogram = field(default_factory=Histogram, compare=False)

    def record(self, seconds: float) -> None:
        if self.count == 0 or seconds < self.min:
            self.min = seconds
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        self.hist.record(seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.hist.p50

    @property
    def p95(self) -> float:
        return self.hist.p95

    @property
    def p99(self) -> float:
        return self.hist.p99

    def snapshot(self) -> "LatencyStats":
        return LatencyStats(
            self.count, self.total, self.min, self.max, self.hist.copy()
        )

    def as_dict(self) -> dict:
        """JSON summary: the legacy aggregate shape plus percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


@dataclass
class TenantMetrics:
    """Per-tenant request accounting (rejections included, so rejected
    traffic is visible per tenant instead of vanishing into the global
    counter)."""

    requests: int = 0
    answers: int = 0
    rejections: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    def snapshot(self) -> "TenantMetrics":
        return TenantMetrics(
            self.requests, self.answers, self.rejections, self.latency.snapshot()
        )


@dataclass
class MetricsSnapshot:
    """Immutable point-in-time view of the service counters.

    ``latency`` covers pure *evaluation* time; ``queue_wait`` covers the
    time requests sat queued for an evaluation-pool worker.  The two used
    to be folded together (the old global evaluation lock's wait was
    timed inside "latency"), which made pool overlap invisible.
    ``in_flight_evaluations`` / ``peak_in_flight`` are the pool's gauges
    at snapshot time.
    """

    requests: int
    rejected: int
    batch_runs: int
    batched_queries: int
    batch_visited: int
    sequential_visited: int
    latency: LatencyStats
    cache: CacheStats
    tenants: dict[str, TenantMetrics]
    rejected_kinds: dict[str, int] = field(default_factory=dict)
    waves: int = 0
    wave_requests: int = 0
    wave_admitted: int = 0
    largest_wave: int = 0
    queue_wait: LatencyStats = field(default_factory=LatencyStats)
    in_flight_evaluations: int = 0
    peak_in_flight: int = 0
    pool_size: int = 0
    compile: CompileStats = field(default_factory=CompileStats)
    #: Disk-tier counters; ``None`` when no plan store is configured.
    store: StoreStats | None = None
    #: Document-tier counters (shared store's when one is wired, the
    #: service's own document otherwise); ``None`` on old snapshots.
    doc_store: DocStoreStats | None = None

    @property
    def doc_hits(self) -> int:
        """Requests served by an already-resolved shared document."""
        return self.doc_store.hits if self.doc_store is not None else 0

    @property
    def doc_index_builds(self) -> int:
        """Real OptHyPE index constructions (the number sharing minimises)."""
        return self.doc_store.index_builds if self.doc_store is not None else 0

    @property
    def plan_l1_hits(self) -> int:
        """Lookups served by the in-memory plan tier."""
        return self.cache.l1_hits

    @property
    def plan_l2_hits(self) -> int:
        """Lookups served by rehydrating an on-disk plan artifact."""
        return self.cache.l2_hits

    @property
    def plan_misses(self) -> int:
        """Lookups that ran the full compilation pipeline."""
        return self.cache.misses

    @property
    def batch_saved_visits(self) -> int:
        """Element visits batching avoided vs. per-query passes."""
        return self.sequential_visited - self.batch_visited

    @property
    def mean_wave_size(self) -> float:
        """Average requests coalesced per admission wave (0.0 when none)."""
        return self.wave_requests / self.waves if self.waves else 0.0

    def format_table(self, title: str = "service metrics") -> str:
        """Render per-tenant rows in the benchmark-table format."""
        tenants = sorted(self.tenants)
        return format_series(
            title,
            row_labels=tenants,
            columns={
                "mean": [self.tenants[t].latency.mean for t in tenants],
                "max": [self.tenants[t].latency.max for t in tenants],
            },
            unit="ms",
            extra={
                "requests": [self.tenants[t].requests for t in tenants],
                "answers": [self.tenants[t].answers for t in tenants],
                "rejections": [self.tenants[t].rejections for t in tenants],
            },
        )

    def describe(self) -> str:
        """One-paragraph summary for CLI output."""
        rejected = f"{self.rejected} rejected"
        if self.rejected_kinds:
            kinds = ", ".join(
                f"{count} {kind}"
                for kind, count in sorted(self.rejected_kinds.items())
            )
            rejected = f"{rejected}: {kinds}"
        lines = [
            f"requests: {self.requests} ({rejected})",
            (
                f"plan cache: {self.plan_l1_hits} L1 + "
                f"{self.plan_l2_hits} L2 hit(s), "
                f"{self.plan_misses} miss(es), "
                f"{self.cache.evictions} eviction(s), "
                f"hit rate {self.cache.hit_rate:.0%}"
            ),
        ]
        stages = [
            (name, stage)
            for name, stage in self.compile.as_dict().items()
            if stage["count"]
        ]
        if stages:
            rendered = ", ".join(
                f"{name} {stage['count']}x {stage['seconds'] * 1000:.2f} ms"
                for name, stage in stages
            )
            lines.append(f"compile stages: {rendered}")
        if self.store is not None:
            line = (
                f"plan store: {self.store.hits} hit(s), "
                f"{self.store.misses} miss(es), "
                f"{self.store.stores} write(s)"
            )
            # Degradations an operator must see: corrupt files are being
            # recompiled, or the store directory is not writable/readable.
            if self.store.corrupt:
                line += f", {self.store.corrupt} CORRUPT"
            if self.store.errors:
                line += f", {self.store.errors} I/O error(s)"
            if self.store.gc_removed:
                line += f", {self.store.gc_removed} gc-removed"
            lines.append(line)
        if self.doc_store is not None:
            doc = self.doc_store
            line = (
                f"doc store: {doc.hits} hit(s), {doc.misses} miss(es), "
                f"{doc.index_builds} index build(s), "
                f"{doc.index_loads} load(s), {doc.index_stores} write(s)"
            )
            if doc.corrupt:
                line += f", {doc.corrupt} CORRUPT"
            if doc.errors:
                line += f", {doc.errors} I/O error(s)"
            lines.append(line)
        if self.waves:
            lines.append(
                f"admission: {self.wave_requests} request(s) in "
                f"{self.waves} wave(s) "
                f"(mean {self.mean_wave_size:.1f}/wave, "
                f"largest {self.largest_wave}, "
                f"{self.wave_admitted} admitted)"
            )
        if self.batch_runs:
            lines.append(
                f"batching: {self.batched_queries} query(ies) in "
                f"{self.batch_runs} shared pass(es), visited "
                f"{self.batch_visited} vs {self.sequential_visited} "
                f"sequential element(s) "
                f"(saved {self.batch_saved_visits})"
            )
        if self.pool_size:
            lines.append(
                f"evaluation pool: size {self.pool_size}, "
                f"{self.in_flight_evaluations} in flight "
                f"(peak {self.peak_in_flight}); "
                f"queue wait mean {self.queue_wait.mean * 1000:.2f} ms, "
                f"evaluate mean {self.latency.mean * 1000:.2f} ms "
                f"(p50 {self.latency.p50 * 1000:.2f} / "
                f"p95 {self.latency.p95 * 1000:.2f} / "
                f"p99 {self.latency.p99 * 1000:.2f} ms)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serialisable counters (the front-end ``metrics`` reply)."""
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "rejected_kinds": dict(self.rejected_kinds),
            "waves": self.waves,
            "wave_requests": self.wave_requests,
            "wave_admitted": self.wave_admitted,
            "largest_wave": self.largest_wave,
            "mean_wave_size": self.mean_wave_size,
            "batch_runs": self.batch_runs,
            "batched_queries": self.batched_queries,
            "batch_visited": self.batch_visited,
            "sequential_visited": self.sequential_visited,
            "latency": self.latency.as_dict(),
            "queue_wait": self.queue_wait.as_dict(),
            "in_flight_evaluations": self.in_flight_evaluations,
            "pool": {
                "size": self.pool_size,
                "peak_in_flight": self.peak_in_flight,
            },
            "plan_l1_hits": self.plan_l1_hits,
            "plan_l2_hits": self.plan_l2_hits,
            "plan_misses": self.plan_misses,
            "cache": {
                **_stats_fields(self.cache),
                "l1_hits": self.cache.l1_hits,
                "hit_rate": self.cache.hit_rate,
            },
            "compile": self.compile.as_dict(),
            "plan_store": None
            if self.store is None
            else _stats_fields(self.store),
            "doc_hits": self.doc_hits,
            "doc_index_builds": self.doc_index_builds,
            "doc_store": None
            if self.doc_store is None
            else _stats_fields(self.doc_store),
            "tenants": {
                name: {
                    "requests": tm.requests,
                    "answers": tm.answers,
                    "rejections": tm.rejections,
                    "mean_latency": tm.latency.mean,
                    "max_latency": tm.latency.max,
                }
                for name, tm in sorted(self.tenants.items())
            },
        }


class ServiceMetrics:
    """Thread-safe recorder behind :class:`MetricsSnapshot`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._rejected = 0
        self._rejected_kinds: dict[str, int] = {}
        self._batch_runs = 0
        self._batched_queries = 0
        self._batch_visited = 0
        self._sequential_visited = 0
        self._waves = 0
        self._wave_requests = 0
        self._wave_admitted = 0
        self._largest_wave = 0
        self._latency = LatencyStats()
        self._queue_wait = LatencyStats()
        self._tenants: dict[str, TenantMetrics] = {}

    # ------------------------------------------------------------------
    def record_request(
        self, tenant: str, queue_wait: float, eval_seconds: float, answers: int
    ) -> None:
        """Account one served request.

        ``queue_wait`` (time spent waiting for a pool worker) and
        ``eval_seconds`` (the evaluation itself) are recorded separately;
        per-tenant latency tracks evaluation only.
        """
        with self._lock:
            self._requests += 1
            self._latency.record(eval_seconds)
            self._queue_wait.record(queue_wait)
            per_tenant = self._tenants.get(tenant)
            if per_tenant is None:
                per_tenant = self._tenants[tenant] = TenantMetrics()
            per_tenant.requests += 1
            per_tenant.answers += answers
            per_tenant.latency.record(eval_seconds)

    def record_rejection(
        self, kind: str = "service", tenant: str | None = None
    ) -> None:
        """Count one rejected request, classified by failure ``kind``.

        When the rejected request named a ``tenant``, the rejection is
        also attributed to that tenant's row, so per-tenant dashboards
        see rejected traffic rather than only the global total.
        """
        with self._lock:
            self._rejected += 1
            self._rejected_kinds[kind] = self._rejected_kinds.get(kind, 0) + 1
            if tenant is not None:
                per_tenant = self._tenants.get(tenant)
                if per_tenant is None:
                    per_tenant = self._tenants[tenant] = TenantMetrics()
                per_tenant.rejections += 1

    def record_wave(self, size: int, admitted: int) -> None:
        """Count one admission wave of ``size`` requests (``admitted`` of
        which passed authorisation into the shared evaluation pass)."""
        with self._lock:
            self._waves += 1
            self._wave_requests += size
            self._wave_admitted += admitted
            if size > self._largest_wave:
                self._largest_wave = size

    def record_batch(
        self, queries: int, visited: int, sequential_visited: int
    ) -> None:
        with self._lock:
            self._batch_runs += 1
            self._batched_queries += queries
            self._batch_visited += visited
            self._sequential_visited += sequential_visited

    # ------------------------------------------------------------------
    def snapshot(
        self,
        cache: CacheStats | None = None,
        *,
        compile: CompileStats | None = None,
        store: StoreStats | None = None,
        doc_store: DocStoreStats | None = None,
        in_flight: int = 0,
        peak_in_flight: int = 0,
        pool_size: int = 0,
    ) -> MetricsSnapshot:
        """Counters + the caller-supplied cache/compile/store/pool gauges."""
        with self._lock:
            return MetricsSnapshot(
                requests=self._requests,
                rejected=self._rejected,
                batch_runs=self._batch_runs,
                batched_queries=self._batched_queries,
                batch_visited=self._batch_visited,
                sequential_visited=self._sequential_visited,
                latency=self._latency.snapshot(),
                cache=cache or CacheStats(),
                tenants={
                    name: tm.snapshot() for name, tm in self._tenants.items()
                },
                rejected_kinds=dict(self._rejected_kinds),
                waves=self._waves,
                wave_requests=self._wave_requests,
                wave_admitted=self._wave_admitted,
                largest_wave=self._largest_wave,
                queue_wait=self._queue_wait.snapshot(),
                in_flight_evaluations=in_flight,
                peak_in_flight=peak_in_flight,
                pool_size=pool_size,
                compile=compile or CompileStats(),
                store=store,
                doc_store=doc_store,
            )
