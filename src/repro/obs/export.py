"""Prometheus text-exposition rendering of a service metrics snapshot.

:func:`render_prometheus` turns a
:class:`repro.serve.metrics.MetricsSnapshot` into the Prometheus
text format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one
``name{labels} value`` sample per line.  The front-end serves it via
the ``prometheus`` op (``{"op": "prometheus"}`` → the text in a JSON
field), and ``repro obs --prometheus`` prints it — point an exporter
sidecar or a scrape job at either.

Naming follows the Prometheus conventions: ``_total`` counters,
``_seconds`` base units, histograms as ``_bucket``/``_sum``/``_count``
triplets whose ``le`` labels are exactly the bucket ladder of
:mod:`repro.obs.hist` — so the classic invariant holds and is checked
by the obs smoke: the latency histogram's ``+Inf`` bucket equals the
request counter.

This module deliberately imports nothing from :mod:`repro.serve` — it
reads the snapshot duck-typed, so the dependency arrow keeps pointing
from the serving layer into ``obs`` and never back.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.metrics import MetricsSnapshot

    from .hist import Histogram


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float | int) -> str:
    if isinstance(value, bool):  # bool is an int; never render True/False
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _labels(**labels: str) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


class _Exposition:
    """Accumulates HELP/TYPE-headed metric families in order.

    ``base_labels`` (e.g. ``worker="w3"``) are stamped onto every sample
    — how a fleet keeps per-process resolution after its workers'
    expositions are merged into one aggregate view.
    """

    def __init__(
        self, namespace: str, base_labels: dict[str, str] | None = None
    ) -> None:
        self.namespace = namespace
        self.base_labels = dict(base_labels or {})
        self.lines: list[str] = []
        self._declared: set[str] = set()

    def family(self, name: str, kind: str, help_text: str) -> str:
        """Declare a metric family (HELP/TYPE emitted once per name)."""
        full = f"{self.namespace}_{name}"
        if full not in self._declared:
            self._declared.add(full)
            self.lines.append(f"# HELP {full} {help_text}")
            self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, full_name: str, value: float | int, **labels: str) -> None:
        merged = {**self.base_labels, **labels}
        self.lines.append(f"{full_name}{_labels(**merged)} {_fmt(value)}")

    def histogram(
        self, name: str, hist: "Histogram", help_text: str, **labels: str
    ) -> None:
        full = self.family(name, "histogram", help_text)
        for le, cumulative in hist.cumulative_buckets():
            le_label = "+Inf" if math.isinf(le) else _fmt(le)
            self.sample(f"{full}_bucket", cumulative, **labels, le=le_label)
        self.sample(f"{full}_sum", hist.total, **labels)
        self.sample(f"{full}_count", hist.count, **labels)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(
    snapshot: "MetricsSnapshot",
    namespace: str = "repro",
    worker: str | None = None,
) -> str:
    """The full text exposition of one metrics snapshot.

    ``worker`` adds a ``worker="..."`` label to every sample so series
    from many fleet processes stay distinguishable after
    :func:`merge_expositions` folds their texts into one view.
    """
    exp = _Exposition(
        namespace, None if worker is None else {"worker": worker}
    )

    name = exp.family("requests_total", "counter", "Served requests.")
    exp.sample(name, snapshot.requests)
    name = exp.family(
        "rejected_total", "counter", "Rejected requests by failure kind."
    )
    for kind, count in sorted(snapshot.rejected_kinds.items()):
        exp.sample(name, count, kind=kind)

    name = exp.family("waves_total", "counter", "Admission waves dispatched.")
    exp.sample(name, snapshot.waves)
    name = exp.family(
        "wave_requests_total", "counter", "Requests that joined a wave."
    )
    exp.sample(name, snapshot.wave_requests)
    name = exp.family(
        "wave_admitted_total",
        "counter",
        "Wave requests admitted into shared evaluation.",
    )
    exp.sample(name, snapshot.wave_admitted)
    name = exp.family(
        "largest_wave", "gauge", "Largest admission wave observed."
    )
    exp.sample(name, snapshot.largest_wave)

    name = exp.family(
        "batch_runs_total", "counter", "Shared evaluation passes."
    )
    exp.sample(name, snapshot.batch_runs)
    name = exp.family(
        "batched_queries_total", "counter", "Queries served by shared passes."
    )
    exp.sample(name, snapshot.batched_queries)
    name = exp.family(
        "batch_visited_total",
        "counter",
        "Elements visited by shared passes.",
    )
    exp.sample(name, snapshot.batch_visited)
    name = exp.family(
        "sequential_visited_total",
        "counter",
        "Elements per-query passes would have visited.",
    )
    exp.sample(name, snapshot.sequential_visited)

    name = exp.family(
        "plan_cache_hits_total", "counter", "Plan-cache hits by tier."
    )
    exp.sample(name, snapshot.cache.l1_hits, tier="l1")
    exp.sample(name, snapshot.cache.l2_hits, tier="l2")
    name = exp.family(
        "plan_cache_misses_total", "counter", "Full plan-cache misses."
    )
    exp.sample(name, snapshot.cache.misses)
    name = exp.family(
        "plan_cache_evictions_total", "counter", "L1 LRU evictions."
    )
    exp.sample(name, snapshot.cache.evictions)

    runs = exp.family(
        "compile_stage_runs_total", "counter", "Compile-stage invocations."
    )
    for stage, counters in snapshot.compile.as_dict().items():
        exp.sample(runs, counters["count"], stage=stage)
    seconds = exp.family(
        "compile_stage_seconds_total",
        "counter",
        "Cumulative compile-stage wall time.",
    )
    for stage, counters in snapshot.compile.as_dict().items():
        exp.sample(seconds, counters["seconds"], stage=stage)

    for block, stats in (
        ("plan_store", snapshot.store),
        ("doc_store", snapshot.doc_store),
    ):
        if stats is None:
            continue
        name = exp.family(
            f"{block}_ops_total",
            "counter",
            f"{block.replace('_', ' ')} operations by kind.",
        )
        for field in fields(stats):
            exp.sample(name, getattr(stats, field.name), op=field.name)

    name = exp.family(
        "in_flight_evaluations", "gauge", "Evaluations executing now."
    )
    exp.sample(name, snapshot.in_flight_evaluations)
    name = exp.family(
        "peak_in_flight", "gauge", "Peak concurrent evaluations observed."
    )
    exp.sample(name, snapshot.peak_in_flight)
    name = exp.family("pool_size", "gauge", "Evaluation pool worker bound.")
    exp.sample(name, snapshot.pool_size)

    exp.histogram(
        "request_latency_seconds",
        snapshot.latency.hist,
        "Per-request evaluation latency.",
    )
    exp.histogram(
        "queue_wait_seconds",
        snapshot.queue_wait.hist,
        "Time requests queued for a pool worker.",
    )

    requests = exp.family(
        "tenant_requests_total", "counter", "Served requests per tenant."
    )
    answers = exp.family(
        "tenant_answers_total", "counter", "Answer nodes per tenant."
    )
    rejections = exp.family(
        "tenant_rejections_total", "counter", "Rejected requests per tenant."
    )
    for tenant in sorted(snapshot.tenants):
        tm = snapshot.tenants[tenant]
        exp.sample(requests, tm.requests, tenant=tenant)
        exp.sample(answers, tm.answers, tenant=tenant)
        exp.sample(rejections, tm.rejections, tenant=tenant)
    for tenant in sorted(snapshot.tenants):
        exp.histogram(
            "tenant_latency_seconds",
            snapshot.tenants[tenant].latency.hist,
            "Per-tenant evaluation latency.",
            tenant=tenant,
        )
    return exp.render()


def merge_expositions(texts: list[str]) -> str:
    """Fold many exposition texts into one aggregate exposition.

    Families keep the order of their first appearance, with ``HELP`` /
    ``TYPE`` headers emitted once (first declaration wins) and every
    family's samples grouped under its headers as the format requires.
    Samples with an identical ``name{labels}`` body are *summed* — the
    right aggregation for the counters and for the log-bucket histogram
    ``_bucket``/``_sum``/``_count`` triplets, which are mergeable by
    construction.  Workers rendered with distinct ``worker`` labels
    (:func:`render_prometheus`) never collide, so the fleet's merged
    view keeps per-worker resolution while still being one scrape.
    """
    headers: dict[str, list[str]] = {}
    family_order: list[str] = []
    sample_order: dict[str, list[str]] = {}
    values: dict[str, dict[str, float]] = {}
    for text in texts:
        family = None
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                if name not in headers:
                    headers[name] = []
                    family_order.append(name)
                    sample_order[name] = []
                    values[name] = {}
                if line.startswith("# TYPE "):
                    family = name
                if line not in headers[name]:
                    headers[name].append(line)
                continue
            if line.startswith("#"):
                continue
            body, _, raw_value = line.rpartition(" ")
            if not body:
                raise ValueError(f"malformed sample line: {line!r}")
            value = float(raw_value)
            name = body.partition("{")[0]
            # _bucket/_sum/_count samples attach to the TYPE'd family
            # they follow; a headerless text degrades to per-name groups.
            owner = family if family is not None and name.startswith(family) else name
            if owner not in headers:
                headers[owner] = []
                family_order.append(owner)
                sample_order[owner] = []
                values[owner] = {}
            if body not in values[owner]:
                sample_order[owner].append(body)
                values[owner][body] = 0.0
            values[owner][body] += value
    lines: list[str] = []
    for name in family_order:
        lines.extend(headers[name])
        for body in sample_order[name]:
            lines.append(f"{body} {_fmt(values[name][body])}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, dict[str, float]]:
    """A minimal exposition parser: ``{metric: {label_repr: value}}``.

    Not a full client — just enough structure validation for the obs
    smoke and the tests: every non-comment line must be
    ``name{labels} value`` with a float-parseable value, labels
    well-formed.  Raises ``ValueError`` on any malformed line.
    """
    samples: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if not body:
            raise ValueError(f"malformed sample line: {line!r}")
        value = float(raw_value)  # raises ValueError on garbage
        name, labels = body, ""
        if "{" in body:
            name, _, rest = body.partition("{")
            if not rest.endswith("}"):
                raise ValueError(f"unterminated labels: {line!r}")
            labels = rest[:-1]
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"bad metric name: {name!r}")
        samples.setdefault(name, {})[labels] = value
    return samples
