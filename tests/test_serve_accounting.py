"""Golden serving accounting: one fixed script through every entry point.

``submit``, ``submit_many`` and ``submit_wave`` share one evaluation
body; this pins what that body produces for a fixed script — per-request
answer ids, ``HyPEStats`` and trace span names, the shared-pass
counters, and the service metrics — against values recorded in
``golden/serve_accounting.json``.  The script covers an unauthorised
request in ``submit`` and in a wave, lane sharing in ``submit_many``,
and a wave whose tight deadline aborts the shared pass (the ``descend``
fault seam stalls it) so every live request reruns on the per-lane
fallback path.
"""

from __future__ import annotations

import contextvars
import json
import pathlib
from dataclasses import asdict

import pytest

from repro import faults
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule
from repro.guard import Deadline
from repro.obs.trace import Tracer
from repro.serve.service import QueryRequest, QueryService
from repro.views.samples import sigma0
from repro.workloads import FIG8A
from repro.workloads.hospital import HospitalConfig, generate_hospital_document

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "serve_accounting.json")
    .read_text(encoding="utf-8")
)


def _entry(label, outcome, root=None) -> dict:
    entry: dict = {"label": label}
    if isinstance(outcome, ReproError):
        entry["error"] = type(outcome).__name__
    else:
        entry["ids"] = outcome.ids()
        entry["stats"] = asdict(outcome.stats)
    if root is not None:
        trace = Tracer.export_trace(root.trace, root, "inline")
        entry["spans"] = [
            span["name"]
            + (
                f"[fallback={span['attributes']['fallback']}]"
                if "fallback" in span["attributes"]
                else ""
            )
            for span in trace["spans"]
        ]
    return entry


def _run_script() -> dict:
    """The fixed script; returns every pinned value it produces."""
    doc = generate_hospital_document(HospitalConfig(num_patients=40, seed=11))
    service = QueryService(doc)
    service.register_view("research", sigma0())
    service.register_tenant("institute", "research")
    service.register_tenant("admin", None)
    tracer = Tracer()
    out: dict = {"requests": []}

    def traced_submit(label, *args, **kwargs):
        with tracer.trace("request") as root:
            try:
                outcome = service.submit(*args, **kwargs)
            except ReproError as error:
                outcome = error
        out["requests"].append(_entry(label, outcome, root))

    def traced_wave(prefix, requests):
        opened, contexts = [], []
        for _request in requests:
            ctx = contextvars.copy_context()
            manager = tracer.trace("request")
            opened.append((manager, ctx.run(manager.__enter__)))
            contexts.append(ctx)
        result = service.submit_wave(requests, contexts=contexts)
        for slot, ((manager, root), ctx, outcome) in enumerate(
            zip(opened, contexts, result.outcomes)
        ):
            ctx.run(manager.__exit__, None, None, None)
            out["requests"].append(_entry(f"{prefix}-{slot}", outcome, root))
        return result

    traced_submit("submit-view", "institute", "patient/record/diagnosis")
    traced_submit("submit-direct", "admin", FIG8A, algorithm="opthype")
    traced_submit("submit-stranger", "stranger", "patient")

    answers, stats = service.submit_many(
        [
            QueryRequest("institute", "patient[not(parent)]"),
            QueryRequest("admin", FIG8A, algorithm="opthype-c"),
            QueryRequest("institute", "patient[not(parent)]"),
        ]
    )
    for slot, answer in enumerate(answers):
        out["requests"].append(_entry(f"many-{slot}", answer))
    out["many_stats"] = asdict(stats)

    wave = traced_wave(
        "wave",
        [
            QueryRequest("institute", "patient"),
            QueryRequest("stranger", "patient"),
            QueryRequest("admin", "//diagnosis", algorithm="opthype"),
        ],
    )
    out["wave_stats"] = asdict(wave.stats)

    # The first descent stalls past the 30 ms deadline: the shared pass
    # aborts at its next checkpoint and each live grant reruns alone.
    faults.install(
        FaultPlan([FaultRule("descend", "delay", hits=(1,), seconds=0.1)])
    )
    try:
        fallback = traced_wave(
            "fallback",
            [
                QueryRequest("admin", "//*", deadline=Deadline.after_ms(30)),
                QueryRequest(
                    "institute", "patient/record/diagnosis", deadline_ms=60_000
                ),
                QueryRequest("admin", FIG8A),
            ],
        )
    finally:
        faults.install(None)
    out["fallback_stats"] = asdict(fallback.stats)

    snap = service.metrics_snapshot()
    out["metrics"] = {
        "requests": snap.requests,
        "rejected_kinds": snap.rejected_kinds,
        "batch_runs": snap.batch_runs,
        "batched_queries": snap.batched_queries,
        "waves": snap.waves,
        "wave_admitted": snap.wave_admitted,
    }
    service.close()
    return out


@pytest.fixture(scope="module")
def observed() -> dict:
    return _run_script()


@pytest.mark.parametrize(
    "label", [entry["label"] for entry in GOLDEN["requests"]]
)
def test_request_matches_golden(observed, label):
    by_label = {entry["label"]: entry for entry in observed["requests"]}
    expected = next(e for e in GOLDEN["requests"] if e["label"] == label)
    assert by_label[label] == expected


@pytest.mark.parametrize(
    "key", ["many_stats", "wave_stats", "fallback_stats", "metrics"]
)
def test_counters_match_golden(observed, key):
    assert observed[key] == GOLDEN[key]


def test_script_covers_every_path(observed):
    """Guard the script itself: it must reach the paths it pins."""
    labels = [entry["label"] for entry in observed["requests"]]
    assert labels == [entry["label"] for entry in GOLDEN["requests"]]
    fallback_spans = [
        entry.get("spans", [])
        for entry in observed["requests"]
        if entry["label"].startswith("fallback-")
    ]
    assert sum(
        "evaluate[fallback=deadline]" in spans for spans in fallback_spans
    ) == 2
