"""Layer tracing for the benchmark's traced runs (``--trace 1``).

The program is not edited: :func:`install` wraps the public entry
points of each serving layer, in the server process and in every fleet
worker, by replacing class and module attributes.  Each wrapper adds
its wall time to a per-call total, and — when it runs inside a wave's
``submit_wave`` — to that wave's record.

Per request, the server-side interval from the frontend receiving the
query line to its reply being written is partitioned into blocking-path
layer times (a request waits for its whole wave, so every wave-level
phase counts in full for each of the wave's requests):

``frontend``          line parse, reply build and write (frontend
                      message time minus admission time)
``admission.hold``    arrival at admission until its wave starts
                      evaluating (coalescing window + executor hand-off)
``plan.lookup``       plan-cache lookups of the wave, minus compile and
                      plan-store time inside them
``compile``           compile-pipeline stages run by those lookups
``compile.store``     plan-store (L2) loads and saves
``docstore.resolve``  document resolution
``pool.queue_wait``   time the wave's pass waited for a pool worker
``hype``              the shared HyPE pass on the pool worker
``service``           the rest of ``submit_wave`` (authorisation,
                      answer assembly)
``admission.fanout``  wave completion until the request's future wakes

The load generator compares the mean of their sum with its own mean
end-to-end latency minus the transport-only ping round trip; what is
left is reported as ``trace.unattributed_ms``.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from collections import defaultdict

_REQUEST: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)

COMPILE_STAGES = ("parse", "normalize", "rewrite", "trim", "translate", "dense")

BLOCKING_LAYERS = (
    "frontend",
    "admission.hold",
    "plan.lookup",
    "compile",
    "compile.store",
    "docstore.resolve",
    "pool.queue_wait",
    "hype",
    "service",
    "admission.fanout",
)


class Recorder:
    """Thread-safe totals of layer calls and per-request blocking time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.blocking: dict[str, float] = defaultdict(float)
        self.requests = 0
        self.request_seconds = 0.0
        self.waves = 0
        self.wave_requests = 0
        self.visited = 0
        #: id(QueryRequest) -> the request's record, while in admission.
        self._pending: dict[int, dict] = {}

    # -- recording -----------------------------------------------------
    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.calls[name]
            entry[0] += 1
            entry[1] += seconds
        wave = getattr(self._local, "wave", None)
        if wave is not None:
            wave[name] += seconds

    def mark_cold(self) -> None:
        self._local.cold = True

    def finish_request(self, record: dict) -> None:
        """Partition one answered request's server time into layers."""
        if "submit" not in record or "wave" not in record:
            return  # rejected before admission: no layer path to split
        total = record["frontend"]
        start, end = record["submit"]
        wave = record["wave"]
        compile_s = sum(wave[f"compile.{s}"] for s in COMPILE_STAGES)
        store = wave["compile.store_load"] + wave["compile.store_save"]
        plan = wave["plan"]
        parts = {
            "frontend": total - (end - start),
            "admission.hold": wave["start"] - start,
            "plan.lookup": plan - compile_s - store,
            "compile": compile_s,
            "compile.store": store,
            "docstore.resolve": wave["docstore.resolve"],
            "pool.queue_wait": wave["pool.queue_wait"],
            "hype": wave["pool.eval"],
            "service": (wave["end"] - wave["start"])
            - plan
            - wave["docstore.resolve"]
            - wave["pool.queue_wait"]
            - wave["pool.eval"],
            "admission.fanout": end - wave["end"],
        }
        with self._lock:
            self.requests += 1
            self.request_seconds += total
            for name, seconds in parts.items():
                self.blocking[name] += seconds

    def summary(self) -> dict:
        with self._lock:
            return {
                "calls": {k: list(v) for k, v in self.calls.items()},
                "blocking": dict(self.blocking),
                "requests": self.requests,
                "request_seconds": self.request_seconds,
                "waves": self.waves,
                "wave_requests": self.wave_requests,
                "visited": self.visited,
            }


def _timed(recorder: Recorder, name: str, fn, cold: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if cold:
            recorder.mark_cold()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name, time.perf_counter() - started)

    return wrapper


def install() -> Recorder:
    """Wrap every layer's entry points; returns the recorder they feed."""
    from repro.compile import pipeline
    from repro.compile.store import PlanStore
    from repro.docstore import document, layout, store
    from repro.serve import admission, batch, cache, fleet, frontend, pool
    from repro.serve import service as service_mod
    from repro.xtree import parse

    rec = Recorder()
    local = rec._local

    # Document tier: parse, store lookups, layout and index work.
    parse.parse_xml = _timed(rec, "xtree.parse", parse.parse_xml)
    store.DocumentStore.get = _timed(rec, "docstore.get", store.DocumentStore.get)
    store.DocumentStore.resolve = _timed(
        rec, "docstore.resolve", store.DocumentStore.resolve
    )
    layout.DocumentLayout.__init__ = _timed(
        rec, "docstore.layout", layout.DocumentLayout.__init__
    )
    document.build_index = _timed(
        rec, "docstore.index_build", document.build_index
    )
    store.DocIndexTier.load = _timed(
        rec, "docstore.index_load", store.DocIndexTier.load
    )

    # Compile pipeline: the program times its own stages; count them here.
    record_stage = pipeline.CompileMetrics.record

    def record(self, stage, seconds):
        rec.add(f"compile.{stage}", seconds)
        return record_stage(self, stage, seconds)

    pipeline.CompileMetrics.record = record
    pipeline.QueryCompiler.compile = _timed(
        rec, "compile.compile", pipeline.QueryCompiler.compile, cold=True
    )
    PlanStore.load = _timed(rec, "compile.store_load", PlanStore.load, cold=True)
    PlanStore.save = _timed(rec, "compile.store_save", PlanStore.save)

    # Plan cache: the L1-hit path is a lookup that neither compiled nor
    # touched the plan store.
    plan_lookup = cache.PlanCache.plan

    @functools.wraps(plan_lookup)
    def plan(self, spec, query):
        local.cold = False
        started = time.perf_counter()
        try:
            return plan_lookup(self, spec, query)
        finally:
            elapsed = time.perf_counter() - started
            rec.add("plan", elapsed)
            if not local.cold:
                rec.add("plan.l1_lookup", elapsed)

    cache.PlanCache.plan = plan

    # Kernel: the shared HyPE pass of every wave.
    batch_run = batch.BatchEvaluator.run

    @functools.wraps(batch_run)
    def run(self, context, layout=None, deadline=None):
        started = time.perf_counter()
        result = batch_run(self, context, layout=layout, deadline=deadline)
        elapsed = time.perf_counter() - started
        rec.add("hype.run", elapsed)
        with rec._lock:
            rec.visited += result.stats.visited_elements
        return result

    batch.BatchEvaluator.run = run

    # Pool: queue wait and evaluation as the pool measured them.
    execute = pool.ExecutionPool.execute

    @functools.wraps(execute)
    def pool_execute(self, work, deadline=None):
        outcome = execute(self, work, deadline=deadline)
        rec.add("pool.queue_wait", outcome.queue_wait)
        rec.add("pool.eval", outcome.eval_seconds)
        return outcome

    pool.ExecutionPool.execute = pool_execute

    # Service: one record per wave, shared by the wave's requests.
    submit_wave = service_mod.QueryService.submit_wave

    @functools.wraps(submit_wave)
    def wave(self, requests, contexts=None):
        record = local.wave = defaultdict(float)
        record["start"] = time.perf_counter()
        try:
            return submit_wave(self, requests, contexts=contexts)
        finally:
            record["end"] = time.perf_counter()
            local.wave = None
            with rec._lock:
                rec.waves += 1
                rec.wave_requests += len(requests)
                for request in requests:
                    owner = rec._pending.get(id(request))
                    if owner is not None:
                        owner["wave"] = record

    service_mod.QueryService.submit_wave = wave

    # Admission: arrival to answer, per request.
    submit = admission.AdmissionController.submit

    @functools.wraps(submit)
    async def admit(self, request):
        record = _REQUEST.get()
        if record is None:
            record = {}
        rec._pending[id(request)] = record
        started = time.perf_counter()
        try:
            return await submit(self, request)
        finally:
            record["submit"] = (started, time.perf_counter())
            rec._pending.pop(id(request), None)

    admission.AdmissionController.submit = admit

    # Frontend: one query line in, one reply line out.
    serve_message = frontend.QueryFrontend._serve_message

    @functools.wraps(serve_message)
    async def frontend_message(self, message, writer, lock):
        if message.get("op") != "query":
            return await serve_message(self, message, writer, lock)
        record: dict = {}
        token = _REQUEST.set(record)
        started = time.perf_counter()
        try:
            return await serve_message(self, message, writer, lock)
        finally:
            record["frontend"] = time.perf_counter() - started
            _REQUEST.reset(token)
            rec.finish_request(record)

    frontend.QueryFrontend._serve_message = frontend_message

    # Fleet acceptor: its own per-query time and the forwarding hop.
    acceptor_message = fleet.FleetAcceptor._serve_message

    @functools.wraps(acceptor_message)
    async def accept(self, message, writer, lock):
        if message.get("op") != "query":
            return await acceptor_message(self, message, writer, lock)
        started = time.perf_counter()
        try:
            return await acceptor_message(self, message, writer, lock)
        finally:
            rec.add("fleet.acceptor", time.perf_counter() - started)

    fleet.FleetAcceptor._serve_message = accept

    call = fleet.WorkerHandle.call

    @functools.wraps(call)
    async def forward(self, message, timeout=None):
        if message.get("op") != "query":
            return await call(self, message, timeout=timeout)
        started = time.perf_counter()
        try:
            return await call(self, message, timeout=timeout)
        finally:
            rec.add("fleet.call", time.perf_counter() - started)

    fleet.WorkerHandle.call = forward
    return rec
