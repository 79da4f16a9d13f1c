"""Command-line interface to the SMOQE reproduction.

Usage (``python -m repro.cli <command> ...``):

* ``generate  --patients N --seed S [--out FILE]`` — emit a hospital document
* ``validate  DOC.xml DTD.txt`` — check DTD conformance
* ``query     DOC.xml QUERY [--algorithm hype|opthype|opthype-c]`` — run a
  (regular) XPath query, print answer count and node paths
* ``materialize SPEC.view DOC.xml [--out FILE]`` — materialise a view
* ``view-query  SPEC.view DOC.xml QUERY`` — answer a query on the virtual
  view (rewrite + HyPE, no materialisation)
* ``rewrite     SPEC.view QUERY [--to xreg|mfa]`` — show a rewriting
* ``serve-batch DOC.xml QUERY [QUERY ...] [--spec SPEC.view]`` — answer
  many queries in ONE shared document pass (batched HyPE); with a spec
  the queries are view queries, without they run on the source directly
* ``bench-serve [--patients N --tenants T --requests R]`` — run the
  multi-tenant hospital traffic workload sequentially and batched and
  print a comparison table
* ``warm --plan-dir DIR [--gc [--doc-dir DIR]] [--spec SPEC.view]
  [QUERY ...]`` — precompile queries (default: the hospital traffic
  workload's) into a persistent plan store, so services booted with the
  same ``--plan-dir`` skip the MFA rewrites entirely (``serve-batch``,
  ``bench-serve``, ``serve-front`` and ``bench-front`` all accept
  ``--plan-dir``); ``--gc`` first reclaims stale/corrupt artifact files
  (with ``--doc-dir`` it also sweeps stale document-tier files).  The
  analogous ``--doc-dir`` (same four commands) persists built OptHyPE
  document indexes and binary layout sidecars keyed by content hash, so
  a restart also skips index and layout construction
* ``serve-front [--document DOC.xml] [--host H --port P]`` — boot the
  asyncio NDJSON socket front-end (per-wave admission control in front
  of the query service; ``--pool-size`` bounds concurrent evaluations,
  ``--max-pending`` caps in-flight queries per connection); ``--smoke``
  instead boots it on an ephemeral port, runs a scripted wave through
  the client helper and checks the reply stream (the CI front-smoke
  target)
* ``bench-front [--requests R --gap-ms G] [--workload
  hospital|multidoc]`` — replay the seeded traffic stream through the
  admission controller with inter-arrival jitter and compare coalesced
  waves against per-request sequential submits; ``--workload multidoc``
  replays the two-document stream (hospital + deep-recursion ontology)
  with per-request document routing and tenant catalogs
* ``serve-fleet --workers N [--plan-dir DIR --doc-dir DIR]`` — boot the
  multi-process fleet: one acceptor routing requests to N worker
  processes by consistent-hashing each request's document hash; workers
  share the plan and document tiers, so a cold worker starts with zero
  MFA rewrites and zero index builds
* observability: ``serve-front`` and ``bench-front`` accept
  ``--trace-sample RATE`` (request tracing; errored/slow traces always
  kept), ``--slow-ms MS`` (slow-query threshold for trace retention and
  the slow log) and ``--access-log FILE`` (trace-correlated NDJSON
  access log); ``serve-front --obs-smoke`` runs the observability smoke
  (Prometheus exposition parses, trace op returns complete span trees,
  slow log is valid NDJSON — the CI obs-smoke target)
* ``obs --host H --port P [P ...] [--limit N] [--prometheus]`` — fetch
  and pretty-print recent traces (span trees with durations and
  attributes) or the Prometheus text exposition from a running
  ``serve-front``; with ``--prometheus`` and several ports the
  expositions are merged into one (per-worker series stay distinct via
  the ``worker`` label)

View-spec file format (see ``examples/research.view`` written by tests)::

    source <<<
    root hospital
    hospital -> department*
    ...
    >>>
    view <<<
    root hospital
    hospital -> patient*
    ...
    >>>
    hospital patient = department/patient[...]
    patient parent = parent
"""

from __future__ import annotations

import argparse
import sys

from .dtd.parse import parse_dtd
from .dtd.validate import validate
from .serve.frontend import DEFAULT_MAX_PENDING
from .serve.pool import DEFAULT_POOL_SIZE
from .engine.smoqe import SMOQE
from .errors import ReproError
from .hype.api import ALGORITHMS, HYPE
from .rewrite.direct import rewrite_to_xreg
from .rewrite.mfa_rewrite import rewrite_query
from .views.materialize import materialize
from .views.spec import ViewSpec, view_spec
from .workloads.hospital import HospitalConfig, generate_hospital_document
from .xpath.parser import parse_query
from .xpath.unparse import unparse
from .xtree.node import Node
from .xtree.parse import parse_xml
from .xtree.serialize import serialize
from .xtree.stats import tree_stats


def parse_view_spec_file(text: str) -> ViewSpec:
    """Parse the ``.view`` file format (see module docstring)."""
    source_dtd, view_dtd = None, None
    annotations: dict[tuple[str, str], str] = {}
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith(("source", "view")) and line.endswith("<<<"):
            kind = line.split()[0]
            block: list[str] = []
            while index < len(lines) and lines[index].strip() != ">>>":
                block.append(lines[index])
                index += 1
            index += 1  # skip '>>>'
            dtd = parse_dtd("\n".join(block))
            if kind == "source":
                source_dtd = dtd
            else:
                view_dtd = dtd
            continue
        if "=" in line:
            left, query = line.split("=", 1)
            parts = left.split()
            if len(parts) != 2:
                raise ReproError(
                    f"bad annotation line (need 'PARENT CHILD = query'): {line!r}"
                )
            annotations[(parts[0], parts[1])] = query.strip()
            continue
        raise ReproError(f"unrecognised view-spec line: {line!r}")
    if source_dtd is None or view_dtd is None:
        raise ReproError("view-spec file needs both source<<<>>> and view<<<>>>")
    return view_spec(source_dtd, view_dtd, annotations)


def _node_path(node: Node) -> str:
    parts = [node.label]
    parts.extend(a.label for a in node.iter_ancestors())
    return "/" + "/".join(reversed(parts))


def _print_answers(nodes, limit: int = 10) -> None:
    ordered = sorted(nodes, key=lambda n: n.node_id)
    print(f"{len(ordered)} answer(s)")
    for node in ordered[:limit]:
        text = node.text()
        suffix = f"  {text!r}" if text else ""
        print(f"  node {node.node_id}: {_node_path(node)}{suffix}")
    if len(ordered) > limit:
        print(f"  ... and {len(ordered) - limit} more")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    doc = generate_hospital_document(
        HospitalConfig(num_patients=args.patients, seed=args.seed)
    )
    xml = serialize(doc, indent=1 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(xml)
        print(f"wrote {args.out}: {tree_stats(doc).describe()}")
    else:
        print(xml)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    with open(args.dtd) as handle:
        dtd = parse_dtd(handle.read())
    validate(tree, dtd)
    print(f"valid: {tree_stats(tree).describe()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    engine = SMOQE(tree, default_algorithm=args.algorithm)
    answer = engine.evaluate(args.query)
    _print_answers(answer.nodes)
    print(
        f"visited {answer.stats.visited_elements}/{tree.element_count} "
        f"elements, |M| = {answer.mfa.size()}"
    )
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    view = materialize(spec, tree)
    xml = serialize(view.tree, indent=1 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(xml)
        print(f"wrote {args.out}: {tree_stats(view.tree).describe()}")
    else:
        print(xml)
    return 0


def cmd_view_query(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    engine = SMOQE(tree, default_algorithm=args.algorithm)
    engine.register_view("view", spec)
    answer = engine.answer("view", args.query)
    _print_answers(answer.nodes)
    print(f"rewritten |M| = {answer.mfa.size()}")
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    query = parse_query(args.query)
    if args.to == "xreg":
        rewritten = rewrite_to_xreg(spec, query)
        print(unparse(rewritten))
        print(f"size: {rewritten.size()} AST nodes", file=sys.stderr)
    else:
        mfa = rewrite_query(spec, query)
        for key, value in mfa.stats().items():
            print(f"{key}: {value}")
    return 0


def _plan_store(args: argparse.Namespace):
    """The on-disk plan tier behind ``--plan-dir`` (``None`` without it)."""
    plan_dir = getattr(args, "plan_dir", None)
    if not plan_dir:
        return None
    from .compile.store import PlanStore

    return PlanStore(plan_dir)


def _document_store(args: argparse.Namespace):
    """The document store behind ``--doc-dir`` (``None`` without it).

    The store shares parsed documents and their OptHyPE indexes across
    every service of the process, and persists built indexes under the
    directory so a restart skips index construction for
    previously-seen documents.
    """
    doc_dir = getattr(args, "doc_dir", None)
    if not doc_dir:
        return None
    from .docstore import DocumentStore

    return DocumentStore(index_dir=doc_dir)


def cmd_serve_batch(args: argparse.Namespace) -> int:
    from .serve.service import QueryRequest, QueryService

    doc_store = _document_store(args)
    with open(args.document) as handle:
        content = handle.read()
    if doc_store is not None:
        # Content-addressed: the parse and the index builds are shared
        # with (and persisted for) every other holder of this document.
        document = doc_store.get(content)
    else:
        document = parse_xml(content)
    service = QueryService(
        document,
        default_algorithm=args.algorithm,
        plan_store=_plan_store(args),
        document_store=doc_store,
    )
    if args.spec:
        with open(args.spec) as handle:
            spec = parse_view_spec_file(handle.read())
        service.register_view("view", spec)
        service.register_tenant("cli", "view")
    else:
        service.register_tenant("cli", None)
    requests = [QueryRequest("cli", query) for query in args.queries]
    answers, stats = service.submit_many(requests)
    for query, answer in zip(args.queries, answers):
        print(f"query: {query}")
        _print_answers(answer.nodes, limit=args.limit)
    print(
        f"batched {len(requests)} query(ies) in {stats.lanes} lane(s): "
        f"visited {stats.visited_elements} element(s) in one shared pass "
        f"vs {stats.sequential_visited} sequentially "
        f"(saved {stats.saved_visits})"
    )
    if args.plan_dir or args.doc_dir:
        # Surface the tier accounting so a warm restart is verifiable
        # from the outside (the warm-restart smoke greps these lines).
        print(service.metrics_snapshot().describe())
    service.close()
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from .bench.tables import format_series
    from .bench.timing import measure
    from .serve.service import QueryRequest, QueryService
    from .workloads.traffic import (
        TrafficConfig,
        generate_traffic,
        register_tenants,
        waves,
    )

    if args.wave < 1:
        raise ReproError(f"--wave must be >= 1, got {args.wave}")
    document = generate_hospital_document(
        HospitalConfig(num_patients=args.patients, seed=args.seed)
    )
    config = TrafficConfig(
        num_tenants=args.tenants, num_requests=args.requests, seed=args.seed
    )
    traffic = generate_traffic(config)

    store = _plan_store(args)
    doc_store = _document_store(args)

    def fresh_service() -> QueryService:
        # All runs share the stores (when given): the first compiles and
        # persists, the rest rehydrate — exactly a restart's behaviour.
        service = QueryService(
            document, plan_store=store, document_store=doc_store
        )
        register_tenants(service, config)
        return service

    sequential = fresh_service()
    seq_timing = measure(
        lambda: [
            sequential.submit(request.tenant, request.query)
            for request in traffic
        ],
        repeats=args.repeats,
    )
    request_waves = [
        [QueryRequest(r.tenant, r.query) for r in wave]
        for wave in waves(traffic, args.wave)
    ]
    batched_timed = fresh_service()
    bat_timing = measure(
        lambda: [batched_timed.submit_many(wave) for wave in request_waves],
        repeats=args.repeats,
    )
    # Counters come from one clean pass so the reported absolutes match
    # the stated workload regardless of --repeats.
    batched = fresh_service()
    for wave in request_waves:
        batched.submit_many(wave)
    bat_snapshot = batched.metrics_snapshot()
    for used in (sequential, batched_timed, batched):
        used.close()
    print(
        format_series(
            f"bench-serve: {len(traffic)} requests, "
            f"{args.tenants} tenants, wave size {args.wave}",
            row_labels=["sequential", "batched"],
            columns={"total": [seq_timing.best, bat_timing.best]},
            extra={
                "visited": [
                    # Per-request stats are identical either way; the shared
                    # pass is what shrinks the batched traversal count.
                    bat_snapshot.sequential_visited,
                    bat_snapshot.batch_visited,
                ]
            },
        )
    )
    print()
    print("batched run:")
    print(bat_snapshot.describe())
    print()
    print(bat_snapshot.format_table("per-tenant latency (batched)"))
    return 0


def cmd_warm(args: argparse.Namespace) -> int:
    """Precompile a workload's queries into a persistent plan store.

    Compilation is document-independent (the rewrite works over the view
    specification alone), so warming needs no XML input: every process
    later booted with the same ``--plan-dir`` rehydrates these plans
    instead of rewriting.
    """
    from .compile import FORMAT_VERSION, PlanStore, QueryCompiler
    from .serve.cache import PlanCache

    store = PlanStore(args.plan_dir)
    targets: list[tuple[object, str]] = []
    if args.queries:
        spec = None
        if args.spec:
            with open(args.spec) as handle:
                spec = parse_view_spec_file(handle.read())
        targets = [(spec, query) for query in args.queries]
    else:
        if args.spec:
            raise ReproError("--spec without queries; pass the QUERY list too")
        # Default: the multi-tenant hospital traffic workload — σ0 view
        # queries plus the admin tenant's direct Fig. 8 family.
        from .views.samples import sigma0
        from .workloads.queries import FIG8, VIEW_QUERIES

        view = sigma0()
        targets = [(view, query) for _, query in sorted(VIEW_QUERIES.items())]
        targets += [(None, query) for _, query in sorted(FIG8.items())]

    if args.gc:
        removed = store.gc()
        print(
            f"gc: removed {removed} stale/corrupt artifact file(s) "
            f"(non-v{FORMAT_VERSION} or undecodable)"
        )
        doc_dir = getattr(args, "doc_dir", None)
        if doc_dir:
            from .docstore import DOC_FORMAT_VERSION, DocumentStore

            doc_store = DocumentStore(index_dir=doc_dir)
            doc_removed = doc_store.tier.gc()
            print(
                f"gc: removed {doc_removed} stale document-tier file(s) "
                f"from {doc_dir} (non-v{DOC_FORMAT_VERSION} or invalid)"
            )
    compiler = QueryCompiler()
    cache = PlanCache(
        capacity=max(1, len(targets)), store=store, compiler=compiler
    )
    for spec, query in targets:
        cache.plan(spec, query)
    stats = cache.stats
    print(
        f"warmed {args.plan_dir}: {stats.misses} compiled, "
        f"{stats.l2_hits} already stored, {stats.hits} duplicate(s); "
        f"store now holds {len(store)} plan(s) "
        f"(format v{FORMAT_VERSION})"
    )
    for stage, counters in compiler.metrics.snapshot().as_dict().items():
        if counters["count"]:
            print(
                f"  {stage}: {counters['count']}x "
                f"{counters['seconds'] * 1000:.2f} ms"
            )
    return 0


def _front_service(args: argparse.Namespace):
    """Build the (document, service) pair the front-end commands serve."""
    from .serve.service import QueryService
    from .workloads.traffic import TrafficConfig, register_tenants

    if getattr(args, "document", None):
        with open(args.document) as handle:
            tree = parse_xml(handle.read())
    else:
        tree = generate_hospital_document(
            HospitalConfig(num_patients=args.patients, seed=args.seed)
        )
    doc_store = _document_store(args)
    if doc_store is not None:
        tree = doc_store.adopt(tree)
    service = QueryService(
        tree,
        pool_size=args.pool_size,
        plan_store=_plan_store(args),
        document_store=doc_store,
    )
    if getattr(args, "spec", None):
        with open(args.spec) as handle:
            spec = parse_view_spec_file(handle.read())
        service.register_view("view", spec)
        service.register_tenant("cli", "view")
        service.register_tenant("admin", None)
    else:
        config = TrafficConfig(num_tenants=args.tenants, seed=args.seed)
        register_tenants(service, config)
    return service


def _admission_config(args: argparse.Namespace):
    from .serve.admission import AdmissionConfig

    return AdmissionConfig(
        max_wave=args.max_wave, max_wait=args.max_wait_ms / 1000.0
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (serve-front and bench-front)."""
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="enable request tracing, keeping this fraction of traces "
        "(errored and slow traces are always kept)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query threshold: slower requests are always traced "
        "and logged",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="append one NDJSON entry per request to FILE "
        "(trace-correlated; without it --slow-ms logs slow/errored "
        "requests to stderr)",
    )


def _obs_setup(args: argparse.Namespace):
    """Build the (tracer, access logger) pair the obs flags ask for."""
    from .obs.log import AccessLogger, StructuredLog
    from .obs.trace import Tracer

    slow_seconds = (
        None if args.slow_ms is None else args.slow_ms / 1000.0
    )
    tracer = None
    if args.trace_sample is not None:
        tracer = Tracer(
            sample_rate=args.trace_sample, slow_seconds=slow_seconds
        )
    access_logger = None
    if args.access_log is not None:
        access_logger = AccessLogger(
            StructuredLog(args.access_log),
            slow_seconds=slow_seconds,
            access=True,
        )
    elif slow_seconds is not None:
        access_logger = AccessLogger(
            StructuredLog(sys.stderr), slow_seconds=slow_seconds
        )
    return tracer, access_logger


async def _front_smoke(service, admission) -> int:
    """Boot the server, run a scripted wave, check the reply stream."""
    from .serve.frontend import FrontendClient, QueryFrontend
    from .workloads.traffic import TrafficConfig, generate_traffic

    failures: list[str] = []

    def check(condition: bool, what: str) -> None:
        print(f"[smoke] {'ok' if condition else 'FAIL'}: {what}")
        if not condition:
            failures.append(what)

    frontend = QueryFrontend(service, admission)
    host, port = await frontend.start("127.0.0.1", 0)
    print(f"[smoke] frontend listening on {host}:{port}")
    client = await FrontendClient.connect(host, port)
    try:
        pong = await client.ping()
        check(pong.get("ok") and pong.get("pong"), "ping round trip")

        tenant = service.tenants()[0]
        opened = await client.open_session(tenant)
        check(opened.get("ok") is True, f"open session for {tenant!r}")
        session = opened.get("session")

        traffic = generate_traffic(
            TrafficConfig(num_tenants=2, num_requests=8, seed=5)
        )
        scripted = [
            {"tenant": r.tenant, "query": r.query, "limit": -1}
            for r in traffic
            if r.tenant in service.tenants()
        ]
        replies = await client.query_many(scripted)
        check(
            len(replies) == len(scripted),
            f"every scripted request answered ({len(replies)}/{len(scripted)})",
        )
        check(
            all(reply.get("ok") for reply in replies),
            "all scripted replies ok",
        )
        largest = max(
            (reply["wave"]["size"] for reply in replies if reply.get("ok")),
            default=0,
        )
        check(largest >= 2, f"pipelined burst coalesced (largest wave {largest})")
        for message, reply in zip(scripted, replies):
            expected = service.submit(message["tenant"], message["query"]).ids()
            if reply.get("count") != len(expected) or reply.get("ids") != expected:
                check(False, f"answers match direct submit for {message['query']!r}")
                break
        else:
            check(True, "answers match direct per-request submits")

        in_session = await client.query(tenant, "*", session=session)
        check(in_session.get("ok") is True, "session-scoped query")
        denied = await client.query("stranger", "*")
        check(
            denied.get("ok") is False
            and denied.get("error") == "authorization",
            "unknown tenant rejected as authorization error",
        )
        garbled = await client.query(tenant, "]][[")
        check(
            garbled.get("ok") is False
            and garbled.get("error") == "invalid-query",
            "malformed query rejected as invalid-query",
        )
        closed = await client.close_session(session)
        check(closed.get("ok") is True, "close session")

        metrics = await client.metrics()
        counters = metrics.get("metrics", {})
        check(
            metrics.get("ok") is True and counters.get("waves", 0) >= 1,
            f"metrics report admission waves ({counters.get('waves')})",
        )
        check(
            counters.get("rejected", 0) >= 2,
            "rejections counted (authorization + parse)",
        )
        # Cold boots compile (misses + rewrite stages); a boot over a
        # populated --plan-dir rehydrates instead (L2 hits, no rewrite).
        # Either way the tier and stage counters must be exposed and add
        # up to the plans this run resolved.
        resolved = counters.get("plan_misses", 0) + counters.get(
            "plan_l2_hits", 0
        )
        check(
            resolved >= 1
            and "l2_hits" in counters.get("cache", {})
            and counters.get("compile", {}).get("normalize", {}).get("count", 0)
            >= 1,
            "plan-tier and compile-stage counters exposed",
        )
    finally:
        await client.aclose()
        await frontend.close()
    if failures:
        print(f"[smoke] {len(failures)} check(s) FAILED", file=sys.stderr)
        return 1
    print("[smoke] all checks passed")
    return 0


async def _obs_smoke(service, admission) -> int:
    """Boot a traced front-end, replay a burst, check the obs surfaces.

    The CI obs-smoke target: asserts (1) every request produced a
    retained trace whose span tree covers request → admission → plan →
    queue-wait → doc-store → evaluate with children summing within the
    root, (2) the Prometheus exposition parses and its latency
    histogram's ``+Inf`` bucket equals the request counter, (3) the
    access log is valid trace-correlated NDJSON.
    """
    import io
    import json as json_mod

    from .obs.export import parse_exposition
    from .obs.log import AccessLogger, StructuredLog
    from .obs.trace import Tracer, span_roots
    from .serve.frontend import FrontendClient, QueryFrontend
    from .workloads.traffic import TrafficConfig, generate_traffic

    failures: list[str] = []

    def check(condition: bool, what: str) -> None:
        print(f"[obs-smoke] {'ok' if condition else 'FAIL'}: {what}")
        if not condition:
            failures.append(what)

    tracer = Tracer(sample_rate=1.0, slow_seconds=None)
    log_buffer = io.StringIO()
    access_logger = AccessLogger(
        StructuredLog(log_buffer), slow_seconds=0.0, access=True
    )
    frontend = QueryFrontend(
        service, admission, tracer=tracer, access_log=access_logger
    )
    host, port = await frontend.start("127.0.0.1", 0)
    print(f"[obs-smoke] traced frontend listening on {host}:{port}")
    client = await FrontendClient.connect(host, port)
    try:
        traffic = generate_traffic(
            TrafficConfig(num_tenants=2, num_requests=8, seed=5)
        )
        scripted = [
            {"tenant": r.tenant, "query": r.query, "limit": 0}
            for r in traffic
            if r.tenant in service.tenants()
        ]
        replies = await client.query_many(scripted)
        served = sum(1 for reply in replies if reply.get("ok"))
        check(
            served == len(scripted),
            f"burst served under tracing ({served}/{len(scripted)})",
        )

        traced = await client.trace()
        traces = traced.get("traces", [])
        check(
            traced.get("ok") is True and len(traces) == len(scripted),
            f"trace op returns every request's trace ({len(traces)})",
        )
        stage_names = (
            "admission.hold",
            "plan",
            "queue.wait",
            "docstore.resolve",
            "evaluate",
        )
        complete = 0
        for trace in traces:
            roots = span_roots(trace)
            if len(roots) != 1 or roots[0]["name"] != "request":
                continue
            names = {s["name"] for s in trace["spans"]}
            if not all(stage in names for stage in stage_names):
                continue
            root = roots[0]
            child_total = sum(c["duration_ms"] for c in root["children"])
            if child_total <= root["duration_ms"] * 1.001:
                complete += 1
        check(
            complete == len(traces),
            f"complete span trees, children within root ({complete})",
        )
        tiers = {
            s["attributes"].get("tier")
            for trace in traces
            for s in trace["spans"]
            if s["name"] == "plan"
        }
        check(
            tiers and tiers <= {"l1", "l2", "compile"} and "l1" in tiers,
            f"plan spans carry cache-tier annotations ({sorted(tiers)})",
        )

        prom = await client.prometheus()
        try:
            samples = parse_exposition(prom.get("prometheus", ""))
        except ValueError as error:
            samples = {}
            check(False, f"prometheus exposition parses ({error})")
        else:
            check(True, "prometheus exposition parses")
        if samples:
            requests_total = samples.get("repro_requests_total", {}).get("")
            buckets = samples.get("repro_request_latency_seconds_bucket", {})
            inf = buckets.get('le="+Inf"')
            check(
                requests_total is not None and inf == requests_total,
                f"+Inf latency bucket equals request counter "
                f"({inf} == {requests_total})",
            )

        entries = [
            json_mod.loads(line)
            for line in log_buffer.getvalue().splitlines()
            if line
        ]
        check(
            len(entries) == len(scripted),
            f"access log has one NDJSON entry per request ({len(entries)})",
        )
        correlated = sum(
            1
            for entry in entries
            if entry.get("trace_id")
            and any(t["trace_id"] == entry["trace_id"] for t in traces)
        )
        check(
            correlated == len(entries),
            f"every log entry correlates to a retained trace ({correlated})",
        )
        staged = sum(1 for entry in entries if entry.get("stages"))
        check(
            staged == len(entries),
            f"log entries carry stage annotations ({staged})",
        )
    finally:
        await client.aclose()
        await frontend.close()
    if failures:
        print(f"[obs-smoke] {len(failures)} check(s) FAILED", file=sys.stderr)
        return 1
    print("[obs-smoke] all checks passed")
    return 0


def _install_faults(args: argparse.Namespace) -> None:
    """Arm ``--faults PLAN`` (inline JSON or a file path) for this process
    and export it through the environment so spawned fleet workers
    inherit the same seeded schedule."""
    text = getattr(args, "faults", None)
    if not text:
        return
    import os

    from . import faults

    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    plan = faults.FaultPlan.from_json(text)
    faults.install(plan)
    os.environ[faults.ENV_VAR] = plan.to_json()
    points = sorted({rule.point for rule in plan.rules})
    print(
        f"fault injection armed: {', '.join(points)} (seed {plan.seed})",
        flush=True,
    )


async def _serve_until_drained(server, draining: str, drained: str) -> None:
    """Serve until SIGTERM, then drain gracefully, close, and return.

    ``server`` is a :class:`repro.serve.frontend.QueryFrontend` or a
    :class:`repro.serve.fleet.FleetAcceptor`; ``draining`` is printed when
    the signal lands and ``drained`` once ``server.drain()`` finished.
    """
    import asyncio
    import signal

    stop = asyncio.Event()

    async def _drain() -> None:
        print(draining, flush=True)
        await server.drain()
        stop.set()

    try:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, lambda: asyncio.ensure_future(_drain())
        )
    except NotImplementedError:  # pragma: no cover - non-Unix loops
        pass
    serving = asyncio.create_task(server.serve_forever())
    try:
        await stop.wait()
        print(drained, flush=True)
    finally:
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)
        await server.close()


def cmd_serve_front(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.frontend import QueryFrontend

    _install_faults(args)
    service = _front_service(args)
    admission = _admission_config(args)
    if args.smoke:
        return asyncio.run(_front_smoke(service, admission))
    if args.obs_smoke:
        return asyncio.run(_obs_smoke(service, admission))
    tracer, access_logger = _obs_setup(args)

    async def _serve() -> None:
        frontend = QueryFrontend(
            service,
            admission,
            max_pending=args.max_pending,
            max_line_bytes=args.max_line_bytes,
            tracer=tracer,
            access_log=access_logger,
        )
        host, port = await frontend.start(args.host, args.port)
        obs_note = ""
        if tracer is not None:
            obs_note = f", trace sample {tracer.sample_rate:g}"
        if access_logger is not None:
            target = access_logger.log.path or "stderr"
            obs_note += f", access log {target}"
        print(
            f"frontend listening on {host}:{port} "
            f"(tenants: {', '.join(service.tenants())}; "
            f"max wave {admission.max_wave}, "
            f"max wait {admission.max_wait * 1000:.0f} ms, "
            f"pool size {service.pool.size}, "
            f"max pending/conn {args.max_pending}{obs_note})",
            flush=True,
        )
        # Drain refuses new admissions, finishes every in-flight wave and
        # flushes the access log — what a fleet restart (or any
        # supervisor) needs from a worker.
        await _serve_until_drained(
            frontend,
            "draining: refusing new admissions",
            "drained: all in-flight requests flushed",
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("frontend stopped")
    return 0


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Boot the multi-process fleet: one acceptor, N workers."""
    import asyncio

    from .serve.fleet import FleetAcceptor, FleetSpec
    from .workloads.multidoc import MultiDocConfig

    _install_faults(args)
    config = MultiDocConfig(
        patients=args.patients,
        tenants=args.tenants,
        terms=args.terms,
        seed=args.seed,
        algorithm=args.algorithm,
    )
    spec = FleetSpec(
        config=config.as_dict(),
        plan_dir=args.plan_dir,
        doc_dir=args.doc_dir,
        pool_size=args.pool_size,
        max_wave=args.max_wave,
        max_wait_ms=args.max_wait_ms,
        access_log=args.access_log,
    )

    async def _serve() -> None:
        acceptor = FleetAcceptor(
            spec,
            workers=args.workers,
            request_timeout=args.request_timeout,
            breaker_threshold=args.breaker_threshold,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
        )
        host, port = await acceptor.start(args.host, args.port)
        shards = {
            doc_hash[:12]: acceptor.ring.node_for(doc_hash)
            for doc_hash in sorted(acceptor.documents)
        }
        print(
            f"fleet acceptor listening on {host}:{port} "
            f"({args.workers} worker(s); documents {shards}; "
            f"plan dir {args.plan_dir or '-'}, doc dir {args.doc_dir or '-'})",
            flush=True,
        )
        # Drain stops accepting, flushes every acknowledged request and
        # SIGTERMs the workers (they drain in-process).
        await _serve_until_drained(
            acceptor,
            "draining: refusing new connections",
            "drained: fleet stopped cleanly",
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("fleet stopped")
    return 0


def cmd_bench_front(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from .serve.admission import AdmissionController
    from .serve.service import QueryRequest, QueryService
    from .workloads.traffic import (
        ArrivalConfig,
        TrafficConfig,
        generate_traffic,
        register_tenants,
    )
    from .bench.tables import format_series

    if getattr(args, "workload", "hospital") == "multidoc":
        # The two-document stream: research tenants on the hospital
        # tree, curators on the deep-recursion ontology, admin on both —
        # every request carries its document's content hash.
        from .workloads.multidoc import (
            MultiDocConfig,
            build_multidoc_service,
            generate_multidoc_traffic,
        )

        multidoc = MultiDocConfig(
            patients=args.patients,
            tenants=args.tenants,
            seed=args.seed,
            num_requests=args.requests,
        )
        sequential, hashes = build_multidoc_service(multidoc)
        traffic = generate_multidoc_traffic(multidoc, hashes)
        front, _ = build_multidoc_service(
            multidoc,
            pool_size=args.pool_size,
            plan_store=_plan_store(args),
            document_store=_document_store(args),
        )
    elif getattr(args, "workload", "hospital") == "skew":
        # The Zipf-hot stream: every tenant hammering one of N same-shape
        # documents, most draws landing on the rank-0 hot key.
        from .workloads.skew import (
            SkewConfig,
            build_skew_service,
            generate_skew_traffic,
        )

        skew = SkewConfig(
            patients=args.patients,
            tenants=args.tenants,
            seed=args.seed,
            num_requests=args.requests,
        )
        sequential, hashes = build_skew_service(skew)
        traffic = generate_skew_traffic(skew, hashes)
        front, _ = build_skew_service(
            skew,
            pool_size=args.pool_size,
            plan_store=_plan_store(args),
            document_store=_document_store(args),
        )
    elif getattr(args, "workload", "hospital") == "adversarial":
        # The malicious-tenant stream: rewrite bombs salted into honest
        # traffic.  Bombs are EXPECTED to be rejected query-too-complex,
        # so both replay paths below count them instead of failing.
        from .workloads.adversarial import (
            AdversarialConfig,
            build_adversarial_service,
            generate_adversarial_traffic,
        )

        adversarial_cfg = AdversarialConfig(
            patients=args.patients,
            tenants=args.tenants,
            seed=args.seed,
            num_requests=args.requests,
        )
        sequential, hashes = build_adversarial_service(adversarial_cfg)
        traffic = generate_adversarial_traffic(adversarial_cfg, hashes)
        front, _ = build_adversarial_service(
            adversarial_cfg,
            pool_size=args.pool_size,
            plan_store=_plan_store(args),
            document_store=_document_store(args),
        )
    else:
        document = generate_hospital_document(
            HospitalConfig(num_patients=args.patients, seed=args.seed)
        )
        config = TrafficConfig(
            num_tenants=args.tenants,
            num_requests=args.requests,
            seed=args.seed,
        )
        traffic = generate_traffic(config)

        # Per-request sequential baseline: each request pays its own pass.
        sequential = QueryService(document)
        register_tenants(sequential, config)

        # Front-end replay: jittered arrivals coalesce into waves.
        front = QueryService(
            document,
            pool_size=args.pool_size,
            plan_store=_plan_store(args),
            document_store=_document_store(args),
        )
        register_tenants(front, config)

    adversarial = getattr(args, "workload", "hospital") == "adversarial"
    seq_started = time.perf_counter()
    seq_answers = []
    seq_rejected = 0
    for r in traffic:
        try:
            seq_answers.append(
                sequential.submit(r.tenant, r.query, document=r.document)
            )
        except ReproError:
            if not adversarial:
                raise
            seq_rejected += 1
    seq_elapsed = time.perf_counter() - seq_started
    seq_visited = sum(a.stats.visited_elements for a in seq_answers)

    controller = AdmissionController(front, _admission_config(args))
    arrivals = ArrivalConfig(
        mean_gap=args.gap_ms / 1000.0, jitter=args.jitter, seed=args.seed
    )
    tracer, access_logger = _obs_setup(args)

    async def submit_one(r):
        request = QueryRequest(r.tenant, r.query, document=r.document)
        if tracer is None and access_logger is None:
            return await controller.submit(request)
        started = time.perf_counter()
        if tracer is not None:
            with tracer.trace(
                "request", tenant=r.tenant, query=r.query
            ) as root:
                admitted = await controller.submit(request)
        else:
            root = None
            admitted = await controller.submit(request)
        if access_logger is not None:
            from .obs.trace import Tracer as _Tracer

            trace = (
                None
                if root is None
                else _Tracer.export_trace(root.trace, root, "inline")
            )
            access_logger.record(
                tenant=r.tenant,
                query=r.query,
                duration=time.perf_counter() - started,
                trace=trace,
            )
        return admitted

    async def replay() -> list:
        from .workloads.traffic import replay_async

        return await replay_async(submit_one, traffic, arrivals)

    front_started = time.perf_counter()
    outcomes = asyncio.run(replay())
    front_elapsed = time.perf_counter() - front_started
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    front_rejected = 0
    if adversarial:
        # Structured rejections (the bombs) are the expected outcome;
        # anything else is still a genuine failure.
        front_rejected = sum(1 for e in errors if isinstance(e, ReproError))
        errors = [e for e in errors if not isinstance(e, ReproError)]
    if errors:
        raise ReproError(f"front-end replay failed: {errors[0]}")
    snapshot = front.metrics_snapshot()
    poison = None
    if adversarial:
        from .workloads.adversarial import poison_attempt

        poison = poison_attempt(front)
    sequential.close()
    front.close()
    print(
        format_series(
            f"bench-front: {len(traffic)} requests, {args.tenants} tenants, "
            f"gap {args.gap_ms:.1f} ms, max wave {args.max_wave}",
            row_labels=["per-request", "front-end"],
            columns={"wall": [seq_elapsed, front_elapsed]},
            extra={
                "visited": [seq_visited, snapshot.batch_visited],
                "waves": [len(traffic), snapshot.waves],
            },
        )
    )
    print()
    print(
        f"admission: mean wave size "
        f"{snapshot.mean_wave_size:.2f} "
        f"(largest {snapshot.largest_wave}), "
        f"visited {snapshot.batch_visited} vs {seq_visited} "
        f"per-request element(s) "
        f"(saved {seq_visited - snapshot.batch_visited})"
    )
    if adversarial:
        from .workloads.adversarial import is_bomb

        bombs = sum(1 for r in traffic if is_bomb(r))
        kinds = snapshot.rejected_kinds
        too_complex = kinds.get("query-too-complex", 0)
        if front_rejected != bombs or too_complex != bombs:
            raise ReproError(
                f"adversarial stream expected {bombs} query-too-complex "
                f"rejection(s), saw {front_rejected} "
                f"(kinds: {kinds})"
            )
        print()
        print(
            f"adversarial: {bombs} rewrite bomb(s) rejected "
            f"query-too-complex on both paths "
            f"(sequential {seq_rejected}, front-end {front_rejected}); "
            f"poison canary before={poison['before']} "
            f"poisoned={poison['poisoned']} after={poison['after']} "
            f"isolated={poison['isolated']}"
        )
        if not poison["isolated"]:
            raise ReproError("cache poisoning crossed a view fingerprint")
    print()
    print(snapshot.describe())
    if tracer is not None:
        print()
        print(
            f"tracing: {tracer.started} trace(s) started, "
            f"{tracer.store.kept} kept "
            f"(sample rate {tracer.sample_rate:g})"
        )
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Fetch and pretty-print traces (or metrics) from a live front-end."""
    import asyncio

    from .obs.trace import span_roots
    from .serve.frontend import FrontendClient

    def render_span(node: dict, depth: int) -> None:
        pad = "  " * depth
        attrs = " ".join(
            f"{key}={value}" for key, value in node["attributes"].items()
        )
        line = (
            f"{pad}{node['name']}  {node['duration_ms']:.2f} ms"
            f"{'  ' + attrs if attrs else ''}"
        )
        if node["error"]:
            line += f"  ERROR: {node['error']}"
        print(line)
        for child in node["children"]:
            render_span(child, depth + 1)

    ports = args.port if isinstance(args.port, list) else [args.port]

    async def fetch() -> int:
        if getattr(args, "fleet", False):
            # Per-worker resilience view from a fleet acceptor: liveness,
            # restart counts, and each worker's circuit-breaker state.
            client = await FrontendClient.connect(args.host, ports[0])
            try:
                reply = await client.request({"op": "fleet"})
            finally:
                await client.aclose()
            if reply.get("ok") is not True:
                print(f"error: {reply.get('message')}", file=sys.stderr)
                return 1
            workers = reply.get("workers", {})
            print(
                f"fleet: {len(workers)} worker(s), "
                f"{reply.get('restarts', 0)} restart(s), "
                f"{reply.get('reroutes', 0)} reroute(s), "
                f"{reply.get('timeouts', 0)} timeout(s)"
            )
            header = (
                f"{'worker':<12} {'pid':>7} {'port':>6} {'alive':>5} "
                f"{'restarts':>8} {'breaker':>9} {'fails':>5} "
                f"{'backoff-ms':>10}"
            )
            print(header)
            for name in sorted(workers):
                info = workers[name]
                breaker = info.get("breaker", {})
                print(
                    f"{name:<12} {info.get('pid') or '-':>7} "
                    f"{info.get('port') or '-':>6} "
                    f"{str(bool(info.get('alive'))).lower():>5} "
                    f"{info.get('restarts', 0):>8} "
                    f"{breaker.get('state', '-'):>9} "
                    f"{breaker.get('consecutive_failures', 0):>5} "
                    f"{breaker.get('backoff_ms', 0):>10.0f}"
                )
            return 0
        if args.prometheus:
            # Fetch every port's exposition and merge them into one
            # (fleet workers each export their own, labelled source).
            from .obs.export import merge_expositions

            texts = []
            for port in ports:
                client = await FrontendClient.connect(args.host, port)
                try:
                    reply = await client.prometheus()
                finally:
                    await client.aclose()
                if reply.get("ok") is not True:
                    print(f"error: {reply.get('message')}", file=sys.stderr)
                    return 1
                texts.append(reply["prometheus"])
            print(merge_expositions(texts) if len(texts) > 1 else texts[0], end="")
            return 0
        client = await FrontendClient.connect(args.host, ports[0])
        try:
            reply = await client.trace(limit=args.limit)
            if reply.get("ok") is not True:
                print(f"error: {reply.get('message')}", file=sys.stderr)
                return 1
            traces = reply.get("traces", [])
            print(
                f"{len(traces)} trace(s) "
                f"(kept {reply.get('kept')}, dropped {reply.get('dropped')}, "
                f"started {reply.get('started')})"
            )
            for trace in traces:
                print()
                print(
                    f"trace {trace['trace_id']}  {trace['duration_ms']:.2f} ms"
                    f"  kept={trace['kept']}  spans={len(trace['spans'])}"
                )
                for root in span_roots(trace):
                    render_span(root, 1)
            return 0
        finally:
            await client.aclose()

    return asyncio.run(fetch())


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a hospital document")
    gen.add_argument("--patients", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.add_argument("--pretty", action="store_true")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="validate a document against a DTD")
    val.add_argument("document")
    val.add_argument("dtd")
    val.set_defaults(func=cmd_validate)

    qry = sub.add_parser("query", help="run a (regular) XPath query")
    qry.add_argument("document")
    qry.add_argument("query")
    qry.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    qry.set_defaults(func=cmd_query)

    mat = sub.add_parser("materialize", help="materialise a view")
    mat.add_argument("spec")
    mat.add_argument("document")
    mat.add_argument("--out")
    mat.add_argument("--pretty", action="store_true")
    mat.set_defaults(func=cmd_materialize)

    vq = sub.add_parser("view-query", help="answer a query on a virtual view")
    vq.add_argument("spec")
    vq.add_argument("document")
    vq.add_argument("query")
    vq.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    vq.set_defaults(func=cmd_view_query)

    rwr = sub.add_parser("rewrite", help="show the rewriting of a view query")
    rwr.add_argument("spec")
    rwr.add_argument("query")
    rwr.add_argument("--to", choices=("xreg", "mfa"), default="mfa")
    rwr.set_defaults(func=cmd_rewrite)

    srv = sub.add_parser(
        "serve-batch", help="answer many queries in one shared document pass"
    )
    srv.add_argument("document")
    srv.add_argument("queries", nargs="+", metavar="QUERY")
    srv.add_argument("--spec", help="view-spec file; queries become view queries")
    srv.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    srv.add_argument("--limit", type=int, default=10)
    srv.add_argument(
        "--plan-dir",
        help="persistent plan store directory (restarts reuse compiled plans)",
    )
    srv.add_argument(
        "--doc-dir",
        help="persistent document-index directory (restarts reuse "
        "OptHyPE indexes; documents shared by content hash)",
    )
    srv.set_defaults(func=cmd_serve_batch)

    wrm = sub.add_parser(
        "warm", help="precompile queries into a persistent plan store"
    )
    wrm.add_argument(
        "--plan-dir", required=True, help="plan store directory to populate"
    )
    wrm.add_argument(
        "--spec", help="view-spec file the QUERY list rewrites over"
    )
    wrm.add_argument(
        "queries",
        nargs="*",
        metavar="QUERY",
        help="queries to precompile (default: the hospital traffic workload)",
    )
    wrm.add_argument(
        "--gc",
        action="store_true",
        help="first remove stale (old-format) and corrupt artifact files",
    )
    wrm.add_argument(
        "--doc-dir",
        help="document-tier directory to sweep as well when --gc is given "
        "(stale index/layout files of old format versions)",
    )
    wrm.set_defaults(func=cmd_warm)

    bsv = sub.add_parser(
        "bench-serve", help="multi-tenant traffic: sequential vs batched"
    )
    bsv.add_argument("--patients", type=int, default=60)
    bsv.add_argument("--seed", type=int, default=0)
    bsv.add_argument("--tenants", type=int, default=4)
    bsv.add_argument("--requests", type=int, default=24)
    bsv.add_argument("--wave", type=int, default=8)
    bsv.add_argument("--repeats", type=int, default=3)
    bsv.add_argument(
        "--plan-dir",
        help="persistent plan store shared by the benchmark's services",
    )
    bsv.add_argument(
        "--doc-dir",
        help="persistent document-index directory shared by the services",
    )
    bsv.set_defaults(func=cmd_bench_serve)

    sfr = sub.add_parser(
        "serve-front",
        help="boot the asyncio NDJSON front-end with admission control",
    )
    sfr.add_argument("--document", help="XML file to serve (default: generated)")
    sfr.add_argument("--spec", help="view-spec file (registers tenant 'cli')")
    sfr.add_argument("--patients", type=int, default=60)
    sfr.add_argument("--seed", type=int, default=0)
    sfr.add_argument("--tenants", type=int, default=4)
    sfr.add_argument("--host", default="127.0.0.1")
    sfr.add_argument("--port", type=int, default=7407)
    sfr.add_argument("--max-wave", type=int, default=8)
    sfr.add_argument("--max-wait-ms", type=float, default=20.0)
    sfr.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_POOL_SIZE,
        help="bound on concurrently evaluating waves/requests",
    )
    sfr.add_argument(
        "--max-pending",
        type=int,
        default=DEFAULT_MAX_PENDING,
        help="per-connection cap on in-flight queries (backpressure)",
    )
    sfr.add_argument(
        "--max-line-bytes",
        type=int,
        default=1 << 20,
        help="cap on one NDJSON request line; oversized lines get a "
        "structured invalid-request reply and the connection closes",
    )
    sfr.add_argument(
        "--faults",
        help="fault-injection plan (inline JSON or a file path); "
        "deterministic, inert unless set",
    )
    sfr.add_argument(
        "--plan-dir",
        help="persistent plan store directory (restarts start warm)",
    )
    sfr.add_argument(
        "--doc-dir",
        help="persistent document-index directory (restarts skip index builds)",
    )
    sfr.add_argument(
        "--smoke",
        action="store_true",
        help="boot on an ephemeral port, run a scripted wave, check replies",
    )
    sfr.add_argument(
        "--obs-smoke",
        action="store_true",
        help="boot traced on an ephemeral port and check the observability "
        "surfaces (traces, Prometheus exposition, access log)",
    )
    _add_obs_flags(sfr)
    sfr.set_defaults(func=cmd_serve_front)

    bfr = sub.add_parser(
        "bench-front",
        help="replay jittered traffic through admission control vs per-request",
    )
    bfr.add_argument("--patients", type=int, default=60)
    bfr.add_argument("--seed", type=int, default=0)
    bfr.add_argument("--tenants", type=int, default=4)
    bfr.add_argument("--requests", type=int, default=24)
    bfr.add_argument(
        "--workload",
        choices=("hospital", "multidoc", "skew", "adversarial"),
        default="hospital",
        help="hospital = single-document stream; multidoc = hospital + "
        "deep-recursion ontology with per-request document routing; "
        "skew = N same-shape documents behind a Zipf-hot stream; "
        "adversarial = honest traffic salted with rewrite bombs and a "
        "cache-poisoning view swap (bombs must reject query-too-complex)",
    )
    bfr.add_argument("--gap-ms", type=float, default=1.0)
    bfr.add_argument("--jitter", type=float, default=0.75)
    bfr.add_argument("--max-wave", type=int, default=8)
    bfr.add_argument("--max-wait-ms", type=float, default=30.0)
    bfr.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_POOL_SIZE,
        help="bound on concurrently evaluating waves",
    )
    bfr.add_argument(
        "--plan-dir",
        help="persistent plan store for the front-end service",
    )
    bfr.add_argument(
        "--doc-dir",
        help="persistent document-index directory for the front-end service",
    )
    _add_obs_flags(bfr)
    bfr.set_defaults(func=cmd_bench_front)

    flt = sub.add_parser(
        "serve-fleet",
        help="boot the acceptor + N-worker fleet over the multidoc workload",
    )
    flt.add_argument("--workers", type=int, default=3)
    flt.add_argument("--patients", type=int, default=60)
    flt.add_argument("--terms", type=int, default=48)
    flt.add_argument("--tenants", type=int, default=4)
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    flt.add_argument("--host", default="127.0.0.1")
    flt.add_argument("--port", type=int, default=7408)
    flt.add_argument("--max-wave", type=int, default=8)
    flt.add_argument("--max-wait-ms", type=float, default=20.0)
    flt.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="per-worker bound on concurrently evaluating waves",
    )
    flt.add_argument(
        "--plan-dir",
        help="persistent plan store directory shared by every worker",
    )
    flt.add_argument(
        "--doc-dir",
        help="persistent document-index directory shared by every worker",
    )
    flt.add_argument(
        "--access-log",
        help="per-worker NDJSON access-log path; '{worker}' expands to "
        "the worker name",
    )
    flt.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds the acceptor waits for a worker reply before "
        "rerouting the (unacknowledged) request",
    )
    flt.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive failures before a worker's circuit opens",
    )
    flt.add_argument(
        "--backoff-base",
        type=float,
        default=0.25,
        help="base seconds for breaker/restart exponential backoff",
    )
    flt.add_argument(
        "--backoff-cap",
        type=float,
        default=8.0,
        help="ceiling seconds for breaker/restart exponential backoff",
    )
    flt.add_argument(
        "--faults",
        help="fault-injection plan (inline JSON or a file path); "
        "exported to workers via the environment",
    )
    flt.set_defaults(func=cmd_serve_fleet)

    obs = sub.add_parser(
        "obs",
        help="pretty-print traces or metrics from a running serve-front",
    )
    obs.add_argument("--host", default="127.0.0.1")
    obs.add_argument(
        "--port",
        type=int,
        nargs="+",
        default=[7407],
        help="front-end port(s); with --prometheus, several ports are "
        "fetched and merged into one exposition",
    )
    obs.add_argument(
        "--limit", type=int, default=None, help="newest N traces only"
    )
    obs.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of traces",
    )
    obs.add_argument(
        "--fleet",
        action="store_true",
        help="print the fleet resilience view (liveness, restarts, "
        "per-worker circuit-breaker state) from a fleet acceptor",
    )
    obs.set_defaults(func=cmd_obs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
