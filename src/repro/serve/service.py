"""The multi-tenant secure query service (the paper's deployment scenario).

One :class:`QueryService` serves one *default* document plus any number
of additional documents registered through :meth:`QueryService.add_document`
— every request may name the content hash of the document it wants via
``QueryRequest.document`` (``None`` keeps the pre-multi-document
behaviour: the default document).  Each *tenant* (user group) is bound to
a security view at registration time and to a *document catalog*: the
content hashes its view may be asked against.  Every request is
authorised against both bindings, so a tenant can never evaluate outside
its own window on the data — the access-control guarantee of Section 1 —
nor against a document its catalog does not name (a
:class:`repro.errors.DocumentError`, counted under the ``"document"``
rejection kind).  A tenant bound to ``view=None`` is trusted with direct
(unrewritten) regular-XPath access to its cataloged sources.

One request path with three entry points:

* :meth:`QueryService.submit` — one request, raising on rejection.
* :meth:`QueryService.submit_many` — many requests, all-or-nothing.
* :meth:`QueryService.submit_wave` — one admission wave, with a
  per-request outcome (answer or rejection) for every slot.

Each admits its requests the same way (authorise, then fetch or compile
the plan from the shared :class:`repro.serve.cache.PlanCache`) into a
:class:`Grant`, and runs the grants per document through one
:class:`repro.serve.batch.BatchEvaluator` pass — K queries cost one
shared traversal instead of K, and a single request is a one-grant
pass.  One helper turns each evaluated grant into its spans, metrics,
session touch and :class:`QueryAnswer`.

Concurrency: compiled plans are immutable-after-warmup and thread-safe
(:class:`repro.hype.core.CompiledPlan`), so evaluation needs no global
lock — every run is dispatched to a bounded
:class:`repro.serve.pool.ExecutionPool`, letting independent waves and
requests overlap while queue-wait and evaluation time are measured
separately.
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import dataclass

from ..compile.store import PlanStore
from ..docstore.document import IndexedDocument
from ..docstore.store import DocumentStore
from ..engine.smoqe import QueryAnswer
from ..errors import (
    AuthorizationError,
    DeadlineError,
    DocumentError,
    QueryTooComplexError,
    ReproError,
    ServiceError,
    ViewError,
)
from ..guard import Deadline, min_deadline
from ..hype.api import ALGORITHMS, HYPE
from ..obs.trace import add_span, span
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import XMLTree
from .batch import BatchEvaluator, BatchStats
from .cache import CachedPlan, PlanCache
from .metrics import MetricsSnapshot, ServiceMetrics
from .pool import DEFAULT_POOL_SIZE, ExecutionPool
from .session import Session, SessionRegistry


@dataclass
class TenantBinding:
    """A tenant's authorisation record: view, algorithms and catalog.

    ``documents`` is the tenant's document catalog — the content hashes
    its view may be asked against.  Registration resolves the
    backward-compatible default (``None`` at registration time) to a
    one-entry catalog holding the service's default document.
    """

    tenant: str
    view: str | None
    algorithms: tuple[str, ...] = ALGORITHMS
    documents: tuple[str, ...] = ()


@dataclass
class QueryRequest:
    """One unit of work for :meth:`QueryService.submit_many`.

    ``document`` selects which cataloged document the query runs over,
    by content hash; ``None`` means the service's default document.

    ``deadline_ms`` bounds the request end to end: it is armed into a
    :class:`repro.guard.Deadline` at admission, checked by the pool
    before evaluation starts, and enforced by the kernel's cooperative
    checkpoint mid-descent — an expired request is rejected (the
    structured ``deadline`` kind), never answered partially.  A caller
    that wants queue/admission time counted from an earlier instant (the
    front-end arms at protocol arrival) sets ``deadline`` directly;
    an armed ``deadline`` takes precedence over ``deadline_ms``.
    """

    tenant: str
    query: str | ast.Path
    algorithm: str | None = None
    session_id: str | None = None
    document: str | None = None
    deadline_ms: float | None = None
    deadline: Deadline | None = None

    def arm(self) -> Deadline | None:
        """The request's armed deadline (arming ``deadline_ms`` now)."""
        if self.deadline is not None:
            return self.deadline
        if self.deadline_ms is not None:
            return Deadline.after_ms(self.deadline_ms)
        return None


@dataclass
class WaveResult:
    """Per-request outcomes of one admission wave.

    Unlike :meth:`QueryService.submit_many` (all-or-nothing), a wave
    keeps going when individual requests fail authorisation or parsing:
    ``outcomes`` holds, in request order, either the request's
    :class:`QueryAnswer` or the :class:`repro.errors.ReproError` that
    rejected it.  ``stats`` covers the shared evaluation pass the
    admitted requests ran in.
    """

    outcomes: list[QueryAnswer | ReproError]
    stats: BatchStats

    @property
    def admitted(self) -> int:
        """Requests that reached the shared evaluation pass."""
        return sum(
            not isinstance(outcome, ReproError) for outcome in self.outcomes
        )

    @property
    def rejected(self) -> int:
        """Requests rejected before evaluation."""
        return len(self.outcomes) - self.admitted


@dataclass
class Grant:
    """One admitted request: everything evaluation and accounting need.

    Built by :meth:`QueryService._admit` once authorisation and planning
    passed; ``document`` is the authorised content hash and ``deadline``
    the armed budget (``None`` = unbounded).
    """

    request: QueryRequest
    binding: TenantBinding
    algorithm: str
    plan: CachedPlan
    query_text: str
    session: Session | None
    document: str
    deadline: Deadline | None

    def live(self) -> bool:
        """Whether the deadline still leaves time to evaluate."""
        return self.deadline is None or not self.deadline.expired()


def _in(ctx: contextvars.Context | None, fn, *args, **kwargs):
    """Call ``fn`` inside ``ctx`` when given, else in the calling context."""
    if ctx is None:
        return fn(*args, **kwargs)
    return ctx.run(fn, *args, **kwargs)


def _total(parts: list[BatchStats]) -> BatchStats:
    """The summed counters of several passes."""
    return BatchStats(
        lanes=sum(part.lanes for part in parts),
        visited_elements=sum(part.visited_elements for part in parts),
        skipped_subtrees=sum(part.skipped_subtrees for part in parts),
        sequential_visited=sum(part.sequential_visited for part in parts),
    )


def rejection_kind(error: ReproError) -> str:
    """Classify a rejected request for the metrics counters."""
    if isinstance(error, DeadlineError):
        return "deadline"
    if isinstance(error, QueryTooComplexError):
        return "query-too-complex"
    if isinstance(error, DocumentError):
        return "document"
    if isinstance(error, AuthorizationError):
        return "authorization"
    if isinstance(error, ServiceError):
        return "service"
    return "invalid-query"


class QueryService:
    """Serve many tenants' queries over cataloged in-memory documents."""

    def __init__(
        self,
        document: XMLTree | IndexedDocument,
        default_algorithm: str = HYPE,
        cache: PlanCache | None = None,
        cache_capacity: int = 256,
        plan_store: PlanStore | None = None,
        document_store: DocumentStore | None = None,
        pool: ExecutionPool | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
    ) -> None:
        if default_algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {default_algorithm!r}")
        # The document tier: every request path works over a shared
        # IndexedDocument (columnar layout for the hot loop, OptHyPE
        # indexes built exactly once).  With a ``document_store`` the
        # document is registered under its content address and request
        # paths re-resolve it through the store — so the store's
        # hits/index_builds counters prove the sharing, and a store with
        # a persistent tier (``--doc-dir``) lets a restart skip index
        # construction entirely.
        self._document_store = document_store
        if isinstance(document, IndexedDocument):
            self._doc = document
        elif document_store is not None:
            self._doc = document_store.adopt(document)
        else:
            self._doc = IndexedDocument(document)
        self.document = self._doc.tree
        # The serveable-document registry: content hash -> strong
        # reference.  The construction-time document is the *default*
        # (requests without a ``document`` field resolve to it); every
        # additional document enters through :meth:`add_document`.
        self._default_hash = self._doc.content_hash
        self._documents: dict[str, IndexedDocument] = {
            self._default_hash: self._doc
        }
        self.default_algorithm = default_algorithm
        # ``plan_store`` wires the on-disk tier under a cache this service
        # creates (a restart against the same directory starts warm); an
        # explicitly passed ``cache`` keeps its own store configuration.
        self.cache = (
            cache
            if cache is not None
            else PlanCache(cache_capacity, store=plan_store)
        )
        self.sessions = SessionRegistry()
        self.metrics = ServiceMetrics()
        self._views: dict[str, ViewSpec] = {}
        self._tenants: dict[str, TenantBinding] = {}
        # Compiled plans are thread-safe, so there is no evaluation lock:
        # every run goes through a bounded worker pool (pass ``pool`` to
        # share one pool between services over the same hardware).
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ExecutionPool(pool_size)

    def close(self) -> None:
        """Release the evaluation workers (only a pool this service
        created; a shared pool passed in stays up for its other users).
        Idempotent; the service must not be used afterwards."""
        if self._owns_pool:
            self.pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------
    def register_view(self, name: str, spec: ViewSpec) -> None:
        """Register a security view; replacing one drops its live plans.

        Cache keys carry the spec's content fingerprint, so plans of a
        replaced registration could never be served to the new one — the
        invalidation merely releases their memory early.
        """
        old = self._views.get(name)
        if old is not None and old.fingerprint() != spec.fingerprint():
            self.cache.invalidate_view(old.fingerprint())
        self._views[name] = spec

    def add_document(
        self, document: XMLTree | IndexedDocument
    ) -> str:
        """Register an additional serveable document; returns its hash.

        With a shared :class:`DocumentStore` the document is adopted
        there first, so every service (and every fleet worker) sharing
        the store resolves one copy and one index build.  Re-adding a
        content-identical document is a no-op returning the same hash.
        """
        if isinstance(document, IndexedDocument):
            doc = document
            if self._document_store is not None:
                doc = self._document_store.adopt(document.tree)
        elif self._document_store is not None:
            doc = self._document_store.adopt(document)
        else:
            doc = IndexedDocument(document)
        content_hash = doc.content_hash
        self._documents.setdefault(content_hash, doc)
        return content_hash

    def documents(self) -> dict[str, str | None]:
        """Serveable content hashes, the default flagged as ``"default"``."""
        return {
            content_hash: "default" if content_hash == self._default_hash else None
            for content_hash in sorted(self._documents)
        }

    @property
    def default_document_hash(self) -> str:
        return self._default_hash

    def register_tenant(
        self,
        tenant: str,
        view: str | None,
        algorithms: tuple[str, ...] | None = None,
        documents: tuple[str, ...] | None = None,
    ) -> TenantBinding:
        """Bind ``tenant`` to ``view`` (``None`` = trusted direct access).

        An explicitly empty ``algorithms`` tuple is a deny-all binding.
        ``documents`` is the tenant's catalog of content hashes; ``None``
        (the backward-compatible default) resolves to a one-entry catalog
        holding the default document, and every cataloged hash must
        already be serveable (see :meth:`add_document`).
        """
        if view is not None and view not in self._views:
            raise ViewError(f"unknown view {view!r}")
        if documents is None:
            catalog: tuple[str, ...] = (self._default_hash,)
        else:
            catalog = tuple(documents)
            for content_hash in catalog:
                if content_hash not in self._documents:
                    raise DocumentError(
                        f"cannot catalog unknown document {content_hash!r}"
                    )
        binding = TenantBinding(
            tenant,
            view,
            ALGORITHMS if algorithms is None else tuple(algorithms),
            catalog,
        )
        self._tenants[tenant] = binding
        return binding

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def views(self) -> list[str]:
        return sorted(self._views)

    def open_session(self, tenant: str) -> Session:
        self._binding(tenant)  # authorise before handing out a session
        return self.sessions.open(tenant)

    # ------------------------------------------------------------------
    # Authorisation
    # ------------------------------------------------------------------
    def _binding(self, tenant: str) -> TenantBinding:
        binding = self._tenants.get(tenant)
        if binding is None:
            raise AuthorizationError(f"unknown tenant {tenant!r}")
        return binding

    def _grant(self, request: QueryRequest) -> Grant:
        """Authorise and plan ``request``; return its :class:`Grant`.

        The request's deadline is armed here (unless the caller armed it
        earlier, e.g. at protocol arrival) and a request that arrives
        already expired is rejected before any authorisation or compile
        work is spent on it.

        ``request.document`` (a content hash, or ``None`` for the
        default) is checked against the tenant's catalog — an
        uncataloged hash is a :class:`DocumentError` whether or not the
        service could serve it, so a tenant cannot probe which documents
        exist outside its catalog.

        The :class:`Session` object (not just its id) is captured here so
        accounting after evaluation touches the admitted session directly
        — a session closed mid-flight must not fail a request (let alone
        a whole wave) that was admitted while it was open.
        """
        tenant = request.tenant
        deadline = request.arm()
        if deadline is not None and deadline.expired():
            raise DeadlineError("deadline expired before admission")
        binding = self._binding(tenant)
        algo = request.algorithm or self.default_algorithm
        if algo not in ALGORITHMS:
            raise ServiceError(f"unknown algorithm {algo!r}")
        if algo not in binding.algorithms:
            raise AuthorizationError(
                f"tenant {tenant!r} may not use algorithm {algo!r}"
            )
        doc_hash = request.document
        if doc_hash is None:
            doc_hash = self._default_hash
        if doc_hash not in binding.documents:
            raise DocumentError(
                f"document {doc_hash!r} is not in tenant {tenant!r}'s catalog"
            )
        session = None
        if request.session_id is not None:
            session = self.sessions.get(request.session_id)
            if session.tenant != tenant:
                raise AuthorizationError(
                    f"session {request.session_id!r} does not belong to "
                    f"{tenant!r}"
                )
        plan, query_text = self._plan(binding, request.query)
        return Grant(
            request, binding, algo, plan, query_text, session, doc_hash,
            deadline,
        )

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def _plan(
        self, binding: TenantBinding, query: str | ast.Path
    ) -> tuple[CachedPlan, str]:
        query_ast = parse_query(query) if isinstance(query, str) else query
        spec = None if binding.view is None else self._views[binding.view]
        plan = self.cache.plan(spec, query_ast)
        return plan, unparse(query_ast)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query: str | ast.Path,
        algorithm: str | None = None,
        session_id: str | None = None,
        document: str | None = None,
        deadline_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> QueryAnswer:
        """Authorise, plan, evaluate and account one request.

        ``deadline_ms`` (or a pre-armed ``deadline``) bounds the whole
        request; expiry at any stage — admission, pool queue, or
        mid-descent — raises :class:`repro.errors.DeadlineError`,
        counted under the ``deadline`` rejection kind, and no partial
        answer is ever returned.  The request runs as a one-grant group
        pass; unlike the batch entry points it records no batch or wave.
        """
        grant = self._admit(
            QueryRequest(
                tenant,
                query,
                algorithm,
                session_id,
                document,
                deadline_ms,
                deadline,
            )
        )
        (answer,), _stats = self._evaluate_group(
            grant.document, [grant], [None]
        )
        if isinstance(answer, ReproError):
            raise answer
        return answer

    def submit_many(
        self, requests: list[QueryRequest]
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Serve many requests through shared per-document passes.

        Returns answers in request order plus the shared-pass counters.
        Authorisation failures raise before any evaluation starts, so a
        batch is all-or-nothing.  Requests resolving to the same
        ``(plan, algorithm)`` over the same document share one lane —
        their answers are computed once and fanned out — so the reported
        ``sequential_visited`` (what N per-request passes would have
        cost) also counts the avoided duplicate evaluations.  Requests
        naming different cataloged documents are grouped: one shared
        traversal per distinct document.
        """
        if not requests:
            return [], BatchStats()
        grants = [self._admit(request) for request in requests]
        answers, stats = self._evaluate_grants(grants)
        for answer in answers:
            # Deadline expiry mid-batch surfaces as that request's
            # rejection; submit_many keeps all-or-nothing semantics.
            if isinstance(answer, ReproError):
                raise answer
        return answers, stats

    def submit_wave(
        self,
        requests: list[QueryRequest],
        contexts: list[contextvars.Context | None] | None = None,
    ) -> WaveResult:
        """Serve one admission wave with per-request outcomes.

        The wave-friendly sibling of :meth:`submit_many`: requests that
        fail authorisation or parsing are rejected *individually* (counted
        in the metrics and returned as that slot's outcome) while every
        admitted request still shares one evaluation pass.  This is the
        entry point the async front-end dispatches coalesced waves
        through.

        ``contexts`` (parallel to ``requests``) carries each request's
        captured :mod:`contextvars` context — when a slot has one, its
        admission (plan/compile spans) runs inside it and the shared
        pass's timings are mirrored into it, so every request's trace
        shows the full wave it rode in.  The per-slot ``ctx.run`` calls
        are sequential in this one thread: a Context object must never
        be entered concurrently.
        """
        if not requests:
            return WaveResult([], BatchStats())
        if contexts is None:
            contexts = [None] * len(requests)
        outcomes: list[QueryAnswer | ReproError] = [None] * len(requests)
        grants: list[Grant] = []
        grant_contexts: list[contextvars.Context | None] = []
        admitted_slots: list[int] = []
        for slot, (request, ctx) in enumerate(zip(requests, contexts)):
            try:
                grant = _in(ctx, self._admit, request)
            except ReproError as error:
                outcomes[slot] = error
                continue
            grants.append(grant)
            grant_contexts.append(ctx)
            admitted_slots.append(slot)
        if grants:
            answers, stats = self._evaluate_grants(grants, grant_contexts)
        else:
            answers, stats = [], BatchStats()
        for slot, answer in zip(admitted_slots, answers):
            outcomes[slot] = answer
        self.metrics.record_wave(len(requests), admitted=len(grants))
        return WaveResult(outcomes, stats)

    # ------------------------------------------------------------------
    def _resolve_document(
        self, content_hash: str | None = None, uses: int = 1
    ) -> IndexedDocument:
        """The request path's document lookup (``None`` = default).

        With a document store the lookup goes through the store by
        content address — counting a ``doc_hits`` per served request
        (a batched wave resolves once with ``uses`` = its size), the
        observable proof that every tenant/lane/wave shares one parsed
        document and one index build — falling back to this service's
        strong reference if the store has evicted the entry.
        """
        if content_hash is None:
            content_hash = self._default_hash
        store = self._document_store
        with span("docstore.resolve", uses=uses) as resolve_span:
            if store is not None:
                doc = store.resolve(content_hash, uses=uses)
                if doc is not None:
                    if resolve_span is not None:
                        resolve_span.set(source="store")
                    return doc
            if resolve_span is not None:
                resolve_span.set(source="local")
            local = self._documents.get(content_hash)
            if local is None:
                # _grant only admits cataloged hashes, and catalogs
                # only name registered documents — reaching here means
                # the store *and* the registry lost the entry.
                raise DocumentError(
                    f"document {content_hash!r} is no longer serveable"
                )
            return local

    def _admit(self, request: QueryRequest) -> Grant:
        """The pre-evaluation gate: :meth:`_grant`, with every rejection —
        parse and rewrite failures included — counted under its kind
        before it raises."""
        try:
            return self._grant(request)
        except ReproError as error:
            self.metrics.record_rejection(
                rejection_kind(error), tenant=request.tenant
            )
            raise

    def _evaluate_grants(
        self,
        grants: list[Grant],
        contexts: list[contextvars.Context | None] | None = None,
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Run admitted grants through shared per-document passes.

        Grants are partitioned by the document their request was
        authorised against: each distinct document costs exactly one
        shared traversal (the common single-document wave stays one
        pass, unchanged), and the per-group answers are merged back into
        request order with the group counters summed into one
        :class:`BatchStats` for the wave.
        """
        if contexts is None:
            contexts = [None] * len(grants)
        groups: dict[str, list[int]] = {}
        for index, grant in enumerate(grants):
            groups.setdefault(grant.document, []).append(index)
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        group_stats = []
        for doc_hash, indices in groups.items():
            group_answers, stats = self._evaluate_group(
                doc_hash,
                [grants[index] for index in indices],
                [contexts[index] for index in indices],
            )
            for index, answer in zip(indices, group_answers):
                answers[index] = answer
            group_stats.append(stats)
        stats = _total(group_stats)
        self.metrics.record_batch(
            len(grants), stats.visited_elements, stats.sequential_visited
        )
        return answers, stats

    def _evaluate_group(
        self,
        doc_hash: str,
        grants: list[Grant],
        contexts: list[contextvars.Context | None],
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Run one document's admitted grants, deadline-aware.

        Grants whose deadline already expired are rejected up front (the
        structured ``deadline`` kind) without costing the wave anything.
        The rest share one pass armed with the *earliest* live deadline;
        if that fires mid-pass the shared cursors are discarded wholesale
        — no partial answers can escape — and every live grant is retried
        per-lane under its OWN deadline, so one tight-deadline request
        cannot sink its wavemates.
        """
        answers: list[QueryAnswer | ReproError | None] = [None] * len(grants)
        live: list[int] = []
        for index, grant in enumerate(grants):
            if grant.live():
                live.append(index)
            else:
                answers[index] = self._reject_deadline(
                    grant, "deadline expired before evaluation"
                )
        if not live:
            return answers, BatchStats()
        live_grants = [grants[index] for index in live]
        live_contexts = [contexts[index] for index in live]
        resolve_start = time.perf_counter()
        doc = self._resolve_document(doc_hash, uses=len(live_grants))
        resolved = (resolve_start, time.perf_counter())
        try:
            group_answers, stats = self._shared_pass(
                doc,
                live_grants,
                live_contexts,
                min_deadline(grant.deadline for grant in live_grants),
                resolved=resolved,
            )
        except DeadlineError:
            group_answers, stats = self._lane_fallback(
                doc, live_grants, live_contexts
            )
        for index, answer in zip(live, group_answers):
            answers[index] = answer
        return answers, stats

    def _reject_deadline(self, grant: Grant, message: str) -> DeadlineError:
        """Build + count one structured ``deadline`` rejection."""
        self.metrics.record_rejection("deadline", tenant=grant.request.tenant)
        return DeadlineError(message)

    def _shared_pass(
        self,
        doc: IndexedDocument,
        grants: list[Grant],
        contexts: list[contextvars.Context | None],
        deadline: Deadline | None,
        resolved: tuple[float, float] | None = None,
        **evaluate_fields,
    ) -> tuple[list[QueryAnswer], BatchStats]:
        """Run one document's admitted grants through one shared pass.

        Requests resolving to the same compiled plan — e.g. two tenants
        bound to one view posing the same query — share one lane, so the
        plan's memo tables are filled once and read by every request.

        ``deadline`` arms the pool's pre-eval drop and the kernel
        checkpoint; expiry raises :class:`repro.errors.DeadlineError`
        out of this method with no cursor state surviving.  ``resolved``
        is the ``(start, end)`` of the document resolution this pass
        rode on, mirrored into each request's trace; ``evaluate_fields``
        are extra attributes for each request's ``evaluate`` span.
        """
        lane_of: dict[int, int] = {}
        lanes = []
        request_lane: list[int] = []
        for grant in grants:
            compiled = grant.plan.compiled(grant.algorithm, doc)
            lane = lane_of.get(id(compiled))
            if lane is None:
                lane = lane_of[id(compiled)] = len(lanes)
                lanes.append(compiled)
            request_lane.append(lane)
        pooled = self.pool.execute(
            lambda: BatchEvaluator(lanes).run(
                doc.tree.root, layout=doc.layout, deadline=deadline
            ),
            deadline=deadline,
        )
        outcome = pooled.result
        answers = [
            self._answer(
                grant,
                outcome.results[lane],
                pooled,
                ctx,
                len(grants),
                resolved,
                wave=len(grants),
                lanes=len(lanes),
                lane=lane,
                visited=outcome.stats.visited_elements,
                **evaluate_fields,
            )
            for grant, lane, ctx in zip(grants, request_lane, contexts)
        ]
        stats = BatchStats(
            lanes=len(lanes),
            visited_elements=outcome.stats.visited_elements,
            skipped_subtrees=outcome.stats.skipped_subtrees,
            sequential_visited=sum(a.stats.visited_elements for a in answers),
        )
        return answers, stats

    def _lane_fallback(
        self,
        doc: IndexedDocument,
        grants: list[Grant],
        contexts: list[contextvars.Context | None],
    ) -> tuple[list[QueryAnswer | ReproError], BatchStats]:
        """Rerun each grant as its own pass, under its own deadline.

        The shared pass aborted on the wave's earliest deadline; here
        every grant gets a fresh cursor and its own budget, so slower
        deadlines still complete and expired ones become structured
        ``deadline`` rejections — never partial answers (the aborted
        pass's cursors were discarded with the exception).
        """
        answers: list[QueryAnswer | ReproError] = []
        lane_stats = []
        for grant, ctx in zip(grants, contexts):
            if not grant.live():
                answers.append(
                    self._reject_deadline(
                        grant, "deadline expired before evaluation"
                    )
                )
                continue
            try:
                (answer,), stats = self._shared_pass(
                    doc, [grant], [ctx], grant.deadline, fallback="deadline"
                )
            except DeadlineError:
                answers.append(
                    self._reject_deadline(
                        grant, "deadline expired mid-evaluation"
                    )
                )
                continue
            answers.append(answer)
            lane_stats.append(stats)
        return answers, _total(lane_stats)

    def _answer(
        self,
        grant: Grant,
        result,
        pooled,
        ctx: contextvars.Context | None,
        share: int,
        resolved: tuple[float, float] | None,
        **evaluate_fields,
    ) -> QueryAnswer:
        """Account one evaluated request and build its answer.

        The pass's phases are recorded as spans in the request's trace —
        inside ``ctx`` when the request carries one, else in the calling
        context (where the document resolution already recorded its own
        span) — its even ``share`` of the pass's queue-wait and
        evaluation time goes to the metrics, and the session captured at
        admission is touched directly, so a ``close()`` racing the pass
        cannot fail a request whose answer was already computed.
        """
        if ctx is not None and resolved is not None:
            ctx.run(add_span, "docstore.resolve", *resolved, uses=share)
        _in(ctx, add_span, "queue.wait", pooled.enqueued, pooled.started)
        _in(
            ctx,
            add_span,
            "evaluate",
            pooled.started,
            pooled.finished,
            algorithm=grant.algorithm,
            document=grant.document,
            answers=len(result.answers),
            **evaluate_fields,
        )
        self.metrics.record_request(
            grant.request.tenant,
            pooled.queue_wait / share,
            pooled.eval_seconds / share,
            len(result.answers),
        )
        if grant.session is not None:
            grant.session.touch(grant.query_text)
        return QueryAnswer(
            result.answers,
            grant.plan.mfa,
            result.stats,
            grant.algorithm,
            view=grant.binding.view,
            query_text=grant.query_text,
            document=grant.document,
        )

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> MetricsSnapshot:
        """Counters + cache/compile stats + pool gauges at this instant."""
        store = self.cache.store
        # Document-tier counters: the shared store's when one is wired
        # (its hits/misses span every service sharing it), otherwise the
        # private stats block of this service's own document.
        doc_stats = (
            self._document_store.stats
            if self._document_store is not None
            else self._doc.stats
        )
        return self.metrics.snapshot(
            self.cache.stats,
            compile=self.cache.compiler.metrics.snapshot(),
            store=None if store is None else store.stats,
            doc_store=doc_stats.snapshot(),
            in_flight=self.pool.in_flight,
            peak_in_flight=self.pool.peak_in_flight,
            pool_size=self.pool.size,
        )
