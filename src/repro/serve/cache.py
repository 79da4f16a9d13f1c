"""Two-tier plan cache: in-memory LRU over an optional on-disk store.

Rewriting a view query into an MFA (Section 5) dominates per-request cost
once documents are held in memory, so compiled plans are cached — and
since the compilation pipeline became a first-class subsystem
(:mod:`repro.compile`), they are cached under collision-safe keys and can
outlive the process:

* **L1** — the bounded, thread-safe LRU of live :class:`CachedPlan`
  values (one thread-safe :class:`repro.hype.core.CompiledPlan` per
  algorithm, shared by every tenant, lane and pool worker);
* **L2** — an optional :class:`repro.compile.store.PlanStore` directory
  of serialised :class:`repro.compile.artifact.PlanArtifact` records.
  An L1 miss consults the store and rehydrates before compiling, and
  every fresh compilation is written back — so a service restarted
  against a populated store performs **zero MFA rewrites** for
  previously-seen ``(view, query)`` pairs.

Keys are ``(view_fingerprint, normalized_query, format_version)``:
the fingerprint is a content hash of the :class:`ViewSpec`
(:meth:`repro.views.spec.ViewSpec.fingerprint`, ``None`` for direct
source queries), so two holders binding the same view *name* to
different specifications can never share a plan — the old manual
spec-identity check is gone because the key itself is collision-safe.
The flip side is deliberate too: two registrations of *identical* specs
(same content, different objects or names) share one plan and its warm
memo tables.

The cache is the single plan store for both the stand-alone
:class:`repro.engine.smoqe.SMOQE` engine and the multi-tenant
:class:`repro.serve.service.QueryService`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, TypeVar

from ..automata.mfa import MFA
from ..compile.artifact import PlanArtifact, PlanKey
from ..compile.pipeline import NormalizedQuery, QueryCompiler
from ..compile.store import PlanStore
from ..hype.core import CompiledPlan
from ..obs.trace import span
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.normalize import normal_form
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import XMLTree

V = TypeVar("V")

#: Cache key: (view fingerprint or None for direct source queries,
#: normalised query text, plan format version).
CacheKey = PlanKey


def normalized_query_text(query: str | ast.Path) -> str:
    """Canonical text of a query, used as the cache-key component.

    Normalisation is semantics-preserving (desugar ``//``, star/union
    simplification, left re-association), so syntactic variants of one
    query map to one plan.  This text is part of the on-disk key scheme
    (see :mod:`repro.compile.artifact`), pinned by golden tests.
    """
    query_ast = parse_query(query) if isinstance(query, str) else query
    return unparse(normal_form(query_ast))


def plan_key(spec: ViewSpec | None, query: str | ast.Path) -> CacheKey:
    """The collision-safe key ``(spec, query)`` resolves to.

    Delegates to :meth:`repro.compile.pipeline.QueryCompiler.plan_key` —
    the one authoritative constructor of the persistent key scheme.
    """
    return QueryCompiler().plan_key(spec, query)


@dataclass
class CachedPlan:
    """The cache's value type: a compiled MFA plus its executable plans.

    Both :class:`repro.engine.smoqe.SMOQE` and
    :class:`repro.serve.service.QueryService` store :class:`CachedPlan`
    values, so one :class:`PlanCache` can be shared between an engine and
    a service over the same document — and, because
    :class:`repro.hype.core.CompiledPlan` is thread-safe, the same
    compiled plan serves every tenant bound to the view and every worker
    of the evaluation pool at once.  Plans are built lazily per algorithm
    (under a per-entry lock so a cold algorithm is compiled exactly once)
    and reused across runs: their memo tables keep paying off.

    ``artifact`` is the serialisable record this plan came from (or was
    written to) — ``None`` for values inserted through the generic
    ``put``/``get_or_create`` API.
    """

    mfa: MFA
    artifact: PlanArtifact | None = None
    plans: dict[str, CompiledPlan] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def compiled(
        self, algorithm: str, document: XMLTree, indexes: dict
    ) -> CompiledPlan:
        """The (cached) compiled plan realising ``algorithm``.

        ``indexes`` is the caller's per-document index cache
        (``compressed -> Index``), shared across plans; construction
        delegates to :meth:`repro.hype.core.CompiledPlan.for_algorithm`,
        the same rehydration path a persisted artifact takes.  When the
        backing artifact carries a dense kernel closure (format v3),
        every algorithm variant is preloaded from it — a rehydrated
        plan's hot loop starts filled.

        The memo is keyed per ``(algorithm, document)``: an executable
        plan embeds document-specific state (the OptHyPE index, the
        dense kernel's interned mask tables), so one cached MFA serving
        a multi-document service must realise a separate executable per
        document it runs over.  The document key is the content hash
        when the caller's index cache is an
        :class:`repro.docstore.IndexedDocument` (stable across store
        evictions), the tree's identity otherwise.
        """
        doc_key = getattr(indexes, "content_hash", None) or str(id(document))
        key = f"{algorithm}@{doc_key}"
        plan = self.plans.get(key)
        if plan is not None:
            return plan
        with self._lock:
            plan = self.plans.get(key)
            if plan is not None:
                return plan
            artifact = self.artifact
            plan = CompiledPlan.for_algorithm(
                self.mfa,
                algorithm,
                document,
                indexes,
                kernel=artifact.kernel if artifact is not None else None,
            )
            self.plans[key] = plan
            return plan


@dataclass
class CacheStats:
    """Tiered hit/miss/eviction counters (a copy is a snapshot).

    ``hits`` counts L1 (in-memory) hits; ``l2_hits`` counts lookups
    served by rehydrating an artifact from the on-disk store; ``misses``
    counts full misses, i.e. fresh compilations.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    l2_hits: int = 0

    @property
    def l1_hits(self) -> int:
        """Alias of ``hits`` under its tiered name."""
        return self.hits

    @property
    def total_hits(self) -> int:
        """Lookups that avoided compilation (either tier)."""
        return self.hits + self.l2_hits

    @property
    def lookups(self) -> int:
        return self.total_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when unused)."""
        total = self.lookups
        return self.total_hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.l2_hits)


class PlanCache:
    """A bounded LRU of compiled plans over an optional disk tier.

    The L1 map takes one internal lock, so the cache is safe to share
    between serving threads.  :meth:`plan` — the high-level entry every
    engine/service lookup goes through — resolves a cold key (store
    probe, compilation, write-back) *outside* that lock under a per-key
    resolution gate: a key is still loaded/compiled at most once (no
    thundering herd), but L1 hits for other keys never queue behind one
    key's disk I/O or rewrite.  The generic ``get``/``put``/
    ``get_or_create`` API of the L1 tier remains for callers managing
    their own values (its factory runs inside the lock, as before).
    """

    def __init__(
        self,
        capacity: int = 256,
        store: PlanStore | None = None,
        compiler: QueryCompiler | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.compiler = compiler if compiler is not None else QueryCompiler()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()
        #: key -> gate lock held by the thread currently resolving it.
        self._resolving: dict[Hashable, threading.Lock] = {}

    # ------------------------------------------------------------------
    # The compilation-aware two-tier lookup
    # ------------------------------------------------------------------
    def plan(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> CachedPlan:
        """Fetch or build the plan for ``query`` over ``spec``.

        Lookup order: L1 (live plans) → L2 (artifact store, when
        configured) → the compilation pipeline.  Rehydrated and freshly
        compiled plans are promoted into L1; fresh compilations are also
        written back to the store, so every process sharing the
        directory — and every future restart — starts warm.
        """
        with span("plan") as plan_span:
            normalized = self.compiler.normalize(query)
            key = self.compiler.plan_key(spec, normalized)
            while True:
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self._stats.hits += 1
                        if plan_span is not None:
                            plan_span.set(tier="l1")
                        return entry  # type: ignore[return-value]
                    gate = self._resolving.get(key)
                    if gate is None:
                        # We own this key's resolution; the gate is released
                        # (and removed) once the entry is published.
                        gate = self._resolving[key] = threading.Lock()
                        gate.acquire()
                        break
                # Someone else is resolving this key: wait for their gate,
                # then re-check L1 (or take over if they failed).
                with gate:
                    pass
            try:
                return self._resolve(key, spec, normalized, plan_span)
            finally:
                with self._lock:
                    self._resolving.pop(key, None)
                gate.release()

    def _resolve(
        self,
        key: Hashable,
        spec: ViewSpec | None,
        normalized: NormalizedQuery,
        plan_span=None,
    ) -> CachedPlan:
        """Store probe + compile + write-back for one cold key (gated)."""
        if self.store is not None:
            artifact = self.store.load(key)
            if artifact is not None:
                plan = CachedPlan(artifact.mfa, artifact=artifact)
                with self._lock:
                    self._stats.l2_hits += 1
                    self._store(key, plan)
                if plan_span is not None:
                    plan_span.set(tier="l2")
                return plan
        fresh: PlanArtifact = self.compiler.compile(spec, normalized)
        plan = CachedPlan(fresh.mfa, artifact=fresh)
        with self._lock:
            self._stats.misses += 1
            self._store(key, plan)
        if plan_span is not None:
            plan_span.set(tier="compile")
        # Write-back after publication: the save is atomic and idempotent,
        # so waiters (already served from L1) never queue behind it.
        if self.store is not None:
            self.store.save(key, fresh)
        return plan

    # ------------------------------------------------------------------
    # Generic L1 operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> object | None:
        """Return the cached plan (refreshing recency) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry

    def put(self, key: Hashable, value: V) -> V:
        """Insert ``value``, evicting the least recently used on overflow."""
        with self._lock:
            self._store(key, value)
        return value

    def get_or_create(
        self, key: Hashable, factory: Callable[[], V]
    ) -> tuple[V, bool]:
        """Return ``(plan, created)``; compile via ``factory`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return entry, False  # type: ignore[return-value]
            self._stats.misses += 1
            value = factory()
            self._store(key, value)
            return value, True

    def _store(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def invalidate_view(self, view: str | None) -> int:
        """Drop every L1 plan keyed under fingerprint ``view``.

        With fingerprints in the key a replaced registration can never be
        *served* stale entries; invalidation just releases their memory
        early (pass the old spec's ``fingerprint()``).  Store files are
        left in place — they stay valid for any holder still using that
        specification.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] == view
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Snapshot of keys, least recently used first."""
        with self._lock:
            return iter(list(self._entries))

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return self._stats.snapshot()
