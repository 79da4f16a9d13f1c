"""SMOQE — the Secure MOdular Query Engine (the paper's prototype [10]).

The deployment scenario of Section 1: a server holds an XML document; each
user group is given a *virtual* view (their authorised window on the data)
and poses (regular) XPath queries against it.  The engine

1. rewrites the view query into an MFA over the source (Algorithm
   ``rewrite``, Section 5) — through the :mod:`repro.compile` pipeline,
   cached per ``(view fingerprint, normalised query)``;
2. evaluates the MFA with HyPE (or an OptHyPE variant) directly on the
   source document — no view is ever materialised;
3. returns the answers.

The engine doubles as a stand-alone regular-XPath engine (the paper calls
SMOQE "the first regular XPath engine"): :meth:`SMOQE.evaluate` compiles
and runs any ``Xreg`` query on the source document.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.mfa import MFA
from ..errors import ViewError
from ..hype.api import ALGORITHMS, HYPE
from ..hype.core import HyPEStats
from ..serve.cache import CachedPlan, CacheStats, PlanCache
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from ..xtree.node import Node, XMLTree


@dataclass
class QueryAnswer:
    """Answer set plus provenance of how it was computed."""

    nodes: set[Node]
    mfa: MFA
    stats: HyPEStats
    algorithm: str
    view: str | None = None
    query_text: str = ""
    # Content hash of the document the answer was computed over (None
    # for engine paths that predate multi-document serving).
    document: str | None = None

    def ids(self) -> list[int]:
        """Sorted document-order node ids (stable for display/tests)."""
        return sorted(node.node_id for node in self.nodes)


@dataclass
class _ViewEntry:
    spec: ViewSpec


class SMOQE:
    """One engine instance serves one source document and many views.

    Compiled plans (rewritten MFAs and directly compiled queries) live in
    a shared two-tier :class:`repro.serve.cache.PlanCache` keyed by
    ``(view fingerprint, normalised query, format version)`` — pass one
    in to share plans with a
    :class:`repro.serve.service.QueryService` over the same document, or
    construct it over a :class:`repro.compile.store.PlanStore` to reuse
    plans across restarts.
    """

    def __init__(
        self,
        document: "XMLTree | IndexedDocument",
        default_algorithm: str = HYPE,
        cache: PlanCache | None = None,
        cache_capacity: int = 256,
    ) -> None:
        from ..docstore.document import IndexedDocument

        if default_algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {default_algorithm!r}")
        # Plain trees are wrapped into a (private) IndexedDocument, so
        # the engine gets the columnar hot loop and build-once indexes
        # transparently; passing a store-shared document shares its
        # layout and indexes with every other holder.
        self._doc = (
            document
            if isinstance(document, IndexedDocument)
            else IndexedDocument(document)
        )
        self.document = self._doc.tree
        self.default_algorithm = default_algorithm
        self.cache = cache if cache is not None else PlanCache(cache_capacity)
        self._views: dict[str, _ViewEntry] = {}

    # ------------------------------------------------------------------
    # View administration
    # ------------------------------------------------------------------
    def register_view(self, name: str, spec: ViewSpec) -> None:
        """Register a view definition under ``name``."""
        if name in self._views:
            raise ViewError(f"view {name!r} already registered")
        self._views[name] = _ViewEntry(spec)

    def views(self) -> list[str]:
        """Registered view names."""
        return sorted(self._views)

    def view_spec(self, name: str) -> ViewSpec:
        """The specification registered under ``name``."""
        try:
            return self._views[name].spec
        except KeyError:
            raise ViewError(f"unknown view {name!r}") from None

    # ------------------------------------------------------------------
    # Query answering on views (the headline feature)
    # ------------------------------------------------------------------
    def answer(
        self,
        view: str,
        query: str | ast.Path,
        algorithm: str | None = None,
    ) -> QueryAnswer:
        """Answer a query posed on a *virtual* view.

        The rewriting is cached, so repeated queries over the same view pay
        only evaluation time.
        """
        query_ast = parse_query(query) if isinstance(query, str) else query
        plan = self._rewritten(view, query_ast)
        nodes, stats, algo = self._run(plan, algorithm)
        return QueryAnswer(
            nodes, plan.mfa, stats, algo, view=view, query_text=unparse(query_ast)
        )

    def rewrite(self, view: str, query: str | ast.Path) -> MFA:
        """Expose the rewritten MFA (for inspection or external evaluation)."""
        query_ast = parse_query(query) if isinstance(query, str) else query
        return self._rewritten(view, query_ast).mfa

    def _rewritten(self, view: str, query_ast: ast.Path) -> CachedPlan:
        entry = self._views.get(view)
        if entry is None:
            raise ViewError(f"unknown view {view!r}")
        return self.cache.plan(entry.spec, query_ast)

    # ------------------------------------------------------------------
    # Stand-alone regular XPath engine
    # ------------------------------------------------------------------
    def evaluate(
        self, query: str | ast.Path, algorithm: str | None = None
    ) -> QueryAnswer:
        """Evaluate a (regular) XPath query directly on the source."""
        query_ast = parse_query(query) if isinstance(query, str) else query
        plan = self.cache.plan(None, query_ast)
        nodes, stats, algo = self._run(plan, algorithm)
        return QueryAnswer(
            nodes, plan.mfa, stats, algo, query_text=unparse(query_ast)
        )

    # ------------------------------------------------------------------
    def _run(self, plan: CachedPlan, algorithm: str | None):
        algo = algorithm or self.default_algorithm
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        doc = self._doc
        compiled = plan.compiled(algo, doc)
        result = compiled.run(doc.tree.root, layout=doc.layout)
        return result.answers, result.stats, algo

    def cache_stats(self) -> CacheStats:
        """Plan-cache hit/miss/eviction counters."""
        return self.cache.stats
