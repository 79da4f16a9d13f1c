"""HyPE — Hybrid Pass Evaluation of MFAs (Section 6, Fig. 6).

One top-down depth-first pass over the document combines:

* the selecting-NFA run: ``mstates(n)`` per node, with subtrees skipped as
  soon as no NFA state and no relevant AFA state survives (*pruning*);
* AFA evaluation: ``fstates↓`` relevance sets flow down, truth values flow
  back up at pop time (``fstates↑``), with operator states resolved by the
  least-fixpoint machinery of :mod:`repro.automata.truth`;
* construction of the candidate-answer structure ``cans``.

``cans`` representation.  The paper describes cans as a DAG with one vertex
per ``(tree node, NFA state)`` pair of the run, ε-edges kept stepwise, and
vertices *deleted* when their filter gate turns out false at pop time; a
final traversal from the initial vertex separates real answers from
candidates.  We store the same DAG **node-major**: the visit list (node,
parent visit index, interned ``mstates`` set) plus the rare *death records*
(gate-failed states per node).  Phase 2 then recomputes the *alive* state
set per node top-down — ``alive(n)`` is the ε-closure (avoiding dead
states) of the transitions from ``alive(parent)`` — which is exactly
vertex reachability in the paper's DAG.  Because state sets are interned,
subtrees unaffected by any death re-use the phase-1 sets by identity, and
when no gate failed at all, phase 2 degenerates to reading off the finals
seen in phase 1.

OptHyPE/OptHyPE-C plug in a subtree-label index plus the viability oracle
(:mod:`repro.hype.analyze`) to skip subtrees even when states are live but
provably cannot produce answers or flip a filter to true.

Plan/run split.  Evaluation state comes in two kinds with very different
lifetimes, and the classes here mirror that:

* :class:`CompiledPlan` — the reusable half: the MFA, the optional index
  and viability analyzer, and every per-MFA memo table (interned state
  sets, child-transition cache, relevant-set plans, pop/death caches,
  phase-2 caches).  A plan is *immutable after warmup*: the tables only
  ever gain entries, every entry is a pure function of its key, and the
  id-minting intern table is lock-guarded — so one plan can be executed
  by many threads at once and shared across tenants, lanes and services.
* :class:`RunCursor` — the per-run half: the visit list, death records
  and counters of ONE evaluation.  Cursors are cheap, built per run, and
  never shared between threads.

The descent itself lives in :mod:`repro.hype.kernel`: each plan owns a
:class:`repro.hype.kernel.DenseKernel` compiling its memo tables one
level further — interned run configurations with flags packed into flat
``array('i')`` transition words — and :func:`repro.hype.kernel.descend`
is the single loop behind both :meth:`CompiledPlan.run` (a one-lane
batch) and the batched evaluator of :mod:`repro.serve.batch`.

``HyPEEvaluator`` (the pre-split alias, deprecated in PR 3) was removed;
importing it raises a pointed :class:`ImportError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..automata.afa import FINAL, TRANS, WILDCARD
from ..automata.mfa import MFA
from ..automata.truth import child_relevant, relevance_closure
from ..xtree.node import Node
from .analyze import ViabilityAnalyzer
from .index import Index
from .kernel import DenseKernel, descend


@dataclass
class HyPEStats:
    """Counters for the experiments of Section 7."""

    visited_elements: int = 0
    skipped_subtrees: int = 0
    cans_vertices: int = 0
    gate_failures: int = 0
    afa_states_resolved: int = 0
    answers: int = 0


@dataclass
class HyPEResult:
    """Answer set plus run statistics."""

    answers: set[Node]
    stats: HyPEStats = field(default_factory=HyPEStats)


_EMPTY = frozenset()


class CompiledPlan:
    """One compiled MFA plus its reusable, thread-safe memo tables.

    Concurrency contract: every table is fill-only, every entry is a
    deterministic function of its key, and the canonical objects inside
    entries all come from the lock-guarded intern table — so concurrent
    fills of the same key produce identical values and a lost write costs
    only duplicated work, never a wrong answer.  Only :meth:`_intern`
    takes the lock (it mints ids; a race there could alias two different
    sets to one id, which WOULD corrupt the keyed caches).
    """

    def __init__(
        self,
        mfa: MFA,
        index: Index | None = None,
        analyzer: ViabilityAnalyzer | None = None,
    ) -> None:
        self.mfa = mfa
        self.index = index
        if index is not None and analyzer is None:
            analyzer = ViabilityAnalyzer(mfa, index.bits)
        self.analyzer = analyzer
        # Guards id minting in _intern; every other table is benign to
        # race on (see class docstring).
        self._intern_lock = threading.Lock()
        # fs -> (canonical fs object, id); the canonical object makes the
        # phase-2 `is` fast path valid.
        self._set_ids: dict[frozenset, tuple[frozenset, int]] = {}
        # (mstates id, relevant id, mask) -> filtered pair
        self._filter_cache: dict = {}
        # relevant id -> (finals plan, trans plan, operator groups)
        self._plan_cache: dict[int, tuple] = {}
        # (r_id, finals bitmask) -> resolved values, for pops with no child
        # contributions (the overwhelmingly common case).
        self._pop_cache: dict = {}
        # (m_id, r_id, finals bitmask) -> frozenset of dead states
        self._dead_cache: dict = {}
        # Phase-2 caches.
        self._step_cache: dict = {}
        self._avoid_cache: dict = {}
        #: The dense evaluation core: interned run configurations, packed
        #: transition words, the cfg-keyed quiet-pop cache, and the
        #: single shared descent (:func:`repro.hype.kernel.descend`).
        self.kernel = DenseKernel(self)

    # ------------------------------------------------------------------
    @classmethod
    def for_algorithm(
        cls,
        mfa: MFA,
        algorithm: str,
        document,
        kernel: dict | None = None,
    ) -> "CompiledPlan":
        """Build (or rehydrate) the plan realising ``algorithm`` on ``mfa``.

        This is the one constructor path everything above the evaluator
        uses — the plan cache wiring a fresh compilation, and the
        persistent tier rehydrating an MFA decoded from a
        :class:`repro.compile.artifact.PlanArtifact`.  Artifacts carry
        only the automaton: the document-side index comes from
        ``document``, a :class:`repro.docstore.document.IndexedDocument`
        (anything with an ``index_for(compressed)`` method), which builds
        or tier-loads each variant exactly once under a lock.  Every memo
        table starts empty, filling lazily on first run — unless the
        artifact shipped its eager dense closure, passed as ``kernel``
        and preloaded into the plan's
        :class:`repro.hype.kernel.DenseKernel` (pre-filter transitions
        for all three algorithm variants; the document-dependent mask
        filter rows always stay lazy).
        """
        from .api import ALGORITHMS, HYPE, OPTHYPE_C

        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithm == HYPE:
            plan = cls(mfa)
        else:
            index = document.index_for(algorithm == OPTHYPE_C)
            plan = cls(
                mfa, index=index, analyzer=ViabilityAnalyzer(mfa, index.bits)
            )
        if kernel:
            plan.kernel.preload(kernel)
        return plan

    # ------------------------------------------------------------------
    def _intern(self, fs: frozenset) -> tuple[frozenset, int]:
        existing = self._set_ids.get(fs)
        if existing is not None:
            return existing
        with self._intern_lock:
            existing = self._set_ids.get(fs)
            if existing is not None:
                return existing
            entry = (fs, len(self._set_ids))
            self._set_ids[fs] = entry
            return entry

    # ------------------------------------------------------------------
    def cursor(self) -> "RunCursor":
        """A fresh per-run cursor over this plan."""
        return RunCursor(self)

    def initial_sets(self, context: Node):
        """Root ``(mstates, m_id, relevant, r_id)`` after index filtering.

        Shared by :meth:`run` and the batched evaluator
        (:mod:`repro.serve.batch`), which drives many plans through one
        document pass and needs each lane's root sets up front.
        """
        nfa = self.mfa.nfa
        pool = self.mfa.pool
        base0, base_id0 = self._intern(frozenset({nfa.start}))
        mstates0 = nfa.eps_closure_of(nfa.start)
        relevant0 = relevance_closure(pool, self._ann_entries(mstates0))
        mstates0, m_id0 = self._intern(mstates0)
        relevant0, r_id0 = self._intern(relevant0)
        if self.index is not None:
            mstates0, m_id0, relevant0, r_id0 = self._apply_index(
                base0, base_id0, relevant0, r_id0, context.node_id
            )
        return mstates0, m_id0, relevant0, r_id0

    def collect_answers(
        self, visit_nodes, visit_parents, visit_mstates, deaths, finals_seen
    ) -> set[Node]:
        """Phase 2 over an externally-built cans DAG (cursor/batch reuse)."""
        if not deaths:
            return set(finals_seen)
        return self._phase2(
            visit_nodes, visit_parents, visit_mstates, deaths, self.mfa.nfa.finals
        )

    # ------------------------------------------------------------------
    def run(self, context: Node, layout=None, deadline=None) -> HyPEResult:
        """Evaluate ``context[[M]]`` in one pass + one cans traversal.

        Safe to call from many threads at once: all mutable per-run
        state lives on a private :class:`RunCursor`.  The pass itself is
        :func:`repro.hype.kernel.descend` driven with a single lane —
        the same loop the batched evaluator
        (:class:`repro.serve.batch.BatchEvaluator`) drives with N lanes,
        so there is exactly one descent implementation to maintain.

        ``layout`` — optionally, a pre-resolved
        :class:`repro.docstore.layout.DocumentLayout` of the context's
        document.  The descent always walks a columnar layout; without
        one that covers ``context`` (none, stale after a re-freeze, or
        another document's) it uses the tree's own, derived once per
        freeze and reused by later runs.

        ``deadline`` — an optional :class:`repro.guard.Deadline` — arms
        the descent's cooperative cancellation checkpoint; expiry raises
        :class:`repro.errors.DeadlineError` and the private cursor is
        discarded, so a deadline-hit run never yields partial answers.
        """
        cursor = RunCursor(self)
        descend([(self, cursor)], context, layout, deadline=deadline)
        return cursor.finish()

    # ------------------------------------------------------------------
    # Descent bookkeeping
    # ------------------------------------------------------------------
    def _compute_child_sets(self, mstates, relevant, label):
        nfa = self.mfa.nfa
        pool = self.mfa.pool
        base: set[int] = set()
        for state in mstates:
            base |= nfa.step_targets(state, label)
        mstates_v = nfa.eps_closure(base)
        targets = child_relevant(pool, relevant, label)
        targets |= set(self._ann_entries(mstates_v))
        relevant_v = relevance_closure(pool, targets)
        states = pool.states
        watch = tuple(
            (state, states[state].target)
            for state in relevant
            if states[state].kind == TRANS
            and (states[state].label == label or states[state].label == WILDCARD)
        )
        base_v, base_idv = self._intern(frozenset(base))
        mstates_v, m_idv = self._intern(mstates_v)
        relevant_v, r_idv = self._intern(relevant_v)
        has_final = bool(mstates_v & nfa.finals)
        has_ann = any(s in nfa.ann for s in mstates_v)
        return (
            base_v,
            base_idv,
            mstates_v,
            m_idv,
            relevant_v,
            r_idv,
            watch,
            has_final,
            has_ann,
        )

    def _ann_entries(self, mstates) -> list[int]:
        ann = self.mfa.nfa.ann
        if not ann:
            return []
        return [ann[s] for s in mstates if s in ann]

    def _apply_index(self, base, base_id, relevant, r_id, node_id: int):
        """Index-based subtree filtering (OptHyPE).

        The filtered ``mstates`` must be the ε-closure of the *base*
        transition targets restricted to viable states: a viable state
        whose only ε-path from the base runs through an impassable gate
        (definitely-false annotation) must NOT survive — intersecting the
        already-closed set would incorrectly keep it.
        """
        assert self.index is not None and self.analyzer is not None
        # mask_key is an int for both variants: the raw mask (OptHyPE) or
        # the interned mask id (OptHyPE-C) — small and O(1) to hash even
        # when the label alphabet makes masks wide.
        key = (base_id, r_id, self.index.mask_key(node_id))
        cached = self._filter_cache.get(key)
        if cached is not None:
            return cached
        mask = self.index.mask(node_id)
        nfa = self.mfa.nfa
        viable = self.analyzer.viable_nfa_states(mask)
        closed: set[int] = set()
        stack = [s for s in base if s in viable]
        while stack:
            state = stack.pop()
            if state in closed:
                continue
            closed.add(state)
            for target in nfa.eps[state]:
                if target in viable and target not in closed:
                    stack.append(target)
        mstates_f, m_idf = self._intern(frozenset(closed))
        possible = self.analyzer.afa_possibly_true(mask)
        relevant_f, r_idf = self._intern(
            frozenset(s for s in relevant if possible[s])
        )
        result = (mstates_f, m_idf, relevant_f, r_idf)
        self._filter_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Pop: bottom-up AFA resolution and death recording
    # ------------------------------------------------------------------
    def _relevant_plan(self, r_id: int, relevant):
        """Static per-relevant-set evaluation plan (cached).

        Returns (finals, trans, op_groups): final states with their
        predicates, transition states, and operator states grouped by SCC
        in dependency-first order.
        """
        cached = self._plan_cache.get(r_id)
        if cached is not None:
            return cached
        pool = self.mfa.pool
        states = pool.states
        finals: list[tuple[int, object]] = []
        trans: list[int] = []
        operators: list[int] = []
        for state in relevant:
            holder = states[state]
            if holder.kind == FINAL:
                finals.append((state, holder.pred))
            elif holder.kind == TRANS:
                trans.append(state)
            else:
                operators.append(state)
        operators.sort(key=pool.scc_of)
        groups: list[list[tuple[int, str, list[int]]]] = []
        i = 0
        while i < len(operators):
            scc = pool.scc_of(operators[i])
            group: list[tuple[int, str, list[int]]] = []
            while i < len(operators) and pool.scc_of(operators[i]) == scc:
                holder = states[operators[i]]
                group.append((operators[i], holder.kind, holder.eps))
                i += 1
            groups.append(group)
        plan = (tuple(finals), tuple(trans), tuple(groups))
        self._plan_cache[r_id] = plan
        return plan

    def _resolve(self, finals, trans, groups, trans_true, bits) -> dict[int, bool]:
        """Leaf values + operator fixpoint for one node (or cache entry)."""
        values: dict[int, bool] = {}
        for position, (state, _pred) in enumerate(finals):
            values[state] = bool(bits >> position & 1)
        if trans_true is None:
            for state in trans:
                values[state] = False
        else:
            for state in trans:
                values[state] = state in trans_true
        get = values.get
        for group in groups:
            if len(group) == 1:
                state, kind, eps = group[0]
                if kind == "and":
                    values[state] = all(get(s, False) for s in eps)
                elif kind == "or":
                    values[state] = any(get(s, False) for s in eps)
                else:  # not
                    values[state] = not get(eps[0], False)
            else:
                for state, _kind, _eps in group:
                    values.setdefault(state, False)
                changed = True
                while changed:
                    changed = False
                    for state, kind, eps in group:
                        if kind == "and":
                            new = all(get(s, False) for s in eps)
                        else:  # or (NOT cannot be in a cycle)
                            new = any(get(s, False) for s in eps)
                        if new and not values[state]:
                            values[state] = True
                            changed = True
        return values

    def _compute_dead(self, mstates, values) -> frozenset[int]:
        ann = self.mfa.nfa.ann
        dead: list[int] = []
        get = values.get
        for state in mstates:
            entry = ann.get(state)
            if entry is not None and not get(entry, False):
                dead.append(state)
        return frozenset(dead)

    # ------------------------------------------------------------------
    # Phase 2: alive-state propagation over the visit list
    # ------------------------------------------------------------------
    def _phase2(self, nodes, parents, mstates_list, deaths, finals) -> set[Node]:
        nfa = self.mfa.nfa
        answers: set[Node] = set()
        alive: list[frozenset] = [None] * len(nodes)  # type: ignore[list-item]
        step_cache = self._step_cache
        for i, node in enumerate(nodes):
            parent = parents[i]
            phase1 = mstates_list[i]
            dead = deaths.get(i)
            if parent == -1:
                current = frozenset({nfa.start}) & phase1
                current = self._closure_avoiding(current, dead, phase1)
            else:
                parent_alive = alive[parent]
                if dead is None and parent_alive is mstates_list[parent]:
                    # No divergence above or here: phase-1 set is exact.
                    current = phase1
                else:
                    # parent_alive is always interned, so the frozenset key
                    # is canonical and stable across runs of this plan.
                    key = (parent_alive, node.label)
                    base = step_cache.get(key)
                    if base is None:
                        base = frozenset(
                            t
                            for s in parent_alive
                            for t in nfa.step_targets(s, node.label)
                        )
                        step_cache[key] = base
                    current = self._closure_avoiding(base & phase1, dead, phase1)
            alive[i] = current
            if current & finals:
                answers.add(node)
        return answers

    def _closure_avoiding(self, base, dead, universe) -> frozenset:
        """Stepwise ε-closure within ``universe``, skipping dead states."""
        nfa = self.mfa.nfa
        if dead is None and base == universe:
            return universe
        cache_key = (base, dead, universe)
        cached = self._avoid_cache.get(cache_key)
        if cached is not None:
            return cached
        result: set[int] = set()
        stack = [s for s in base if (dead is None or s not in dead)]
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            for target in nfa.eps[state]:
                if target in universe and target not in result:
                    if dead is None or target not in dead:
                        stack.append(target)
        frozen = frozenset(result)
        if frozen == universe:
            interned = universe
        else:
            interned, _ = self._intern(frozen)
        self._avoid_cache[cache_key] = interned
        return interned


class RunCursor:
    """Per-run traversal state of ONE evaluation of one plan.

    A cursor carries exactly what one depth-first pass accumulates: the
    node-major cans DAG (visit lists), the death records, the finals seen
    in phase 1, and the counters.  Cursors are cheap to build, private to
    their run, and never synchronised — all sharing happens through the
    plan's memo tables.  Both the sequential :meth:`CompiledPlan.run` and
    the lanes of :class:`repro.serve.batch.BatchEvaluator` record through
    this class, so a batched lane is *observationally identical* to a
    sequential run.
    """

    __slots__ = (
        "plan",
        "stats",
        "visit_nodes",
        "visit_parents",
        "visit_mstates",
        "deaths",
        "finals_seen",
        "visited",
        "skipped",
        "cans_vertices",
    )

    def __init__(self, plan: CompiledPlan) -> None:
        self.plan = plan
        self.stats = HyPEStats()
        self.visit_nodes: list[Node] = []
        self.visit_parents: list[int] = []
        self.visit_mstates: list[frozenset] = []
        self.deaths: dict[int, frozenset] = {}
        self.finals_seen: list[Node] = []
        self.visited = 0
        self.skipped = 0
        self.cans_vertices = 0

    def finish(self) -> HyPEResult:
        """Phase 2 (cans traversal) + the run's final counters."""
        stats = self.stats
        stats.visited_elements = self.visited
        stats.skipped_subtrees = self.skipped
        stats.cans_vertices = self.cans_vertices
        answers = self.plan.collect_answers(
            self.visit_nodes,
            self.visit_parents,
            self.visit_mstates,
            self.deaths,
            self.finals_seen,
        )
        stats.answers = len(answers)
        stats.gate_failures = len(self.deaths)
        return HyPEResult(answers, stats)


def __getattr__(name: str):
    if name == "HyPEEvaluator":
        raise ImportError(
            "HyPEEvaluator was removed (it had been a deprecated alias "
            "since the plan/run-state split): construct "
            "repro.hype.core.CompiledPlan instead"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def hype_eval(
    mfa: MFA,
    context: Node,
    index: Index | None = None,
) -> HyPEResult:
    """One-shot HyPE evaluation (builds a fresh plan)."""
    return CompiledPlan(mfa, index=index).run(context)
