"""The dense automaton kernel: one flat int-array descent for all paths.

PR 5's interned columnar loop still carried a 9-slot tuple per cached
child transition and re-derived flags (`has_final`, `has_ann`, the pop
condition) per visit.  This module compiles each
:class:`repro.hype.core.CompiledPlan` one level further, into a *dense
transition table* over interned run configurations:

* a **cfg** is an interned ``(mstates, relevant, watch)`` triple — the
  complete automaton-side state of one descent frame.  Cfg ``0`` is the
  dead configuration.  Per-cfg flags are computed once at mint time and
  packed into the transition word, so the hot loop never touches a set:

  ``packed = (cfg << 2) | has_final | (pop_needed << 1)``

  ``packed == 0`` ⇔ dead (prune the subtree for this lane); ``-1`` marks
  an unfilled slot in the per-document ``array('i')`` rows.
* plain-HyPE transitions resolve ``(cfg, label) -> packed`` directly;
  index-equipped plans (OptHyPE/-C) resolve ``(cfg, label) -> edge`` —
  an interned ``(base, relevant, watch)`` pre-filter triple — and then
  ``edge × mask_key -> packed`` through the per-edge filter row, which
  caches the *post*-filter flags too.
* per document, a layout binds each cfg to an ``array('i')`` row indexed
  by interned label id (kept in the existing weak-key row cache of
  :class:`repro.docstore.layout.DocumentLayout`), so a columnar visit is
  one C-array read plus two shifts.

Labels the automaton does not distinguish — anything outside the MFA's
transition alphabet — all share one ``OTHER`` column per cfg: an unseen
label can only take wildcard moves, so its transition is independent of
the label text.  That makes the table *finite and document-independent*,
which is what lets :func:`kernel_payload` close it eagerly at compile
time and ship it inside a :class:`repro.compile.artifact.PlanArtifact`
(format v3): a cold worker rehydrates the closure instead of re-deriving
it on the first requests.

The descent itself — :func:`descend` — is the **single** implementation
behind both :meth:`repro.hype.core.CompiledPlan.run` (a one-lane batch)
and :class:`repro.serve.batch.BatchEvaluator` (N lanes, one pass), and
it has one data path: every run walks a columnar layout, derived once
per tree freeze when the caller supplies none that covers its context.

Thread safety follows the plan contract: cfg/edge minting is
lock-guarded (ids must be unique), every other table is fill-only with
entries that are pure functions of their key, so lost races cost
duplicated work, never wrong answers.
"""

from __future__ import annotations

import threading
import time
from array import array

from ..docstore.layout import layout_for
from ..errors import DeadlineError
from ..faults import fire as _fault_fire
from ..guard import CHECK_INTERVAL

#: Flag bits of a packed transition word (see module docstring).
FINAL_BIT = 1
POP_BIT = 2
CFG_SHIFT = 2

#: The dead configuration's id — and, conveniently, its packed word.
DEAD = 0

#: Sentinel for unfilled slots in the per-document ``array('i')`` rows.
UNFILLED = -1

#: Alias column for labels outside the automaton's transition alphabet.
#: NUL is illegal in XML names, so no document label collides with it.
OTHER_LABEL = "\x00other"


class DenseKernel:
    """Dense transition tables of one :class:`CompiledPlan`.

    Built empty with the plan and filled lazily (or eagerly preloaded
    from a persisted artifact payload); shared by every run and lane of
    the plan, across threads.
    """

    __slots__ = (
        "plan",
        "alphabet",
        "_lock",
        "cfg_ids",
        "cfg_mstates",
        "cfg_relevant",
        "cfg_watch",
        "cfg_m",
        "cfg_r",
        "cfg_size",
        "cfg_has_ann",
        "cfg_packed",
        "quiet",
        "trans",
        "edge_ids",
        "edge_base",
        "edge_base_id",
        "edge_relevant",
        "edge_r",
        "edge_watch",
        "edge_filters",
    )

    def __init__(self, plan) -> None:
        from ..automata.afa import TRANS, WILDCARD

        self.plan = plan
        nfa = plan.mfa.nfa
        labels = nfa.alphabet()
        for holder in plan.mfa.pool.states:
            if holder.kind == TRANS and holder.label != WILDCARD:
                labels.add(holder.label)
        labels.discard(WILDCARD)
        #: Labels with their own transition column; everything else
        #: aliases to :data:`OTHER_LABEL`.
        self.alphabet = frozenset(labels)
        self._lock = threading.Lock()
        # (m_id, r_id, watch) -> cfg id; parallel per-cfg tables below.
        self.cfg_ids: dict = {}
        self.cfg_mstates: list = []
        self.cfg_relevant: list = []
        self.cfg_watch: list = []
        self.cfg_m: list[int] = []
        self.cfg_r: list[int] = []
        self.cfg_size: list[int] = []
        self.cfg_has_ann: list[bool] = []
        self.cfg_packed: list[int] = []
        # cfg -> quiet-pop entry: None (unknown), False (must take the
        # full path: node-dependent predicates), or (dead, report,
        # resolved) — the old (m_id, r_id, watch)-keyed cache, now one
        # list index.
        self.quiet: list = []
        # (cfg, label) -> packed word (plain) or edge word (indexed);
        # unseen labels are stored both under their own key (so a later
        # document's row fill stays one probe) and under OTHER_LABEL.
        self.trans: dict = {}
        # (base_id, r_id, watch) -> edge id; parallel per-edge tables.
        self.edge_ids: dict = {}
        self.edge_base: list = []
        self.edge_base_id: list[int] = []
        self.edge_relevant: list = []
        self.edge_r: list[int] = []
        self.edge_watch: list = []
        # edge id -> {mask_key -> packed word} (document-dependent, but
        # index-equipped plans are document-bound, so plan-wide is safe).
        self.edge_filters: list[dict] = []
        empty, empty_id = plan._intern(frozenset())
        assert self.cfg_of(empty, empty_id, empty, empty_id, ()) == DEAD

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def cfg_of(self, mstates, m_id, relevant, r_id, watch) -> int:
        """The cfg id of ``(mstates, relevant, watch)`` (minted once)."""
        key = (m_id, r_id, watch)
        cfg = self.cfg_ids.get(key)
        if cfg is not None:
            return cfg
        nfa = self.plan.mfa.nfa
        with self._lock:
            cfg = self.cfg_ids.get(key)
            if cfg is not None:
                return cfg
            cfg = len(self.cfg_packed)
            has_final = bool(mstates & nfa.finals)
            has_ann = any(s in nfa.ann for s in mstates)
            pop_needed = bool(relevant) and bool(watch or has_ann)
            packed = (cfg << CFG_SHIFT) | (FINAL_BIT if has_final else 0)
            if pop_needed:
                packed |= POP_BIT
            self.cfg_mstates.append(mstates)
            self.cfg_relevant.append(relevant)
            self.cfg_watch.append(watch)
            self.cfg_m.append(m_id)
            self.cfg_r.append(r_id)
            self.cfg_size.append(len(mstates))
            self.cfg_has_ann.append(has_ann)
            self.cfg_packed.append(packed)
            self.quiet.append(None)
            # Publish last: readers only index the tables by ids they
            # obtained from this dict.
            self.cfg_ids[key] = cfg
            return cfg

    def edge_of(self, base, base_id, relevant, r_id, watch) -> int:
        """The pre-filter edge id of ``(base, relevant, watch)``."""
        key = (base_id, r_id, watch)
        eid = self.edge_ids.get(key)
        if eid is not None:
            return eid
        with self._lock:
            eid = self.edge_ids.get(key)
            if eid is not None:
                return eid
            eid = len(self.edge_base)
            self.edge_base.append(base)
            self.edge_base_id.append(base_id)
            self.edge_relevant.append(relevant)
            self.edge_r.append(r_id)
            self.edge_watch.append(watch)
            self.edge_filters.append({})
            self.edge_ids[key] = eid
            return eid

    # ------------------------------------------------------------------
    # Transition resolution (slow path; results land in the tables)
    # ------------------------------------------------------------------
    def root_cfg(self, context) -> int:
        """The cfg the run enters ``context`` with (DEAD when pruned)."""
        mstates0, m_id0, relevant0, r_id0 = self.plan.initial_sets(context)
        if not mstates0 and not relevant0:
            return DEAD
        return self.cfg_of(mstates0, m_id0, relevant0, r_id0, ())

    def lookup_trans(self, cfg: int, label: str) -> int:
        """``(cfg, label)``'s packed (or edge) word, computing on miss."""
        trans = self.trans
        packed = trans.get((cfg, label))
        if packed is not None:
            return packed
        if label in self.alphabet:
            packed = self._compute_trans(cfg, label)
        else:
            key = (cfg, OTHER_LABEL)
            packed = trans.get(key)
            if packed is None:
                packed = self._compute_trans(cfg, OTHER_LABEL)
                trans[key] = packed
        trans[(cfg, label)] = packed
        return packed

    def _compute_trans(self, cfg: int, label: str) -> int:
        plan = self.plan
        (
            base_v,
            base_idv,
            mstates_v,
            m_idv,
            relevant_v,
            r_idv,
            watch,
            _has_final,
            _has_ann,
        ) = plan._compute_child_sets(
            self.cfg_mstates[cfg], self.cfg_relevant[cfg], label
        )
        if not mstates_v and not relevant_v:
            return DEAD
        if plan.index is not None:
            eid = self.edge_of(base_v, base_idv, relevant_v, r_idv, watch)
            return (eid << 1) | 1
        child = self.cfg_of(mstates_v, m_idv, relevant_v, r_idv, watch)
        return self.cfg_packed[child]

    def fill_filter(self, eid: int, mask_key, node_id: int) -> int:
        """Resolve one ``edge × mask_key`` filter-row entry (OptHyPE)."""
        plan = self.plan
        mstates_f, m_idf, relevant_f, r_idf = plan._apply_index(
            self.edge_base[eid],
            self.edge_base_id[eid],
            self.edge_relevant[eid],
            self.edge_r[eid],
            node_id,
        )
        if not mstates_f and not relevant_f:
            packed = DEAD
        else:
            cfg = self.cfg_of(
                mstates_f, m_idf, relevant_f, r_idf, self.edge_watch[eid]
            )
            packed = self.cfg_packed[cfg]
        self.edge_filters[eid][mask_key] = packed
        return packed

    # ------------------------------------------------------------------
    # Pop (bottom-up AFA resolution), cfg-keyed
    # ------------------------------------------------------------------
    def pop_frame(self, frame, cursor) -> None:
        """Pop one descent frame (lines 11-21 of the paper's Fig. 6)."""
        cfg = frame[2]
        trans_true = frame[3]
        if not trans_true:
            quiet = self.quiet[cfg]
            if quiet is None:
                quiet = self._compute_quiet(cfg)
            if quiet is not False:
                dead, report, resolved = quiet
                if dead:
                    cursor.deaths[frame[1]] = dead
                cursor.stats.afa_states_resolved += resolved
                if report:
                    parent = frame[4]
                    if parent is not None:
                        trues = parent[3]
                        if trues is None:
                            trues = parent[3] = set()
                        trues.update(report)
                return
        plan = self.plan
        r_id = self.cfg_r[cfg]
        finals, trans, groups = plan._relevant_plan(
            r_id, self.cfg_relevant[cfg]
        )
        node = frame[0]
        bits = 0
        for position, (_state, pred) in enumerate(finals):
            if pred is None or pred.holds(node):
                bits |= 1 << position
        if not trans_true:
            # No child contributed a truth: resolution depends only on
            # the relevant set and the predicate outcomes at this node.
            cache_key = (r_id, bits)
            values = plan._pop_cache.get(cache_key)
            if values is None:
                values = plan._resolve(finals, trans, groups, None, bits)
                plan._pop_cache[cache_key] = values
            if self.cfg_has_ann[cfg]:
                dead_key = (self.cfg_m[cfg], r_id, bits)
                dead = plan._dead_cache.get(dead_key)
                if dead is None:
                    dead = plan._compute_dead(self.cfg_mstates[cfg], values)
                    plan._dead_cache[dead_key] = dead
                if dead:
                    cursor.deaths[frame[1]] = dead
        else:
            # Child truths contributed: the fixpoint is still a pure
            # function of (relevant set, truth set, predicate bits) —
            # documents repeat structure, so memoise on the observed
            # truth sets (3-tuple keys cannot collide with the quiet
            # path's 2-tuple keys in the shared caches).
            truths = frozenset(trans_true)
            cache_key = (r_id, bits, truths)
            values = plan._pop_cache.get(cache_key)
            if values is None:
                values = plan._resolve(finals, trans, groups, trans_true, bits)
                plan._pop_cache[cache_key] = values
            if self.cfg_has_ann[cfg]:
                dead_key = (self.cfg_m[cfg], r_id, bits, truths)
                dead = plan._dead_cache.get(dead_key)
                if dead is None:
                    dead = plan._compute_dead(self.cfg_mstates[cfg], values)
                    plan._dead_cache[dead_key] = dead
                if dead:
                    cursor.deaths[frame[1]] = dead
        cursor.stats.afa_states_resolved += len(values)
        # Report established truths to the parent (fstates↑).
        watch = self.cfg_watch[cfg]
        parent = frame[4]
        if watch and parent is not None:
            trues = parent[3]
            if trues is None:
                trues = parent[3] = set()
            for watcher, target in watch:
                if values.get(target, False):
                    trues.add(watcher)

    def _compute_quiet(self, cfg: int):
        """Build (or reject) one cfg's quiet-pop cache entry.

        ``False`` — cached — when the relevant set carries final-state
        predicates, whose outcome depends on the node and so cannot be
        memoised per cfg.
        """
        plan = self.plan
        r_id = self.cfg_r[cfg]
        finals, trans, groups = plan._relevant_plan(
            r_id, self.cfg_relevant[cfg]
        )
        if finals:
            self.quiet[cfg] = False
            return False
        cache_key = (r_id, 0)
        values = plan._pop_cache.get(cache_key)
        if values is None:
            values = plan._resolve(finals, trans, groups, None, 0)
            plan._pop_cache[cache_key] = values
        dead = None
        if self.cfg_has_ann[cfg]:
            dead_key = (self.cfg_m[cfg], r_id, 0)
            dead = plan._dead_cache.get(dead_key)
            if dead is None:
                dead = plan._compute_dead(self.cfg_mstates[cfg], values)
                plan._dead_cache[dead_key] = dead
        report = tuple(
            watcher
            for watcher, target in self.cfg_watch[cfg]
            if values.get(target, False)
        )
        quiet = (dead, report, len(values))
        self.quiet[cfg] = quiet
        return quiet

    # ------------------------------------------------------------------
    # Persistence (artifact v3 payload)
    # ------------------------------------------------------------------
    def preload(self, payload: dict) -> int:
        """Rehydrate the eager closure of a persisted plan artifact.

        The payload is document-independent: for plain plans it fills
        the ``(cfg, label) -> packed`` table outright; for index-equipped
        plans the same entries become pre-filter edge words (the mask
        filter rows stay lazy — they depend on the document).  Returns
        the number of transition entries installed.
        """
        interned = [
            self.plan._intern(frozenset(states)) for states in payload["sets"]
        ]
        cfg_map: list[int] = []
        for m_idx, r_idx, watch in payload["cfgs"]:
            mstates, m_id = interned[m_idx]
            relevant, r_id = interned[r_idx]
            watch_t = tuple((int(w), int(t)) for w, t in watch)
            if not mstates and not relevant:
                cfg_map.append(DEAD)
            else:
                cfg_map.append(
                    self.cfg_of(mstates, m_id, relevant, r_id, watch_t)
                )
        labels = payload["labels"]
        other = len(labels)
        indexed = self.plan.index is not None
        trans = self.trans
        installed = 0
        for cfg_i, label_i, base_idx, child_i in payload["trans"]:
            key = (
                cfg_map[cfg_i],
                labels[label_i] if label_i < other else OTHER_LABEL,
            )
            if key in trans:
                continue
            child = cfg_map[child_i]
            if child == DEAD:
                trans[key] = DEAD
            elif indexed:
                base, base_id = interned[base_idx]
                eid = self.edge_of(
                    base,
                    base_id,
                    self.cfg_relevant[child],
                    self.cfg_r[child],
                    self.cfg_watch[child],
                )
                trans[key] = (eid << 1) | 1
            else:
                trans[key] = self.cfg_packed[child]
            installed += 1
        return installed


def kernel_payload(plan, max_cfgs: int = 256) -> dict:
    """Eagerly close a (plain) plan's dense table for persistence.

    BFS from the root cfg over the automaton's alphabet plus the OTHER
    column.  The closure is finite because unseen labels alias to one
    column; ``max_cfgs`` caps expansion against adversarial queries (a
    truncated closure is still a valid payload — the kernel fills the
    rest lazily).  The plan must be index-free: the payload describes
    the *pre-filter* table, which serves all three algorithm variants.
    """
    if plan.index is not None:
        raise ValueError("kernel payloads are built from index-free plans")
    kern = plan.kernel
    labels = sorted(kern.alphabet)
    columns = labels + [OTHER_LABEL]
    sets: dict = {}
    set_rows: list[list[int]] = []

    def set_id(fs) -> int:
        idx = sets.get(fs)
        if idx is None:
            idx = sets[fs] = len(set_rows)
            set_rows.append(sorted(fs))
        return idx

    root = kern.root_cfg(None)
    trans_rows: list[list[int]] = []
    seen = {DEAD}
    queue: list[int] = []
    if root != DEAD:
        seen.add(root)
        queue.append(root)
    head = 0
    while head < len(queue):
        cfg = queue[head]
        head += 1
        mstates = kern.cfg_mstates[cfg]
        relevant = kern.cfg_relevant[cfg]
        for label_i, label in enumerate(columns):
            (
                base_v,
                base_idv,
                mstates_v,
                m_idv,
                relevant_v,
                r_idv,
                watch,
                _has_final,
                _has_ann,
            ) = plan._compute_child_sets(mstates, relevant, label)
            if not mstates_v and not relevant_v:
                child = DEAD
            else:
                child = kern.cfg_of(mstates_v, m_idv, relevant_v, r_idv, watch)
            trans_rows.append([cfg, label_i, set_id(base_v), child])
            if child not in seen:
                seen.add(child)
                if len(seen) <= max_cfgs:
                    queue.append(child)
    cfg_rows = [
        [
            set_id(kern.cfg_mstates[cfg]),
            set_id(kern.cfg_relevant[cfg]),
            [[watcher, target] for watcher, target in kern.cfg_watch[cfg]],
        ]
        for cfg in range(len(kern.cfg_packed))
    ]
    return {
        "labels": labels,
        "sets": set_rows,
        "cfgs": cfg_rows,
        "trans": trans_rows,
    }


class _Lane:
    """One plan's per-run view of the shared descent (a batch lane).

    Everything the inner loop touches per child is pre-resolved into a
    slot at lane construction — bound append methods, the kernel's cfg
    columns, the per-document row table — so a visit costs slot reads
    instead of attribute chains (``cursor.visit_nodes.append`` et al.).
    """

    __slots__ = (
        "cursor",
        "kern",
        "indexed",
        "mask_keys",
        "filters",
        "rows",
        "labels",
        "blank",
        "cfg_mstates",
        "visit_nodes",
        "nodes_append",
        "parents_append",
        "mstates_append",
        "finals_append",
        "pop_frame",
        "quiet",
        "deaths",
        "resolved",
    )

    def __init__(self, plan, cursor, layout) -> None:
        kern = plan.kernel
        self.cursor = cursor
        self.kern = kern
        index = plan.index
        self.indexed = index is not None
        self.mask_keys = index.mask_keys if index is not None else None
        self.filters = kern.edge_filters
        self.rows = layout.rows_for(plan)
        self.labels = layout.labels
        self.blank = array("i", [UNFILLED]) * layout.num_labels
        self.cfg_mstates = kern.cfg_mstates
        self.visit_nodes = cursor.visit_nodes
        self.nodes_append = cursor.visit_nodes.append
        self.parents_append = cursor.visit_parents.append
        self.mstates_append = cursor.visit_mstates.append
        self.finals_append = cursor.finals_seen.append
        self.pop_frame = kern.pop_frame
        # Quiet-pop fast path: the kernel's cfg-indexed quiet entries,
        # the cursor's death map, and a deferred afa_states_resolved
        # accumulator flushed at writeback.
        self.quiet = kern.quiet
        self.deaths = cursor.deaths
        self.resolved = 0

    def row_for(self, cfg: int):
        """The cfg's label-id-indexed packed row for this document."""
        rows = self.rows
        row = rows.get(cfg)
        if row is None:
            row = rows.setdefault(cfg, self.blank[:])
        return row

    def fill_row(self, row, lid: int, cfg: int) -> int:
        packed = self.kern.lookup_trans(cfg, self.labels[lid])
        row[lid] = packed
        return packed


def descend(lanes, context, layout=None, shared=None, deadline=None) -> None:
    """THE descent loop: one shared pass driving every lane's automaton.

    ``lanes`` is a list of ``(plan, cursor)`` pairs; a sequential run is
    a one-lane batch.  The pass walks a columnar
    :class:`repro.docstore.layout.DocumentLayout` (flat kid spans,
    ``array('i')`` transition rows): ``layout`` when it covers
    ``context``, otherwise the context tree's own layout, derived once
    per freeze by :func:`repro.docstore.layout.layout_for`.  ``shared``
    (a :class:`repro.serve.batch.BatchStats`-shaped object) receives the
    shared-pass visit/skip counters when given.

    ``deadline`` (a :class:`repro.guard.Deadline`) arms a cooperative
    cancellation checkpoint: every :data:`repro.guard.CHECK_INTERVAL`
    loop iterations the clock is read once and an expired deadline
    raises :class:`repro.errors.DeadlineError` mid-descent — the
    caller's cursors are abandoned wholesale, never finished partially.
    With ``deadline=None`` the checkpoint is a single dead branch per
    iteration, keeping the hot path inside the tracing-off overhead
    floor.

    Frames are plain lists ``[node, visit_idx, cfg, trans_true, parent,
    pop_flag, lane, row]`` — the lane and its bound transition row ride
    in the frame, so the per-child loop iterates frames directly with no
    entry wrappers.  Stack entries are ``[frames, next_kid, kid_end]``.
    """
    _fault_fire("descend")
    layout = layout_for(context, layout)
    entries = []
    live = []
    for plan, cursor in lanes:
        kern = plan.kernel
        cfg = kern.root_cfg(context)
        if cfg == DEAD:
            # Dead at the root: the lane finishes with the all-zero result.
            continue
        lane = _Lane(plan, cursor, layout)
        live.append(lane)
        packed = kern.cfg_packed[cfg]
        cursor.visit_nodes.append(context)
        cursor.visit_parents.append(-1)
        cursor.visit_mstates.append(kern.cfg_mstates[cfg])
        if packed & FINAL_BIT:
            cursor.finals_seen.append(context)
        entries.append(
            [
                context,
                0,
                cfg,
                None,
                None,
                packed & POP_BIT,
                lane,
                lane.row_for(cfg),
            ]
        )
    if shared is not None:
        shared.visited_elements = 1 if entries else 0
    nodes = layout.nodes
    kid_ids = layout.kid_ids
    kid_labels = layout.kid_labels
    kid_start = layout.kid_start
    if entries:
        cid0 = context.node_id
        stack = [[entries, kid_start[cid0], kid_start[cid0 + 1]]]
        stack_append = stack.append
        checks = CHECK_INTERVAL
        deadline_at = None if deadline is None else deadline.expires_at
        perf_counter = time.perf_counter
        while stack:
            if deadline_at is not None:
                checks -= 1
                if checks < 0:
                    checks = CHECK_INTERVAL
                    if perf_counter() >= deadline_at:
                        raise DeadlineError(
                            "deadline exceeded mid-descent "
                            f"({-deadline.remaining_ms():.1f} ms over)"
                        )
            top = stack[-1]
            ki = top[1]
            if ki == top[2]:
                # All element kids processed: pop every lane's frame.
                # Quiet pops (no child truths, node-independent outcome)
                # resolve inline from the cfg-indexed cache; everything
                # else takes the kernel's full pop path.
                stack.pop()
                for frame in top[0]:
                    if frame[5]:
                        lane = frame[6]
                        if not frame[3]:
                            quiet = lane.quiet[frame[2]]
                            if type(quiet) is tuple:
                                dead, report, resolved = quiet
                                if dead:
                                    lane.deaths[frame[1]] = dead
                                lane.resolved += resolved
                                if report:
                                    parent = frame[4]
                                    if parent is not None:
                                        trues = parent[3]
                                        if trues is None:
                                            parent[3] = set(report)
                                        else:
                                            trues.update(report)
                                continue
                        lane.pop_frame(frame, lane.cursor)
                continue
            top[1] = ki + 1
            lid = kid_labels[ki]
            cid = kid_ids[ki]
            child = None
            survivors = None
            for frame in top[0]:
                lane = frame[6]
                packed = frame[7][lid]
                if packed == UNFILLED:
                    packed = lane.fill_row(frame[7], lid, frame[2])
                if lane.indexed:
                    if packed == DEAD:
                        continue
                    eid = packed >> 1
                    mask_key = lane.mask_keys[cid]
                    packed = lane.filters[eid].get(mask_key, UNFILLED)
                    if packed == UNFILLED:
                        packed = lane.kern.fill_filter(eid, mask_key, cid)
                if packed == DEAD:
                    # This lane prunes the subtree; others may descend.
                    continue
                cfg2 = packed >> CFG_SHIFT
                if child is None:
                    child = nodes[cid]
                visit_idx = len(lane.visit_nodes)
                lane.nodes_append(child)
                lane.parents_append(frame[1])
                lane.mstates_append(lane.cfg_mstates[cfg2])
                if packed & FINAL_BIT:
                    lane.finals_append(child)
                rows = lane.rows
                row2 = rows.get(cfg2)
                if row2 is None:
                    row2 = rows.setdefault(cfg2, lane.blank[:])
                child_frame = [
                    child,
                    visit_idx,
                    cfg2,
                    None,
                    frame,
                    packed & POP_BIT,
                    lane,
                    row2,
                ]
                if survivors is None:
                    survivors = [child_frame]
                else:
                    survivors.append(child_frame)
            if survivors is not None:
                if shared is not None:
                    shared.visited_elements += 1
                stack_append([survivors, kid_start[cid], kid_start[cid + 1]])
            elif shared is not None:
                shared.skipped_subtrees += 1
    # Writeback: the loop keeps no per-child counters.  A lane examines
    # every element child of every node it visits, so visited, skipped
    # and cans_vertices all fall out of the visit columns in one cheap
    # closing sweep.
    for lane in live:
        cursor = lane.cursor
        vn = cursor.visit_nodes
        visited = len(vn)
        cursor.visited = visited
        examined = 0
        for node in vn:
            nid = node.node_id
            examined += kid_start[nid + 1] - kid_start[nid]
        cursor.skipped = examined - (visited - 1)
        cursor.cans_vertices = sum(map(len, cursor.visit_mstates))
        if lane.resolved:
            cursor.stats.afa_states_resolved += lane.resolved
