"""Batched HyPE: N plans evaluated in one shared top-down document pass.

Sequential serving runs one :class:`repro.hype.core.CompiledPlan` pass
per query, so K concurrent queries over one source cost K document
traversals even though the traversals are identical in shape.  The batch
evaluator instead drives every automaton down a *single* depth-first pass
(a network of automata sharing one execution context): each automaton is
a *lane* carrying its own ``mstates``/``fstates`` cursor, and a subtree
is descended iff **at least one** lane keeps live states for it — i.e. a
subtree is pruned only when *every* live automaton allows the prune.

Correctness: a lane steps its plan's dense kernel only at nodes where
it is itself live, calls the same transition/pop machinery, and records
its own cans DAG into its own :class:`repro.hype.core.RunCursor` —
exactly the state the sequential run would build.  So per-lane answers
*and* per-lane statistics (visited, skipped, gate failures) are
identical to N sequential runs; only the shared traversal count
(:class:`BatchStats`) differs, and that is the win being measured.

The pass itself is :func:`repro.hype.kernel.descend` — the SAME loop a
sequential :meth:`repro.hype.core.CompiledPlan.run` drives with one
lane, so there is no mirrored descent to keep in lockstep anymore.

Sharing: lanes are :class:`CompiledPlan` objects, so two lanes given the
*same* plan object (e.g. the same view query admitted for two tenants)
fill and read one set of memo tables, and the tables stay warm across
batches and across the service's worker pool — plans are thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hype.core import CompiledPlan, HyPEResult, RunCursor
from ..hype.kernel import descend
from ..xtree.node import Node


@dataclass
class BatchStats:
    """Counters of the *shared* pass (per-lane stats live on each result)."""

    #: Lanes in the batch (live or not at the root).
    lanes: int = 0
    #: Elements the shared pass visited (unique nodes with >= 1 live lane).
    visited_elements: int = 0
    #: Subtrees skipped because *no* lane kept live states.
    skipped_subtrees: int = 0
    #: Sum of per-lane visited elements == cost of N sequential passes.
    sequential_visited: int = 0

    @property
    def saved_visits(self) -> int:
        """Element visits the batch avoided vs. sequential evaluation."""
        return self.sequential_visited - self.visited_elements


@dataclass
class BatchResult:
    """Per-lane results (input order) plus the shared-pass counters."""

    results: list[HyPEResult]
    stats: BatchStats = field(default_factory=BatchStats)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class BatchEvaluator:
    """Evaluate many compiled plans over one document in a single pass.

    Takes :class:`repro.hype.core.CompiledPlan` lanes only — plans may
    mix plain HyPE and OptHyPE (index-equipped) freely since each lane
    prunes with its own machinery, and one plan object may back several
    lanes (its memo tables are shared and thread-safe).  Passing a raw
    MFA was deprecated with the plan/run-state split: compile it first.
    """

    def __init__(self, plans: list[CompiledPlan]) -> None:
        if not plans:
            raise ValueError("BatchEvaluator needs at least one plan")
        for plan in plans:
            if not isinstance(plan, CompiledPlan):
                raise TypeError(
                    "BatchEvaluator takes CompiledPlan lanes only since the "
                    "plan/run-state split; wrap the automaton first: "
                    f"CompiledPlan(mfa) — got {type(plan).__name__!r}"
                )
        self.plans = list(plans)

    # ------------------------------------------------------------------
    def run(self, context: Node, layout=None, deadline=None) -> BatchResult:
        """Evaluate every lane's ``context[[M]]`` in one shared pass.

        The pass is the one shared :func:`repro.hype.kernel.descend`
        loop over a columnar
        :class:`repro.docstore.layout.DocumentLayout` — ``layout`` when
        given pre-resolved and covering ``context``, else the context
        tree's own — and per-lane answers and stats are identical to N
        sequential runs.  A lane dead at the root never enters the pass
        (the sequential run returns the all-zero result immediately).

        ``deadline`` (a :class:`repro.guard.Deadline`) arms the kernel's
        cooperative cancellation checkpoint: an expired pass raises
        :class:`repro.errors.DeadlineError` and the batch's local cursors
        are discarded with it, so no partial answer can escape.
        """
        stats = BatchStats(lanes=len(self.plans))
        cursors = [RunCursor(plan) for plan in self.plans]
        descend(
            list(zip(self.plans, cursors)),
            context,
            layout,
            shared=stats,
            deadline=deadline,
        )
        results = [cursor.finish() for cursor in cursors]
        stats.sequential_visited = sum(r.stats.visited_elements for r in results)
        return BatchResult(results, stats)
