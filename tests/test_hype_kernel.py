"""Dense-kernel properties: one loop, one table, persistable closure.

The kernel's acceptance bar: for ANY document and ANY query, the single
:func:`repro.hype.kernel.descend` loop must produce the reference
evaluator's answers and byte-identical :class:`HyPEStats` across all
three algorithm variants, sequentially and batched — and a plan whose
table was *preloaded* from a persisted :func:`kernel_payload` closure
must be indistinguishable from one that filled lazily.  The payload
itself must survive the artifact codec (format v3) and be rejected
structurally when mangled.  A golden table pins the counters on a fixed
hospital document.
"""

import pytest
from hypothesis import given, settings

from repro.compile import ArtifactError, PlanArtifact, QueryCompiler
from repro.compile.artifact import _validate_kernel
from repro.docstore import IndexedDocument
from repro.hype.api import ALGORITHMS, compile_plan, to_mfa
from repro.hype.core import CompiledPlan
from repro.hype.kernel import OTHER_LABEL, kernel_payload
from repro.hype.index import build_index
from repro.serve.batch import BatchEvaluator
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.workloads.queries import FIG8
from repro.xpath.evaluator import evaluate

from .strategies import paths, trees


def _algorithm_plans(query, tree):
    return [
        compile_plan(query, algorithm=algorithm, tree=tree)
        for algorithm in ALGORITHMS
    ]


class TestOneSharedLoop:
    @given(trees(), paths())
    @settings(max_examples=40, deadline=None)
    def test_batched_lanes_match_sequential_runs(self, tree, query):
        """All three algorithms in ONE batched pass == three sequential
        runs == the reference evaluator, with a derived and with a
        pre-resolved layout."""
        plans = _algorithm_plans(query, tree)
        layout = IndexedDocument(tree).layout
        expected = evaluate(query, tree.root)
        for batch_layout in (None, layout):
            batch = BatchEvaluator(plans).run(tree.root, layout=batch_layout)
            for plan, lane in zip(plans, batch.results):
                solo = plan.run(tree.root, layout=batch_layout)
                assert lane.answers == solo.answers == expected
                assert lane.stats == solo.stats

    def test_descend_is_the_only_descent_loop(self):
        """Structural guard: CompiledPlan.run and BatchEvaluator.run
        both drive repro.hype.kernel.descend, no other descent
        implementation exists in the library (no composed machine), and
        the kernel walks only the columnar layout — no Node-list child
        walk anywhere under repro/hype/."""
        import ast as pyast
        import importlib.util
        import inspect
        import pathlib

        import repro

        assert importlib.util.find_spec("repro.hype.compose") is None
        src_root = pathlib.Path(inspect.getfile(repro)).parent
        callers = []
        child_walks = []
        for path in sorted(src_root.rglob("*.py")):
            tree = pyast.parse(path.read_text())
            for node in pyast.walk(tree):
                if not isinstance(node, pyast.Call):
                    continue
                if isinstance(node.func, pyast.Name) and node.func.id == "descend":
                    callers.append(path.name)
                if (
                    isinstance(node.func, pyast.Attribute)
                    and node.func.attr == "element_children_cached"
                    and path.parent.name == "hype"
                ):
                    child_walks.append(path.name)
        assert sorted(callers) == ["batch.py", "core.py"]
        assert child_walks == []


class TestPreloadedClosure:
    @given(trees(), paths())
    @settings(max_examples=30, deadline=None)
    def test_preloaded_plan_is_indistinguishable(self, tree, query):
        """A plan rehydrated from a persisted closure answers exactly
        like a lazily-filled one — every algorithm, both paths."""
        mfa = to_mfa(query)
        payload = kernel_payload(CompiledPlan(mfa))
        layout = IndexedDocument(tree).layout
        indexes: dict = {}
        for algorithm in ALGORITHMS:
            lazy = CompiledPlan.for_algorithm(mfa, algorithm, tree, indexes)
            eager = CompiledPlan.for_algorithm(
                mfa, algorithm, tree, indexes, kernel=payload
            )
            expected = evaluate(query, tree.root)
            for run_layout in (None, layout):
                a = lazy.run(tree.root, layout=run_layout)
                b = eager.run(tree.root, layout=run_layout)
                assert a.answers == b.answers == expected
                assert a.stats == b.stats

    def test_preload_installs_the_closure(self):
        mfa = to_mfa("a/b")
        payload = kernel_payload(CompiledPlan(mfa))
        assert payload["trans"], "closure of a/b cannot be empty"
        plan = CompiledPlan(mfa)
        installed = plan.kernel.preload(payload)
        assert installed == len(payload["trans"])
        # Idempotent: a second preload finds every entry present.
        assert plan.kernel.preload(payload) == 0

    def test_payload_requires_an_index_free_plan(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=1, seed=0))
        mfa = to_mfa("//patient")
        indexed = CompiledPlan(mfa, index=build_index(tree, compressed=False))
        with pytest.raises(ValueError):
            kernel_payload(indexed)

    def test_other_column_aliases_unknown_labels(self):
        """Labels outside the automaton alphabet share ONE transition
        word — the aliasing that keeps the closed table finite and
        document-independent."""
        from repro.xtree.build import document, element

        tree = document(
            element("a", *(element(f"z{i}") for i in range(6)))
        )
        plan = compile_plan("a/b", algorithm="hype")
        plan.run(tree.root)
        kern = plan.kernel
        assert not any(label.startswith("z") for label in kern.alphabet)
        aliased = [
            (cfg, label)
            for (cfg, label) in kern.trans
            if label.startswith("z")
        ]
        assert aliased, "unknown labels must have been probed"
        for cfg, label in aliased:
            assert kern.trans[(cfg, label)] == kern.trans[(cfg, OTHER_LABEL)]


class TestStaleLayoutFallback:
    def test_refrozen_tree_falls_back_with_a_rehydrated_layout(self, tmp_path):
        """The freeze_count guard must hold for layouts loaded from the
        binary sidecar exactly as for built ones: after an edit +
        re-freeze, the loaded layout stands down and the kernel serves
        the new structure through a layout re-derived for the new
        freeze."""
        from repro.docstore import DocumentStore
        from repro.xtree.build import document, element
        from repro.xtree.node import Node, index_tree
        from repro.xtree.serialize import serialize

        tree = document(element("a", element("b"), element("c")))
        xml = serialize(tree)
        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(xml)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        doc = warm.get(xml)
        assert warm.stats.layout_loads == 1  # rehydrated, not rebuilt
        stale = doc.layout
        plan = compile_plan("//b", algorithm="hype")
        assert len(plan.run(doc.tree.root, layout=stale).answers) == 1

        doc.tree.root.append(Node("b"))
        index_tree(doc.tree.root, doc.tree)

        assert not stale.covers(doc.tree.root)
        via_layout = plan.run(doc.tree.root, layout=stale)
        direct = plan.run(doc.tree.root)
        assert doc.tree.layout is not stale
        assert doc.tree.layout.covers(doc.tree.root)
        assert len(direct.answers) == 2
        assert via_layout.answers == direct.answers
        assert via_layout.stats == direct.stats


#: ``(visited, skipped, cans_vertices, afa_states_resolved)`` per Fig. 8
#: query and algorithm on the 20-patient, seed-11 hospital document.
#: Recorded while the string path still cross-checked the columnar one;
#: with that check gone these values pin the kernel's counters.
GOLDEN_STATS = {
    ("fig8a", "hype"): (889, 0, 3643, 2684),
    ("fig8a", "opthype"): (238, 240, 239, 611),
    ("fig8a", "opthype-c"): (238, 240, 239, 611),
    ("fig8b", "hype"): (889, 0, 3643, 5440),
    ("fig8b", "opthype"): (421, 308, 239, 1354),
    ("fig8b", "opthype-c"): (421, 308, 239, 1354),
    ("fig8c", "hype"): (889, 0, 3643, 5396),
    ("fig8c", "opthype"): (333, 280, 271, 983),
    ("fig8c", "opthype-c"): (333, 280, 271, 983),
}


class TestGoldenStats:
    @pytest.fixture(scope="class")
    def golden_tree(self):
        return generate_hospital_document(HospitalConfig(num_patients=20, seed=11))

    @pytest.mark.parametrize("name, algorithm", sorted(GOLDEN_STATS))
    def test_fig8_counters_are_pinned(self, golden_tree, name, algorithm):
        plan = compile_plan(FIG8[name], algorithm=algorithm, tree=golden_tree)
        for result in (
            plan.run(golden_tree.root),
            BatchEvaluator([plan]).run(golden_tree.root).results[0],
        ):
            stats = result.stats
            assert (
                stats.visited_elements,
                stats.skipped_subtrees,
                stats.cans_vertices,
                stats.afa_states_resolved,
            ) == GOLDEN_STATS[(name, algorithm)]


class TestArtifactKernelField:
    def test_kernel_survives_the_codec(self):
        artifact = QueryCompiler().compile(None, "a[b]/c")
        assert artifact.kernel is not None
        decoded = PlanArtifact.from_bytes(artifact.to_bytes())
        assert decoded.kernel == artifact.kernel

    def test_kernel_field_is_optional(self):
        artifact = QueryCompiler().compile(None, "a/b")
        payload = artifact.to_payload()
        del payload["kernel"]
        decoded = PlanArtifact.from_payload(payload)
        assert decoded.kernel is None

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda k: "not a dict",
            lambda k: {key: v for key, v in k.items() if key != "trans"},
            lambda k: {**k, "labels": [1, 2]},
            lambda k: {**k, "sets": [["x"]]},
            lambda k: {**k, "cfgs": [[0, 10_000, []]]},
            lambda k: {**k, "cfgs": [[0, 0, [[1]]]]},
            lambda k: {**k, "trans": [[10_000, 0, 0, 0]]},
            lambda k: {**k, "trans": [[0, 10_000, 0, 0]]},
            lambda k: {**k, "trans": [[0, 0, 10_000, 0]]},
            lambda k: {**k, "trans": [[0, 0, 0]]},
        ],
    )
    def test_mangled_kernel_fails_the_decode(self, mangle):
        """A bad closure must fail as a counted ArtifactError at decode
        time, never crash a preload inside the evaluator."""
        artifact = QueryCompiler().compile(None, "a[b]/c")
        payload = artifact.to_payload()
        payload["kernel"] = mangle(payload["kernel"])
        with pytest.raises(ArtifactError):
            PlanArtifact.from_payload(payload)

    def test_validate_kernel_accepts_none(self):
        assert _validate_kernel(None) is None
