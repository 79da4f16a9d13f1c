"""The columnar layout is the only data path — and it gives the paper's answers.

Every run walks a :class:`repro.docstore.layout.DocumentLayout`: the
caller's when it covers the context, otherwise the tree's own, derived
once per freeze.  For ANY document and ANY query the answers must match
the reference evaluator (:func:`repro.xpath.evaluator.evaluate`) across
all three algorithm variants, sequentially and batched, from the root
and from subtree contexts — and a pre-resolved layout must be
indistinguishable from a derived one, down to the per-run
:class:`HyPEStats`.
"""

import pytest
from hypothesis import given, settings

from repro.docstore import DocumentLayout, DocumentStore, IndexedDocument
from repro.errors import EvaluationError
from repro.hype.api import ALGORITHMS, OPTHYPE, compile_plan
from repro.serve.batch import BatchEvaluator
from repro.serve.service import QueryRequest, QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.workloads.queries import FIG8
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_query
from repro.xtree.build import document, element
from repro.xtree.node import Node, index_tree
from repro.xtree.serialize import serialize

from .strategies import paths, trees


@pytest.fixture()
def layout_builds(monkeypatch):
    """Count ``DocumentLayout`` constructions (tree walks) in the test."""
    builds = []
    init = DocumentLayout.__init__

    def counting_init(self, tree):
        builds.append(tree)
        init(self, tree)

    monkeypatch.setattr(DocumentLayout, "__init__", counting_init)
    return builds


@given(trees(), paths())
@settings(max_examples=60, deadline=None)
def test_run_matches_reference_evaluator(tree, query):
    expected = evaluate(query, tree.root)
    doc = IndexedDocument(tree)
    for algorithm in ALGORITHMS:
        plan = compile_plan(query, algorithm=algorithm, tree=tree)
        derived = plan.run(tree.root)
        resolved = plan.run(tree.root, layout=doc.layout)
        assert derived.answers == expected
        assert resolved.answers == expected
        assert resolved.stats == derived.stats


@given(trees(), paths(max_leaves=5), paths(max_leaves=5))
@settings(max_examples=40, deadline=None)
def test_batch_matches_reference_evaluator(tree, first, second):
    doc = IndexedDocument(tree)
    plans = [
        compile_plan(first, algorithm="hype"),
        compile_plan(second, algorithm="opthype-c", tree=tree),
    ]
    derived = BatchEvaluator(plans).run(tree.root)
    resolved = BatchEvaluator(plans).run(tree.root, layout=doc.layout)
    assert derived.stats == resolved.stats
    for query, a, b in zip((first, second), derived.results, resolved.results):
        assert a.answers == b.answers == evaluate(query, tree.root)
        assert a.stats == b.stats


@given(trees(), paths())
@settings(max_examples=40, deadline=None)
def test_columnar_subtree_contexts_agree(tree, query):
    """The layout covers every node, not just the root."""
    doc = IndexedDocument(tree)
    contexts = [n for n in tree.nodes if n.is_element][:5]
    plan = compile_plan(query, algorithm="hype")
    for context in contexts:
        a = plan.run(context)
        b = plan.run(context, layout=doc.layout)
        assert a.answers == b.answers == evaluate(query, context)
        assert a.stats == b.stats


def test_refrozen_tree_invalidates_the_layout(layout_builds):
    """Regression: index_tree re-freezes IN PLACE (same nodes list
    object), so a stale layout used to keep passing covers() and the
    columnar path silently dropped nodes added by the documented
    edit + re-freeze protocol.  The stale layout now stands down and
    the run re-derives one for the new freeze — once."""
    tree = document(element("a", element("b"), element("c")))
    doc = IndexedDocument(tree)
    stale_layout = doc.layout
    plan = compile_plan("//b", algorithm="hype")
    assert len(plan.run(tree.root, layout=stale_layout).answers) == 1

    tree.root.append(Node("b"))
    index_tree(tree.root, tree)

    assert not stale_layout.covers(tree.root)
    builds = len(layout_builds)
    via_stale = plan.run(tree.root, layout=stale_layout)
    derived = plan.run(tree.root)
    assert len(layout_builds) == builds + 1
    assert tree.layout is not stale_layout
    assert tree.layout.covers(tree.root)
    assert len(derived.answers) == 2
    assert derived.answers == evaluate(parse_query("//b"), tree.root)
    assert via_stale.answers == derived.answers
    assert via_stale.stats == derived.stats


def test_layout_is_derived_once_per_freeze(layout_builds):
    tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=4))
    plan = compile_plan("//patient", algorithm="hype")
    for context in (tree.root, tree.root, tree.nodes[3]):
        plan.run(context)
    BatchEvaluator([plan, plan]).run(tree.root)
    assert layout_builds == [tree]


def test_foreign_layout_is_replaced_by_the_derived_one():
    tree = generate_hospital_document(HospitalConfig(num_patients=2, seed=0))
    other = generate_hospital_document(HospitalConfig(num_patients=3, seed=9))
    layout = IndexedDocument(other).layout
    assert not layout.covers(tree.root)
    plan = compile_plan("//patient", algorithm="hype")
    direct = plan.run(tree.root)
    foreign = plan.run(tree.root, layout=layout)
    assert foreign.answers == direct.answers
    assert foreign.answers == evaluate(parse_query("//patient"), tree.root)
    assert foreign.stats == direct.stats


def test_one_plan_serves_two_documents_with_distinct_layouts():
    """Label ids are per-document: a shared HyPE plan must not leak one
    document's interning into another's rows."""
    query = "//patient/record"
    plan = compile_plan(query, algorithm="hype")
    for seed in (1, 2, 3):
        tree = generate_hospital_document(
            HospitalConfig(num_patients=2, seed=seed)
        )
        doc = IndexedDocument(tree)
        a = plan.run(tree.root)
        b = plan.run(tree.root, layout=doc.layout)
        assert a.answers == b.answers == evaluate(parse_query(query), tree.root)
        assert a.stats == b.stats


def test_nodes_outliving_their_tree_still_evaluate():
    root = generate_hospital_document(HospitalConfig(num_patients=2, seed=6)).root
    plan = compile_plan("//patient", algorithm="hype")
    assert plan.run(root).answers == evaluate(parse_query("//patient"), root)


def test_detached_context_is_rejected():
    tree = document(element("a", element("b", element("c"))))
    detached = tree.root.children[0]
    tree.root.children.clear()
    index_tree(tree.root, tree)
    with pytest.raises(EvaluationError):
        compile_plan("c", algorithm="hype").run(detached)


class TestServiceSharing:
    @pytest.fixture()
    def store_and_service(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=6, seed=2))
        store = DocumentStore()
        service = QueryService(
            tree, default_algorithm=OPTHYPE, document_store=store
        )
        service.register_tenant("t", None)
        yield store, service, tree
        service.close()

    def test_n_requests_one_index_build(self, store_and_service):
        """The acceptance metric: ``doc_index_builds == 1`` while
        ``doc_hits >= N - 1`` for N requests over one document."""
        store, service, _tree = store_and_service
        n = 8
        for _ in range(n):
            service.submit("t", FIG8["fig8a"])
        snap = service.metrics_snapshot()
        assert snap.doc_index_builds == 1
        assert snap.doc_hits >= n - 1
        payload = snap.as_dict()
        assert payload["doc_index_builds"] == 1
        assert payload["doc_hits"] >= n - 1
        assert payload["doc_store"]["index_builds"] == 1
        assert "doc store: " in snap.describe()

    def test_store_backed_answers_match_plain_service(self, store_and_service):
        store, service, tree = store_and_service
        with QueryService(tree, default_algorithm=OPTHYPE) as plain:
            plain.register_tenant("t", None)
            for query in FIG8.values():
                a = service.submit("t", query)
                b = plain.submit("t", query)
                assert a.ids() == b.ids()
                assert a.stats == b.stats

    def test_batched_wave_shares_the_store_document(self, store_and_service):
        store, service, _tree = store_and_service
        requests = [QueryRequest("t", q) for q in FIG8.values()] * 2
        result = service.submit_wave(requests)
        assert result.rejected == 0
        assert store.stats.index_builds == 1

    def test_two_services_one_store_share_one_build(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=4, seed=5))
        xml = serialize(tree)
        store = DocumentStore()
        with QueryService(
            store.get(xml), default_algorithm=OPTHYPE, document_store=store
        ) as first, QueryService(
            store.get(xml), default_algorithm=OPTHYPE, document_store=store
        ) as second:
            first.register_tenant("t", None)
            second.register_tenant("t", None)
            a = first.submit("t", "//patient")
            b = second.submit("t", "//patient")
            assert a.ids() == b.ids()
            assert store.stats.index_builds == 1

    def test_one_layout_per_served_document(self, tmp_path, layout_builds):
        """N requests over one store document cost exactly ONE layout
        construction — and zero after a warm ``--doc-dir`` reload, whose
        layout is mmap-loaded — so the per-run lazy derivation never
        duplicates the store's layout."""
        tree = generate_hospital_document(HospitalConfig(num_patients=4, seed=8))
        xml = serialize(tree)
        requests = [QueryRequest("t", q) for q in FIG8.values()]
        answers = []
        for expected_builds in (1, 0):
            layout_builds.clear()
            store = DocumentStore(index_dir=tmp_path / "docs")
            doc = store.get(xml)
            with QueryService(
                doc, default_algorithm=OPTHYPE, document_store=store
            ) as service:
                service.register_tenant("t", None)
                for request in requests:
                    service.submit(request.tenant, request.query)
                service.submit_many(requests)
                service.submit_wave(requests * 2)
                answers.append(
                    [service.submit("t", q).ids() for q in FIG8.values()]
                )
            # A run given no layout derives one — and must find the
            # store's instead of building a second.
            compile_plan("//patient", algorithm="hype").run(doc.tree.root)
            assert len(layout_builds) == expected_builds
        assert store.stats.layout_loads == 1
        assert answers[0] == answers[1]
