"""Seeded workload inputs and the correctness oracle.

Every workload is a :class:`Workload`: the XML documents the server
loads, the views and tenants it registers, a coverage *sweep* (sent at
every boot; its completion ends set-up) and a request *stream* for the
steady phases.  Documents and the plan-churn query pool come from
fixed generator seeds, so their sizes are stated facts; ``--seed``
drives what is sent: request streams, algorithm draws and sweep order.

The oracle answers every distinct (view, query, document) with
``views.materialize`` plus the naive ``xpath.evaluator.evaluate`` (or
``evaluate`` on the source for trusted tenants) — never with HyPE.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.dtd.samples import hospital_dtd, hospital_view_dtd
from repro.hype.api import ALGORITHMS
from repro.serve.cache import normalized_query_text
from repro.views.materialize import materialize
from repro.views.samples import SIGMA0_ANNOTATIONS
from repro.views.spec import ViewSpec, view_spec
from repro.workloads.hospital import (
    DIAGNOSES,
    HospitalConfig,
    generate_hospital_document,
)
from repro.workloads.multidoc import (
    HOSPITAL,
    MultiDocConfig,
    build_documents,
    curator_names,
    generate_multidoc_traffic,
    ontology_names,
    research_names,
)
from repro.workloads.ontology import (
    ONTOLOGY_SOURCE_QUERIES,
    ONTOLOGY_VIEW_QUERIES,
    curated_view,
)
from repro.workloads.queries import FIG8, VIEW_QUERIES
from repro.workloads.traffic import TrafficConfig, generate_traffic
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_query
from repro.xtree.parse import parse_xml
from repro.xtree.serialize import serialize

WORKLOADS = ("hospital-hot", "plan-churn", "cold-start", "fleet-multidoc")

#: Record-exposure variants of σ0's ``(patient, record)`` annotation.
RECORD_VARIANTS = {
    "all": "visit",
    "meds": "visit[treatment/medication]",
    "cardio": "visit[doctor/specialty/text() = 'cardiology']",
}

#: Steady-phase stream length; the generator cycles it if a run is longer.
STREAM_LENGTH = 20000

#: The plan-churn key pool: tenants (one view each) x queries per tenant.
#: 15 x 40 = 600 keys, over twice the plan cache's 256-entry L1.
CHURN_QUERIES_PER_TENANT = 40

#: The plan-churn pool and its popularity ranking are fixed, like the
#: documents, so every run compiles the same queries; ``--seed`` draws
#: the request sequence from them.
CHURN_POOL_SEED = 11


@dataclass(frozen=True)
class Request:
    """One generated query request (documents by name, not hash)."""

    tenant: str
    query: str
    document: str
    algorithm: str | None = None


@dataclass
class Workload:
    """Everything one workload sends to, and registers on, the server."""

    name: str
    documents: dict[str, str]  # name -> XML text
    default_document: str
    views: dict[str, dict]  # view name -> recipe (see make_view)
    tenants: list[dict]  # {"name", "view", "documents"}
    algorithm: str
    sweep: list[Request]
    stream: list[Request] = field(default_factory=list)
    #: Open-loop arrival rate (requests/s), fixed well below capacity.
    open_rate: float = 0.0
    #: Share of the timed seconds spent in closed-loop segments.
    closed_share: float = 0.15
    #: Fleet workers behind an acceptor (0 = one frontend process).
    workers: int = 0

    def tenant_view(self) -> dict[str, str | None]:
        return {t["name"]: t["view"] for t in self.tenants}


def make_view(recipe: dict) -> ViewSpec:
    """Build the view a recipe names (server and oracle share this)."""
    if recipe["kind"] == "curated":
        return curated_view()
    annotations = dict(SIGMA0_ANNOTATIONS)
    annotations[("hospital", "patient")] = (
        "department/patient[visit/treatment/medication/diagnosis/text() = "
        f"'{recipe['diagnosis']}']"
    )
    annotations[("patient", "record")] = RECORD_VARIANTS[recipe["record"]]
    return view_spec(hospital_dtd(), hospital_view_dtd(), annotations)


SIGMA0 = {"kind": "sigma0", "diagnosis": DIAGNOSES[0], "record": "all"}


def _hospital_xml(patients: int, seed: int) -> str:
    return serialize(
        generate_hospital_document(
            HospitalConfig(num_patients=patients, seed=seed)
        )
    )


def _research(count: int, documents: list[str]) -> tuple[dict, list[dict]]:
    views = {f"research-{i}": SIGMA0 for i in range(count)}
    tenants = [
        {"name": f"inst-{i}", "view": f"research-{i}", "documents": documents}
        for i in range(count)
    ]
    return views, tenants


# ----------------------------------------------------------------------
def hospital_hot(seed: int, tiny: bool) -> Workload:
    """One 200-patient document; the Fig. 8 / σ0 traffic mix."""
    doc = "hospital"
    views, tenants = _research(4, [doc])
    tenants.append({"name": "admin", "view": None, "documents": [doc]})
    rng = random.Random(seed)
    traffic = generate_traffic(
        TrafficConfig(num_tenants=4, num_requests=STREAM_LENGTH, seed=seed)
    )
    stream = [
        Request(r.tenant, r.query, doc, rng.choice(ALGORITHMS))
        for r in traffic
    ]
    sweep = [
        Request(t["name"], query, doc, algorithm)
        for t in tenants
        for query in (VIEW_QUERIES if t["view"] else FIG8).values()
        for algorithm in ALGORITHMS
    ]
    rng.shuffle(sweep)
    return Workload(
        "hospital-hot",
        {doc: _hospital_xml(12 if tiny else 200, 11)},
        doc,
        views,
        tenants,
        "hype",
        sweep,
        stream,
        open_rate=45.0,
    )


def _churn_filter(rng: random.Random) -> str:
    diagnosis = rng.choice(DIAGNOSES)
    atoms = [
        f"record/diagnosis/text() = '{diagnosis}'",
        f"*//record/diagnosis/text() = '{diagnosis}'",
        f"(parent/patient)*/record/diagnosis/text() = '{diagnosis}'",
        f"parent/patient/record/diagnosis/text() = '{diagnosis}'",
        "not(parent)",
        "parent",
        "record/empty",
    ]
    first = rng.choice(atoms)
    if rng.random() < 0.4:
        joiner = rng.choice((" and ", " or "))
        return f"[{first}{joiner}{rng.choice(atoms)}]"
    return f"[{first}]"


def random_view_query(rng: random.Random) -> str:
    """One query over the σ0 view DTD: ``/``, ``//``, ``*``, ``|``,
    Kleene star and text-equality filters."""
    head = rng.choice(
        (
            "patient",
            "*",
            "//patient",
            "patient/(parent/patient)*",
            "(patient/parent)*/patient",
            "patient/parent/patient",
            "(patient|patient/parent/patient)",
        )
    )
    if rng.random() < 0.7:
        head += _churn_filter(rng)
    tail = rng.choice(
        (
            "",
            "/record",
            "//record",
            "/record/diagnosis",
            "/record/empty",
            "/(parent|record)",
            "/record/*",
            "//diagnosis",
        )
    )
    if tail.endswith("record") and rng.random() < 0.5:
        tail += rng.choice(
            (
                f"[diagnosis/text() = '{rng.choice(DIAGNOSES)}']",
                "[empty]",
            )
        )
    return head + tail


def plan_churn(seed: int, tiny: bool) -> Workload:
    """Fifteen σ0 variants x forty generated queries, Zipf-popular."""
    doc = "hospital"
    rng = random.Random(CHURN_POOL_SEED)
    views: dict[str, dict] = {}
    tenants: list[dict] = []
    for diagnosis in DIAGNOSES:
        for record in RECORD_VARIANTS:
            name = f"{diagnosis.replace(' ', '_')}-{record}"
            views[name] = {
                "kind": "sigma0",
                "diagnosis": diagnosis,
                "record": record,
            }
            tenants.append(
                {"name": f"t-{name}", "view": name, "documents": [doc]}
            )
    pool: dict[str, str] = {}
    while len(pool) < CHURN_QUERIES_PER_TENANT * len(tenants):
        query = random_view_query(rng)
        pool.setdefault(normalized_query_text(query), query)
    queries = list(pool.values())
    keys = [
        (t["name"], queries[i * CHURN_QUERIES_PER_TENANT + j])
        for i, t in enumerate(tenants)
        for j in range(CHURN_QUERIES_PER_TENANT)
    ]
    rng.shuffle(keys)
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]
    drawn = random.Random(seed).choices(keys, weights=weights, k=STREAM_LENGTH)
    stream = [Request(tenant, query, doc) for tenant, query in drawn]
    # Set-up warms the document and each tenant's most popular query;
    # everything else is first touched during the timed phases.
    sweep: list[Request] = []
    seen: set[str] = set()
    for tenant, query in keys:
        if tenant not in seen:
            seen.add(tenant)
            sweep.append(Request(tenant, query, doc))
    return Workload(
        "plan-churn",
        {doc: _hospital_xml(5 if tiny else 20, 11)},
        doc,
        views,
        tenants,
        "hype",
        sweep,
        stream,
        open_rate=120.0,
        # GC pauses land in closed segments too; a longer closed loop
        # averages over more of them.
        closed_share=0.3,
    )


def cold_start(seed: int, tiny: bool) -> Workload:
    """Four 200-patient documents, one request per (tenant, doc, query)."""
    names = [f"hospital-{i}" for i in range(4)]
    documents = {
        name: _hospital_xml(10 if tiny else 200, 11 + i)
        for i, name in enumerate(names)
    }
    views, tenants = _research(4, names)
    tenants.append({"name": "admin", "view": None, "documents": names})
    sweep = [
        Request(t["name"], query, doc)
        for t in tenants
        for doc in names
        for query in (VIEW_QUERIES if t["view"] else FIG8).values()
    ]
    random.Random(seed).shuffle(sweep)
    return Workload(
        "cold-start",
        documents,
        names[0],
        views,
        tenants,
        "opthype",
        sweep,
    )


def fleet_multidoc(seed: int, tiny: bool) -> Workload:
    """Hospital + ontology behind a two-worker fleet, routed per request."""
    doc_config = MultiDocConfig(seed=11, patients=10 if tiny else 60)
    documents = {
        name: serialize(tree)
        for name, tree in build_documents(doc_config).items()
    }
    ontologies = ontology_names(doc_config)
    views, tenants = _research(doc_config.tenants, [HOSPITAL])
    for j, curator in enumerate(curator_names(doc_config)):
        views[f"curated-{j}"] = {"kind": "curated"}
        tenants.append(
            {"name": curator, "view": f"curated-{j}", "documents": ontologies}
        )
    tenants.append(
        {"name": "admin", "view": None, "documents": [HOSPITAL, *ontologies]}
    )
    traffic = generate_multidoc_traffic(
        MultiDocConfig(seed=seed, num_requests=STREAM_LENGTH)
    )
    stream = [Request(r.tenant, r.query, r.document) for r in traffic]
    sweep = []
    for t in tenants:
        for doc in t["documents"]:
            if t["view"] is None:
                pool = FIG8 if doc == HOSPITAL else ONTOLOGY_SOURCE_QUERIES
            elif t["name"] in research_names(doc_config):
                pool = VIEW_QUERIES
            else:
                pool = ONTOLOGY_VIEW_QUERIES
            sweep.extend(Request(t["name"], q, doc) for q in pool.values())
    random.Random(seed).shuffle(sweep)
    return Workload(
        "fleet-multidoc",
        documents,
        HOSPITAL,
        views,
        tenants,
        "hype",
        sweep,
        stream,
        open_rate=70.0,
        closed_share=0.2,
        workers=2,
    )


BUILDERS = {
    "hospital-hot": hospital_hot,
    "plan-churn": plan_churn,
    "cold-start": cold_start,
    "fleet-multidoc": fleet_multidoc,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)


# ----------------------------------------------------------------------
class Oracle:
    """Expected sorted id lists per (view recipe, query, document).

    Answers are computed on first request and cached; tenants bound to
    identical recipes share entries.  ``hashes`` maps document names to
    their canonical content hashes — the addresses the server derives
    for the same texts.
    """

    def __init__(self, workload: Workload) -> None:
        from repro.docstore.document import content_digest

        self._view_of = workload.tenant_view()
        self._recipes = workload.views
        self._expected: dict[tuple, list[int]] = {}
        self._trees = {}
        self._materialized: dict[tuple, object] = {}
        self.hashes: dict[str, str] = {}
        for name, text in workload.documents.items():
            tree = parse_xml(text)
            self._trees[name] = tree
            self.hashes[name] = content_digest(serialize(tree))

    def _key(self, request: Request) -> tuple:
        view = self._view_of[request.tenant]
        recipe = None if view is None else json.dumps(
            self._recipes[view], sort_keys=True
        )
        return (recipe, request.query, request.document)

    def expected(self, request: Request) -> list[int]:
        key = self._key(request)
        ids = self._expected.get(key)
        if ids is None:
            recipe, query, document = key
            tree = self._trees[document]
            if recipe is None:
                nodes = evaluate(parse_query(query), tree.root)
            else:
                view_key = (recipe, document)
                view = self._materialized.get(view_key)
                if view is None:
                    view = materialize(make_view(json.loads(recipe)), tree)
                    self._materialized[view_key] = view
                nodes = view.sources(
                    evaluate(parse_query(query), view.tree.root)
                )
            ids = self._expected[key] = sorted(n.node_id for n in nodes)
        return ids
