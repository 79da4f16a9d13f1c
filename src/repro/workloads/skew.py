"""Hot-key-skew serving workload: one Zipf-hot document behind N tenants.

The first entry of the ROADMAP scenario zoo: several hospital documents
of identical shape (shifted generator seeds, distinct content hashes)
sit behind one service, and every request draws its target document from
a Zipf distribution — rank 0 is the *hot* document that almost every
tenant hammers, the tail documents see occasional traffic.  The stream
stresses exactly the machinery a hot key stresses in production: the
document store's hit accounting, admission waves that pile many lanes
onto one document (many same-view lanes sharing one pass),
and the fleet's consistent-hash ring, which by construction routes the
hot key to ONE worker.

Everything is seeded and deterministic, mirroring
:mod:`repro.workloads.traffic` and :mod:`repro.workloads.multidoc`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from ..views.samples import sigma0
from .hospital import HospitalConfig, generate_hospital_document
from .queries import FIG8, VIEW_QUERIES
from .traffic import TrafficRequest


@dataclass
class SkewConfig:
    """Knobs for the hot-document stream (JSON-round-trippable).

    ``zipf_s`` is the Zipf exponent over document ranks: draw weight for
    the rank-``r`` document is ``1 / (r + 1) ** zipf_s``, so ``s = 0``
    degenerates to uniform and larger ``s`` concentrates traffic on the
    rank-0 hot document (the default ``1.2`` sends roughly two thirds of
    a four-document stream there).
    """

    documents: int = 4
    patients: int = 40
    tenants: int = 4
    seed: int = 0
    num_requests: int = 64
    admin_rate: float = 0.15
    hot_fraction: float = 0.5
    zipf_s: float = 1.2

    def __post_init__(self) -> None:
        if self.documents < 1:
            raise ValueError(f"documents must be >= 1, got {self.documents}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SkewConfig":
        return cls(**data)


def document_names(config: SkewConfig) -> list[str]:
    """Document names by rank: ``hot``, ``warm-1``, ``warm-2``, ..."""
    return ["hot"] + [f"warm-{r}" for r in range(1, config.documents)]


def zipf_weights(config: SkewConfig) -> list[float]:
    """Unnormalised Zipf draw weights by document rank."""
    return [1.0 / (r + 1) ** config.zipf_s for r in range(config.documents)]


def build_documents(config: SkewConfig | None = None) -> dict:
    """The ranked documents by name — same shape, shifted seeds."""
    cfg = config or SkewConfig()
    return {
        name: generate_hospital_document(
            HospitalConfig(num_patients=cfg.patients, seed=cfg.seed + rank)
        )
        for rank, name in enumerate(document_names(cfg))
    }


def tenant_names(config: SkewConfig) -> list[str]:
    return [f"inst-{i}" for i in range(max(1, config.tenants))]


def build_skew_service(
    config: SkewConfig | dict | None = None,
    plan_store=None,
    document_store=None,
    pool_size: int | None = None,
):
    """Build the hot-document service; returns ``(service, hashes)``.

    ``hashes`` maps document names (:func:`document_names` order) to
    content hashes.  Every research tenant shares ONE registered ``σ0``
    view and may reach every document — the skew lives in the *stream*,
    not the catalog — so waves that pile onto the hot document share
    one pass across many same-view lanes.
    """
    from ..serve.service import QueryService

    if isinstance(config, dict):
        config = SkewConfig.from_dict(config)
    cfg = config or SkewConfig()
    documents = build_documents(cfg)
    names = document_names(cfg)
    kwargs = {} if pool_size is None else {"pool_size": pool_size}
    service = QueryService(
        documents[names[0]],
        plan_store=plan_store,
        document_store=document_store,
        **kwargs,
    )
    hashes = {names[0]: service.default_document_hash}
    for name in names[1:]:
        hashes[name] = service.add_document(documents[name])
    all_hashes = tuple(hashes[name] for name in names)
    service.register_view("research", sigma0())
    for tenant in tenant_names(cfg):
        service.register_tenant(tenant, "research", documents=all_hashes)
    service.register_tenant("admin", None, documents=all_hashes)
    return service, hashes


def generate_skew_traffic(
    config: SkewConfig | None = None,
    hashes: dict | None = None,
) -> list[TrafficRequest]:
    """The seeded Zipf-hot request stream.

    With ``hashes`` (from :func:`build_skew_service`) each request
    carries its target document's content hash; without, the document
    *name* — callers replaying against a live service translate first.
    """
    cfg = config or SkewConfig()
    rng = random.Random(cfg.seed + 1)
    tenants = tenant_names(cfg)
    names = document_names(cfg)
    weights = zipf_weights(cfg)
    view_items = sorted(VIEW_QUERIES.items())
    hot_queries = view_items[: max(1, len(view_items) // 3)]
    admin_items = sorted(FIG8.items())

    def doc() -> str:
        name = rng.choices(names, weights=weights)[0]
        return hashes[name] if hashes is not None else name

    requests: list[TrafficRequest] = []
    for _ in range(cfg.num_requests):
        if admin_items and rng.random() < cfg.admin_rate:
            name, query = rng.choice(admin_items)
            requests.append(TrafficRequest("admin", query, name, document=doc()))
            continue
        pool = hot_queries if rng.random() < cfg.hot_fraction else view_items
        name, query = rng.choice(pool)
        requests.append(
            TrafficRequest(rng.choice(tenants), query, name, document=doc())
        )
    return requests


def document_share(requests: list[TrafficRequest]) -> dict:
    """Requests per document hash/name — the observed skew of a stream."""
    share: dict = {}
    for request in requests:
        share[request.document] = share.get(request.document, 0) + 1
    return dict(sorted(share.items(), key=lambda kv: -kv[1]))
