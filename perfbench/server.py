"""The benchmark's server entry: the serving stack built by its public API.

``python -m perfbench.server CONFIG.json`` loads the configured XML
documents through ``DocumentStore.get``, registers them, the views and
the tenants on a ``QueryService`` and serves it with ``start_frontend``
— or, with ``workers`` > 0, starts a fleet acceptor whose workers build
the same service through :func:`build_service`.  Once listening it
prints one JSON line (port, pid, document hashes), serves until its
stdin closes, drains, and writes an exit report (peak RSS, service
counters, layer trace) to ``<report_dir>/<role>-<pid>.json``.
"""

from __future__ import annotations

import asyncio
import atexit
import json
import os
import resource
import sys
from pathlib import Path

from repro.compile.store import PlanStore
from repro.docstore import DocumentStore
from repro.serve.fleet import FleetSpec, start_fleet
from repro.serve.frontend import start_frontend
from repro.serve.service import QueryService

from perfbench.inputs import make_view


def build_service(config, plan_store=None, document_store=None, pool_size=None):
    """Build ``(service, hashes)``; also the fleet workers' builder.

    In a fleet worker (``config["role"] == "worker"``) it also installs
    layer tracing when the run is traced and arranges the exit report.
    """
    recorder = None
    if config.get("role") == "worker" and config["trace"]:
        from perfbench import layers

        recorder = layers.install()
    store = document_store if document_store is not None else DocumentStore()
    docs = {
        name: store.get(Path(path).read_text())
        for name, path in config["documents"].items()
    }
    kwargs = {} if pool_size is None else {"pool_size": pool_size}
    default = config["default_document"]
    service = QueryService(
        docs[default],
        default_algorithm=config["algorithm"],
        plan_store=plan_store,
        document_store=store,
        **kwargs,
    )
    hashes = {default: service.default_document_hash}
    for name, doc in docs.items():
        if name != default:
            hashes[name] = service.add_document(doc)
    for name, recipe in config["views"].items():
        service.register_view(name, make_view(recipe))
    for tenant in config["tenants"]:
        service.register_tenant(
            tenant["name"],
            tenant["view"],
            documents=tuple(hashes[d] for d in tenant["documents"]),
        )
    if config.get("role") == "worker":
        atexit.register(write_report, config, "worker", service, recorder)
    return service, hashes


def write_report(config, role, service=None, recorder=None) -> None:
    """Write this process's exit report (atomically) into the report dir."""
    report = {
        "role": role,
        "pid": os.getpid(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "metrics": None
        if service is None
        else service.metrics_snapshot().as_dict(),
        "trace": None if recorder is None else recorder.summary(),
    }
    path = Path(config["report_dir"]) / f"{role}-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, path)


async def _stdin_closed() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    while await reader.read(4096):
        pass


async def serve(config: dict) -> None:
    recorder = None
    if config["trace"]:
        from perfbench import layers

        recorder = layers.install()
    service = None
    if config["workers"]:
        spec = FleetSpec(
            builder="perfbench.server:build_service",
            config={**config, "role": "worker"},
            plan_dir=config["plan_dir"],
            doc_dir=config["doc_dir"],
        )
        acceptor = await start_fleet(spec, workers=config["workers"])
        port, documents = acceptor.port, sorted(acceptor.documents)
        server = acceptor
    else:
        service, hashes = build_service(
            config,
            plan_store=PlanStore(config["plan_dir"]),
            document_store=DocumentStore(index_dir=config["doc_dir"]),
        )
        server = await start_frontend(service)
        port, documents = server.port, sorted(hashes.values())
    print(
        json.dumps({"port": port, "pid": os.getpid(), "documents": documents}),
        flush=True,
    )
    try:
        await _stdin_closed()
    finally:
        await server.drain()
        await server.close()
        if service is not None:
            service.close()
    write_report(config, "server", service, recorder)


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    asyncio.run(serve(config))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
