"""One protocol, two servers: the NDJSON connection rules, tested on both.

:class:`QueryFrontend` and :class:`FleetAcceptor` share one connection
loop, so every rule here must hold identically for a single frontend and
for a one-worker fleet's acceptor: malformed lines get ``bad-request``,
an oversized line gets ``invalid-request`` and a dropped connection, a
present ``id`` is echoed (``null`` included), draining refuses only
``query`` lines, and a connection past the pending cap gets
``overloaded``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.admission import AdmissionConfig
from repro.serve.fleet import FleetAcceptor, FleetSpec
from repro.serve.frontend import DEFAULT_MAX_PENDING, LINE_LIMIT, QueryFrontend
from repro.workloads.multidoc import MultiDocConfig, build_multidoc_service

CFG = MultiDocConfig(patients=4, tenants=1, terms=8, chain_depth=3, seed=2)

QUERY = {"op": "query", "tenant": "inst-0", "query": "patient"}


@pytest.fixture(scope="module")
def servers():
    """Both servers, started once on one event loop for the module."""
    loop = asyncio.new_event_loop()
    service, _hashes = build_multidoc_service(CFG)
    frontend = QueryFrontend(
        service, AdmissionConfig(max_wave=8, max_wait=0.02)
    )
    acceptor = FleetAcceptor(FleetSpec(config=CFG.as_dict()), workers=1)

    async def start():
        await frontend.start()
        await acceptor.start()

    loop.run_until_complete(start())
    try:
        yield loop, {"frontend": frontend, "fleet": acceptor}
    finally:

        async def stop():
            await frontend.close()
            await acceptor.close()

        loop.run_until_complete(stop())
        service.close()
        loop.close()


@pytest.fixture(params=["frontend", "fleet"])
def server(request, servers):
    """``(run, server)``: ``run(fn)`` drives ``fn(reader, writer)`` on a
    fresh connection to the server under test."""
    loop, by_name = servers
    target = by_name[request.param]

    def run(scenario):
        async def main():
            reader, writer = await asyncio.open_connection(
                target.host, target.port, limit=LINE_LIMIT
            )
            try:
                return await asyncio.wait_for(scenario(reader, writer), 30)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        return loop.run_until_complete(main())

    return run, target


async def _exchange(reader, writer, lines: list[bytes]) -> list[dict]:
    """Write ``lines`` in one burst; read one reply per line (in
    completion order, which for pipelined lines need not be send order)."""
    writer.write(b"".join(lines))
    await writer.drain()
    return [json.loads(await reader.readline()) for _ in lines]


def _line(message: dict) -> bytes:
    return (json.dumps(message) + "\n").encode()


def test_malformed_lines_get_bad_request(server):
    run, _target = server

    async def scenario(reader, writer):
        return await _exchange(
            reader,
            writer,
            [b"{not json\n", b"[1, 2]\n", _line({"op": "ping", "id": 1})],
        )

    bad_json, not_object, ping = run(scenario)
    assert bad_json["error"] == "bad-request"
    assert not_object["error"] == "bad-request"
    assert "JSON object" in not_object["message"]
    # The connection survives both.
    assert ping == {**ping, "ok": True, "pong": True, "id": 1}


def test_oversized_line_gets_invalid_request_then_disconnect(server):
    run, target = server

    async def scenario(reader, writer):
        writer.write(b'{"op": "ping", "pad": "' + b"x" * LINE_LIMIT + b'"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
        return reply, await reader.readline()

    reply, after = run(scenario)
    assert reply["ok"] is False and reply["error"] == "invalid-request"
    assert str(target.max_line_bytes) in reply["message"]
    assert after == b""  # the server dropped the connection


def test_ids_are_echoed_including_null(server):
    run, _target = server

    async def scenario(reader, writer):
        # One at a time: pipelined replies come in completion order.
        replies = []
        for message in (
            {"op": "ping", "id": None},
            {"op": "ping", "id": "p1"},
            {"op": "no-such-op", "id": 7},
            {**QUERY, "id": None},
            {"op": "ping"},
        ):
            replies += await _exchange(reader, writer, [_line(message)])
        return replies

    null_ping, named_ping, unknown, null_query, bare = run(scenario)
    assert "id" in null_ping and null_ping["id"] is None
    assert named_ping["id"] == "p1"
    assert unknown["id"] == 7 and unknown["error"] == "bad-request"
    assert "id" in null_query and null_query["id"] is None
    assert null_query["ok"] is True and null_query["count"] > 0
    assert "id" not in bare


def test_draining_refuses_queries_but_passes_other_ops(server):
    run, target = server

    async def scenario(reader, writer):
        # Both drain() methods begin by raising this flag; the rest of a
        # fleet drain (stopping workers) would end the module's fleet.
        target._draining = True
        try:
            return await _exchange(
                reader,
                writer,
                [
                    _line({**QUERY, "id": "q"}),
                    _line({"op": "ping", "id": "p"}),
                ],
            )
        finally:
            target._draining = False

    replies = {reply["id"]: reply for reply in run(scenario)}
    assert replies["q"]["error"] == "draining"
    assert replies["p"]["ok"] is True


def test_pending_cap_answers_overloaded(server):
    run, target = server
    excess = 3
    assert target.max_pending == DEFAULT_MAX_PENDING

    async def scenario(reader, writer):
        burst = [
            _line({**QUERY, "id": f"q{i}"})
            for i in range(DEFAULT_MAX_PENDING + excess)
        ]
        return await _exchange(reader, writer, burst)

    replies = run(scenario)
    assert len({reply["id"] for reply in replies}) == len(replies)
    overloaded = [r for r in replies if r.get("error") == "overloaded"]
    served = [r for r in replies if r["ok"]]
    assert len(overloaded) == excess
    assert len(served) == DEFAULT_MAX_PENDING
    assert all("drain replies" in r["message"] for r in overloaded)
