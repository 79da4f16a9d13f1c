"""The load generator: one asyncio process, two NDJSON connections.

:class:`Client` spawns benchmark servers (``python -m perfbench.server``),
drives them closed-loop (a fixed in-flight window per connection) or
open-loop (requests due on a fixed-rate schedule, each timed from its
due instant), and checks every reply against the oracle's id list.
No threads: every connection's replies are read by one task on the
generator's event loop.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.inputs import Oracle, Request, Workload

#: Connections per server (the host has two CPUs).
CONNECTIONS = 2

#: Requests pipelined per connection during a coverage sweep (the
#: frontend sheds load past 32 pending per connection).
SWEEP_WINDOW = 16

#: In traced runs, one transport-only ping per this many queries sent.
PING_EVERY = 16

BOOT_TIMEOUT = 60.0
PHASE_GRACE = 30.0
READ_LIMIT = 1 << 24

ROOT = Path(__file__).resolve().parent.parent

perf_counter = time.perf_counter


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement."""


class Connection:
    """One client connection; replies are matched to requests by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, tuple] = {}
        self._ids = itertools.count()
        self.task = asyncio.create_task(self._read())

    def send(self, prefix: bytes, expected, due: float, callback) -> None:
        rid = next(self._ids)
        self.pending[rid] = (expected, due, perf_counter(), callback)
        self.writer.write(prefix + str(rid).encode() + b"}\n")

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = perf_counter()
                reply = json.loads(line)
                expected, due, sent, callback = self.pending.pop(reply["id"])
                callback(self, reply, expected, due, sent, now)
        except (ConnectionError, OSError):
            pass
        finally:
            lost, self.pending = self.pending, {}
            now = perf_counter()
            for expected, due, sent, callback in lost.values():
                callback(self, None, expected, due, sent, now)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self.task


@dataclass
class Server:
    """A spawned benchmark server and the generator's connections to it."""

    proc: asyncio.subprocess.Process
    port: int
    traced: bool
    conns: list[Connection] = field(default_factory=list)
    #: Coverage sweep: boot-to-last-reply seconds, ready-to-last-reply
    #: seconds, and each sweep reply's latency from the ready instant.
    boot_s: float = 0.0
    sweep_s: float = 0.0
    sweep_latencies: list[float] = field(default_factory=list)

    async def request(self, message: dict) -> dict:
        """One control op (``fleet``, ``metrics``) on the first connection."""
        reply = asyncio.get_running_loop().create_future()

        def done(_conn, answer, *_):
            reply.set_result(answer)

        line = json.dumps(message)[:-1].encode() + b', "id": '
        self.conns[0].send(line, None, 0.0, done)
        return await asyncio.wait_for(reply, PHASE_GRACE)

    async def stop(self) -> None:
        for conn in self.conns:
            await conn.close()
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                await asyncio.wait_for(self.proc.wait(), PHASE_GRACE)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
                raise BenchmarkError("server did not stop within its grace")
        if self.proc.returncode != 0:
            raise BenchmarkError(f"server exited with {self.proc.returncode}")


def encode(request: Request, hashes: dict[str, str]) -> bytes:
    """The request line up to its id (``limit: -1`` returns every id)."""
    message = {
        "op": "query",
        "tenant": request.tenant,
        "query": request.query,
        "document": hashes[request.document],
        "limit": -1,
    }
    if request.algorithm is not None:
        message["algorithm"] = request.algorithm
    return json.dumps(message)[:-1].encode() + b', "id": '


PING = b'{"op": "ping", "id": '


class Client:
    """Runs phases against servers and keeps the run's tallies."""

    def __init__(
        self, workload: Workload, oracle: Oracle, workdir: Path, trace: bool
    ) -> None:
        self.workload = workload
        self.workdir = workdir
        self.trace = trace
        self.reports = workdir / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        docs = workdir / "docs"
        docs.mkdir(exist_ok=True)
        self.doc_paths = {}
        for name, text in workload.documents.items():
            path = docs / f"{name}.xml"
            path.write_text(text)
            self.doc_paths[name] = str(path)
        self.expected_documents = sorted(oracle.hashes.values())

        # Every expected answer is computed here, before any server starts.
        def lines(requests):
            return [
                (encode(r, oracle.hashes), oracle.expected(r))
                for r in requests
            ]

        self.sweep = lines(workload.sweep)
        self.stream = lines(workload.stream)
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.ping_rtts: list[float] = []
        #: Traced servers only: client-side latency from actual send.
        self.traced_e2e = 0.0
        self.traced_requests = 0
        self._boots = itertools.count()
        #: Every server process started and not yet waited for.
        self.live: set[asyncio.subprocess.Process] = set()
        paths = [str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self._env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    # ------------------------------------------------------------------
    def _check(self, server: Server, reply, expected, sent, now) -> None:
        if reply is None:
            kind = "lost"
        elif not reply.get("ok"):
            kind = str(reply.get("error"))
        elif reply.get("ids") != expected:
            kind = "mismatch"
        else:
            if server.traced:
                self.traced_e2e += now - sent
                self.traced_requests += 1
            return
        self.failed += 1
        self.errors[kind] += 1

    def _ping(self, conn: Connection) -> None:
        def done(_conn, reply, _expected, _due, sent, now):
            if reply is not None:
                self.ping_rtts.append(now - sent)

        conn.send(PING, None, 0.0, done)

    def _send(self, server, conn, line, due, callback) -> None:
        self.attempted += 1
        if self.trace and self.attempted % PING_EVERY == 0:
            self._ping(conn)
        conn.send(line[0], line[1], due, callback)

    # ------------------------------------------------------------------
    async def boot(self, tiers: Path, traced: bool) -> Server:
        """Spawn a server over ``tiers`` and run its coverage sweep."""
        config = {
            "documents": self.doc_paths,
            "default_document": self.workload.default_document,
            "views": self.workload.views,
            "tenants": self.workload.tenants,
            "algorithm": self.workload.algorithm,
            "workers": self.workload.workers,
            "plan_dir": str(tiers / "plans"),
            "doc_dir": str(tiers / "docs"),
            "report_dir": str(self.reports),
            "trace": traced,
        }
        path = self.workdir / f"server-{next(self._boots)}.json"
        path.write_text(json.dumps(config))
        started = perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "perfbench.server",
            str(path),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=ROOT,
            env=self._env,
        )
        self.live.add(proc)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), BOOT_TIMEOUT)
        except asyncio.TimeoutError:
            raise BenchmarkError("server did not become ready") from None
        if not line:
            raise BenchmarkError("server exited before it was ready")
        hello = json.loads(line)
        server = Server(proc, hello["port"], traced)
        if hello["documents"] != self.expected_documents:
            raise BenchmarkError("server document hashes differ from inputs")
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=READ_LIMIT
            )
            server.conns.append(Connection(reader, writer))
        ready = perf_counter()
        latencies, _, last, _ = await self.closed(
            server, iter(self.sweep), SWEEP_WINDOW, due=ready
        )
        server.boot_s = last - started
        server.sweep_s = last - ready
        server.sweep_latencies = latencies
        return server

    async def closed(
        self,
        server: Server,
        lines,
        window: int,
        until: float | None = None,
        due: float | None = None,
    ) -> tuple[list[float], float, float, int]:
        """Keep ``window`` requests in flight per connection.

        Sends from the ``lines`` iterator until it ends or ``until``
        passes, then waits for the replies.  Of the replies that arrived
        by ``until`` it returns their latencies from ``due`` (or from
        their own send), the instants of the first and last, and their
        count.
        """
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        outstanding = 0
        completed = 0
        first = last = perf_counter()
        latencies: list[float] = []

        def fire(conn: Connection) -> None:
            nonlocal outstanding
            line = next(lines, None)
            if line is not None:
                outstanding += 1
                self._send(server, conn, line, due, on_reply)

        def on_reply(conn, reply, expected, sent_due, sent, now):
            nonlocal outstanding, completed, first, last
            outstanding -= 1
            self._check(server, reply, expected, sent, now)
            if until is None or now <= until:
                completed += 1
                if completed == 1:
                    first = now
                last = now
                latencies.append(now - (sent if sent_due is None else sent_due))
                if reply is not None:
                    fire(conn)
            if outstanding == 0 and not finished.done():
                finished.set_result(None)

        for conn in server.conns:
            for _ in range(window):
                fire(conn)
        if outstanding:
            await self._wait(finished, until)
        return latencies, first, last, completed

    async def open_loop(
        self, server: Server, lines, rate: float, count: int
    ) -> tuple[list[float], list[float]]:
        """Send ``count`` requests due at ``rate``/s; returns latencies
        from each due instant and how late each send was."""
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        outstanding = 0
        latencies: list[float] = []
        lateness: list[float] = []

        def on_reply(conn, reply, expected, due, sent, now):
            nonlocal outstanding
            outstanding -= 1
            self._check(server, reply, expected, sent, now)
            latencies.append(now - due)
            if outstanding == 0 and sending_done and not finished.done():
                finished.set_result(None)

        sending_done = False
        start = perf_counter() + 0.01
        for i in range(count):
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(perf_counter() - due)
            outstanding += 1
            conn = server.conns[i % len(server.conns)]
            self._send(server, conn, next(lines), due, on_reply)
        sending_done = True
        if outstanding:
            await self._wait(finished, perf_counter())
        return latencies, lateness

    async def _wait(self, finished, until: float | None) -> None:
        timeout = PHASE_GRACE + max(0.0, (until or 0.0) - perf_counter())
        try:
            await asyncio.wait_for(finished, timeout)
        except asyncio.TimeoutError:
            raise BenchmarkError("replies did not arrive in time") from None

    async def stop(self, server: Server) -> None:
        await server.stop()
        self.live.discard(server.proc)

    async def shutdown(self) -> None:
        """Stop whatever an aborted run left running: close each
        server's stdin (a fleet acceptor then stops its workers), and
        kill it if it has not exited within the grace."""
        for proc in self.live:
            if proc.returncode is None:
                proc.stdin.close()
        for proc in self.live:
            try:
                await asyncio.wait_for(proc.wait(), PHASE_GRACE / 2)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        self.live.clear()

    def stream_lines(self):
        return itertools.cycle(self.stream)

    def read_reports(self) -> list[dict]:
        """Every exit report written so far (removed once read)."""
        reports = []
        for path in sorted(self.reports.glob("*.json")):
            reports.append(json.loads(path.read_text()))
            path.unlink()
        return reports
