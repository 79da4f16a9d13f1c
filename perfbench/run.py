"""Serving benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hospital-hot --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` is the separate traced run that wraps each
layer's entry points (``perfbench/layers.py``) and reports the
per-layer metrics.  The last stdout line is the result object; the line
before it carries the host metadata, seed, sample counts and failure
breakdown, and the unbounded p99 latency.  See ``perfbench/README.md``
for workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups on empty tiers per run (setup_s is their median).
SETUPS = 3
#: Closed-loop requests in flight per connection.
CLOSED_WINDOW = 8
#: Timed cycles per run; each first boots and stops one set-up or
#: restart, then runs one closed and one open segment.
CYCLES = 6
#: p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
#: The generator is behind its schedule when its p99 send lateness
#: exceeds this; the run then fails instead of reporting.
LATENESS_LIMIT_MS = 25.0
#: |trace.unattributed_ms| must stay within this share of the mean
#: traced end-to-end latency.
UNATTRIBUTED_TOLERANCE = 0.15

#: A run past this many seconds is aborted (the limit per run is 180 s).
RUN_DEADLINE_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "restart_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "server_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def host() -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": True if gil is None else gil(),
        "machine": platform.machine(),
    }


def rss_mb(reports: list[dict]) -> float:
    return sum(r["maxrss_kb"] for r in reports) / 1024.0


class Run:
    """One workload run: set-ups, restarts and timed phases, interleaved.

    Host speed drifts over seconds, so the timed phases are cut into
    :data:`CYCLES` cycles (closed segment, then open segment) and the
    set-ups and restarts are spread between them; every metric then
    samples the whole run instead of one stretch of it.
    """

    def __init__(self, client, workload, seconds: float, trace: bool, tiny: bool):
        self.client = client
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.tiers = 0
        self.samples: dict[str, int] = {}
        self.traced_reports: list[dict] = []
        self.metrics: dict[str, float] = {}
        self.lateness: list[float] = []
        self.latencies: list[float] = []
        self.setups: list[float] = []
        self.restarts: list[float] = []
        #: [replies, seconds] of the measured closed loop (or sweeps).
        self.closed = [0, 0.0]
        #: traced? -> [replies, seconds] of the overhead comparison.
        self.paired = {True: [0, 0.0], False: [0, 0.0]}
        self.fleet: dict = {}

    def fresh_tiers(self) -> Path:
        self.tiers += 1
        return self.client.workdir / f"tiers-{self.tiers}"

    async def stop(self, server) -> list[dict]:
        await self.client.stop(server)
        reports = self.client.read_reports()
        if server.traced:
            self.traced_reports.extend(reports)
        return reports

    async def setup(self) -> Path:
        """One set-up on empty tiers; returns the tiers it populated."""
        tiers = self.fresh_tiers()
        server = await self.client.boot(tiers, self.trace)
        self.setups.append(server.boot_s)
        await self.stop(server)
        return tiers

    async def execute(self) -> None:
        warm = await self.setup()
        if self.workload.name == "cold-start":
            await self.restart_loop(warm)
        else:
            await self.serve_loop(warm)
        self.metrics["setup_s"] = statistics.median(self.setups)
        self.metrics["restart_s"] = statistics.median(self.restarts)
        self.samples["setups"] = len(self.setups)
        self.samples["restarts"] = len(self.restarts)
        self.samples["latency"] = len(self.latencies)
        if len(self.latencies) < MIN_LATENCY_SAMPLES and not (
            self.tiny or self.trace
        ):
            raise_invalid(
                f"{len(self.latencies)} latency samples; p99 needs "
                f">= {MIN_LATENCY_SAMPLES}"
            )
        self.metrics["latency_p50_ms"] = 1000 * percentile(self.latencies, 0.50)
        self.metrics["latency_p99_ms"] = 1000 * percentile(self.latencies, 0.99)
        self.metrics["throughput_rps"] = self.closed[0] / self.closed[1]

    async def serve_loop(self, warm: Path) -> None:
        """Steady-state workloads: the measured server is a restart over
        the first set-up's tiers.  Each cycle first boots and stops one
        more set-up (cycles 0 and 3) or restart, then runs a closed and
        an open segment: three set-ups and five restarts in all."""
        server = await self.client.boot(warm, self.trace)
        self.restarts.append(server.boot_s)
        closed = self.seconds * self.workload.closed_share / CYCLES
        open_ = self.seconds * (1 - self.workload.closed_share) / CYCLES
        count = max(1, round(self.workload.open_rate * open_))
        lines = self.client.stream_lines()
        for cycle in range(CYCLES):
            if cycle % 3 == 0:
                await self.setup()
            else:
                extra = await self.client.boot(warm, self.trace)
                self.restarts.append(extra.boot_s)
                await self.stop(extra)
            await self.closed_segment(server, lines, closed, self.closed)
            latencies, lateness = await self.client.open_loop(
                server, lines, self.workload.open_rate, count
            )
            self.latencies.extend(latencies)
            self.lateness.extend(lateness)
        if self.workload.workers:
            self.fleet = await server.request({"op": "fleet"})
        self.metrics["server_rss_mb"] = rss_mb(await self.stop(server))
        if self.trace:
            await self.overhead(warm)

    async def overhead(self, warm: Path) -> None:
        """Traced runs: a traced and an untraced server boot over
        identical copies of the warm tiers and get the same request
        sequence in alternating closed segments (T U U T ...), so
        tracing is the only difference between their throughputs."""
        servers = []
        for traced in (True, False):
            tiers = self.fresh_tiers()
            shutil.copytree(warm, tiers)
            servers.append(await self.client.boot(tiers, traced))
        lines = [self.client.stream_lines() for _ in servers]
        length = self.seconds * self.workload.closed_share / CYCLES
        for cycle in range(CYCLES):
            for i in (0, 1) if cycle % 2 == 0 else (1, 0):
                tally = self.paired[servers[i].traced]
                await self.closed_segment(servers[i], lines[i], length, tally)
        for server in servers:
            await self.stop(server)

    async def closed_segment(self, server, lines, seconds: float, tally) -> None:
        """One closed-loop segment; adds [replies, seconds] to ``tally``."""
        _, first, last, count = await self.client.closed(
            server, lines, CLOSED_WINDOW, until=time.perf_counter() + seconds
        )
        # Rate from first to last reply: excludes the pipeline's fill.
        tally[0] += count - 1
        tally[1] += last - first

    async def restart_loop(self, warm: Path) -> None:
        """cold-start: restarts over warm tiers until ``--seconds`` of
        restarts are spent, with the other set-ups spread among them.

        Each restart's sweep latencies count from the instant the server
        was ready (the whole sweep is due then).  Traced runs alternate
        traced and untraced restarts (T U U T ...).
        """
        spent = 0.0
        index = 0
        rss = []
        while spent < self.seconds or len(self.restarts) < 2:
            if index in (4, 8) and len(self.setups) < SETUPS:
                await self.setup()
            traced = self.trace and index % 4 in (0, 3)
            server = await self.client.boot(warm, traced)
            index += 1
            spent += server.boot_s
            reports = await self.stop(server)
            tallies = [self.paired[traced]]
            if traced == self.trace:
                self.restarts.append(server.boot_s)
                self.latencies.extend(server.sweep_latencies)
                rss.append(rss_mb(reports))
                tallies.append(self.closed)
            for tally in tallies:
                tally[0] += len(server.sweep_latencies)
                tally[1] += server.sweep_s
        while len(self.setups) < SETUPS:
            await self.setup()
        self.metrics["server_rss_mb"] = statistics.median(rss)


def raise_invalid(message: str) -> None:
    from perfbench.loadgen import BenchmarkError

    raise BenchmarkError(message)


# ----------------------------------------------------------------------
def layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, with units."""
    from perfbench.layers import BLOCKING_LAYERS, COMPILE_STAGES

    client = run.client
    reports = [r for r in run.traced_reports if r["trace"] is not None]
    calls: dict[str, list] = {}
    for report in reports:
        for name, (count, seconds) in report["trace"]["calls"].items():
            entry = calls.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def mean_ms(name: str) -> float:
        count, seconds = calls.get(name, (0, 0.0))
        return 1000.0 * seconds / count if count else 0.0

    def count(name: str) -> int:
        return calls.get(name, (0, 0.0))[0]

    services = [r for r in reports if r["metrics"] is not None]

    def total(section: str, field: str) -> float:
        return sum((r["metrics"][section] or {}).get(field, 0) for r in services)

    def metric_sum(field: str) -> float:
        return sum(r["metrics"][field] for r in services)

    requests = sum(r["trace"]["requests"] for r in services)
    blocking = {name: 0.0 for name in BLOCKING_LAYERS}
    for report in services:
        for name, seconds in report["trace"]["blocking"].items():
            blocking[name] += seconds
    request_seconds = sum(r["trace"]["request_seconds"] for r in services)
    waves = sum(r["trace"]["waves"] for r in services)
    wave_requests = sum(r["trace"]["wave_requests"] for r in services)
    visited = sum(r["trace"]["visited"] for r in services)
    hype_seconds = calls.get("hype.run", (0, 0.0))[1]
    l1, l2, misses = (
        total("cache", "hits"),
        total("cache", "l2_hits"),
        total("cache", "misses"),
    )
    batch_visited = metric_sum("batch_visited")
    sequential = metric_sum("sequential_visited")

    out: dict[str, tuple[float, str]] = {
        "xtree.parse_ms": (mean_ms("xtree.parse"), "ms"),
        "docstore.get_ms": (mean_ms("docstore.get"), "ms"),
        "docstore.layout_ms": (mean_ms("docstore.layout"), "ms"),
        "docstore.index_build_ms": (mean_ms("docstore.index_build"), "ms"),
        "docstore.index_load_ms": (mean_ms("docstore.index_load"), "ms"),
        "docstore.index_builds": (total("doc_store", "index_builds"), "count"),
        "docstore.index_loads": (total("doc_store", "index_loads"), "count"),
        "docstore.layout_loads": (total("doc_store", "layout_loads"), "count"),
        "docstore.hits": (total("doc_store", "hits"), "count"),
    }
    for stage in COMPILE_STAGES:
        out[f"compile.{stage}_ms"] = (mean_ms(f"compile.{stage}"), "ms")
    out.update(
        {
            "compile.compiles": (count("compile.compile"), "count"),
            "compile.store_load_ms": (mean_ms("compile.store_load"), "ms"),
            "compile.store_save_ms": (mean_ms("compile.store_save"), "ms"),
            "plan.lookup_ms": (mean_ms("plan.l1_lookup"), "ms"),
            "plan.l1_hits": (l1, "count"),
            "plan.l2_hits": (l2, "count"),
            "plan.misses": (misses, "count"),
            "plan.evictions": (total("cache", "evictions"), "count"),
            "plan.l1_hit_ratio": (
                l1 / (l1 + l2 + misses) if l1 + l2 + misses else 0.0,
                "ratio",
            ),
            "hype.run_ms": (mean_ms("hype.run"), "ms"),
            "hype.visited": (visited, "count"),
            "hype.ns_per_visit": (
                1e9 * hype_seconds / visited if visited else 0.0,
                "ns",
            ),
            "batch.saved_visit_ratio": (
                1 - batch_visited / sequential if sequential else 0.0,
                "ratio",
            ),
            "admission.hold_ms": (
                1000 * blocking["admission.hold"] / requests if requests else 0.0,
                "ms",
            ),
            "admission.wave_size_mean": (
                wave_requests / waves if waves else 0.0,
                "count",
            ),
            "pool.queue_wait_ms": (mean_ms("pool.queue_wait"), "ms"),
            "pool.peak_in_flight": (
                max((r["metrics"]["pool"]["peak_in_flight"] for r in services), default=0),
                "count",
            ),
        }
    )
    for name in BLOCKING_LAYERS:
        out[f"request.{name}_ms"] = (
            1000 * blocking[name] / requests if requests else 0.0,
            "ms",
        )

    # Accounting: client latency = transport + server-side request time
    # (for the fleet, the acceptor's per-query time) + what is left.
    ping_ms = 1000 * statistics.fmean(client.ping_rtts) if client.ping_rtts else 0.0
    e2e_ms = (
        1000 * client.traced_e2e / client.traced_requests
        if client.traced_requests
        else 0.0
    )
    server_ms = 1000 * request_seconds / requests if requests else 0.0
    fleet = bool(run.workload.workers)
    attributed_ms = ping_ms + (mean_ms("fleet.acceptor") if fleet else server_ms)
    unattributed_ms = e2e_ms - attributed_ms
    thr = {
        traced: done / seconds if seconds else 0.0
        for traced, (done, seconds) in run.paired.items()
    }
    out.update(
        {
            "frontend.ping_rtt_ms": (ping_ms, "ms"),
            "frontend.overloaded": (client.errors.get("overloaded", 0), "count"),
            "loadgen.lateness_p99_ms": (
                1000 * percentile(run.lateness, 0.99) if run.lateness else 0.0,
                "ms",
            ),
            "trace.e2e_ms": (e2e_ms, "ms"),
            "trace.unattributed_ms": (unattributed_ms, "ms"),
            "trace.attributed_frac": (
                attributed_ms / e2e_ms if e2e_ms else 0.0,
                "ratio",
            ),
            "trace.overhead_frac": (
                1 - thr[True] / thr[False] if thr[False] else 0.0,
                "ratio",
            ),
        }
    )
    if fleet:
        worker_requests = [
            r["metrics"]["requests"] for r in services if r["role"] == "worker"
        ]
        out.update(
            {
                "fleet.hop_ms": (mean_ms("fleet.call") - server_ms, "ms"),
                "fleet.worker_share": (
                    max(worker_requests) / sum(worker_requests),
                    "ratio",
                ),
                "fleet.reroutes": (run.fleet["reroutes"], "count"),
                "fleet.timeouts": (run.fleet["timeouts"], "count"),
            }
        )
    return out


# ----------------------------------------------------------------------
async def measure(args) -> tuple[dict, dict]:
    from perfbench import inputs
    from perfbench.loadgen import Client

    workload = inputs.build(args.workload, args.seed, tiny=args.tiny)
    oracle = inputs.Oracle(workload)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    client = None
    try:
        client = Client(workload, oracle, workdir, bool(args.trace))
        run = Run(client, workload, args.seconds, bool(args.trace), args.tiny)
        try:
            await asyncio.wait_for(run.execute(), RUN_DEADLINE_S)
        except asyncio.TimeoutError:
            raise_invalid(f"run did not finish within {RUN_DEADLINE_S} s")
        lateness_ms = (
            1000 * percentile(run.lateness, 0.99) if run.lateness else 0.0
        )
        if lateness_ms > LATENESS_LIMIT_MS:
            raise_invalid(
                f"generator fell behind its schedule: send lateness p99 "
                f"{lateness_ms:.1f} ms > {LATENESS_LIMIT_MS} ms"
            )
        if args.trace:
            metrics = layer_metrics(run)
            e2e = metrics["trace.e2e_ms"][0]
            off = metrics["trace.unattributed_ms"][0]
            if abs(off) > UNATTRIBUTED_TOLERANCE * e2e:
                print(
                    f"warning: unattributed {off:.3f} ms exceeds "
                    f"{UNATTRIBUTED_TOLERANCE:.0%} of {e2e:.3f} ms",
                    file=sys.stderr,
                )
        else:
            metrics = {
                name: (run.metrics[name], unit)
                for name, unit in END_TO_END.items()
            }
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host(),
            "samples": run.samples,
            # Reported, not bounded: on a shared host its run-to-run
            # spread is larger than any usable regression bound.
            "latency_p99_ms": run.metrics.get("latency_p99_ms"),
            "setups_s": run.setups,
            "restarts_s": run.restarts,
            "loadgen.lateness_p99_ms": lateness_ms,
            "failed_frac": client.failed / max(1, client.attempted),
            "errors": dict(client.errors),
        }
        result = {
            "correct": client.failed == 0,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        return info, result
    finally:
        if client is not None:
            await client.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (not a measurement)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({ROOT / 'src'})",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import WORKLOADS
    from perfbench.loadgen import BenchmarkError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    try:
        info, result = asyncio.run(measure(args))
    except BenchmarkError as error:
        print(f"error: invalid run: {error}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
