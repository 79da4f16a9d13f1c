# Convenience targets; everything also works with plain pytest.
# PYTHONPATH=src keeps the tree importable without an editable install
# (offline containers without `wheel`); `make install` is the other path.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke bench-serve bench-front bench-hot bench-hot-smoke front-smoke obs-smoke concurrency-smoke cache-smoke fleet-smoke chaos-smoke perfbench-selftest warm install

test:
	$(PY) -m pytest -x -q

install:
	$(PY) -m pip install -e .

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# One tiny serve benchmark: catches batching perf/equivalence regressions
# in seconds (CI runs this on every push).
bench-smoke:
	$(PY) -m pytest benchmarks/test_serve_throughput.py -q \
	    --benchmark-disable-gc --benchmark-warmup=off
	$(PY) -m repro.cli bench-serve --patients 30 --requests 16 --repeats 1

bench-serve:
	$(PY) -m repro.cli bench-serve

bench-front:
	$(PY) -m repro.cli bench-front

# Hot-loop benchmark: single-run nodes/sec over the columnar layout (all
# three algorithms) + cold-vs-shared-document serve throughput.
# Writes BENCH_hype.json at the repo root — the perf trajectory record.
bench-hot:
	$(PY) benchmarks/bench_hot.py --check

# Tiny-size variant with the acceptance floors enforced (>=1.5x shared
# serve throughput, exactly one index build). CI runs this.
bench-hot-smoke:
	$(PY) benchmarks/bench_hot.py --smoke --out /tmp/BENCH_hype.json

# Front-end smoke: boots the asyncio NDJSON server on an ephemeral port,
# runs a scripted wave through the client helper and checks the reply
# stream (coalescing, answers, error mapping, metrics). CI runs this.
front-smoke:
	$(PY) -m repro.cli serve-front --smoke --patients 30 --tenants 2

# Observability smoke: boots the front-end with tracing + access logging
# on an ephemeral port, replays a seeded burst and checks the three obs
# surfaces — complete span trees (request through compile/doc-store/
# evaluate, children within the root), a parseable Prometheus exposition
# whose +Inf latency bucket equals the request counter, and a valid
# trace-correlated NDJSON access log. CI runs this.
obs-smoke:
	$(PY) -m repro.cli serve-front --obs-smoke --patients 30 --tenants 2

# Concurrency smoke: the concurrent-waves benchmark asserts >= 2 waves
# evaluated in flight at once (pool peak gauge) and that overlapped
# waves beat the serialised sum on wall-clock, with answers identical
# to sequential evaluation. CI runs this.
concurrency-smoke:
	$(PY) -m pytest benchmarks/test_concurrent_waves.py -q

# Persistent-cache smoke: a second process over a populated --plan-dir
# must skip every MFA rewrite (compile-stage counters at zero), beat the
# cold pipeline on compile time, and answer identically. CI runs this.
cache-smoke:
	$(PY) -m pytest benchmarks/test_warm_restart.py -q

# Fleet smoke: 3 workers over >= 2 structurally different documents
# behind the consistent-hash acceptor.  Asserts byte-identical answers
# vs a single-process service, warm workers with zero MFA rewrites and
# zero index builds, no acknowledged request lost when a worker is
# SIGKILLed mid-load, and a conservative (cpu-gated) scaling floor.
# CI runs this.
fleet-smoke:
	$(PY) -m pytest benchmarks/test_fleet.py -q

# Chaos smoke: the fleet under one seeded REPRO_FAULTS schedule that
# crashes a worker, hangs another past the request timeout, delays and
# corrupts plan/doc-store artifacts and drops a connection — all in a
# single run.  Asserts zero lost acknowledged requests (answers byte-
# identical to a fault-free reference), exact structured rejection
# kinds for the hostile requests, a health-loop restart, and a clean
# drain. CI runs this.
chaos-smoke:
	$(PY) -m pytest benchmarks/test_chaos.py -q

# Benchmark self-test: every perfbench workload at tiny size, untraced
# and traced.  The traced mode wraps serving internals by name (the
# frontend/acceptor _serve_message, submit_wave, admission, plan cache,
# batch run, pool, worker call), so a refactor that renames or bypasses
# one of them fails here. CI runs this.
perfbench-selftest:
	$(PY) perfbench/selftest.py

# Precompile the default hospital workload into ./plans (demo of the
# warm subcommand; serve-front --plan-dir plans then boots warm).
warm:
	$(PY) -m repro.cli warm --plan-dir plans
