# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint typecheck docs-check bench bench-smoke bench-full perfbench-smoke soak-smoke sanitize-smoke parallel-smoke serve-smoke examples obs-demo clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Repo-specific invariant checks (docs/STATIC_ANALYSIS.md) always run;
# ruff rides along when installed (the offline container lacks it).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; \
	else echo "ruff not installed; skipped (CI runs it)"; fi

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then $(PYTHON) -m mypy src/repro; \
	else echo "mypy not installed; skipped (CI runs it)"; fi

# Offline docs gate (the CI `docs` job): markdown links must resolve,
# and every CLI subcommand/flag must have a docs/API.md row.
docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/docs -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Pinned perf matrix → BENCH_pagerank.json (docs/PERFORMANCE.md); the
# smoke variant regression-checks the 1k rows against the committed file.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke --compare

# The paper's graph sizes (up to 5,000,000 nodes) — budget hours.
bench-full:
	REPRO_FULL_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own tests (perfbench/README.md): tiny runs
# of all four workloads with their output checks and the seed-7
# cross-check of counts, digests and convergence.  The CI
# perfbench-smoke job runs the same line.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q

# Chaos soak smoke: three seeded crash-storm schedules against the
# recovery-supervised runtime, zero invariant violations required
# (docs/PROTOCOL.md §15).  The CI soak-smoke job runs the same line.
soak-smoke:
	PYTHONPATH=src $(PYTHON) -m repro soak --docs 120 --peers 6 --seeds 0 1 2 --crashes 2 --drop 0.05

# Concurrency-sanitizer smoke: the runtime differential suite under the
# armed happens-before detector, then the packaged scenario with K=3
# perturbed schedules (docs/STATIC_ANALYSIS.md "Dynamic sanitizer").
# Realtime-mode tests are excluded by construction: the sanitizer only
# arms the deterministic scheduler.  The CI sanitize-smoke job runs the
# same two lines.
sanitize-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/differential -q
	PYTHONPATH=src $(PYTHON) -m repro sanitize --docs 200 --peers 8 --schedules 3

# Sharded parallel-engine smoke: the differential lockdown vs the
# serial engine (one-shard bitwise incl. churn+loss, w=2 real worker
# processes, worker-count invariance) plus the 20-seed property sweeps
# (docs/PERFORMANCE.md "Sharded execution model").  The CI
# parallel-smoke job runs the same line.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential/test_parallel_vs_serial.py tests/properties -q

# Query-serving smoke: a 30-unit deterministic serving run with the
# invariant probes (conservation, no silent drops, bounded queues) and
# the read-only control — final ranks must be byte-identical to a
# no-serving replay (docs/SERVING.md "Determinism contract").  The CI
# serve-smoke job runs the same line.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --docs 200 --peers 10 --qps 40 --duration 30 --verify-ranks

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# Tiny fully-instrumented simulation + metrics report (docs/OBSERVABILITY.md).
# The same invocation runs in the test suite (tests/obs/test_obs_demo.py)
# so the documented example cannot rot.
obs-demo:
	$(PYTHON) -m repro obs report --docs 800 --sim-docs 200 --peers 30 --sim-peers 10

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
