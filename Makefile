# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint typecheck docs-check bench bench-smoke bench-full bench-tables perfbench-smoke soak-smoke sanitize-smoke parallel-smoke serve-smoke examples obs-demo clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

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
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Pinned perf matrix → BENCH_pagerank.json (docs/PERFORMANCE.md); the
# smoke variant regression-checks the 1k rows against the committed file.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke --compare

# The committed paper tables must regenerate byte for byte: the suites
# that write Tables 1-3, the section 4.3 trajectory and the churn and
# epsilon-schedule ablations, then a diff of every committed results
# table.  Only the .txt tables are compared; the metrics snapshot holds
# wall-clock timers.  The CI test job runs the same lines.
bench-tables:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_table1_convergence.py benchmarks/test_table2_quality.py benchmarks/test_table3_traffic.py benchmarks/test_trajectory.py benchmarks/test_ablation_churn_sweep.py benchmarks/test_ablation_schedule.py -q
	git diff --exit-code -- 'benchmarks/results/*.txt'

# The paper's graph sizes (up to 5,000,000 nodes) — budget hours.
bench-full:
	REPRO_FULL_SCALE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own tests (perfbench/README.md): tiny runs
# of all four workloads with their output checks and the seed-7
# cross-check of counts, digests and convergence, then two tiny traced
# simulator runs (the layer wrappers on the lossless exchange and on the
# reliable transport).  The CI perfbench-smoke job runs the same lines.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --workload sim-100k --seed 1 --seconds 1 --trace 1 --tiny
	$(PYTHON) perfbench/run.py --workload sim-10k-lossy-churn --seed 1 --seconds 1 --trace 1 --tiny

# Chaos soak smoke: three seeded crash-storm schedules against the
# recovery-supervised runtime, zero invariant violations required
# (docs/PROTOCOL.md §15), then the same storms with a partition spell,
# so peers also restart across a partition.  The CI soak-smoke job runs
# the same lines.
soak-smoke:
	PYTHONPATH=src $(PYTHON) -m repro soak --docs 120 --peers 6 --seeds 0 1 2 --crashes 2 --drop 0.05
	PYTHONPATH=src $(PYTHON) -m repro soak --docs 120 --peers 6 --seeds 0 1 2 --crashes 2 --partitions 1 --drop 0.05

# Concurrency-sanitizer smoke: the runtime differential suite and the
# recovery suite (WAL replay, reboot republish, anti-entropy catch-up)
# under the armed happens-before detector, then the packaged scenario
# with K=3 perturbed schedules (docs/STATIC_ANALYSIS.md "Dynamic
# sanitizer").  Realtime-mode tests are excluded by construction: the
# sanitizer only arms the deterministic scheduler.  The CI
# sanitize-smoke job runs the same two lines.
sanitize-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/differential tests/recovery -q
	PYTHONPATH=src $(PYTHON) -m repro sanitize --docs 200 --peers 8 --schedules 3

# Sharded parallel-engine smoke: the differential lockdown vs the
# serial engine (one-shard bitwise incl. churn+loss, w=2 real worker
# processes, worker-count invariance), the lockdown of the single pass
# step against the per-edge oracle (static + churn + loss, full pass
# history, no copies in the one-shard runner), the linear and
# personalized solves and dead passes on the same step, the pinned
# traffic of the vectorized engine, the protocol simulator and the
# reliable transport, the protocol simulator's parity with the other
# engines, its re-homing round trip and its §3.1 store, the 20-seed
# property sweeps (docs/PERFORMANCE.md "Sharded execution model"),
# among them the simulator's frontier step against a full recompute,
# the faulted and re-homing simulator runs of the fault-convergence and
# failure-injection suites, the re-homing ablation (one peer down for
# good: a constant availability mask while documents move), and the
# churn suites that drive both engines' §3.1 owed-edge stores
# (vectorized churn and the dynamics integration tests, among them the
# simulator's store bound).  The CI parallel-smoke job runs the same
# line.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential/test_parallel_vs_serial.py tests/differential/test_kernel_parity.py tests/properties tests/core/test_linear.py tests/core/test_personalized.py tests/integration/test_dead_passes.py tests/regression/test_engine_traffic.py tests/regression/test_simulator_traffic.py tests/regression/test_fault_traffic.py tests/differential/test_engines_equal.py tests/differential/test_invariants.py tests/simulation tests/faults/test_fault_convergence.py tests/integration/test_failure_injection.py benchmarks/test_ablation_rehoming.py tests/core/test_distributed_churn.py tests/integration/test_dynamics.py -q

# Query-serving smoke: a 30-unit deterministic serving run with the
# invariant probes (conservation, no silent drops, bounded queues) and
# the read-only control — final ranks must be byte-identical to a
# no-serving replay (docs/SERVING.md "Determinism contract") — then
# the search and serve test suites, which pin the index's posting order,
# refresh pricing and the load generator's stream, and the peer tests
# that pin the runtime's single-document recompute serving runs on.
# The CI serve-smoke job runs the same lines.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --docs 200 --peers 10 --qps 40 --duration 30 --verify-ranks
	PYTHONPATH=src $(PYTHON) -m pytest tests/search tests/serve tests/p2p/test_peer.py tests/properties/test_peer_recompute.py -q

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

# Tiny fully-instrumented simulation + metrics report (docs/OBSERVABILITY.md).
# The same invocation runs in the test suite (tests/obs/test_obs_demo.py)
# so the documented example cannot rot.
obs-demo:
	PYTHONPATH=src $(PYTHON) -m repro obs report --docs 800 --sim-docs 200 --peers 30 --sim-peers 10

# Removes untracked output only: benchmarks/results holds tracked
# goldens beside the ignored per-table metric snapshots, and
# src/repro.egg-info is tracked.
clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find benchmarks/results -name '*.metrics.json' \
	     ! -name table_1_convergence.metrics.json -delete
	find . -name __pycache__ -type d -exec rm -rf {} +
