# Convenience targets for the repro study framework.

PYTHON ?= python

.PHONY: install test lint audit bench bench-audit bench-paper bench-service chaos-smoke engine-smoke service-smoke perf-smoke report report-cached faults resume fsck verify examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Style lint (ruff) + type check (mypy) — each skipped when not
# installed — plus the kernel IR linter.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests; \
	else \
	  echo "ruff not installed; skipping style lint"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
	  mypy src/repro/ir; \
	else \
	  echo "mypy not installed; skipping type check"; \
	fi
	$(PYTHON) -m repro lint

# Static performance-portability audit of every registry lane: hazard
# codes plus predicted efficiency bands, cross-checked against the
# simulator's memory/occupancy models (exit 1 on gating findings).
audit:
	$(PYTHON) -m repro audit

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s --sweep=paper

# Static-analysis throughput: time full-matrix lint + audit sweeps and
# record lanes/sec in BENCH_static_analysis.json.
bench-audit:
	$(PYTHON) benchmarks/bench_static_analysis.py --out BENCH_static_analysis.json

# Process-engine determinism smoke test: the sharded executor must
# produce byte-identical stdout and export artifacts to a serial run
# (only the artifact path in the banner differs; the digest must not).
engine-smoke:
	rm -rf .repro-engine-smoke
	mkdir -p .repro-engine-smoke
	REPRO_CACHE_DIR=.repro-engine-smoke/cache-serial $(PYTHON) -m repro run \
	  --models julia,numba --sizes 256,512,1024 --serial --no-journal \
	  --export .repro-engine-smoke/serial.json > .repro-engine-smoke/serial.txt
	REPRO_CACHE_DIR=.repro-engine-smoke/cache-process $(PYTHON) -m repro run \
	  --models julia,numba --sizes 256,512,1024 --engine process --jobs 2 \
	  --no-journal \
	  --export .repro-engine-smoke/process.json > .repro-engine-smoke/process.txt
	cmp .repro-engine-smoke/serial.json .repro-engine-smoke/process.json
	sed 's/^\[artifact: .* sha256:/[artifact: sha256:/' \
	  .repro-engine-smoke/serial.txt > .repro-engine-smoke/serial.flt
	sed 's/^\[artifact: .* sha256:/[artifact: sha256:/' \
	  .repro-engine-smoke/process.txt > .repro-engine-smoke/process.flt
	cmp .repro-engine-smoke/serial.flt .repro-engine-smoke/process.flt
	@echo "process engine byte-identical to serial (stdout + export)"

# Campaign-service throughput: scheduler grants/sec, durable
# submissions/sec and the two-tenant dedup hit rate, recorded in
# BENCH_service.json.
bench-service:
	$(PYTHON) benchmarks/bench_service.py --out BENCH_service.json

# Multi-tenant daemon smoke test: two tenants submit overlapping sweeps
# (both sweep julia at every size) to a live daemon; each tenant's
# report must be byte-identical to a solo `repro run` of the same
# experiment, and the daemon's dedup counters must show the overlapping
# cells executed exactly once (6 executed, 2 served cross-tenant).
service-smoke:
	rm -rf .repro-service-smoke
	mkdir -p .repro-service-smoke
	@set -e; \
	sock=.repro-service-smoke/daemon.sock; \
	REPRO_RUNS_DIR=.repro-service-smoke/runs \
	REPRO_CACHE_DIR=.repro-service-smoke/cache \
	  $(PYTHON) -m repro serve --socket $$sock \
	  > .repro-service-smoke/daemon.log 2>&1 & \
	trap '$(PYTHON) -m repro serve --stop --socket '$$sock' \
	  > /dev/null 2>&1 || true' EXIT; \
	for i in $$(seq 1 100); do \
	  $(PYTHON) -m repro status --socket $$sock > /dev/null 2>&1 && break; \
	  sleep 0.1; \
	done; \
	$(PYTHON) -m repro submit --socket $$sock --tenant alice \
	  --models julia,numba --sizes 256,512 --reps 3 --wait \
	  > .repro-service-smoke/alice.txt 2> /dev/null; \
	$(PYTHON) -m repro submit --socket $$sock --tenant bob \
	  --models julia,kokkos --sizes 256,512 --reps 3 --wait \
	  > .repro-service-smoke/bob.txt 2> /dev/null; \
	REPRO_JOURNAL=off REPRO_CACHE_DIR=.repro-service-smoke/solo-alice \
	  $(PYTHON) -m repro run --models julia,numba --sizes 256,512 --reps 3 \
	  > .repro-service-smoke/alice-solo.txt; \
	REPRO_JOURNAL=off REPRO_CACHE_DIR=.repro-service-smoke/solo-bob \
	  $(PYTHON) -m repro run --models julia,kokkos --sizes 256,512 --reps 3 \
	  > .repro-service-smoke/bob-solo.txt; \
	cmp .repro-service-smoke/alice.txt .repro-service-smoke/alice-solo.txt; \
	cmp .repro-service-smoke/bob.txt .repro-service-smoke/bob-solo.txt; \
	$(PYTHON) -m repro status --socket $$sock --format json \
	  | $(PYTHON) -c "import json, sys; d = json.load(sys.stdin); \
	    assert d['dedup']['hits'] == 2, d['dedup']; \
	    assert d['dedup']['executed_cells'] == 6, d['dedup']"; \
	$(PYTHON) -m repro serve --stop --socket $$sock > /dev/null; \
	trap - EXIT
	@echo "two tenants, overlapping cells executed once, reports" \
	  "byte-identical to solo runs"

# Traced benchmark smoke test: a short `--trace 1` run of each gated
# perfbench workload must produce correct output and pass its
# self-checks (run.py exits 1 otherwise).
perf-smoke:
	$(PYTHON) perfbench/run.py --workload cpu-cold --seed 1 --seconds 4 --trace 1
	$(PYTHON) perfbench/run.py --workload service-mixed --seed 1 --seconds 4 --trace 1

# Crash-fault drills: SIGKILL a pool worker mid-cell, SIGKILL the
# campaign daemon mid-grant, tear a journal tail, exhaust the store —
# every scenario must recover to a byte-identical report, and the
# MTTR/recovery counters land in BENCH_robustness.json (exit 1 on any
# mismatch).
chaos-smoke:
	rm -rf .repro-chaos-smoke
	$(PYTHON) -m repro chaos --workdir .repro-chaos-smoke \
	  --out BENCH_robustness.json
	rm -rf .repro-chaos-smoke

report:
	$(PYTHON) -m repro report --out study_report.md
	@echo "wrote study_report.md"

# Cold-then-warm report through the result cache (kept in a private dir
# so the user's cache is untouched); the two outputs must be identical.
report-cached:
	rm -rf .repro-cache
	REPRO_CACHE_DIR=.repro-cache $(PYTHON) -m repro report --out study_report_cold.md
	REPRO_CACHE_DIR=.repro-cache $(PYTHON) -m repro report --out study_report_warm.md
	cmp study_report_cold.md study_report_warm.md
	@echo "warm report byte-identical to cold"
	REPRO_CACHE_DIR=.repro-cache $(PYTHON) -m repro cache stats

# Degraded-mode smoke test: a sweep with injected faults (one cell
# permanently failing) must still exit 0 and print the degraded table.
faults:
	$(PYTHON) -m repro run --no-cache --engine-stats \
	  --faults 'rate=0.25,seed=7,always=numba@1024' --retries 3 \
	  | grep -E 'DEGRADED|FAILED'
	@echo "degraded sweep completed with exit 0"

# Crash-safety smoke test: interrupt a journaled sweep mid-flight,
# resume it, and require the resumed output to be byte-identical
# (examples/crash_and_resume.py asserts all of that in-process).
resume:
	$(PYTHON) examples/crash_and_resume.py
	@echo "interrupted campaign resumed byte-identically"

# Store-verification smoke test (private cache/runs dirs): a clean pass
# must exit 0, a bit-flipped cache entry must be quarantined with exit
# 3, and the pass after that must be clean again.
fsck:
	rm -rf .repro-fsck-cache .repro-fsck-runs
	REPRO_CACHE_DIR=.repro-fsck-cache REPRO_RUNS_DIR=.repro-fsck-runs \
	  $(PYTHON) -m repro run --models julia,numba --sizes 256,512 \
	  --engine process --jobs 2 > /dev/null
	@$(PYTHON) -c "import glob, sys; litter = glob.glob('.repro-fsck-cache/*/*.lock') \
	  + glob.glob('.repro-fsck-cache/*/*.tmp'); litter and sys.exit(f'store litter: {litter}')"
	$(PYTHON) -m repro fsck --cache-dir .repro-fsck-cache --runs-dir .repro-fsck-runs
	@$(PYTHON) -c "import glob; p = glob.glob('.repro-fsck-cache/*/*.json')[0]; \
	  s = open(p).read(); open(p, 'w').write(s.replace('times_s', 'times_x', 1))"
	@$(PYTHON) -m repro fsck --cache-dir .repro-fsck-cache --runs-dir .repro-fsck-runs; \
	  rc=$$?; test $$rc -eq 3 || { echo "expected exit 3, got $$rc"; exit 1; }
	$(PYTHON) -m repro fsck --cache-dir .repro-fsck-cache --runs-dir .repro-fsck-runs
	@echo "fsck detected, quarantined and recovered the corruption"

verify:
	$(PYTHON) -m repro verify

examples:
	@for ex in examples/*.py; do \
	  echo "== $$ex =="; $(PYTHON) $$ex > /dev/null && echo OK || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis study_report.md
	rm -rf .repro-cache study_report_cold.md study_report_warm.md
	rm -rf .repro-fsck-cache .repro-fsck-runs .repro-engine-smoke
	rm -rf .repro-service-smoke .repro-chaos-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
