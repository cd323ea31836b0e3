# Developer entry points.  `make check` is what CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint sanitize test bench perf perf-gate bench-parallel linemap

JOBS ?= $(shell nproc 2>/dev/null || echo 4)

# Full gate: style (when ruff is available), the repo's own AST lint,
# and the tier-1 suite with every DSM run under the coherence sanitizer.
check: lint sanitize

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro tests benchmarks; \
	else \
		echo "ruff not installed; skipping style check"; \
	fi
	$(PYTHON) -m repro.analysis.lint src/repro
	$(PYTHON) -m repro.analysis.protoflow src/repro/dsm

sanitize:
	$(PYTHON) -m pytest -x -q --sanitize

test:
	$(PYTHON) -m pytest -x -q

# The src/repro lines tier-1 never runs in-process, per file, into
# linemap.json (several minutes; not a gate).  The tests with a
# wall-clock bound (marker `wallclock`) run afterwards, untraced: the
# tracer's slowdown would fail them.
linemap:
	PYTHONPATH=$(PYTHONPATH):tools $(PYTHON) -m pytest -q -p linemap --linemap-out linemap.json -m "not wallclock"
	$(PYTHON) -m pytest -q -m wallclock

bench:
	$(PYTHON) -m pytest benchmarks -q

# Microbenchmark suite: kernel timings vs the reference oracles plus
# end-to-end app wall times, written to BENCH_perf.json and appended to
# the committed perf trajectory.
perf:
	$(PYTHON) -m repro perf --out BENCH_perf.json --history benchmark_results/history.jsonl

# Perf regression gate: re-times the hot kernels + the simulator event
# loop and fails on a >10% regression vs the last committed entry of
# benchmark_results/history.jsonl.  Run on a quiet machine comparable
# to the one that recorded the baseline (CI uses a looser tolerance).
perf-gate:
	$(PYTHON) benchmarks/check_perf_gate.py

# The paper's figures and both ablations, fanned out over all cores.
# Output is byte-identical to serial runs (see docs/performance.md).
bench-parallel:
	$(PYTHON) -m repro fig4 --jobs $(JOBS)
	$(PYTHON) -m repro fig5 --jobs $(JOBS)
	$(PYTHON) -m repro ablation --which disk --jobs $(JOBS)
	$(PYTHON) -m repro ablation --which pagesize --jobs $(JOBS)
