PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test test-fast test-faults test-contexts test-bus test-sim bench bench-smoke bench-golden bench-kernels check report examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Coverage is opt-in by installation: when pytest-cov is importable
# (CI installs it; see .github/workflows/ci.yml) test-fast collects
# line coverage and enforces the floors in tools/check_coverage.py
# (>=85% on src/repro/serve/, src/repro/attacks/ and
# src/repro/conformance/, per-module floors on serve/bus.py and
# serve/recalibrate.py, never below tools/coverage_baseline.json
# for the rest).  Without pytest-cov the suite runs uninstrumented.
COVFLAGS := $(shell $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1 \
    && echo "--cov=src/repro --cov-report=html:htmlcov --cov-report=json:coverage.json")

# Tier-1 without the cacheprovider plugin (no .pytest_cache churn) and
# with any warning raised *from repro code* promoted to an error, so
# new deprecations in our own modules fail CI instead of scrolling by.
# Tests marked @pytest.mark.slow (exhaustive sweeps, end-to-end monitor
# runs) are skipped here; `make test` and CI's full job still run them.
# The fused fleet-kernel differential suite (tests/kernels/test_fused.py
# — float64 bitwise pins, float32 ULP budget, padding purity) is
# unmarked and therefore part of this tier.
test-fast:
	$(PYTHON) tools/check_log_schema.py src
	$(PYTHON) -m pytest tests/ -p no:cacheprovider -q -m "not slow" -W "error:::repro" $(COVFLAGS)
ifneq ($(COVFLAGS),)
	$(PYTHON) tools/check_coverage.py coverage.json
endif

# The fault campaign: plan semantics, runner hardening drills
# (retry/timeout/crash), serial-vs-parallel manifest identity, cache
# sabotage, monitor degradation, golden fault fixture, and the
# hypothesis property suites.  Failure manifests are published to
# $REPRO_TEST_ARTIFACTS (CI uploads them on a red run).
test-faults:
	$(PYTHON) -m pytest tests/faults tests/learn/test_properties.py \
	    tests/learn/test_contexts_properties.py \
	    tests/pipeline/test_faults.py tests/pipeline/test_runner_hardening.py \
	    tests/pipeline/test_monitoring_faults.py tests/pipeline/test_golden_faults.py \
	    -p no:cacheprovider -q -W "error:::repro"

# The second-modality suite alone: ContextDetector units, the
# hypothesis differential/property layer, ensemble fusion math, and
# the serve-layer shard-invariance tests — everything marked
# @pytest.mark.contexts (fresh-interpreter seed stability included,
# since the marker filter overrides the slow exclusion here).
test-contexts:
	$(PYTHON) -m pytest tests/ -p no:cacheprovider -q -m contexts -W "error:::repro"

# The event-bus control-plane suite alone: bus unit tests, the
# hypothesis scheduling properties, the chaos campaigns against the
# bus fault sites, the conformance oracle (bus runs ≡ the canonical
# reports frozen from the removed lockstep executor) and the
# recalibration state machine — everything marked @pytest.mark.bus.
# Deterministic by construction: no wall-clock sleeps anywhere in the
# suite (interleavings come from seeded SchedulingJitter, time from
# the simulator clock), so it is safe at any parallelism.
test-bus:
	$(PYTHON) -m pytest tests/ -p no:cacheprovider -q -m bus -W "error:::repro"

# The exact simulator suites under the ci hypothesis profile: frozen
# per-interval goldens, the deferred Memometer flush and the cell-space
# footprint path vs the address path, the standard_normal spellings vs
# rng.normal, one draw per invocation vs separate draws, the array plan
# draw and Job.advance vs the scalar code, user-slice misses vs
# observe_burst, and O(1)-interval device streams.  Every fast path in
# the simulator is held here to the code it replaced, with no tolerance.
test-sim:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -p no:cacheprovider -q -W "error:::repro" \
	    tests/sim/test_golden_intervals.py tests/hw/test_deferred_flush.py \
	    tests/hw/test_footprint_differential.py tests/sim/test_rng_spellings.py \
	    tests/sim/test_fused_draw.py tests/sim/test_job_differential.py \
	    tests/sim/test_user_slice.py tests/sim/test_stream_memory.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Fast perf guard: asserts disabled observability adds <5% to the
# Memometer burst datapath.  Seconds, not minutes — safe for every push.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q -s

# Golden digest gate: one untimed run of every serve-level benchmark
# workload per fleet seed slot, each fleet digest and attacked-devices
# count compared with perfbench/golden.json, plus the 1- vs 2-shard
# invariance check.  A performance change must pass it with the golden
# file untouched.  ~80-95 s on 2 vCPUs.
bench-golden:
	$(PYTHON) perfbench/golden.py --check

# Kernel speedup gate: times every repro.kernels hot path under both
# backends (the fused fleet path and the fleet-throughput payload
# included), writes BENCH_kernels.json, exits 5 if the vectorized
# backend falls below its per-kernel speedup floor.
bench-kernels:
	$(PYTHON) -m repro.cli bench --smoke --check --out BENCH_kernels.json

check: test bench-smoke

report: bench
	@echo "see REPORT.md and benchmarks/out/"

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

clean:
	rm -rf benchmarks/out REPORT.md test_output.txt bench_output.txt \
	       htmlcov coverage.json .coverage \
	       .pytest_cache $$(find . -name __pycache__ -type d)
