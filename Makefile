# Developer entry points.  `make verify` is what CI runs.

PYTHON     ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test lint typecheck shapes bench benchmark chaos verify profile flight-recorder experiments durability-smoke experiments-smoke reach dead-sets run-twice clean

# Tier-1: the full unit/integration/property suite.  The log ends with
# the ten slowest tests and the total time, so it says where its
# seconds go (pyproject's addopts already pass -q; a second -q would
# drop the total).
test:
	$(PYTHON) -m pytest -x --durations=10

# Determinism checker (RDP001 wall clock / entropy, RDP002 set-ordered
# iteration; DESIGN.md §10).  Standard library only.
lint:
	$(PYTHON) -m tests.determinism src/

# Strict typing gate (config in pyproject.toml).  mypy is a CI-installed
# dev dependency; locally the target degrades to a visible skip rather
# than failing machines without it.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy src/repro \
		|| echo "typecheck: mypy not installed; skipping (CI runs it)"

# The paper-shape assertions (who wins, ratios, crossovers) of every
# figure and table, timing off: tier-1's tests/test_experiments.py
# delegates them here, so this is the gate that runs them (~45 s).
shapes:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

# Full pytest-benchmark harness (slow; asserts every figure/table shape).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repo benchmark (BENCHMARK.json; see bench/README.md): six
# workloads, end-to-end and per-layer metrics -> .bench_out/results.json.
benchmark:
	$(PYTHON) -m bench run

# Chaos soak: a seeded randomized failure schedule (disk/node/NIC/Lstor
# faults) injected under live DFSIO+TeraSort traffic, run twice to prove
# the whole lifecycle is deterministic.  `--seed N` to replay a schedule.
CHAOS_ARGS ?=
chaos:
	$(PYTHON) -m repro.tools.chaos --runs 2 $(CHAOS_ARGS)

# Lint + typing gates, tier-1 tests, the paper-shape assertions, the
# (always audited) chaos soak, and one smoke pass of the repo benchmark
# (every workload once, results checked).
verify: lint typecheck test shapes chaos
	$(PYTHON) -m bench run --smoke

# Hot-path smoke: the ten hottest dispatch consumers of the recovery
# sample (table2's first two tasks) and of the scale-out sweep, each
# with the run's exact network work counters.  CI appends both tables
# to the job summary.
profile:
	$(PYTHON) -m repro.tools.raidpctl profile table2 --tasks 2 --limit 10
	$(PYTHON) -m repro.tools.raidpctl profile ext-scale --limit 10

# Flight recorder: one audited, sampled soak -> one Chrome trace (spans,
# the sampled counter tracks, the verdict as metadata) CI uploads, then
# `raidpctl trace` draws its key tracks and verdict from disk.  The soak
# runs twice and the file must repeat byte for byte: the artifact is as
# deterministic as the fingerprint.
flight-recorder:
	mkdir -p flight-recorder/again
	$(PYTHON) -m repro.tools.chaos --runs 1 --trace flight-recorder/chaos-trace.json
	$(PYTHON) -m repro.tools.chaos --runs 1 \
		--trace flight-recorder/again/chaos-trace.json > /dev/null
	cmp flight-recorder/chaos-trace.json flight-recorder/again/chaos-trace.json
	rm -r flight-recorder/again
	$(PYTHON) -m repro.tools.raidpctl trace flight-recorder/chaos-trace.json

# Durability smoke: the §2 experiment end-to-end -- the analytic MTTDL
# ladder and the long-horizon Monte-Carlo engine over the same five
# schemes -- at smoke scale (1k disks x 10 years x 48 trials) and at the
# scale the engine exists for (10k disks x 10 years x 200 trials, ~0.9 s),
# timed.  The full scale runs again as two chunks on two workers and must
# print the same bytes: chunked runs merge bit-identically.
durability-smoke:
	$(PYTHON) -m repro.experiments ext-durability
	mkdir -p durability-smoke
	@start=$$(date +%s%N); \
	$(PYTHON) -m repro.experiments ext-durability --full --jobs 1 > durability-smoke/jobs1.txt && \
	ms=$$(( ($$(date +%s%N) - start) / 1000000 )) && \
	echo "ext-durability --full --jobs 1: $$((ms / 1000)).$$(printf %03d $$((ms % 1000))) s"
	cat durability-smoke/jobs1.txt
	$(PYTHON) -m repro.experiments ext-durability --full --jobs 2 > durability-smoke/jobs2.txt
	cmp durability-smoke/jobs1.txt durability-smoke/jobs2.txt

# Experiments smoke: every experiment at one and at two workers must
# print the same bytes (each task is keyed and merged in emission
# order), then the 16-256 node scale-out sweep once at --full (8x the
# data, superchunks grown with it), timed.  The one-worker run's peak
# RSS is printed and capped at 96 MiB: it is ~54 MiB while payloads
# stay undrawn, and one drawn 64 MiB block crosses the cap.
experiments-smoke:
	mkdir -p experiments-smoke
	$(PYTHON) -c "import resource, subprocess, sys; \
		out = open('experiments-smoke/jobs1.txt', 'wb'); \
		rc = subprocess.call([sys.executable, '-m', 'repro.experiments', 'all', '--jobs', '1'], stdout=out); \
		mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024; \
		print(f'experiments all --jobs 1: peak RSS {mib:.1f} MiB (cap 96 MiB)'); \
		sys.exit(rc or (mib > 96 and 'experiments all: peak RSS above the cap'))"
	cat experiments-smoke/jobs1.txt
	$(PYTHON) -m repro.experiments all --jobs 2 > experiments-smoke/jobs2.txt
	cmp experiments-smoke/jobs1.txt experiments-smoke/jobs2.txt
	@start=$$(date +%s); \
	$(PYTHON) -m repro.experiments ext-scale --full --jobs 2 > experiments-smoke/scale-full.txt && \
	echo "ext-scale --full --jobs 2: $$(( $$(date +%s) - start )) s"
	cat experiments-smoke/scale-full.txt

# Reachability ledger (DESIGN.md §4b): run the shipped entry points under
# one trace hook, timed, and diff the src/ functions none of them calls
# against tests/reach_ledger.txt.  Fails either way: a new never-called
# function (">") or a stale ledger entry ("<").
reach:
	mkdir -p reach
	@start=$$(date +%s%N); \
	$(PYTHON) -m tests.reach > reach/never-called.txt && \
	ms=$$(( ($$(date +%s%N) - start) / 1000000 )) && \
	echo "reach: $$((ms / 1000)).$$(printf %03d $$((ms % 1000))) s"
	cut -d' ' -f1 tests/reach_ledger.txt | diff - reach/never-called.txt \
		|| { echo "reach: probe and tests/reach_ledger.txt differ (< stale entry, > never called)"; exit 1; }

# Dead sets (DESIGN.md §8.4): fail every set of 1-4 disks of the 10-disk,
# 3-per-disk cluster at once and recover it, timed.  Each recovery must
# raise nothing, lose exactly the superchunks the recovery plan says,
# keep every surviving block bit-exact and leave layout, mirrors and
# parity verified, and each dead disk's remirror plan must equal the
# brute-force optimum (tier-1 runs a fixed sample).
dead-sets:
	@start=$$(date +%s%N); \
	$(PYTHON) -m tests.dead_sets && \
	ms=$$(( ($$(date +%s%N) - start) / 1000000 )) && \
	echo "dead-sets: $$((ms / 1000)).$$(printf %03d $$((ms % 1000))) s"

# Run twice: the chaos soak and every experiment must print the same
# bytes under two string-hash seeds, so no output leans on hash() of a
# str or on the order of a str-keyed set (~15 s).
run-twice:
	mkdir -p run-twice
	for seed in 0 999; do \
		PYTHONHASHSEED=$$seed $(MAKE) -s chaos > run-twice/chaos-$$seed.txt || exit 1; \
		PYTHONHASHSEED=$$seed $(PYTHON) -m repro.experiments all --jobs 1 \
			> run-twice/all-$$seed.txt || exit 1; \
	done
	cmp run-twice/chaos-0.txt run-twice/chaos-999.txt
	cmp run-twice/all-0.txt run-twice/all-999.txt

# Regenerate every table/figure of the paper (uses all cores).
experiments:
	$(PYTHON) -m repro.experiments all --full --jobs 0

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks .bench_out .hypothesis .mypy_cache flight-recorder durability-smoke experiments-smoke reach run-twice
