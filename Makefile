# Developer entry points.  `make verify` is what CI runs.

PYTHON     ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test lint typecheck shapes bench benchmark chaos verify profile flight-recorder experiments durability-smoke clean

# Tier-1: the full unit/integration/property suite.
test:
	$(PYTHON) -m pytest -x -q

# Determinism & invariant linter (rules RDP001..RDP007; see DESIGN.md
# §10).  --strict promotes warnings to failures.
lint:
	$(PYTHON) -m repro.lint --strict src/

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

# Flight recorder: one audited, sampled soak -> the health report and
# the sampled time series CI uploads, then `raidpctl dash` re-renders
# them from disk.  The soak runs twice and both files must repeat byte
# for byte: the artifact is as deterministic as the fingerprint.
flight-recorder:
	mkdir -p flight-recorder/again
	$(PYTHON) -m repro.tools.chaos --runs 1 \
		--health flight-recorder/chaos-health.json \
		--timeseries flight-recorder/chaos-timeseries.jsonl --dash
	$(PYTHON) -m repro.tools.chaos --runs 1 \
		--health flight-recorder/again/chaos-health.json \
		--timeseries flight-recorder/again/chaos-timeseries.jsonl > /dev/null
	cmp flight-recorder/chaos-health.json flight-recorder/again/chaos-health.json
	cmp flight-recorder/chaos-timeseries.jsonl flight-recorder/again/chaos-timeseries.jsonl
	rm -r flight-recorder/again
	$(PYTHON) -m repro.tools.raidpctl dash \
		flight-recorder/chaos-health.json \
		--timeseries flight-recorder/chaos-timeseries.jsonl

# Durability smoke: the §2 experiment end-to-end -- the analytic MTTDL
# ladder and the long-horizon Monte-Carlo engine over the same five
# schemes -- at smoke scale (1k disks x 10 years x 48 trials) and at the
# scale the engine exists for (10k disks x 10 years x 200 trials, ~2 s).
durability-smoke:
	$(PYTHON) -m repro.experiments ext-durability
	$(PYTHON) -m repro.experiments ext-durability --full --jobs 1

# Regenerate every table/figure of the paper (uses all cores).
experiments:
	$(PYTHON) -m repro.experiments all --full --jobs 0

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks .bench_out .hypothesis .mypy_cache flight-recorder
