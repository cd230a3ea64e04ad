# Developer loop for the reproduction.

PYTHON ?= python

# everything the targets below leave behind (run archives, raw and fresh
# benchmark JSON, the comparison report) lands here; git-ignored, and
# `make clean` removes it.  Only BENCH_core.json lives at the root.
BUILD := build

.PHONY: install test bench bench-json bench-compare bench-refresh bench-e2e bench-layers bench-ab profile growth experiments experiments-quick chaos chaos-byz churn examples fuzz fuzz-long rt-demo rt-smoke wire-smoke serve-demo loadtest serve-smoke strata-demo hierarchy-smoke clean

# relative slowdown tolerated by the perf gate before it fails.  0.75
# accommodates CPU-throttled/shared dev machines (observed run-to-run
# drift up to ~1.5x with identical code); tighten on quiet hardware with
# `BENCH_TOLERANCE=0.25 make bench-compare`.  CI sets 1.0.  The 2x
# backend speedup floor is within-run and unaffected by this knob.
BENCH_TOLERANCE ?= 0.75

# conformance-suite paths run by the fuzz targets (the differential
# driver, oracles, invariant hooks, corpus replay, and both fuzz files)
FUZZ_PATHS = tests/testing tests/integration/test_protocol_fuzz.py \
	tests/integration/test_lossy_fuzz.py tests/core/test_validate_byzantine.py

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# machine-readable benchmark baseline; BENCH_core.json is committed so
# perf regressions show up as a diff (CI uploads the fresh run as an
# artifact for comparison).  Only per-benchmark summary stats are kept:
# the raw run (every sample, ~3 MB) stays in the git-ignored $(BUILD)/BENCH_raw.json
bench-json: | $(BUILD)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --benchmark-json=$(BUILD)/BENCH_raw.json
	$(PYTHON) benchmarks/compare.py summarize $(BUILD)/BENCH_raw.json BENCH_core.json

# the perf-regression gate: fresh run vs the committed baseline, plus the
# hard floor on the compacted numpy AGDP backend's speedup over dict at
# the largest live-set size (the tentpole acceptance criterion)
bench-compare: | $(BUILD)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --benchmark-json=$(BUILD)/BENCH_fresh.json
	$(PYTHON) benchmarks/compare.py BENCH_core.json $(BUILD)/BENCH_fresh.json \
		--tolerance $(BENCH_TOLERANCE) --report $(BUILD)/BENCH_compare.md \
		--assert-speedup "test_agdp_backend_comparison[128-numpy]" \
			"test_agdp_backend_comparison[128-dict]" 2.0 \
		--assert-speedup "test_serve_garbage_rejection" \
			"test_serve_probe_throughput" 2.0 \
		--assert-speedup "test_compose_delegated_throughput" \
			"test_delegation_reply_throughput" 3.0 \
		--assert-speedup "test_sync_encode_decode[binary]" \
			"test_sync_encode_decode[json]" 2.75

# rebless the committed baseline after an intentional perf change
# (bench-json with intent: review the diff of BENCH_core.json)
bench-refresh: bench-json

# the layered end-to-end benchmark (bench/README.md): every workload's
# end-to-end metrics, and the traced per-layer ledger
bench-e2e:
	$(PYTHON) -m bench run

bench-layers:
	$(PYTHON) -m bench trace

# `make bench-ab BASE=<rev> [SEED=0] [REPEATS=3] [WORKLOADS="..."]`: the
# layered benchmark at BASE (a temporary git worktree) against the working
# tree, alternating which side runs first, judged by `python -m bench compare`
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>"; exit 2; }
	PYTHON="$(PYTHON)" scripts/bench_ab.sh "$(BASE)" $(WORKLOADS)

# `make profile WORKLOAD=sim-ntp-tree31 [SEED=0] [TOP=25]`: cProfile of a
# sim workload's timed window, with the untimed-vs-profiled wall ratio
profile:
	@test -n "$(WORKLOAD)" || { echo "usage: make profile WORKLOAD=<sim workload>"; exit 2; }
	$(PYTHON) scripts/profile_workload.py $(WORKLOAD) $(if $(SEED),--seed $(SEED)) $(if $(TOP),--top $(TOP))

# `make growth [SCALES="1 2 4"] [SEED=0]`: the hardened churn scenario at
# several run lengths - log length, events replayed and ms per recovery,
# first post-recovery payload, max payload, RSS; fails when what a
# recovery replays grows with the run
growth:
	$(PYTHON) scripts/recovery_growth.py $(if $(SCALES),--scales $(SCALES)) $(if $(SEED),--seed $(SEED))

experiments:
	$(PYTHON) -m repro.experiments.cli

experiments-quick:
	$(PYTHON) -m repro.experiments.cli --quick

chaos:
	$(PYTHON) -m repro.experiments.cli chaos-soak --quick

# fixed-seed Byzantine chaos: one ring soak plus the adversarial run
# (payload tampering, suspicion, eviction) - deterministic smoke check
chaos-byz:
	$(PYTHON) -m repro.experiments.chaos --shapes ring --duration 60 --seed 0 --liars 1

# fixed-seed churn smoke: every corruption scope detected and rebuilt
# with finite re-convergence, plus a late joiner bootstrapping through
# the sponsor-snapshot handshake (quick size, deterministic)
churn:
	$(PYTHON) -m repro.experiments.cli e11-churn --quick

# property-based conformance sweep at the CI example budget (~150/property)
fuzz:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest $(FUZZ_PATHS) -q

# nightly-scale sweep with debug invariant hooks armed everywhere
fuzz-long:
	HYPOTHESIS_PROFILE=nightly REPRO_DEBUG=1 $(PYTHON) -m pytest $(FUZZ_PATHS) -q

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# live 4-node cluster over loopback with drifting clocks (~4 s)
rt-demo:
	$(PYTHON) -m repro.rt.cli cluster --nodes 4 --shape ring --duration 4 \
		--period 0.2 --drifting --require-converged

# the CI wire gate: a mixed-codec UDP cluster (n2 pinned to the v2 JSON
# codec, everyone else negotiating v3 binary) must converge with zero
# soundness violations; the checker then verifies the archived document
# records the mixed codec map and passes the Thm 2.1 oracle
wire-smoke: | $(BUILD)
	$(PYTHON) -m repro.rt.cli cluster --nodes 4 --shape line --transport udp \
		--duration 4 --period 0.2 --drifting --json-node n2 --seed 0 \
		--require-converged --out $(BUILD)/wire_smoke_run.json
	$(PYTHON) scripts/check_wire_smoke.py $(BUILD)/wire_smoke_run.json

# the CI runtime gate: loopback + real UDP sockets, both must converge
rt-smoke: | $(BUILD)
	$(PYTHON) -m repro.rt.cli cluster --nodes 3 --duration 8 --period 0.25 \
		--skew-ppm 100 --require-converged --out $(BUILD)/rt_loopback_run.json
	$(PYTHON) -m repro.rt.cli cluster --nodes 2 --transport udp --duration 8 \
		--period 0.25 --skew-ppm 100 --require-converged --out $(BUILD)/rt_udp_run.json

# serving-tier demo: 2 servers, 4 clients, primary crash and failover (~3 s)
serve-demo:
	$(PYTHON) -m repro.rt.cli serve --nodes 3 --duration 3 --clients 4 \
		--crash-primary 1.2:2.2 --eps-max 0.02 --require-sound

# sustained overload: an undersized bucket must shed explicitly while
# every accepted bound stays sound (archives the scorecard)
loadtest: | $(BUILD)
	$(PYTHON) -m repro.rt.cli serve --nodes 3 --duration 5 --clients 8 \
		--bucket-rate 40 --bucket-burst 5 --max-interval 0.03 \
		--require-sound --out $(BUILD)/serve_load_run.json

# stratum federation demo: a 3-node core delegating to two downstream
# tiers in one process, skewed clocks everywhere but the borders (~4 s)
strata-demo:
	$(PYTHON) -m repro.rt.cli strata --core-nodes 3 --tiers 2 --tier-nodes 2 \
		--duration 4 --skew-ppm 120 --require-sound

# the CI hierarchy gate: a two-tier federation across real OS processes
# over UDP, primary anchor crashed mid-run - the downstream border must
# re-elect with zero soundness violations (fixed seed, partial archive)
hierarchy-smoke: | $(BUILD)
	$(PYTHON) -m repro.rt.cli strata --procs --core-nodes 3 --tiers 1 \
		--tier-nodes 2 --duration 8 --skew-ppm 120 --sync-period 0.15 \
		--max-age 1.0 --crash-anchor 3 --seed 0 \
		--require-sound --require-election --out $(BUILD)/strata_smoke_run.json

# the CI serving gate: primary crash mid-load over loopback with skewed
# clocks, plus a UDP swarm - both must end with zero unsound accepts
serve-smoke: | $(BUILD)
	$(PYTHON) -m repro.rt.cli serve --nodes 3 --duration 6 --clients 4 \
		--crash-primary 2:4 --skew-ppm 100 --eps-max 0.02 \
		--require-sound --out $(BUILD)/serve_smoke_run.json
	$(PYTHON) -m repro.rt.cli serve --nodes 2 --transport udp --duration 4 \
		--clients 2 --require-sound

$(BUILD):
	mkdir -p $(BUILD)

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info $(BUILD)
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
