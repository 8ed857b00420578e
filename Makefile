DUNE ?= dune

BENCHES = jacobi spmul ep cg backprop bfs cfd srad hotspot kmeans lud nw

# Golden tiers: committed, byte-stable BENCH_<tier>.json baselines (see
# DESIGN.md, "Golden tiers").  `bench/main.exe <tier>` regenerates one;
# `make <tier>-smoke` recomputes its smoke subset (or whole document),
# requires it verbatim in the committed file, and checks the tier's
# invariants.
GOLDEN = profile symeq scale imbalance memtrace saturate faults
GOLDEN_SMOKES = $(GOLDEN:%=%-smoke)

.PHONY: all build test lint fault-matrix $(GOLDEN_SMOKES) regress-smoke wall-smoke check bench parity clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# The hand-optimized suite is the end state of the paper's optimization
# sessions: it must lint warning-free.
lint: build
	@for b in $(BENCHES); do \
	  echo "lint bench:$$b:opt"; \
	  $(DUNE) exec --no-build bin/openarc.exe -- \
	    lint bench:$$b:opt --deny-warnings || exit 1; \
	done

# Resilience smoke: every fault kind x recovery policy on a small subset
# of the suite must recover verified-correct (the full sweep is
# `bench/main.exe faults`, which regenerates BENCH_faults.json).
# --devices 2,4 adds the device-loss-with-failover rows: a member killed
# at a kernel-launch gate whose shard must re-execute on the survivors.
fault-matrix: build
	$(DUNE) exec --no-build bin/openarc.exe -- \
	  fault-matrix --benches jacobi,ep,srad --seed 42 --devices 2,4

$(GOLDEN_SMOKES): %-smoke: build
	$(DUNE) exec --no-build bench/main.exe $@

# Regression sentinel smoke: diff a 3-benchmark sweep against the
# committed BENCH_profile.json baseline; exits nonzero with a
# per-directive culprit report (regress-report.json) on regression.
regress-smoke: build
	$(DUNE) exec --no-build bench/main.exe -- \
	  regress --benches jacobi,ep,srad --json regress-report.json

# Wall-clock smoke: time a 3-benchmark subset under both execution
# engines (median of 3) and require the compiled engine not to be slower
# than the tree walker; wall-report.json carries the measurements (the
# full sweep is `bench/main.exe wall`, which regenerates BENCH_wall.json).
wall-smoke: build
	$(DUNE) exec --no-build bench/main.exe -- \
	  wall --benches jacobi,ep,srad --repeats 3 --min-speedup 1.0 \
	  --json wall-report.json

check: build test lint fault-matrix $(GOLDEN_SMOKES) regress-smoke wall-smoke

bench: build
	$(DUNE) exec bench/main.exe

# Parent-parity probe (not part of `check`): build PARITY_BASE from git
# next to the working tree and byte-compare stdout, stderr, exit code and
# written files of verify on JACOBI/EP/CG, run/profile/memtrace/session
# on them at 1, 2 and 4 devices, plus JACOBI fault runs under retry and
# full.
PARITY_BASE ?= HEAD

parity:
	DUNE=$(DUNE) sh bench/parity.sh $(PARITY_BASE)

clean:
	$(DUNE) clean
