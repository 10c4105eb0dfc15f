GO ?= go

.PHONY: build test race cover lint fuzz-short bench-json bench-check serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# RACE_PKGS run their full suites under the race detector, and every
# other package runs its fast (-short) tests under it once. The
# concurrent layer is the one place where a missed lock or a torn read
# silently corrupts counters. internal/server is registry + limiter +
# handles under live HTTP concurrency, and its soak test is exactly the
# shape -race is for. internal/distributed drives the sharded replicas
# from its churn and delta-shipping tests. internal/registry holds the
# basis cache every construction by name shares, and its tests build
# and first-query one basis from many goroutines at once. An l2sr
# replica in internal/core orders its Bias-Heap on its first read,
# under a lock that concurrent first readers of one snapshot share, and
# a basis builds its ψ and the key listings behind TopK once for all of
# them; the cold-read tests run ten times more to give an interleaving
# that breaks it more chances to show.
RACE_PKGS := concurrent window codec counterbraids server distributed registry core

race:
	$(GO) test -race $(patsubst %,./internal/%/...,$(RACE_PKGS))
	$(GO) test -race -count=10 -run '^(TestConcurrentColdCacheQueryBatch|TestConcurrentFirstQueryBatch|TestConcurrentColdCandidates)$$' ./internal/core/ ./internal/registry/
	$(GO) test -race -short $$($(GO) list ./... | grep -v $(patsubst %,-e internal/%,$(RACE_PKGS)))

# COVER_FLOORS are package:percent coverage floors on the packages
# where a silent gap is most dangerous: the sketch estimators
# (bit-identical batch paths), the concurrent layer (locks, epochs,
# snapshot swaps), the sliding-window layer (rotation, expiry, cached
# views), the wire-format codec (hostile-input validation, checkpoint
# restore), the Counter Braids structure behind the counterbraids
# baseline of the paper's §2 (merge carries, state restore ceilings),
# the server, the monitoring fabric, the bias-aware sketches and their
# estimators (internal/core: construction, merge, state capture), the
# Bias-Heap (incremental updates and the O(s) rebuild must find one
# middle), the deviation scans (TopK/Scan selection), the algorithm
# catalog with its shared basis cache and merge dispatch, and the hash
# families whose batched and range kernels must equal the point hash.
# The floors sit below current coverage so honest refactors pass while
# an untested new subsystem fails.
COVER_FLOORS := sketch:90 concurrent:85 window:85 codec:85 counterbraids:90 server:85 distributed:85 core:85 biasheap:90 heavyhitter:85 registry:85 hashing:90

cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=./internal/$${pf%%:*}; floor=$${pf##*:}; \
		pct=$$($(GO) test -cover "$$pkg" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		echo "$$pkg coverage: $${pct}% (floor $${floor}%)"; \
		if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p >= f) }'; then \
			echo "::error::$$pkg coverage $${pct}% fell below the $${floor}% floor"; exit 1; \
		fi; \
	done

# FUZZ_TARGETS are package:target pairs naming every Fuzz target of the
# root module: the wire-format loaders and round trips, the composite
# checkpoint decoder, the hostile-construction targets, the delta-frame
# decoder behind the monitoring fabric, the pruned deviation scans, the
# codec's single-sketch loader, the Bias-Heap against its reference, the
# row-hash key listing behind TopK and Scan, and the vector math behind
# the accuracy bounds. fuzz-short fuzzes each for
# FUZZTIME (CI's short pass; long runs belong in a scheduled job), after
# checking that the list names every Fuzz function in the module's
# tests, so a new target cannot be left out.
FUZZ_TARGETS := .:FuzzUnmarshal .:FuzzMarshalRoundTrip .:FuzzDecode .:FuzzNewRange \
	.:FuzzNewWindowed .:FuzzDecodeDelta .:FuzzTopKMatchesRecover \
	internal/codec:FuzzDecodeSketch internal/codec:FuzzSketchRoundTrip \
	internal/biasheap:FuzzHeapAgainstReference internal/hashing:FuzzBucketKeys \
	internal/vecmath:FuzzMinBetaErrK internal/vecmath:FuzzErrKInvariants \
	internal/vecmath:FuzzMultiBias
FUZZTIME ?= 10s

fuzz-short:
	@want=$$(grep -rhoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build . | sed 's/^func //' | sort); \
	have=$$(for pt in $(FUZZ_TARGETS); do echo "$${pt##*:}"; done | sort); \
	if [ "$$want" != "$$have" ]; then \
		echo "::error::FUZZ_TARGETS does not name exactly the module's Fuzz targets"; \
		echo "in the tests:" $$want; echo "listed:" $$have; exit 1; \
	fi
	@for pt in $(FUZZ_TARGETS); do \
		pkg=./$${pt%%:*}; target=$${pt##*:}; \
		echo "fuzz $$pkg $$target for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$${target}\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
	done

# serve-smoke is the end-to-end sketchd drill: build the real binary,
# boot it on an ephemeral port with a checkpoint directory, ingest and
# query over TCP, kill -TERM it mid-ingest, and assert a clean drain
# (exit 0, final checkpoint) plus a bit-identical restart.
serve-smoke:
	$(GO) test -run TestServeSmokeProcess -v -count=1 ./internal/server

# lint mirrors CI's lint job: go vet, then the repo's own sketchlint
# multichecker through the vet -vettool protocol (lock/defer pairing,
# the //sketch:hotpath zero-allocation contract, bounded decode makes,
# typed boundary errors). staticcheck and govulncheck run when
# installed; CI installs pinned versions (see .github/workflows/ci.yml)
# so a local skip never hides a finding for long.
lint:
	$(GO) vet ./...
	$(GO) vet -vettool="$$($(GO) run ./cmd/sketchlint -print-path)" ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipped (CI runs it pinned)"; fi

# Regenerate the checked-in benchmark baseline.
bench-json:
	$(GO) run ./cmd/benchjson

# benchmark/ is a nested module outside the root ./..., so build, vet,
# and test it on its own: an internal API change must not break it
# unnoticed.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
