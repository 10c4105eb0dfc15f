GO ?= go

.PHONY: build test race lint bench-json bench-check serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/concurrent/... ./internal/window/... ./internal/codec/... ./internal/counterbraids/... ./internal/server/... ./internal/distributed/... ./internal/registry/... ./internal/core/...
	$(GO) test -race -count=10 -run '^(TestConcurrentColdCacheQueryBatch|TestConcurrentFirstQueryBatch)$$' ./internal/core/ ./internal/registry/

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
