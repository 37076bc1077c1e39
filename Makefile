# OpenDesc build and benchmark targets.

GO ?= go

.PHONY: all tier1 build vet test race bench perf-gate alloc-gate loc clean

all: tier1

tier1: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate every experiment table (see EXPERIMENTS.md). Prints, gates nothing.
bench:
	$(GO) run ./cmd/descbench

# The CI perf gate, locally: the alloc/clock gates, every experiment table
# once (exit status only), then cmd/benchmark at HEAD~1 and at this tree on
# this box, compared under the benchmark's own bounds.
PERF_TMP = /tmp/opendesc-perf
perf-gate: alloc-gate
	$(GO) run ./cmd/descbench -quick > /dev/null
	rm -rf $(PERF_TMP) && git worktree prune && mkdir -p $(PERF_TMP)
	git worktree add --detach $(PERF_TMP)/base HEAD~1
	cd $(PERF_TMP)/base && $(GO) run ./cmd/benchmark -seconds 2 -trace 0 -out $(PERF_TMP)/base.json
	$(GO) run ./cmd/benchmark -seconds 2 -trace 0 -out $(PERF_TMP)/head.json
	$(GO) run ./cmd/benchmark -compare $(PERF_TMP)/base.json $(PERF_TMP)/head.json

alloc-gate:
	$(GO) test -run 'TestDeliverPathAllocGate|TestWarmCompileSkipsAnalysis|TestOpenMemoryGate' -v .
	$(GO) test -run TestClockReadsOnGrid -v ./internal/tenant
	$(GO) test -run TestPollReadsClockOnGrid -v ./internal/rxpath
	$(GO) test -run TestVerifyAllocGate -v ./internal/diffverify

# Non-test Go lines per top-level directory: raw, and code only (no blank or
# comment lines). A PR states its net delta from this.
loc:
	@for d in . cmd examples internal; do \
		if [ $$d = . ]; then files=$$(ls *.go | grep -v _test.go); \
		else files=$$(find $$d -name '*.go' ! -name '*_test.go'); fi; \
		cat $$files | awk -v d=$$d ' \
			{ raw++ } \
			/^[ \t]*$$/ { next } \
			inblock { if (index($$0, "*/")) inblock = 0; next } \
			/^[ \t]*\/\// { next } \
			/^[ \t]*\/\*/ { if (!index($$0, "*/")) inblock = 1; next } \
			{ code++ } \
			END { printf "%-10s %7d raw %7d code\n", d, raw, code }'; \
	done | awk '{ print; raw += $$2; code += $$4 } END { printf "%-10s %7d raw %7d code\n", "total", raw, code }'

clean:
	rm -rf $(PERF_TMP) && git worktree prune
