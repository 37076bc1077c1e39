# OpenDesc build and benchmark targets.

GO ?= go

.PHONY: all tier1 build vet test race bench bench-baseline perf-gate alloc-gate loc clean

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

# Regenerate every experiment table (slow; see EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/descbench

# Re-measure the committed BENCH_*.json baselines in place. Run on a quiet
# machine, inspect the diff, and commit only deliberate movements.
bench-baseline:
	$(GO) run ./cmd/descbench baseline -out .

# The CI perf ratchet, locally: alloc gate, fresh baseline run, compare.
perf-gate: alloc-gate
	rm -rf /tmp/opendesc-perf && mkdir -p /tmp/opendesc-perf
	$(GO) run ./cmd/descbench baseline -out /tmp/opendesc-perf
	@fail=0; for old in BENCH_*.json; do \
		echo "== $$old =="; \
		$(GO) run ./cmd/descbench compare "$$old" "/tmp/opendesc-perf/$$old" || fail=1; \
	done; exit $$fail

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
	rm -rf /tmp/opendesc-perf
