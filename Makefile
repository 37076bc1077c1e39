# OpenDesc build and benchmark targets.

GO ?= go

.PHONY: all tier1 build vet test race bench demos perf-gate alloc-gate loc clean

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

# Every shipped demo runs to exit 0 (stdout discarded, exit status only): the
# five examples and one nicsim invocation per run path. They are the only
# shipped callers of the -tenants plane and the -fleet demo.
EVOLVING = -nic e1000e -req rss,ip_checksum,vlan,pkt_len
demos:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done
	$(GO) run ./cmd/nicsim -packets 64 > /dev/null
	$(GO) run ./cmd/nicsim -nic qdma -req kv_key,rss -kv -packets 64 > /dev/null
	$(GO) run ./cmd/nicsim $(EVOLVING) -packets 1024 -evolve > /dev/null
	$(GO) run ./cmd/nicsim -nic e1000e -req rss,vlan,pkt_len -packets 20000 -faults 'corrupt=1e-3,drop=5e-4,hang=2@5000' -seed 7 > /dev/null
	$(GO) run ./cmd/nicsim $(EVOLVING) -packets 20000 -evolve -faults 'corrupt=1e-3,replay=1e-3,dup=1e-3,drop=5e-4,nak=0.2,hang=2@5000' -seed 7 > /dev/null
	$(GO) run ./cmd/nicsim -tenants 6 -packets 2048 > /dev/null
	$(GO) run ./cmd/nicsim -fleet 6 > /dev/null

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
	$(GO) test -run 'TestDeliverPathAllocGate|TestColdCompileAllocGate|TestWarmCompileSkipsAnalysis|TestOpenMemoryGate' -v .
	$(GO) test -run TestClockReadsOnGrid -v ./internal/tenant
	$(GO) test -run 'TestPollReadsClockOnGrid|TestLinkAllocGate' -v ./internal/rxpath
	$(GO) test -run TestVerifyAllocGate -v ./internal/diffverify

# Non-test Go lines per top-level directory: raw, and code only (no blank or
# comment lines), then the words of the three prose docs. A PR states its net
# delta from both.
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
	@printf "%-10s %7d words (DESIGN.md, README.md, EXPERIMENTS.md)\n" prose $$(cat DESIGN.md README.md EXPERIMENTS.md | wc -w)

clean:
	rm -rf $(PERF_TMP) && git worktree prune
