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
	$(GO) run ./cmd/opendesc experiments

# Every shipped demo runs to exit 0 (stdout discarded, exit status only): the
# five examples, one `opendesc run` per driver arming, the tenant and fleet
# scenarios with their transcripts, and the compiler driver: -list, each
# backend into a temporary -o directory, -plan, -trace and -diff, and a .p4
# file path as -nic (with -trace) and as a -diff side.
EVOLVING = -nic e1000e -req rss,ip_checksum,vlan,pkt_len
demos:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done
	$(GO) run ./cmd/opendesc run -packets 64 > /dev/null
	$(GO) run ./cmd/opendesc run -nic qdma -req kv_key,rss -kv -packets 64 > /dev/null
	$(GO) run ./cmd/opendesc run $(EVOLVING) -packets 1024 -evolve > /dev/null
	$(GO) run ./cmd/opendesc run -nic e1000e -req rss,vlan,pkt_len -packets 20000 -faults 'corrupt=1e-3,drop=5e-4,hang=2@5000' -seed 7 > /dev/null
	$(GO) run ./cmd/opendesc run $(EVOLVING) -packets 20000 -evolve -faults 'corrupt=1e-3,replay=1e-3,dup=1e-3,drop=5e-4,nak=0.2,hang=2@5000' -seed 7 > /dev/null
	$(GO) run ./cmd/opendesc experiments -quick -v e19 e20 > /dev/null
	$(GO) run ./cmd/opendesc -list > /dev/null
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; for b in report go c ebpf dot; do \
		echo "go run ./cmd/opendesc -nic mlx5 -req rss,vlan -backend $$b -o $$dir"; \
		$(GO) run ./cmd/opendesc -nic mlx5 -req rss,vlan -backend $$b -o "$$dir"; done
	$(GO) run ./cmd/opendesc -nic qdma -req kv_key,rss -plan > /dev/null
	$(GO) run ./cmd/opendesc -nic e1000e -req rss,vlan -trace > /dev/null
	$(GO) run ./cmd/opendesc -diff e1000 e1000e -req rss,pkt_len > /dev/null
	$(GO) run ./cmd/opendesc -nic internal/nicsim/testdata/boolctx.p4 -req rss,vlan -trace > /dev/null
	$(GO) run ./cmd/opendesc -diff e1000e internal/nicsim/testdata/boolctx.p4 -req rss,pkt_len > /dev/null

# The CI perf gate, locally: the alloc/clock gates, every experiment table
# once (exit status only), then cmd/benchmark at HEAD~1 and at this tree on
# this box, compared under the benchmark's own bounds.
PERF_TMP = /tmp/opendesc-perf
perf-gate: alloc-gate
	$(GO) run ./cmd/opendesc experiments -quick > /dev/null
	rm -rf $(PERF_TMP) && git worktree prune && mkdir -p $(PERF_TMP)
	git worktree add --detach $(PERF_TMP)/base HEAD~1
	cd $(PERF_TMP)/base && $(GO) run ./cmd/benchmark -seconds 2 -trace 0 -out $(PERF_TMP)/base.json
	$(GO) run ./cmd/benchmark -seconds 2 -trace 0 -out $(PERF_TMP)/head.json
	$(GO) run ./cmd/benchmark -compare $(PERF_TMP)/base.json $(PERF_TMP)/head.json

# The calls the per-packet receive path needs inlined, as FUNC:CALLEE: the
# compiler's -m output must show CALLEE inlined inside FUNC's body in
# internal/rxpath/rxpath.go. Moving a cold branch back into a callee puts it
# over the inliner's budget and fails the gate. INLINE_AWK reads rxpath.go
# for FUNC's lines, then the -m output, and exits 0 on a match.
INLINED = 'consume:ring.(*Cursor).Next' 'consume:ring.(*Cursor).Release' 'Get:codegen.(*Reader).Load'
INLINE_AWK = FNR == NR { if ($$0 ~ "^func (\\([^)]*\\) )?" fn "\\(") s = FNR; else if (s && !e && $$0 == "}") e = FNR; next } \
	index($$0, "rxpath/rxpath.go:") && index($$0, "inlining call to " callee) { split($$0, f, ":"); if (f[2] >= s && f[2] <= e) ok = 1 } \
	END { exit !ok }

alloc-gate:
	@m=$$($(GO) build -gcflags=-m ./internal/rxpath 2>&1) || { echo "$$m"; exit 1; }; \
	for p in $(INLINED); do \
		fn=$${p%%:*} callee=$${p#*:}; \
		echo "$$m" | awk -v fn="$$fn" -v callee="$$callee" '$(INLINE_AWK)' internal/rxpath/rxpath.go - \
			|| { echo "FAIL: rxpath's $$fn no longer inlines $$callee"; exit 1; }; \
		echo "ok: rxpath's $$fn inlines $$callee"; \
	done
	$(GO) test -run 'TestDeliverPathAllocGate|TestColdCompileAllocGate|TestWarmCompileSkipsAnalysis|TestOpenMemoryGate' -v .
	$(GO) test -run TestClockReadsOnGrid -v ./internal/tenant
	$(GO) test -run 'TestPollReadsClockOnGrid|TestLinkAllocGate|TestWindowTimingOnGrid' -v ./internal/rxpath
	$(GO) test -run TestVerifyAllocGate -v ./internal/diffverify
	$(GO) test -run TestNewAllocGate -v ./internal/nicsim
	$(GO) test -run TestShimTimingOnGrid -v ./internal/softnic
	$(GO) test -race -run TestDerivedCountsNeverDecrease -v ./internal/nicsim
	$(GO) test -race -run TestSnapshotDuringStagedPolls -v ./internal/rxpath

# Non-test Go and assembly lines per top-level directory: raw, and code only
# (no blank or comment lines), their total, then the same two counts over
# every _test.go file, then the words of the three prose docs. A PR states
# its net delta from the total and shows the tests row beside it.
LOC_AWK = { raw++ } \
	/^[ \t]*$$/ { next } \
	inblock { if (index($$0, "*/")) inblock = 0; next } \
	/^[ \t]*\/\// { next } \
	/^[ \t]*\/\*/ { if (!index($$0, "*/")) inblock = 1; next } \
	{ code++ } \
	END { printf "%-10s %7d raw %7d code\n", d, raw, code }

loc:
	@for d in . cmd examples internal; do \
		if [ $$d = . ]; then files=$$(ls *.go | grep -v _test.go); \
		else files=$$(find $$d \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go'); fi; \
		cat $$files | awk -v d=$$d '$(LOC_AWK)'; \
	done | awk '{ print; raw += $$2; code += $$4 } END { printf "%-10s %7d raw %7d code\n", "total", raw, code }'
	@cat $$(find . -name '*_test.go') | awk -v d=tests '$(LOC_AWK)'
	@printf "%-10s %7d words (DESIGN.md, README.md, EXPERIMENTS.md)\n" prose $$(cat DESIGN.md README.md EXPERIMENTS.md | wc -w)

clean:
	rm -rf $(PERF_TMP) && git worktree prune
