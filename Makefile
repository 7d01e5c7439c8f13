GO ?= go
FUZZTIME ?= 15s
BENCH_DIR ?= bench-out
COVER_MIN ?= 78.0

.PHONY: check fmt vet build test race poison bench cover fuzz-smoke bench-smoke ingest-race serve-smoke metrics-lint vuln

## check: the full gate — formatting, vet, build, tests under the race
## detector and with dead storage poisoned, and the metrics-name lint
check: fmt vet build race poison metrics-lint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## poison: the use-after-reuse net. An event is a view of scanner storage that
## dies with the next one, and a view kept too long fails silently — it reads
## whatever was written there since. Under the spexpoison build tag the scanner
## overwrites rewound arena storage and the consumed part of its window with
## 0xDB, and Tape.Reset its own; the differential harness at every chunk size,
## the fuzz seed corpora, the merged/parallel cross-validation and the spexd
## e2e must read the same under it
poison:
	$(GO) test -tags spexpoison ./internal/xmlstream ./internal/spexnet ./internal/multi ./internal/core ./internal/server .

## cover: full-suite coverage with the recorded floor (COVER_MIN); the
## profile lands in coverage.out for the CI artifact
cover:
	$(GO) test -count 1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t=$$total -v m=$(COVER_MIN) 'BEGIN { exit t+0 < m+0 ? 1 : 0 }' \
		|| { echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }

## bench: one testing.B series per paper figure plus the ablations
bench:
	$(GO) test -run NONE -bench . -benchmem .

## fuzz-smoke: run every fuzz target briefly; crashers land under testdata/fuzz
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/rpeq
	$(GO) test -run NONE -fuzz 'FuzzParseXPath$$' -fuzztime $(FUZZTIME) ./internal/rpeq
	$(GO) test -run NONE -fuzz 'FuzzScanner$$' -fuzztime $(FUZZTIME) ./internal/xmlstream
	$(GO) test -run NONE -fuzz 'FuzzCondNormalize$$' -fuzztime $(FUZZTIME) ./internal/cond
	$(GO) test -run NONE -fuzz 'FuzzEngineEquivalence$$' -fuzztime $(FUZZTIME) .

## bench-smoke: tiny-scale harness runs with the zero-answer shape check,
## writing machine-readable BENCH_*.json reports into $(BENCH_DIR); also
## gates the hot loop — immediate answers must stay allocation-free (a
## count-mode network and Set.EvaluateBytes, the two arms of
## TestCountModeZeroAlloc), a Set must stand — conditional answers find their
## formulas and candidate records, and a pass the network of the pass before
## (TestSetSteadyStateAllocs: at most 0.0075 B per event on the sdi_merged
## shape; TestSetSmallDocAllocs: at most 16 allocations for a one-record
## document on the warmed 128-subscription set, a pass after a failed one
## being allowed its build) — serialized ones must cost their string and hold a
## constant (TestResultsSteadyStateAllocs; TestResultsMidpointHeap, the
## benchmark's extract_serialize heap probe as a test: at most 256 KB),
## ingest must allocate nothing through a reader at any document size
## (TestIngestZeroAlloc), rendering an answer must take one allocation
## (TestSerializeAllocs), a transducer must be visited only for an
## activation or an event it asked for (deliveries and visits per event:
## TestIdleTransducersSkipped, TestWakeConditions), a connector of Fig. 11 must
## be wiring, not a transducer (TestLoweredDegree: degree, visits and
## deliveries of a pass over the subscription corpus as exact counts) and a
## determination applied once (TestDeterminationsAppliedOnce) — and the
## interning ablation must run end to end
bench-smoke:
	mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig 14 -scale 0.1 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig 15 -scale 0.02 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig adversarial -scale 0.01 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig obs-overhead -scale 0.05 -max-overhead 10 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig early-term -scale 0.02 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig value-pred -scale 0.1 -check -json $(BENCH_DIR)
	$(GO) run ./cmd/spexbench -fig ingest -scale 0.05 -check -json $(BENCH_DIR)
	$(GO) test -run 'TestCountModeZeroAlloc$$|TestSetSteadyStateAllocs$$|TestSetSmallDocAllocs$$|TestResultsSteadyStateAllocs$$|TestResultsMidpointHeap$$' -count 1 .
	$(GO) test -run 'TestIngestZeroAlloc$$|TestSerializeAllocs$$' -count 1 ./internal/xmlstream
	$(GO) test -run 'TestIdleTransducersSkipped$$|TestLoweredDegree$$|TestWakeConditions$$|TestDeterminationsAppliedOnce$$' -count 1 ./internal/spexnet
	$(GO) test -run NONE -bench 'BenchmarkAblationInterning$$' -benchtime 1x .

## ingest-race: the ingest lockdown under the race detector — the
## seed-vs-zerocopy-vs-parallel differential harness, the chunk-scan
## stitcher (including fuzz seed corpora), accounting parity, and the
## server's mmap side-load route, all with concurrency checking on
ingest-race:
	$(GO) test -race -count 1 \
		-run 'TestDifferential|TestParallel|TestIngest|TestScannerAccounting|TestOpenFile|FuzzScanner' \
		./internal/xmlstream
	$(GO) test -race -count 1 -run 'TestSideload' ./internal/server
	$(GO) test -race -count 1 -run 'TestEvaluateBytes|TestParallelScan' .

## serve-smoke: boot a real spexd, drive subscribe → ingest → NDJSON result
## with curl against the Fig. 1 document, then check a clean SIGTERM drain
serve-smoke:
	mkdir -p $(BENCH_DIR)
	scripts/serve_smoke.sh $(BENCH_DIR)/spexd

## metrics-lint: every exported spex_* metric name must be documented in the
## README's metrics table
metrics-lint:
	scripts/metrics_lint.sh

## vuln: known-vulnerability scan of the module and its (stdlib-only) deps
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
