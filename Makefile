GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race race-cmp race-serve vet lint bench bench-micro fuzz faults obs-smoke soak clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/molvet): determinism, telemetry
# and concurrency discipline. gofmt -l lists unformatted files; the
# grep inverts that into a failure.
lint:
	$(GO) run ./cmd/molvet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# Stress the serving layer under the race detector: N concurrent
# clients against a live molcached instance (and a Shutdown cutting in
# on them), then assert the journal is gap-free, replays to the live
# state and matches the /metrics totals (the CI race-serve job). Every
# connection goroutine reaches simulator state under the server's lock,
# so each test runs ten times to vary the interleavings.
race-serve:
	$(GO) test -race -count=10 -run '^(TestRaceServe|TestShutdownUnderLoad)$$' ./internal/server
	$(GO) test -race -count=10 -run '^TestServedTrafficOracle$$' .

# The run-ahead CMP capture under the race detector: Runs with and
# without the helper that fills stage-1 chunks beside the merge, on every
# way a Run ends, and the spare-processor gate that grants the helper
# (the CI race job). Each test runs ten times to vary the interleavings.
race-cmp:
	$(GO) test -race -count=10 -run '^TestRunAhead' ./internal/cmp
	$(GO) test -race -count=10 -run '^TestAhead' ./internal/runner

# Just the hot-path micro benches (fast; includes whole CMP mix runs
# and the per-ASID ledger).
bench-micro:
	$(GO) test -bench 'Access|CaptureMix|WorkloadGeneration|LedgerRecord' -benchmem -run=NONE . ./internal/stats

# Fuzz the trace and checkpoint decoders, the molvet directive parser,
# the molcached wire-protocol decoder and its journal batch decoder
# (FUZZTIME per target).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz FuzzParseDirective -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzServerDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/server

# Start molsim with -serve, curl every introspection endpoint and assert
# well-formed, non-empty output (the CI smoke for the live observability
# plane).
obs-smoke:
	./scripts/obs_smoke.sh

# Chaos soak: randomized kill/restore campaigns over the MOLC1
# checkpoint path (cmd/molchaos). SOAKTIME bounds the wall clock; on any
# divergence, invariant violation or unclean corruption rejection a
# minimized repro bundle lands under soak-artifacts/ and the run exits
# nonzero.
SOAKTIME ?= 45s
soak:
	$(GO) run ./cmd/molchaos -duration $(SOAKTIME) -out soak-artifacts

# Drive the bundled fault campaign through molsim with invariant audits;
# exits nonzero on any violation or undelivered failure.
faults:
	$(GO) run ./cmd/molsim -cache molecular:1MB:2x4:Randy -mix art,mcf,parser \
		-refs 2000000 -faults cmd/molsim/testdata/campaign.json -check-invariants 2000

clean:
	$(GO) clean ./...
