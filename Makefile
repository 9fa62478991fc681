GO ?= go

.PHONY: build test verify fuzz serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate, and what CI runs: gofmt and vet (la, tlr and
# cov also vetted for arm64, where the Go loops stand in for the amd64
# assembly — a cross-vet type-checks that build and needs no network), the
# covariance row kernel's bitwise tests built at GOAMD64=v3 (they hold the
# assembly to the Go loops, which stay unfused only while the compiler does
# not contract x*y+z on amd64 — this pins that it still does not), that only core
# and the root alias import internal/chaos (runtime, mpi and tlr take plain
# nil-by-default func fields and core adapts the injector onto them), every package
# once, uncached, under the race detector and in a shuffled order (the rank
# goroutines and mailboxes, the session lock, lock-free instruments, the task
# graphs, the pooled recompression workspaces, the equivalence and recovery
# oracles, the out-of-core and serving suites and the fuzz targets' seed
# corpora are all in that one pass; internal/la is the long pole, about 270 s
# inside this pass on two cores (its kernel tests run once per micro-kernel
# body the CPU has), with internal/core about 90 s beside it — the whole
# target takes about 7 minutes; the
# process-wide instrument registry is the state a shuffled order could leak,
# and every test reads it as a difference of snapshots), then the tile spill
# cache's and out-of-core suites three more times under the race detector
# (pins and evictions run inside concurrently executing task bodies; about
# 40 s), one iteration of the dense-kernel (Trsm, Syrk, Potrf, the
# skinny, square — on every micro-kernel body the CPU has — and one-column
# Gemms), vector-loop, recompression, low-rank update,
# graph-construction, fused TLR and HODLR generate+factor, covariance kernel,
# cached-predict and distributed generate+factor benchmarks so they cannot rot, the two paperbench experiments the test suite
# lists as too slow to run (`extensions`, `ablation`; about 6 s together, and
# unrun they stayed broken for PRs), every example under examples/, output
# discarded (about 6 s together; vet compiles them but nothing else runs
# them, so an example that panics or exits non-zero would go unseen), then
# the benchmark module, which root `go test ./...` does not reach: its vet and
# unit tests, and its smoke run, which must end with correct:true. Searching
# for new fuzz inputs is `make fuzz`, not part of verify.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./... && GOARCH=arm64 $(GO) vet ./internal/la/ ./internal/tlr/ ./internal/cov/
	GOAMD64=v3 $(GO) test -count=1 -run Bitwise ./internal/cov/
	test "$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -E ' repro/internal/chaos( |$$)' | cut -d' ' -f1 | xargs)" = "repro repro/internal/core"
	$(GO) test -race -shuffle=on -count=1 -timeout 45m ./...
	$(GO) test -race -count=3 -run 'OOC|Pin|Evict|Unpin|Footprint|DecodeError' ./internal/tlr/
	$(GO) test -run '^$$' -bench 'Trsm|Syrk|Potrf|GemmSkinny|GemmSquare|GemmOneColumn|Dot|Rotate|QRThin|SVDThin|Recompress|GemmLL|AddLowRank|GenCholesky|KernelBlock|SessionPredictCached|DistCholesky' -benchtime 1x ./internal/la/ ./internal/tlr/ ./internal/hodlr/ ./internal/cov/ ./internal/core/ ./internal/mpi/
	$(GO) run ./cmd/paperbench -exp extensions -scale small >/dev/null && $(GO) run ./cmd/paperbench -exp ablation -scale small >/dev/null
	for e in ./examples/*/; do $(GO) run $$e >/dev/null || exit 1; done
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --smoke

# fuzz searches each fuzz target for ten seconds on one worker (go test takes
# one target and one package per invocation). An input that fails is written
# under the package's testdata/fuzz/ and fails plain `go test` from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzOpenCheckpoint$$' -fuzztime 10s -parallel 1 ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s -parallel 1 ./internal/dataio/
	$(GO) test -run '^$$' -fuzz '^FuzzBlobFileRegions$$' -fuzztime 10s -parallel 1 ./internal/dataio/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime 10s -parallel 1 ./internal/dataio/
	$(GO) test -run '^$$' -fuzz '^FuzzServeBodies$$' -fuzztime 10s -parallel 1 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzCorrelationTable$$' -fuzztime 10s -parallel 1 ./internal/cov/
	$(GO) test -run '^$$' -fuzz '^FuzzKernelRowBitwise$$' -fuzztime 10s -parallel 1 ./internal/cov/
	$(GO) test -run '^$$' -fuzz '^FuzzCompTileDecode$$' -fuzztime 10s -parallel 1 ./internal/tlr/
	$(GO) test -run '^$$' -fuzz '^FuzzSVDThin$$' -fuzztime 10s -parallel 1 ./internal/la/

# serve runs the kriging service (cmd/exaserve) on :8080.
serve:
	$(GO) run ./cmd/exaserve -addr :8080

clean:
	$(GO) clean ./...
