GO ?= go

.PHONY: build test bench verify kernels tlrbench distbench trace chaos chaosbench orderbench modesbench serve oocbench oocsmoke elasticbench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: vet, a focused uncached race pass over the
# message-passing, session, metrics, spatial-ordering, HODLR and TLR layers
# including the out-of-core tile store (the rank goroutines, mailboxes,
# backend registry and caches, lock-free instruments, the ordering
# determinism contract, the hierarchical factorization's task graph, the
# pooled recompression workspaces and the store's pin/evict concurrency are
# the point), then the full suite under the race detector (parallel assembly
# and scheduler paths), one iteration of the recompression kernel benchmarks
# so they cannot rot, then the benchmark module, which root `go test ./...`
# does not reach: its vet and unit tests, and its smoke run, which must end
# with correct:true.
verify:
	$(GO) vet ./...
	$(GO) test -race -count=1 -timeout 45m ./internal/mpi/... ./internal/core/... ./internal/obs/... ./internal/geom/... ./internal/hodlr/... ./internal/tlr/...
	$(GO) test -race -timeout 45m ./...
	$(GO) test -run '^$$' -bench 'QRThin|SVDThin|Recompress|GemmLL' -benchtime 1x ./internal/la/ ./internal/tlr/
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --smoke

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# kernels regenerates the compute-layer micro-benchmark snapshot.
kernels:
	$(GO) run ./cmd/paperbench -kernels BENCH_kernels.json

# tlrbench regenerates the parallel TLR pipeline snapshot.
tlrbench:
	$(GO) run ./cmd/paperbench -tlr BENCH_tlr.json

# distbench regenerates the distributed TLR snapshot (likelihood agreement
# across process grids + communication-model validation).
distbench:
	$(GO) run ./cmd/paperbench -dist BENCH_dist.json

# trace regenerates the schedule report of the traced dense+TLR Cholesky
# executions (BENCH_trace.json) plus the Chrome trace artifact
# (BENCH_trace.trace.json — open in ui.perfetto.dev).
trace:
	$(GO) run ./cmd/paperbench -trace BENCH_trace.json

# chaos runs the fault-tolerance suite under the race detector: seeded
# chaos-injection determinism, task retry/replay, rank-failure recovery and
# the nugget-escalation / dense-fallback degradation paths.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Retry|Fault|NuggetEscalation|Detile|DenseTile|MaxRank|CappedCholesky|ForceMiss|RankPanic|CleanError|SendDrop|SendDelay|RecvTimeout|Simulate' ./internal/chaos/... ./internal/runtime/... ./internal/mpi/... ./internal/tlr/... ./internal/core/...

# chaosbench regenerates the fault-tolerance snapshot (retry overhead +
# chaos-injected recovery on the n=1600 TLR Cholesky).
chaosbench:
	$(GO) run ./cmd/paperbench -chaos BENCH_chaos.json

# orderbench regenerates the spatial-ordering sweep (none/morton/hilbert/
# kdblock x uniform/clustered geometries: tile-rank histograms, TLR storage,
# factorization makespan, per-rank comm bytes, cross-ordering agreement).
orderbench:
	$(GO) run ./cmd/paperbench -order BENCH_order.json

# modesbench races every registered evaluator backend (full-block/full-tile/
# tlr/hodlr) on one clustered dataset: first/steady eval time, covariance
# storage, rank structure, predict throughput, agreement with dense.
modesbench:
	$(GO) run ./cmd/paperbench -modes BENCH_modes.json

# oocbench regenerates the out-of-core proof: the n=100k TLR likelihood
# under a memory budget several times below the matrix (bitwise vs the
# unbounded run), the interrupted-fit checkpoint resume, and the 2.4M-point
# Mississippi cluster replay. Heavy — tens of minutes on one core.
oocbench:
	$(GO) run ./cmd/paperbench -ooc BENCH_ooc.json

# oocsmoke is the fast slice of the out-of-core layer: store eviction under
# -race, eviction-under-retry bitwise replay, the bounded-session and
# checkpoint-resume equivalences, and the real SIGKILL-and-resume subprocess
# smoke.
oocsmoke:
	$(GO) test -race -count=1 -run 'OOC|Pin|Store|Evict|Blob|MemBudget|Checkpoint|KillAndResume' ./internal/tlr/... ./internal/runtime/... ./internal/core/... ./internal/dataio/...

# elasticbench is the elastic-recovery smoke: the shrink-to-survivors suite
# under the race detector (membership epochs, owner remap, kill-during-panel
# and kill-during-allreduce recovery, budget enforcement), then the measured
# snapshot — no-fault overhead of arming recovery plus a 6-rank likelihood
# that loses a rank mid-Cholesky and must finish bitwise on 5 survivors
# (BENCH_elastic.json).
elasticbench:
	$(GO) test -race -count=1 -run 'Elastic|RankDeath|MarkDead|Shrink|Stale|KillDuring|OwnerMap|RecvFromDead|PanelKill|Readyz' ./internal/mpi/... ./internal/chaos/... ./internal/core/... ./internal/serve/...
	$(GO) run ./cmd/paperbench -elastic BENCH_elastic.json

# serve runs the kriging service (cmd/exaserve) on :8080.
serve:
	$(GO) run ./cmd/exaserve -addr :8080

clean:
	$(GO) clean ./...
