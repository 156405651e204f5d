GO ?= go

.PHONY: verify build vet test race fuzz-smoke bench bench-fft bench-kernel bench-insitu bench-overlap bench-scaling alloc-profile smoke-restart smoke-serve smoke-chaos

# verify is the tier-1 gate: full build, vet, tests, plus a short race pass
# over the packages where ranks-as-goroutines concurrency lives.
verify:
	./scripts/verify.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/telemetry/ ./internal/mpi/ ./internal/checkpoint/ ./internal/snapshot/ ./internal/fft/ ./internal/pfft/ ./internal/par/ ./internal/mesh/ ./internal/treepm/ ./internal/serve/ ./internal/store/ ./internal/ppkern/ ./internal/tree/ ./internal/pmpar/ ./internal/analysis/ ./internal/analysis/dist/

# fuzz-smoke: a few seconds of native Go fuzzing per fuzzer — enough to shake
# out decoder panics and ghost-selection invariant breaks without turning the
# gate into a coverage campaign. Part of scripts/verify.sh.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecodeFlat -fuzztime 4s ./internal/domain/
	$(GO) test -run NONE -fuzz FuzzGhostSelection -fuzztime 4s ./internal/sim/
	$(GO) test -run NONE -fuzz FuzzUnionFindStitch -fuzztime 4s ./internal/analysis/dist/

# smoke-restart: end-to-end crash-restart drill — hard-kill the driver after
# a checkpoint, rerun the same command, require a byte-identical final
# snapshot versus an uninterrupted run.
smoke-restart:
	./scripts/smoke_restart.sh

# smoke-serve: end-to-end service-plane drill — boot the greemd daemon on a
# filesystem store, submit a tiny checkpointed run over HTTP, poll it to
# completion, fetch a product of every kind and verify run integrity.
smoke-serve:
	./scripts/smoke_serve.sh

# smoke-chaos: durability drill for the service plane — run a job cleanly for
# a control content address, then kill -9 greemd mid-job with store faults
# injected, restart, and require the journal-replayed resume to produce the
# bit-identical snapshot; repeat with a SIGTERM drain. Part of verify.
smoke-chaos:
	./scripts/smoke_chaos.sh

bench:
	$(GO) test -run NONE -bench . -benchmem .

# bench-fft: the r2c before/after evidence — 1-D/3-D kernel rates, the
# distributed transpose byte ledgers, and the PM solve Gflops.
bench-fft:
	$(GO) test -run NONE -bench 'RealFFT' -benchmem ./internal/fft/
	$(GO) test -run NONE -bench 'Solve(64|128)' -benchmem ./internal/mesh/
	$(GO) test -run NONE -bench 'PencilVsSlabFFT|Fig5RelayVsNaive' -benchmem .

# bench-kernel: the PP force-kernel throughput ladder — the scalar float64
# oracle, scalar and SIMD-batched float32 — in Gflops at the 51-op ledger.
bench-kernel:
	$(GO) test -run NONE -bench 'KernelGflops' -benchmem .

# bench-overlap: warm 64³ steps on 8 ranks with the PM solve hidden behind
# the tree walk (rank0-step-s is the step wall, hidden-s the covered PM
# share). The performance gate is `go run ./bench`, not these micro-benches.
bench-overlap:
	$(GO) test -run NONE -bench 'StepOverlap64' -benchmem .

# alloc-profile: who allocates in a warm step — the same benchmark (set-up
# and the first step are excluded from its profile) sampled at every
# allocation, printed as the bytes-allocated top list. -focus keeps the
# stacks under Sim.Step and the background PM solve: switching the sampling
# rate mid-run makes the runtime take one stray sample per P outside them.
# The profile and the test binary land in ALLOC_PROFILE_DIR.
ALLOC_PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/greem-alloc-profile
alloc-profile:
	mkdir -p $(ALLOC_PROFILE_DIR)
	$(GO) test -run NONE -bench 'StepOverlap64' -benchtime 5x -memprofilerate 1 \
		-memprofile mem.prof -outputdir $(ALLOC_PROFILE_DIR) -o $(ALLOC_PROFILE_DIR)/greem.test .
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 30 \
		-focus 'sim\.\(\*Sim\)\.Step|pmpar\.\(\*Solver\)\.solveStage' \
		$(ALLOC_PROFILE_DIR)/greem.test $(ALLOC_PROFILE_DIR)/mem.prof

# bench-insitu: the in-situ analysis plane — the distributed FoF end to end
# on the 64³/8-rank clustered bench case, and the marginal per-mode cost of
# the on-the-fly P(k) tap on a 128³ mesh.
bench-insitu:
	$(GO) test -run NONE -bench 'DistFoF64$$' -benchmem ./internal/analysis/dist/
	$(GO) test -run NONE -bench 'InSituPk128$$' -benchmem ./internal/analysis/

# bench-scaling: intra-rank worker-pool strong scaling of the 128³ PM solve
# (assignment + r2c FFT + convolution + differencing) at 1/2/4/8 workers.
# Meaningful only on a multi-core host (GOMAXPROCS caps real parallelism).
bench-scaling:
	$(GO) test -run NONE -bench 'Solve128Workers' -benchmem ./internal/mesh/
