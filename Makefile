GO ?= go

# Packages whose concurrency the race detector must vet.
RACE_PKGS = . ./internal/core ./internal/farm ./internal/channel ./internal/sched ./internal/explore ./internal/mesh ./internal/trace ./internal/obs ./internal/serve ./internal/cluster ./internal/cluster/client ./internal/slo ./cmd/archload

.PHONY: check fmt build vet cross test race bench-smoke benchmark-smoke cover kernel-smoke net-smoke serve-smoke cluster-smoke chaos-smoke obs-smoke fuzz-smoke explore-smoke

check: fmt vet cross build test race bench-smoke benchmark-smoke kernel-smoke net-smoke serve-smoke cluster-smoke chaos-smoke obs-smoke fuzz-smoke explore-smoke

build:
	$(GO) build ./...

# fmt fails if any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# cross type-checks and vets every package for each unix the raw-fd
# socket code must build on.  Windows is not in the list: the socket
# fast path hands int fds to syscall.Read/Write, and a net.Conn-only
# implementation for it does not exist yet.  It then vets arm64, where
# only the generic Yee row exists, and fails if the arm64 build of the
# Yee kernels, the Mur boundary update, the source pulse, the far
# field or the RCS post-processing (dft, Result.RCS) contains a fused
# multiply-add: Go fuses x*y + z there unless an explicit float64(x*y)
# forbids it, and a fused update would round differently from amd64.  addPoint is not inlined into accumulate, so
# both symbols are listed; proj and delay are inlined into addPoint and
# newFarField, norm3 into newFarField and Validate.
CROSS_GOOS = linux darwin freebsd
CROSS_FMA_SYMS = fdtd\.(update[EH]Range|yeeRow|\(\*murState\)\.murPlane|\(\*farField\)\.(addPoint|accumulate)|newFarField|SourceSpec\.Pulse|Spec\.Validate|dft|\(\*Result\)\.RCS)
cross:
	@for os in $(CROSS_GOOS); do \
		echo "cross: GOOS=$$os go vet ./..."; \
		GOOS=$$os $(GO) vet ./... || exit 1; \
	done
	@echo "cross: GOOS=linux GOARCH=arm64 go vet ./..."
	@GOOS=linux GOARCH=arm64 $(GO) vet ./...
	@echo "cross: no fused multiply-add in the arm64 Yee kernels, Mur, source, far field or RCS"
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		GOOS=linux GOARCH=arm64 $(GO) test -c -o "$$dir/fdtd.test" ./internal/fdtd && \
		$(GO) tool objdump -s '$(CROSS_FMA_SYMS)' "$$dir/fdtd.test" > "$$dir/dis" && \
		grep -q 'TEXT.*updateERange' "$$dir/dis" && \
		grep -q 'TEXT.*murPlane' "$$dir/dis" && \
		grep -q 'TEXT.*addPoint' "$$dir/dis" && \
		grep -q 'TEXT.*RCS' "$$dir/dis" && \
		! grep -E 'F(N)?M(ADD|SUB)D' "$$dir/dis"

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'TestTiledKernelDeterminism|TestFastPathIdentity1D|TestFastPathIdentity2D|TestOneProgramIdentity|TestKernelPencilVsReferenceProperty|TestCoefficientTable|TestSocketBackendIdentity|TestWorkerBackendIdentity|TestProfileIdenticalAcrossRuntimes|TestModelGolden' ./internal/fdtd

# bench-smoke compiles and runs every benchmark once (no timing) so
# check catches benchmark rot without paying full benchmark time.  The
# root package carries the paper and ablation benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . $(RACE_PKGS) ./internal/fdtd > /dev/null

# benchmark-smoke runs the smoke test of the measuring instrument
# (benchmark/ is a module of its own, so `go test ./...` does not reach
# it): every workload at toy size, every solve checked bitwise.
benchmark-smoke:
	$(GO) test -C benchmark ./...

# kernel-smoke proves the kernel fast path in seconds: every row body
# is held bitwise to the generic row, the interned coefficient table is
# held bitwise to the spec on every block of the paper's grids, the
# property test pits the fused pencil kernels, once per row body,
# against the per-cell reference kernels on randomized specs, and a
# tiny-grid roofline run exercises the stream probe + per-worker
# measurement end to end.
kernel-smoke:
	$(GO) test -run 'TestYeeRow|TestCoefficientTable|TestKernelPencilVsReferenceProperty' -count=1 ./internal/fdtd
	$(GO) run ./cmd/fdtd -roofline -nx 8 -ny 8 -nz 8 -roofline-workers 1,2 -quiet

# net-smoke is the end-to-end acceptance run of the scale-out
# transport: sequential vs in-process vs loopback-socket vs
# multi-process dumps must be byte-identical (TestNetSmoke).
net-smoke:
	$(GO) test -run 'TestNetSmoke' -count=1 ./cmd/fdtd

# serve-smoke boots the real archserve binary and drives the job API
# end to end — compute, cache hit, typed errors, SIGTERM drain
# (TestServeSmoke) — plus the in-package service acceptance test under
# the race detector.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count=1 ./cmd/archserve
	$(GO) test -race -run 'TestServiceEndToEnd' -count=1 ./internal/serve

# cluster-smoke boots the real archcoord binary over two real archserve
# nodes, kills one mid-burst, and verifies zero lost jobs, bitwise
# identity against a mesh.Sim oracle, /v1/nodes reporting the death,
# and a clean SIGTERM stop (TestClusterSmoke).
cluster-smoke:
	$(GO) test -run 'TestClusterSmoke' -count=1 ./cmd/archcoord

# chaos-smoke is the kill-a-node acceptance proof under the race
# detector: 3 archserve nodes under procs supervision, a 60-job burst
# with duplicates, SIGKILL of a live node mid-burst, zero lost jobs,
# bitwise identity (including mesh.Par with fault.DelaySends), dead-arc
# failover, rejoin-serves-cache-hits, and no leaked goroutines
# (TestClusterChaos).
chaos-smoke:
	$(GO) test -race -run 'TestClusterChaos' -count=1 -timeout 10m ./internal/cluster

# obs-smoke is the acceptance run of the observability plane: a 2-node
# in-process cluster takes a 20-job open-loop (Poisson) run; the run
# must yield populated latency histograms, a retrievable merged Chrome
# trace whose spans share one trace id across coordinator and node
# lanes, and a well-formed SLO burn-rate report — exercised both ways
# (passing, and failing via -inject-latency).
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke' -count=1 ./cmd/archload

# fuzz-smoke runs each parser fuzz target briefly: long enough to
# replay the seed corpus and explore a little, short enough for CI.
# The targets cover the two wire-protocol parsers, the job-request
# path of the service (decode, resolve, validate), the coordinator's
# splice of a node's result into its own response, the two text inputs
# of the determinacy tool (policy specs, replay artifacts) and the two
# file decoders (grid files, checkpoints).  The checkpoint seed is
# ~3 KB, and minimising each new interesting input of that size would
# otherwise take the whole 5 s, so its minimisation is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz 'FuzzHello' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz 'FuzzJobRequest' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzNodeResponse' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz 'FuzzParsePolicy' -fuzztime 5s ./internal/sched
	$(GO) test -run '^$$' -fuzz 'FuzzLoadArtifact' -fuzztime 5s ./internal/explore
	$(GO) test -run '^$$' -fuzz 'FuzzRead3' -fuzztime 5s ./internal/gridio
	$(GO) test -run '^$$' -fuzz 'FuzzReadCheckpoint' -fuzztime 5s -fuzzminimizetime 200x ./internal/fdtd

# explore-smoke is the acceptance run of the systematic schedule
# explorer, under the race detector: bounded-exhaustive DPOR over the
# demo networks with exactly hand-computed schedule counts (racy=6,
# steps3=90, exchange=4 full / 1 channel), the shared-memory violation
# found automatically and ddmin-shrunk to a <=6-pick schedule, and the
# determinacy tool's whole registry (TestExploreSmoke): the paper's
# Table 1 program at P = 8 certified as one schedule whose final state
# six continuation policies reproduce bitwise, the deadlock demo
# reported as a deadlock, and one minimized divergence round-tripped
# through a saved artifact and the -replay path, reproducing the
# divergent final state bitwise.
explore-smoke:
	$(GO) test -race -run 'TestExploreMatchesBruteForceClassCount|TestExploreExactCounts|TestMinimizeRacyDivergence' -count=1 ./internal/explore
	$(GO) test -race -run 'TestExploreSmoke' -count=1 ./cmd/determinacy

# cover enforces per-package statement-coverage floors on the packages
# at the heart of the determinacy story.  Floors sit a few points below
# current coverage (sched 79%, channel 85%, explore 79% at the time of
# writing) so genuine coverage loss fails while refactors have
# headroom; raise them when coverage rises.
cover:
	@for spec in ./internal/sched:74 ./internal/channel:80 ./internal/explore:74; do \
		pkg=$${spec%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -count=1 -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p >= f) }' || \
			{ echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; }; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done
