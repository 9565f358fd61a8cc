GO ?= go

# Packages whose concurrency the race detector must vet.
RACE_PKGS = . ./internal/farm ./internal/channel ./internal/sched ./internal/explore ./internal/fault ./internal/mesh ./internal/wave2d ./internal/trace ./internal/obs ./internal/serve ./internal/cluster ./internal/cluster/client ./cmd/archload ./cmd/determinacy

.PHONY: check fmt build vet cross test run-lists doc-refs race bench-smoke benchmark-smoke cover kernel-smoke fuzz-smoke ab

check: fmt vet cross build test run-lists doc-refs race bench-smoke benchmark-smoke kernel-smoke fuzz-smoke

build:
	$(GO) build ./...

# fmt fails if any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# cross type-checks and vets every package for each unix the raw-fd
# socket code must build on.  The socket transport is unix only, and
# Windows is out of scope on purpose: the socket fast path hands int
# fds to syscall.Read/Write, and a second, net.Conn-based receive path
# that no host here can run or measure is not wanted.  It then vets
# arm64, where only the generic Yee row exists, and fails if the arm64
# build contains a fused multiply-add where the results are pinned bit
# for bit: Go fuses x*y + z there unless an explicit float64(x*y)
# forbids it, and a fused update would round differently from amd64.
# In the fdtd test binary it checks every symbol of the package and
# fails on a fused op whose source line is not in a _test.go file: the
# test helpers that draw random inputs may fuse, the program may not.
# The Yee kernels must be present, so an empty disassembly fails.  In
# the machine and wave2d test binaries it checks every symbol of the
# package, its tests included: the DES, phase-cost and triad readings
# and the 2-D solver.
CROSS_GOOS = linux darwin freebsd
cross:
	@for os in $(CROSS_GOOS); do \
		echo "cross: GOOS=$$os go vet ./..."; \
		GOOS=$$os $(GO) vet ./... || exit 1; \
	done
	@echo "cross: GOOS=linux GOARCH=arm64 go vet ./..."
	@GOOS=linux GOARCH=arm64 $(GO) vet ./...
	@echo "cross: no fused multiply-add in the arm64 fdtd package outside its test files"
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		GOOS=linux GOARCH=arm64 $(GO) test -c -o "$$dir/fdtd.test" ./internal/fdtd && \
		$(GO) tool objdump -s 'repro/internal/fdtd\.' "$$dir/fdtd.test" > "$$dir/dis" && \
		grep -q 'TEXT.*fdtd\.updateERange' "$$dir/dis" && \
		! grep -E 'F(N)?M(ADD|SUB)D' "$$dir/dis" | grep -v '^ *[^ :]*_test\.go:'
	@echo "cross: no fused multiply-add in the arm64 machine and wave2d packages"
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		for pkg in machine wave2d; do \
			GOOS=linux GOARCH=arm64 $(GO) test -c -o "$$dir/$$pkg.test" ./internal/$$pkg && \
			$(GO) tool objdump -s 'repro/internal/(machine|wave2d)\.' "$$dir/$$pkg.test" >> "$$dir/dis" || exit 1; \
		done && \
		grep -q 'TEXT.*machine\.Model\.DES' "$$dir/dis" && \
		grep -q 'TEXT.*wave2d\.' "$$dir/dis" && \
		! grep -E 'F(N)?M(ADD|SUB)D' "$$dir/dis"

test:
	$(GO) test ./...

# The -run list of race in ./internal/fdtd, whose whole suite takes
# too long under the race detector.
RACE_FDTD_RUN = TestOneProgramIdentity|TestIdentityGolden|FuzzRefinement|TestKernelPencilVsReferenceProperty|TestCoefficientTable|TestProfileIdenticalAcrossRuntimes|TestModelGolden

# run-lists fails when an alternative of that -run list names no test
# of its package under go test -list, so a renamed or folded test fails
# check instead of silently dropping out of race.
RUN_LISTS = './internal/fdtd:$(RACE_FDTD_RUN)'
run-lists:
	@for spec in $(RUN_LISTS); do \
		pkg=$${spec%%:*}; pat=$${spec#*:}; \
		listed=$$($(GO) test -list "$$pat" $$pkg) || exit 1; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			echo "$$listed" | grep -E '^(Test|Fuzz)' | grep -qE "$$alt" || \
				{ echo "run-lists: $$pkg: -run alternative $$alt names no test"; exit 1; }; \
		done; \
	done

# doc-refs fails when a document cites a Test, Fuzz or Benchmark name
# that no function of a tracked _test.go starts with, so a renamed or
# deleted test cannot leave a stale citation behind.  A citation may be
# a prefix (-run TestCheckDeterminacy, BenchmarkAblation*).  CHANGES.md
# and ROADMAP.md are history and are not checked.
DOC_REFS = README.md DESIGN.md EXPERIMENTS.md docs/*.md Makefile
doc-refs:
	@defs=$$(git grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' -- '*_test.go' | sed 's/^func //'); \
	bad=0; \
	for n in $$(grep -ohwE '(Test|Fuzz|Benchmark)[A-Z_][A-Za-z0-9_]*' $(DOC_REFS) | sort -u); do \
		echo "$$defs" | grep -q "^$$n" || \
			{ echo "doc-refs: no test function starts with $$n, cited in $$(grep -lw "$$n" $(DOC_REFS) | xargs)"; bad=1; }; \
	done; \
	exit $$bad

race: run-lists
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run '$(RACE_FDTD_RUN)' ./internal/fdtd

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

# kernel-smoke runs the roofline end to end on a tiny grid: the stream
# probe and the per-worker measurement (the kernels' bitwise tests run
# in test).
kernel-smoke:
	$(GO) run ./cmd/fdtd -roofline -nx 8 -ny 8 -nz 8 -roofline-workers 1,2 -quiet

# fuzz-smoke runs each parser fuzz target briefly: long enough to
# replay the seed corpus and explore a little, short enough for CI.
# The targets cover the two wire-protocol parsers, the job-request
# path of the service (decode, resolve, validate), the coordinator's
# splice of a node's result into its own response, the two text inputs
# of the determinacy tool (policy specs, replay artifacts) and the two
# file decoders (grid files, checkpoints).  The checkpoint seed is
# ~3 KB, and minimising each new interesting input of that size would
# otherwise take the whole 5 s, so its minimisation is capped.
# FuzzRecvSplitReads feeds the same frame stream through a real socket
# into the receive half, cut at read boundaries of its own choosing.
# Each -fuzz pattern is anchored: an unanchored one that matches two
# fuzzers of a package fails.
# FuzzRefinement is not a parser target: it draws a random small spec,
# process grid and window split from its seed and holds SSP, parallel
# and two-window runs to the sequential program bit for bit.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzRecvSplitReads$$' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzHello$$' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzNodeResponse$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 5s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzLoadArtifact$$' -fuzztime 5s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzRead3$$' -fuzztime 5s ./internal/gridio
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s -fuzzminimizetime 200x ./internal/fdtd
	$(GO) test -run '^$$' -fuzz '^FuzzRefinement$$' -fuzztime 5s ./internal/fdtd

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

# ab compares the benchmark's end-to-end metrics between commit REF and
# the working tree, in alternating untraced passes of one workload with
# consecutive seeds, 1..N or FIRST..LAST (scripts/ab.sh says how it
# reads them):
#   make ab REF=HEAD~1 WORKLOAD=halo-p2-socket PAIRS=301-310
PAIRS = 10
ab:
	@test -n "$(REF)" -a -n "$(WORKLOAD)" || { echo "usage: make ab REF=<commit> WORKLOAD=<name> [PAIRS=<n>|<first>-<last>]"; exit 2; }
	bash scripts/ab.sh '$(REF)' '$(WORKLOAD)' '$(PAIRS)'
