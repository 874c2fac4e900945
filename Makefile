# Single source of truth for the commands CI runs — run the same
# targets locally before pushing.

GO ?= go
RACE_PKGS := ./internal/parallel ./internal/tensor ./internal/ag ./internal/nn ./internal/featurize ./internal/mtmlf ./internal/experiments ./internal/datagen ./internal/serve ./internal/workload ./internal/corpus ./internal/loadgen ./internal/dist

# Pinned linter versions: CI installs exactly these; bump them here
# and in no other place.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build vet purego cross vet-custom staticcheck vulncheck lint fmt-check test race bench bench-smoke bench-build calib-smoke claims claims-full gelu-exhaustive serve-smoke corpus-smoke mla-smoke load-smoke resume-smoke dist-smoke fuzz-smoke docs-lint no-testing-import no-gob-import loc ci

all: build

build:
	$(GO) build ./...

# go vet's asmdecl pass checks internal/tensor/simd_amd64.s against its
# Go declarations.
vet:
	$(GO) vet ./...

# The pure-Go kernels are the fallback where there is no AVX2 and the
# oracle the assembly is tested against. The purego tag exists for this
# check only: on an amd64 runner the fallback must compile, be the one
# selected, and reproduce the same goldens (fleet_golden.json, calib
# budgets, serial == sharded) as the assembly path `make test` runs —
# and the training golden and the Tables 1–3 golden, so the fallback's
# products, gradient sums and Adam steps are checked against the
# trained bits and the paper's tables end to end.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/calib ./internal/experiments
	$(GO) test -tags purego -run TestTrainGolden ./internal/mtmlf

# Every non-amd64 build takes the same fallback; arm64 stands for them.
# Cross-compiling needs no network and no toolchain beyond go's own.
# Then the fusion ratchet: gc fuses a*b+c into one FMA instruction on
# every port in FUSION_PORTS (not on amd64), which rounds once instead
# of twice and so changes bits the golden files pin. On each port the
# numeric packages' listing may hold at most FUSED_MAX fused
# multiply-adds (arm64 FMADDD, ppc64le and s390x FMADD, loong64
# FMADDF, ...); a build that adds one fails with every site's
# file:line. Lower the bound as sites are rounded explicitly (ROADMAP
# item 3), never raise it.
FUSION_PKGS := ./internal/tensor ./internal/ag ./internal/nn ./internal/mtmlf ./internal/featurize ./internal/treelstm ./internal/datagen ./internal/cost ./internal/stats ./internal/metrics ./internal/calib
FUSION_PORTS := arm64 ppc64le s390x riscv64 loong64
FUSED_RE := \bFN?M(ADD|SUB)[DSF]?\b
FUSED_MAX := 0
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@lst=$$(mktemp); trap 'rm -f "$$lst"' EXIT; \
	for arch in $(FUSION_PORTS); do \
		GOARCH=$$arch $(GO) build -a -gcflags=-S $(FUSION_PKGS) >"$$lst" 2>&1 || { tail -20 "$$lst"; exit 1; }; \
		n=$$(grep -cE '$(FUSED_RE)' "$$lst"); \
		if [ "$$n" -gt $(FUSED_MAX) ]; then \
			echo "cross: $$n fused multiply-adds in the $$arch listing, bound $(FUSED_MAX):"; \
			grep -E '$(FUSED_RE)' "$$lst" | sed -E "s|.*\($(CURDIR)/([^)]*)\).*|\1|" | sort -V | uniq -c; \
			exit 1; \
		fi; \
		echo "cross: $$n fused multiply-adds in the $$arch listing (bound $(FUSED_MAX))"; \
	done

# The contract gate: four custom analyzers (mapiter, globalrand,
# atomicwrite, poolrelease) enforcing the determinism,
# durability, and session-ownership invariants — DESIGN.md §8. Fails
# on any unjustified violation.
vet-custom:
	$(GO) run ./cmd/mtmlf-vet ./...

# staticcheck/govulncheck run when installed (CI installs the pinned
# versions above); locally a missing binary downgrades to a warning so
# `make lint` works offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed — skipping (CI pins honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed — skipping (CI pins golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# The full contributor gate in one command.
lint: vet fmt-check docs-lint no-testing-import no-gob-import vet-custom staticcheck vulncheck

# Fails if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The kernel tests again at GOAMD64=v3: gc does not fuse multiply-adds
# on amd64 at any level, so the pure-Go kernels stay the oracle there
# and the assembly's exactness tests must run, not skip.
test:
	$(GO) test ./...
	GOAMD64=v3 $(GO) test ./internal/tensor

# Race-detect the concurrent packages: kernels, autodiff gradient
# sinks, the featurizer's no-grad Enc_i path (every data-parallel
# training worker runs it through Represent), data-parallel training,
# experiment fan-out. GOMAXPROCS is pinned above 1 so the worker pool
# actually fans out (on a 1-CPU
# machine the pool defaults to size 1 and every path runs inline,
# which would make this job vacuous). The dist suite runs five more
# times: its coordinator is one goroutine per rank, and an interleaving
# that loses a frame or leaks a goroutine is rare, not impossible. So do
# the table-encoding memo's tests, for the same reason: callers racing
# to fill one map, a reload swapping it under them (-short leaves out
# only the single-goroutine budget drill, which `make test` runs).
race:
	GOMAXPROCS=4 $(GO) test -race $(RACE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -count=5 ./internal/dist
	GOMAXPROCS=4 $(GO) test -race -short -count=5 -run=Memo ./internal/featurize ./internal/serve

# Full benchmark sweep (slow; the paper's figure and ablation benches
# and the substrate micro-benchmarks — the tables are make claims).
bench:
	$(GO) test -bench=. -benchmem .

# Quick kernel benchmark: serial vs parallel matmul at 64/256/512
# (with the paper's Figure 2 pipeline, Figure 4 decoding and beam-width
# benches, run once so they keep compiling and running), and the three serving kernels at the wide model's feed-forward shape
# (MatMulM8: GFLOP/s at f64 / f32 / int8, plus backward's f64 a @ bᵀ
# as transb-f64 — one cold pass reads 10 or more per row with AVX2 and
# 20 / 40 / 45 / 20 warm; low single digits mean the pure-Go fallback
# is what ran) — then the engine-overhead guard: the same card requests through a
# default engine (EngineSolo) and through the model alone
# (EngineModelOnly), one pass of 6 requests each. Solo minus ModelOnly
# is the scheduler's cost and must read tens of µs per request, not a
# millisecond. Last, the exchange guard: one gradient round of a 2- and
# a 3-rank loopback fleet (AllReduceTCP) next to the same minibatch
# through Local(); the TCP round must report a few ms, not tens, and a handful
# of allocs/op (at 1x those are the harness's own; TestTCPRoundAllocatesNothing
# holds the exact count), not thousands. And the memo guard: a warm
# table-encoding lookup from 1, 2 and 4 parallel sessions (EncodeTableHit:
# 0 allocs/op, a fraction of a µs against the ~1 ms Enc_i pass it
# replaces, and not collapsing as -cpu grows), then what a miss adds to
# that pass (EncodeTableMiss: miss_overhead_% under 2).
bench-smoke:
	$(GO) test -run=NONE -bench='MatMul|BeamWidth|Figure2Pipeline|Figure4Decoding' -benchtime=1x .
	$(GO) test -run=NONE -bench='MatMulM8|GELU' -benchtime=1x ./internal/tensor
	$(GO) test -run=NONE -bench='EngineSolo|EngineModelOnly' -benchtime=1x ./internal/serve
	$(GO) test -run=NONE -bench='AllReduceTCP|AllReduceLocal' -benchtime=1x ./internal/dist
	$(GO) test -run=NONE -bench='EncodeTableHit' -benchmem -cpu=1,2,4 -benchtime=20000x ./internal/featurize
	$(GO) test -run=NONE -bench='EncodeTableMiss' -benchmem -benchtime=200x ./internal/featurize

# The repository benchmark (bench/, run by bench/run.sh) is a nested
# module, so `go build ./...` and `go vet ./...` never compile it. It
# is frozen and calls internal/ by name; this target is what turns an
# internal/ rename that would break it into a CI failure instead of a
# silently unrunnable benchmark. GOPROXY=off: it has no dependency
# outside this repository.
bench-build:
	GOPROXY=off $(GO) vet -C bench ./...

# Reduced-precision calibration gate: the f32 and int8 tiers must stay
# inside their q-error budgets and reproduce the f64 join orders on
# the deterministic smoke fleet (fails on violation).
calib-smoke:
	$(GO) test -count=1 -run '^TestSmokeFleetCalibrationPasses$$' -v ./internal/calib

# The paper's claims scoreboard (internal/experiments/claims_test.go):
# Tables 1–3 for seeds 1..6, each seed's tables, how many seeds each of
# the paper's claims holds on, and Tables 2 and 3's per-query time
# ratios against PostgreSQL's order. Everything is compared bit for bit
# with testdata/claims_quick.json (claims_full.json); a difference fails
# and prints every claim's count old → new. Adding -update-golden to the
# go test line rewrites the pin, only in a change that says why the bits
# moved. claims runs QuickConfig (~40 s on 2 vCPU); claims-full runs
# FullConfig (~5 min) in CI's scheduled job.
claims:
	$(GO) test -count=1 -timeout 10m -run '^TestClaims$$' -v ./internal/experiments -claims=quick

claims-full:
	$(GO) test -count=1 -timeout 30m -run '^TestClaims$$' -v ./internal/experiments -claims=full

# Every one of the 2^32 float32 inputs of GELUInto[float32] (the AVX2
# lanes where the CPU has them) against the scalar body, bit for bit,
# on this CPU's math.Exp path; CI's scheduled job runs it.
gelu-exhaustive:
	$(GO) test -count=1 -timeout 30m -run '^TestGELUFloat32Exhaustive$$' -v ./internal/tensor -gelu-exhaustive

# End-to-end serving check: train a tiny full-model checkpoint, boot
# mtmlf-serve on a random port, curl every endpoint (including the
# typed-error path), then boot an int8 server on the same checkpoint
# and require a smaller peak RSS than the f64 one.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end data-plane check: generate a tiny labeled corpus at 1 and
# 4 workers and assert the files are bitwise identical, check that
# mtmlf-datagen and mtmlf-train refuse flags their mode would ignore,
# check that a labelling run killed by SIGTERM leaves no temp file,
# retrain from the corpus at 1 and 4 workers, and assert the loss
# trajectories are bitwise identical. Leaves corpus-smoke.mtc for CI to
# upload.
corpus-smoke:
	./scripts/corpus_smoke.sh

# End-to-end fleet pretraining check: generate a tiny 3-DB fleet
# corpus (schemas, single-table sections, labeled examples), run
# Algorithm 1 from the artifact twice (1 and 4 workers), assert the
# loss trajectories and the saved shared checkpoints are bitwise
# identical. Leaves mla-smoke.mtc for CI to upload.
mla-smoke:
	./scripts/mla_smoke.sh

# End-to-end load check: train a tiny checkpoint, boot mtmlf-serve,
# drive it with mtmlf-loadgen at two concurrency levels with a hot
# reload mid-run, assert zero failed requests and a well-formed
# load-smoke.json (git-ignored, left for CI to upload).
load-smoke:
	./scripts/load_smoke.sh

# Crash-recovery drill: kill -9 a snapshotting training run mid-epoch
# (twice, at 1 and 4 workers), resume under a supervisor loop, assert
# the final checkpoint and loss trajectory are bitwise identical to an
# uninterrupted run. Leaves resume-smoke.log for CI to upload.
resume-smoke:
	./scripts/crash_resume_smoke.sh >resume-smoke.log 2>&1 || { cat resume-smoke.log; exit 1; }
	@tail -n 3 resume-smoke.log

# Distributed-fleet drill, at 2 workers and again at 3 (the smallest
# fleet with a middle rank, which both receives and forwards a gradient
# prefix): a coordinator + the workers train `-mla` over the
# gradient-exchange plane, one worker dies by kill -9 mid-epoch (the
# fleet fail-stops), a supervisor relaunches everything with -resume,
# and the final checkpoint + loss trajectory must be bitwise identical
# to an uninterrupted single-process run. Then a fleet with -load, and
# one with -resume, on rank 0 only must die at the handshake with "job
# mismatch". Leaves dist-smoke.log for CI to upload.
dist-smoke:
	./scripts/dist_smoke.sh >dist-smoke.log 2>&1 || { cat dist-smoke.log; exit 1; }
	@tail -n 3 dist-smoke.log

# Short fuzz pass over the artifact and wire decoders: arbitrary bytes
# must error, never panic (and, on the wire and in the corpus record
# decoders, never allocate more than a small multiple of what arrived,
# plus — for a checkpoint or a snapshot — the one destination a load
# fills). FuzzLoadModel feeds every input to the three checkpoint
# loaders and to the snapshot restore, since a snapshot is a
# checkpoint too. Seeds cover both checkpoint flavors and the three
# refused older versions, a snapshot and an older build's one, a v5
# corpus with and without a single-table section (optional in the
# format, though mtmlf-datagen always writes it), the
# torn-write/bit-flip/lying-length corruption shapes, and one valid
# exchange message of every kind. FuzzCorpusRecord feeds the corpus
# record decoders directly, since behind the section checksums almost
# every mutated file dies at the CRC. FuzzMemoKey is
# the odd one out: not a decoder but an encoder that must be injective
# — two different (table, filter list) inputs sharing a memo key would
# be one request served another's table encoding. FuzzDecodeRequest
# drives an HTTP body through decode, DecodeQuery/DecodePlan and
# Validate: a malformed request must come back as a typed 4xx.
fuzz-smoke:
	$(GO) test ./internal/mtmlf -run=NONE -fuzz=FuzzLoadModel -fuzztime=10s
	$(GO) test ./internal/corpus -run=NONE -fuzz=FuzzCorpusOpen -fuzztime=10s
	$(GO) test ./internal/corpus -run=NONE -fuzz=FuzzCorpusRecord -fuzztime=10s
	$(GO) test ./internal/dist -run=NONE -fuzz=FuzzWireFrame -fuzztime=10s
	$(GO) test ./internal/featurize -run=NONE -fuzz=FuzzMemoKey -fuzztime=10s
	$(GO) test ./internal/serve -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=10s

# Every package must open with a godoc package comment ("// Package x"
# for libraries, "// Command x" for binaries) — the operator docs in
# docs/OPERATIONS.md lean on godoc being readable.
docs-lint:
	@bad=0; for d in internal/* cmd/*; do \
		[ -d "$$d" ] || continue; \
		grep -lE '^// (Package|Command) ' "$$d"/*.go >/dev/null 2>&1 || \
			{ echo "docs-lint: $$d has no package comment"; bad=1; }; \
	done; [ "$$bad" = 0 ]

# No non-test package may import testing (analysistest drives
# *testing.T by design): a benchmark body in a library links the
# testing runtime into every binary above it and is code only a
# benchmark runs. Benchmarks live in _test.go files.
no-testing-import:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{.Imports}}' ./... | grep -E '[[ ]testing[] ]' | \
		grep -v '^mtmlf/internal/analysis/analysistest '); \
	if [ -n "$$bad" ]; then echo "no-testing-import: non-test packages import testing:"; \
		echo "$$bad" | cut -d' ' -f1; exit 1; fi

# No package, test files included, may import encoding/gob. Every
# artifact is written in ckptio's record codec, whose bytes are a
# function of content alone; gob's process-global type IDs made the
# bytes depend on what a process had encoded first.
no-gob-import:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{.Imports}} {{.TestImports}} {{.XTestImports}}' ./... | \
		grep -E '[[ ]encoding/gob[] ]'); \
	if [ -n "$$bad" ]; then echo "no-gob-import: packages import encoding/gob:"; \
		echo "$$bad" | cut -d' ' -f1; exit 1; fi

# The non-test Go + assembly lines of the tracked files outside bench/
# and testdata, per package directory and in total — the count ROADMAP
# item 5's line target reads. A ratchet, like FUSED_MAX: the total may
# not exceed LOC_MAX. Lower the bound when code goes; a change that has
# to grow the count raises LOC_MAX in its own diff, next to what the
# lines buy. Last raised by 121: sizing the serving GC percent to the
# weights with /statsz memory rows and the /example generator over the
# loader's statistics (internal/serve +100, cmd/mtmlf-serve +27), less
# the pool dispatch of per-head matmul batches (internal/tensor -4,
# internal/nn -2).
LOC_MAX := 21768
loc:
	@git ls-files '*.go' '*.s' | grep -v -e '_test\.go$$' -e '^bench/' -e '/testdata/' | xargs wc -l | \
		awk -v max=$(LOC_MAX) '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total (bound %d)\n", t, max; \
			if (t > max) { printf "loc: %d lines, bound LOC_MAX %d\n", t, max; exit 1 } }'

ci: build vet purego cross vet-custom fmt-check test race bench-smoke bench-build calib-smoke claims serve-smoke corpus-smoke mla-smoke load-smoke resume-smoke dist-smoke fuzz-smoke docs-lint no-testing-import no-gob-import loc
