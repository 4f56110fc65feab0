# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race race-dataplane bench bench-hotpath bench-int bench-baseline bench-gate bench-fused bench-reconfig bench-reconfig-baseline bench-flow bench-flow-baseline bench-drop bench-drop-baseline flow-soak drop-soak fuzz-diff profile-hotpath cover experiments examples health-smoke fmt vet lint clean

# Benchmarks gated against BENCH_hotpath.json: the per-packet hot path
# (strict 0 allocs/op) plus the whole-switch sharded/pipelined burst.
GATED_BENCH = BenchmarkHotPath|BenchmarkShardedThroughput|BenchmarkPipelinedThroughput
# ns/op slack for bench-gate: CI hosts differ, so only a >3x slowdown
# (tol 2.0 = baseline*(1+2.0)) fails; allocs/op regressions always fail.
BENCH_TOL ?= 2.0
# The gated benchmarks as three rounds of -count=1. One -count=3 run
# times every count of a benchmark back to back, so its blocks sit
# minutes apart and host drift in between lands in within-run ratios;
# rounds interleave them. benchgate folds repeated names (min ns/op, max
# allocs/op) and pairs them by round for -speedup.
GATED_ROUNDS = for r in 1 2 3; do $(GO) test -run xxx -bench '$(GATED_BENCH)' -benchmem -count=1 . ; done

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race run over the packet path: shared dataplane consumers and the
# traffic manager, where the lock-free lookup snapshot and pools live.
race-dataplane:
	$(GO) test -race -count=2 ./internal/ipbm/ ./internal/pisa/ ./internal/pipeline/ ./internal/dataplane/ ./internal/tsp/

bench:
	$(GO) test -bench=. -benchmem ./...

# Steady-state forwarding benchmark, fused executor vs the interpreter
# oracle. Use -count and min-of-N when comparing: single runs are noisy.
bench-hotpath:
	$(GO) test -run xxx -bench 'BenchmarkHotPath' -benchmem -count=5 .

# INT overhead smoke: fails if the INT-disabled hot path allocates, and
# reports the per-packet cost of forwarding with stamping compiled out.
bench-int:
	$(GO) test ./internal/ipbm/ -run TestIntDisabledZeroAlloc -count=1 -v
	$(GO) test -run xxx -bench 'BenchmarkHotPath_Fused$$' -benchmem -count=3 .

# Record the committed benchmark baseline (min over 5 runs). Run on a
# quiet machine, then commit BENCH_hotpath.json.
bench-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_hotpath.json \
		-note "min of 5 runs; allocs/op is machine-independent and gated strictly, ns/op within tolerance"

# Regression gate against the committed baseline: any allocs/op increase
# fails; ns/op fails only beyond baseline*(1+BENCH_TOL).
bench-gate:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GATED_ROUNDS) | bin/benchgate -check BENCH_hotpath.json -tol $(BENCH_TOL)

# Executor-tier gate: runs the fused tier and the interpreter oracle in
# the same rounds and asserts the within-run ratio, which is
# machine-independent (the host's absolute speed cancels out): the fused
# tier must beat the tree interpreter by >= 1.25x on every use case, at
# strictly zero allocations. The ratio is the median over rounds of each
# round's own Interp/Fused ratio (benchgate -speedup pairs runs). The
# floor carries margin under the measured ratio (see EXPERIMENTS.md) so a
# failure means a real tier regression, not benchmark noise. The usual baseline comparison also runs, so the
# committed allocs=0 / ns bounds still apply to the fused keys.
bench-fused:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GATED_ROUNDS) \
		| bin/benchgate -check BENCH_hotpath.json -tol $(BENCH_TOL) \
		-speedup 'BenchmarkHotPath_Fused=BenchmarkHotPath_Interp:1.25'

# Reconfiguration-storm gate: a sharded switch forwards through ~170
# edit commits/s on the epoch-versioned store; BENCH_reconfig.json pins
# drops at exactly 0 (strict zero invariant) plus the usual allocs/ns
# bounds. That no packet ever waits on a reconfiguration is asserted by
# TestForwardingNeverWaitsOnReconfig. Fixed iteration count so applies-per-run — and with
# it the alloc amortization — is identical on every host.
bench-reconfig:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test ./internal/ipbm/ -run xxx -bench BenchmarkReconfigStormHitless -benchmem -benchtime=50000x -count=3 \
		| bin/benchgate -check BENCH_reconfig.json -tol $(BENCH_TOL)

# Record the reconfig-storm baseline. The drain-and-swap comparison row
# is gone with the drain path; internal/pisa's full reload is the
# draining baseline.
bench-reconfig-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test ./internal/ipbm/ -run xxx -bench BenchmarkReconfigStormHitless -benchmem -benchtime=50000x -count=5 \
		| bin/benchgate -write BENCH_reconfig.json \
		-note "50000 frames/run; drops is a strict zero invariant of the hitless path"

# Flow-accounting benchmarks gated against BENCH_flow.json: the isolated
# Touch/Finish engine cost plus the hot path with accounting ablated
# (FlowOff). Same policy as bench-gate: allocs/op strictly 0, ns/op
# within tolerance.
GATED_FLOW_BENCH = BenchmarkFlowAccount|BenchmarkHotPath_FlowOff

bench-flow:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_FLOW_BENCH)' -benchmem -count=3 . | bin/benchgate -check BENCH_flow.json -tol $(BENCH_TOL)

# Record the flow-accounting baseline (min over 5 runs) and commit
# BENCH_flow.json.
bench-flow-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_FLOW_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_flow.json \
		-note "min of 5 runs; Touch/Finish must stay allocation-free or the always-on default is not viable"

# Race soak over the flow-accounting paths: single-writer lanes with
# racing readers, clash evictions under storm, flow state across
# reconfig commits, and the sharded conservation invariant.
flow-soak:
	$(GO) test -race -count=2 -run 'Flow|Sketch|Concurrent|Sweep|Eviction' ./internal/flowstat/ ./internal/ipbm/

# Drop-attribution benchmarks gated against BENCH_drop.json: the
# always-on loss-forensics path (verdict classification, striped
# ipsa_drop_total cells, capture-ring admission) on a program drop and a
# parse failure. Same policy as bench-gate: allocs/op strictly 0, ns/op
# within tolerance — a drop storm must not allocate.
GATED_DROP_BENCH = BenchmarkDropPath

bench-drop:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_DROP_BENCH)' -benchmem -count=3 . | bin/benchgate -check BENCH_drop.json -tol $(BENCH_TOL)

# Record the drop-attribution baseline (min over 5 runs) and commit
# BENCH_drop.json.
bench-drop-baseline:
	$(GO) build -o bin/benchgate ./cmd/benchgate
	$(GO) test -run xxx -bench '$(GATED_DROP_BENCH)' -benchmem -count=5 . | bin/benchgate -write BENCH_drop.json \
		-note "min of 5 runs; attribution is always on, so the drop path must stay allocation-free"

# Race soak over the loss-forensics path: every drop reason firing at
# once under a hitless edit storm, with the conservation invariant
# (per-reason drop counters == loss-verdict counters) checked at the end.
drop-soak:
	$(GO) test -race -count=2 -run 'DropConservation|DropRing|DropAttribution' ./internal/ipbm/ ./internal/telemetry/

# Differential fuzz: fused executor vs the interpreter oracle on the
# full switch.
fuzz-diff:
	$(GO) test ./internal/ipbm/ -run xxx -fuzz FuzzCompiledVsInterp -fuzztime 30s

# Capture CPU and heap profiles of the fused hot path. The equivalent
# for a live switch is `ipbm -cpuprofile cpu.out -memprofile mem.out`;
# see docs/OBSERVABILITY.md.
profile-hotpath:
	$(GO) test -run xxx -bench 'BenchmarkHotPath_Fused$$' -benchtime=200000x \
		-cpuprofile cpu.out -memprofile mem.out .
	@echo "profiles written: cpu.out mem.out (view with: $(GO) tool pprof -top cpu.out)"

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ecmp_insitu
	$(GO) run ./examples/srv6_insitu
	$(GO) run ./examples/flowprobe
	$(GO) run ./examples/int_e2e

# End-to-end health-layer exercise: boot ipbm with a fast sampler, check
# /readyz gating, push traffic until /health shows nonzero rates, run an
# in-situ update over the CCM and assert the switch stays healthy with
# the apply event in the audit trail.
health-smoke:
	$(GO) run ./cmd/healthsmoke

fmt:
	gofmt -w cmd internal examples bench_test.go

vet:
	$(GO) vet ./...

# Static analysis: vet always, staticcheck when installed (CI installs it;
# locally it is optional so a bare toolchain still builds everything).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

clean:
	$(GO) clean ./...
