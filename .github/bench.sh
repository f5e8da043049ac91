#!/usr/bin/env bash
# Runs the key-benchmark smoke set used by the CI perf-regression gate.
# Usage: bench.sh [tree-dir]   (defaults to the current tree)
# BENCH_COUNT overrides the per-benchmark repetition count (default 6; the
# gate compares medians, so odd noise in one run does not flip the verdict).
# Fixed -benchtime=Nx iteration counts keep base and head runs comparable.
set -euo pipefail
dir="${1:-.}"
count="${BENCH_COUNT:-6}"
own="$(cd "$(dirname "$0")/.." && pwd)"
cd "$dir"
# GOMAXPROCS defaults to the CPUs this process may run on; benchgate records
# it, with go test's cpu line, in the BENCH json.
echo "gomaxprocs: ${GOMAXPROCS:-$(nproc)}"

# run <bench-regex> <benchtime> <package>: one gated benchmark invocation.
# A pattern that matches nothing fails loudly here — a silently-skipped
# benchmark would make the regression gate vacuously green after a rename.
run() {
  local pattern="$1" benchtime="$2" pkg="$3" out
  # A package that does not exist in this tree (a benchmark added by the PR
  # under test) is skipped: the gate only compares benchmark names present
  # in both runs. Renames inside an existing package still fail loudly.
  if [ ! -d "${pkg#./}" ]; then
    echo "bench.sh: skipping $pkg (not present in this tree)" >&2
    return 0
  fi
  # Likewise a benchmark function the PR adds to an existing package is
  # skipped, but only in another tree (the base): in the script's own tree a
  # missing function is a rename and fails below.
  local fn="${pattern#^}"
  fn="${fn%%[$/]*}"
  if [ "$(pwd)" != "$own" ] && ! grep -q "^func $fn(" "${pkg#./}"/*_test.go; then
    echo "bench.sh: skipping $fn in $pkg (not present in this tree)" >&2
    return 0
  fi
  out="$(go test -run='^$' -bench="$pattern" -benchtime="$benchtime" -count="$count" "$pkg")"
  printf '%s\n' "$out"
  if ! printf '%s\n' "$out" | grep -q '^Benchmark'; then
    echo "bench.sh: -bench pattern '$pattern' matched no benchmarks in $pkg" >&2
    exit 1
  fi
}

run '^BenchmarkBusDispatch$' 1000x ./internal/bus
run '^BenchmarkTelemetryIngest$' 100x ./internal/tsdb
# The same round appended by series handle (Ref once, then AppendRefs).
run '^BenchmarkAppendRefs$' 2000x ./internal/tsdb
run '^BenchmarkQueryMatcher$' 50x ./internal/tsdb
run '^BenchmarkShardedAppend$' 100000x ./internal/tsdb
run '^BenchmarkWindowQuery$' 2000x ./internal/tsdb
# Fleet-wide newest-point read at 1000 and 10240 series: the key-order sort
# must stay O(n log n), so ns/op may grow ~10x between the rows, not ~100x.
run '^BenchmarkLatestInto$' 200x ./internal/tsdb
# Detector stepping is every loop's per-tick inner loop. Only the streaming
# rows run here (benchgate gates every shared benchmark name, so the noisy
# O(W log W) naive baselines are kept out of CI); run the full
# BenchmarkDetectorStep locally for the incremental-vs-naive comparison.
run '^BenchmarkDetectorStep$/.*/.*/^(incremental|quickselect)$' 5000x ./internal/analytics
# Only the 1000-loop shape: the small sub-benchmarks are too short to gate
# on a shared CI box without false positives.
run '^BenchmarkFleetTick$/^loops=1000$' 5x ./internal/fleet
# Control plane: one control.v1 request/reply round trip through the bus,
# and the lifecycle-state fast paths every tick pays (both must stay at
# 0 allocs/op — TestLifecycleFastPathAllocs gates that exactly).
run '^BenchmarkControlDispatch$' 2000x ./internal/control
run '^BenchmarkLifecycleCheck$' 200000x ./internal/core
# Durability hot paths: the journal append under group-commit batching and
# with fsync disabled (TestWALAppendAllocs gates 0 allocs/record exactly),
# plus full log replay throughput. sync=always is excluded — raw fsync
# latency on a shared CI box is too noisy to gate; run it locally.
run '^BenchmarkWALAppend$/^sync=(none|batch)$' 20000x ./internal/wal
run '^BenchmarkRecovery$' 2x ./internal/wal
# The tsdb half of recovery: a journal shaped like a served facility's
# (10,368 series x 220 sweeps, ~2.28M points) applied into a fresh store.
# BenchmarkRecovery above reads opaque payloads, so it covers framing only.
run '^BenchmarkApplyWAL$' 2x ./internal/tsdb
# The snapshot half of recovery at stress scale: a 51,328-series snapshot
# (10,240 nodes x 5 metrics plus OSTs, modad's rollups, ~1.5M samples)
# restored into a fresh store per iteration by the schema decoder.
run '^BenchmarkRestoreSnapshot$' 2x ./internal/tsdb
# HTTP gateway: one /v1/query through the full handler (auth, decode,
# singleflight, zero-copy QueryVisit encode), and one bus publish fanned
# out to 1000 connected SSE subscribers.
run '^BenchmarkGatewayQuery$' 500x ./internal/gateway
run '^BenchmarkSSEFanout$/^clients=1000$' 2000x ./internal/gateway
# Cluster plane: the consistent-hash placement lookup, one cross-node
# arbitration digest, a full in-process scatter-gather, and the same gather
# over real loopback TCP bridges (the per-request cost of a multi-node
# list/query). RingMembership is excluded — a full point resort per op is
# rare (joins/failovers only) and too coarse to gate.
run '^BenchmarkRingOwner$' 100000x ./internal/cluster
run '^BenchmarkArbiterDecide$' 20000x ./internal/cluster
run '^BenchmarkScatterGather$/^workers=4$' 500x ./internal/cluster
run '^BenchmarkClusterFanoutTCP$' 200x ./internal/cluster
# Resilience plumbing: the backoff schedule draw every redial pays, and the
# disarmed chaos-conn passthrough — the wrapper must stay ~free when no
# faults are armed (TestChaosConnDisarmedAllocs gates 0 allocs/op exactly).
# The armed sub-benchmark is excluded: injected sleeps make it a clock
# measurement, not a regression signal.
run '^BenchmarkBackoffSchedule$' 200000x ./internal/chaos
run '^BenchmarkChaosConn$/^disarmed$' 50000x ./internal/chaos
# Scenario engine: the chaos-diverse midsize scenario end to end, and the
# 10240-node stress scenario — one full assemble-run-score per iteration
# (~3M telemetry points through the sharded TSDB with the fleet live); the
# scale gate the 10k-node claim rests on. Both run with a reduced count:
# a full scenario per iteration is long enough that medians stay stable.
BENCH_COUNT_SAVED="$count"; count=3
run '^BenchmarkScenarioMidsize$' 1x ./internal/scenario
run '^BenchmarkScenarioStress10k$' 1x ./internal/scenario
count="$BENCH_COUNT_SAVED"
