#!/usr/bin/env bash
# Full CI pipeline: default build + test suite, the bench_smoke metrics
# check, the wall-clock benchmark's self-test, then the whole suite again
# under ASan + UBSan (the `sanitize` CMake preset).  Run from anywhere; ~a
# few minutes on a laptop.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== default build ==="
cmake --preset default
cmake --build --preset default -j"$JOBS"

echo "=== test suite ==="
ctest --test-dir build --output-on-failure -j"$JOBS"

# All JSON bench artifacts (BENCH_*.json) collect under build/bench/ —
# both the shell redirections below and the files the benches write
# themselves (via SCAB_BENCH_DIR) — so the source tree stays clean.
BENCH_DIR="build/bench"
mkdir -p "$BENCH_DIR"
export SCAB_BENCH_DIR="$BENCH_DIR"

echo "=== crypto microbench (batch-verification amortization) ==="
# Optimized build only: emits per-op ns for single vs batch verification at
# k in {4,16,64} and exits non-zero if batch at k=16 is not >=4x cheaper.
./build/bench/bench_micro_crypto > "$BENCH_DIR/BENCH_crypto.json"
cat "$BENCH_DIR/BENCH_crypto.json"

echo "=== parallel crypto bench (worker-pool scaling sweep) ==="
# TDH2 batch verification over the rt::ThreadHost worker pool at T in
# {1,2,4,8}; enforces >=3x speedup at 8 threads when the machine has >=8
# hardware threads, exit 77 (skip) otherwise.  Self-validates the record
# against the schema's required_parallel paths.
if ./build/bench/bench_parallel_crypto bench/metrics_schema.json \
     > "$BENCH_DIR/BENCH_parallel.json"; then
  cat "$BENCH_DIR/BENCH_parallel.json"
else
  rc=$?
  if [ "$rc" -eq 77 ]; then
    cat "$BENCH_DIR/BENCH_parallel.json"
    echo "parallel crypto gate skipped: fewer than 8 hardware threads"
  else
    exit "$rc"
  fi
fi

echo "=== pipeline bench (batched CP0 envelopes; writes BENCH_pipeline.json) ==="
# Full batch x inflight sweep on the calibrated-cost oracle; exits non-zero
# unless the best batched configuration at (near-)equal median latency is
# >= 5x the unbatched closed loop.
./build/bench/bench_peak_pipeline --json > /dev/null

echo "=== fig6 quick slice (writes BENCH_fig6_peak_throughput.json) ==="
# f=1 column only: keeps a fresh JSON trajectory artifact under $BENCH_DIR
# without paying for the full three-column sweep on every CI run.
./build/bench/bench_fig6_peak_throughput --json --quick > /dev/null

echo "=== bench smoke (metrics JSON vs schema + crypto bench artifact) ==="
./build/bench/bench_smoke bench/metrics_schema.json "$BENCH_DIR/BENCH_crypto.json"

echo "=== cluster smoke (multi-process scabd over loopback TCP) ==="
# keygen -> 4-process cluster -> load, kill -9, restart, catch-up, dump
# validation.  Exit 77 means the environment forbids sockets: skip, the
# in-process suites above already covered the protocol logic.
if ./scripts/run_cluster.sh; then
  :
else
  rc=$?
  if [ "$rc" -eq 77 ]; then
    echo "cluster smoke skipped: sockets unavailable"
  else
    exit "$rc"
  fi
fi

echo "=== chaos smoke (seeded fault schedules, fixed seeds, both runtimes) ==="
# Re-runs just the chaos/fault-injection suites as an explicit gate: the
# seeds are fixed in the tests, so a failure here is a real regression, not
# flakiness.  Budget is ~30 s (the threaded sweep dominates).
ctest --test-dir build --output-on-failure -j"$JOBS" -R "Chaos|Faults"

echo "=== durability smoke (WAL / snapshot storage + power-loss recovery) ==="
# The storage-layer unit suites (CRC framing, torn-tail truncation, bit-flip
# fuzz) plus the full-cluster crash/recovery drills on both runtimes.
ctest --test-dir build --output-on-failure -j"$JOBS" -R "Storage|Durability"

echo "=== wall-clock benchmark self-test (perfbench/) ==="
# perfbench compiles src/ with its own host-seam decorators (host::Host,
# host::Storage, rt::Transport, the replica and client app seams,
# causal::Service, causal::Cp0Backend), so a seam change that breaks the
# benchmark build fails here.  Quick runs of every declared workload and
# pbft-wal, untraced and traced, each behind its correctness gate.
CARGO_TARGET_DIR=build/perfbench python3 perfbench/selftest.py

echo "=== sanitizer build (ASan + UBSan) ==="
cmake --preset sanitize
cmake --build --preset sanitize -j"$JOBS"

echo "=== test suite under sanitizers ==="
ctest --preset sanitize

echo "=== ThreadSanitizer build (rt::ThreadHost runtime) ==="
cmake --preset tsan
cmake --build --preset tsan -j"$JOBS"

echo "=== threaded-runtime tests under TSan ==="
# The tsan test preset filters to the runtime-equivalence, backoff,
# fault-injection, and threaded chaos suites: the crypto-heavy remainder is
# single-threaded and already covered by the ASan pass above.
ctest --preset tsan

echo "=== race gate: repeated TSan samples ==="
# TSan reports a race only on the interleavings one run happens to hit, so
# the suites that build, crash and restart nodes under live traffic run 20
# times each, stopping at the first failure.  No suppression file.
ctest --preset tsan -R "DurabilityThreads|MidBatch|ChaosRestart" \
  --repeat until-fail:20

echo "=== CI OK ==="
