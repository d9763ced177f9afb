#!/usr/bin/env bash
# Full correctness matrix in one command (tier-1.5 verify):
#
#   Release + -Werror   functional tests, lint, DCHECKs compiled out
#   ASan + UBSan        Debug, so VECDB_DCHECK and the debug-path
#                       CheckInvariants() audits are active
#   TSan                RelWithDebInfo; concurrency_test/thread_pool_test
#                       run under the race detector
#   recovery            crash-recovery fault injection under ASan and the
#                       concurrent logging+checkpoint smoke under TSan
#   sessions            the multi-session front end: full session_test
#                       under ASan (epoch reclamation) and its stress
#                       suite under TSan (snapshot readers vs writers)
#   server              the networked front end: frame-decoder fuzz and
#                       the loopback e2e/cancellation suite under ASan,
#                       and the connection-churn stress suite under TSan
#   buffer pool         the concurrent pin/evict/flush stress test under
#                       TSan (hits take no pool-wide lock, so the atomic
#                       frame-state protocol is what the race detector
#                       checks)
#   perfbench           python3 perfbench/selftest.py: the end-to-end
#                       benchmark's tiny-scale self-test
#   kernels             the kernel/SQ8 dispatch suites re-run with
#                       VECDB_KERNEL_ISA=scalar (proving the override and
#                       the scalar tier), and again under ASan/UBSan per
#                       tier so the SIMD tails and masked loads are
#                       sanitizer-checked (AVX-512 skipped with a notice
#                       when the host lacks avx512f)
#   TSA                 clang, -DVECDB_TSA=ON: Clang Thread Safety Analysis
#                       as -Werror=thread-safety, with negative-compilation
#                       probes proving the gate is live (skipped with a
#                       notice when clang is unavailable)
#   tidy                clang-tidy (bugprone/concurrency/performance,
#                       .clang-tidy) off compile_commands.json (skipped
#                       with a notice when clang-tidy is unavailable)
#
# Usage: ci/run_checks.sh [extra ctest args...]
# Build trees land in build-release/, build-asan/, build-tsan/,
# build-tsa/ (gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"
  shift
  echo "=== ${dir}: configure ($*) ==="
  cmake -B "${dir}" -S . -DVECDB_WERROR=ON "$@"
  echo "=== ${dir}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${dir}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "${EXTRA_CTEST_ARGS[@]}"
}

EXTRA_CTEST_ARGS=("$@")

run_config build-release -DCMAKE_BUILD_TYPE=Release
run_config build-asan -DCMAKE_BUILD_TYPE=Debug \
  -DVECDB_SANITIZE="address;undefined"

# Batch-path smoke: exercise the SearchBatch kernels (SGEMM bucket
# selection + per-worker heap reuse) under ASan/UBSan, where the
# thread-pool and buffer-reuse bugs would actually trip.
echo "=== build-asan: batched-search smoke (micro_kernels) ==="
./build-asan/bench/micro_kernels \
  --benchmark_filter='BM_Search(PerQuery|Batched)'

# Filtered-search smoke: drive all three strategies (pre/in/post) across
# the selectivity sweep under ASan/UBSan — the pre-filter survivor scans
# and k-amplification retry loops are where an off-by-one would read past
# a bucket or result buffer.
echo "=== build-asan: filtered-search smoke (ext_filtered_search) ==="
./build-asan/bench/ext_filtered_search --scale=0.002 --max-queries=5

# Recovery stage, part 1: the full fault-injection harness under
# ASan/UBSan. Every sampled crash offset exercises torn-write handling,
# WAL replay, and catalog/orphan GC — recovery code paths touch freed
# and partially-initialized state more than any other subsystem, which
# is exactly where the sanitizers earn their keep.
echo "=== build-asan: crash-recovery fault-injection (recovery_test) ==="
./build-asan/tests/recovery_test

# Session front-end smoke: admission queueing, snapshot-bounded readers,
# and the mixed eight-session workload under ASan/UBSan — the epoch
# retire/reclaim path frees snapshots whose readers just left, exactly the
# use-after-free shape ASan exists to catch.
echo "=== build-asan: session front-end (session_test) ==="
./build-asan/tests/session_test

# Networked front end, part 1: the frame-decoder fuzz/property suite under
# ASan/UBSan — torn frames, bit flips, and hostile length fields must fail
# as clean Corruption errors with zero out-of-bounds reads. Then the full
# loopback e2e suite (concurrent clients, CANCEL SQL, out-of-band cancel
# frames, statement timeouts, protocol-error handling): the server's
# buffer handoffs between scheduler and workers run with poisoned
# redzones around every frame.
echo "=== build-asan: wire-protocol fuzz (net_frame_test) ==="
./build-asan/tests/net_frame_test
echo "=== build-asan: server loopback e2e (net_server_test) ==="
./build-asan/tests/net_server_test

# Kernel-dispatch stage, part 1: force the scalar tier and re-run the
# dispatch/SQ8/IVF_SQ8 suites in the already-built Release tree. The
# kernel_dispatch_test ActiveTableMatchesResolutionRule case asserts the
# override actually resolved to scalar, so this stage fails loudly if the
# env plumbing regresses rather than silently re-testing the SIMD tier.
echo "=== build-release: kernel suites under VECDB_KERNEL_ISA=scalar ==="
VECDB_KERNEL_ISA=scalar ctest --test-dir build-release \
  --output-on-failure -R '^(kernel_dispatch_test|sq8_test|ivf_sq8_test)$'

# Kernel-dispatch stage, part 2: the same suites under ASan/UBSan once per
# ISA tier the host can run. The masked tails and 64-bit partial loads in
# the AVX2/AVX-512 kernels are exactly where an out-of-bounds read would
# hide from functional tests; each forced tier pins the kernels the
# sanitizers actually execute.
KERNEL_TIERS=(scalar avx2)
if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
  KERNEL_TIERS+=(avx512)
else
  echo "NOTICE: host lacks avx512f; SKIPPING the AVX-512 sanitizer pass"
  echo "NOTICE: (the avx512 tier self-skips in tests but cannot execute here)."
fi
for tier in "${KERNEL_TIERS[@]}"; do
  echo "=== build-asan: kernel suites under VECDB_KERNEL_ISA=${tier} ==="
  VECDB_KERNEL_ISA="${tier}" ctest --test-dir build-asan \
    --output-on-failure -R '^(kernel_dispatch_test|sq8_test|ivf_sq8_test)$'
done

run_config build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVECDB_SANITIZE=thread

# Metrics-registry smoke: batched searches flush worker-local counters into
# one shared MetricsRegistry; run it under TSan so a racy shard or histogram
# bucket shows up as a hard failure, not a lost update.
echo "=== build-tsan: concurrent metrics-registry smoke (micro_kernels) ==="
./build-tsan/bench/micro_kernels \
  --benchmark_filter='BM_SearchBatchedMetricsOn'

# In-filter bitmap smoke: concurrent FilteredSearch calls share one
# read-only SelectionVector and flush filter.* counters into the shared
# registry; TSan turns a racy bitmap word or counter shard into a failure.
echo "=== build-tsan: concurrent in-filter bitmap smoke (filter_test) ==="
./build-tsan/tests/filter_test \
  --gtest_filter='FilteredSearchTest.ConcurrentInFilterSharedBitmap'

# Recovery stage, part 2: writers appending WAL records through the
# buffer manager while a checkpointer loops flush/sync/checkpoint/rotate.
# The WAL's internal mutex, the sticky wal_error latch, and rotation's
# swap of the underlying file are all shared state; TSan makes any
# unlocked access a hard failure instead of a one-in-a-thousand torn log.
echo "=== build-tsan: concurrent logging+checkpoint smoke (recovery_test) ==="
./build-tsan/tests/recovery_test \
  --gtest_filter='FaultInjectionTest.ConcurrentLoggingAndCheckpoint'

# Session stress under the race detector: lock-free snapshot readers
# overlap RCU-style snapshot publication and epoch reclamation, plus the
# admission controller's cv/queue handoff — every shared word here must be
# an atomic or under a mutex, and TSan proves it on the real workload.
echo "=== build-tsan: multi-session stress (session_test) ==="
./build-tsan/tests/session_test --gtest_filter='SessionStressTest.*'

# Networked front end, part 2: connection churn + concurrent statements +
# Stop() landing mid-statement, under the race detector. The per-Conn
# outbound buffer, the pending-statement queue, and the submit-vs-shutdown
# mutex are the shared state; TSan turns any unlocked touch into a hard
# failure instead of a corrupted frame once a week.
echo "=== build-tsan: server connection-churn stress (net_server_test) ==="
./build-tsan/tests/net_server_test --gtest_filter='ServerStressTest.*'

# Buffer pool under the race detector: 8 pinners race hits, misses,
# evictions and re-reads of one page through a pool smaller than the
# working set, while FlushAll, stats() and CheckInvariants() run beside
# them. Hits and unpins take no pool-wide lock — only a partition's shared
# lock and a CAS on the frame's state word — so TSan is what proves that
# protocol orders page bytes, dirty flags and write-back.
echo "=== build-tsan: concurrent buffer-pool stress (bufmgr_test) ==="
./build-tsan/tests/bufmgr_test \
  --gtest_filter='BufMgrTest.Concurrent*'

# Static lock discipline: compile everything under clang with Thread
# Safety Analysis promoted to errors. The tsa_probe ctest entries (and the
# configure-time try_compile probes) prove the gate actually rejects
# unguarded accesses, so a flag regression cannot silently disable it.
if command -v clang++ >/dev/null 2>&1; then
  echo "=== build-tsa: configure (clang, VECDB_TSA=ON) ==="
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release -DVECDB_TSA=ON
  echo "=== build-tsa: build (-Werror=thread-safety) ==="
  cmake --build build-tsa -j "${JOBS}"
  echo "=== build-tsa: TSA gate-liveness probes ==="
  ctest --test-dir build-tsa --output-on-failure -R '^tsa_probe_'
else
  echo "NOTICE: clang++ not found; SKIPPING the VECDB_TSA static"
  echo "NOTICE: lock-discipline stage (install clang to enforce it)."
fi

# clang-tidy gate off the compile_commands.json build-release exported.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== tidy: clang-tidy over src/ (build-release database) ==="
  bash tools/run_clang_tidy.sh build-release src
else
  echo "NOTICE: clang-tidy not found; SKIPPING the tidy stage"
  echo "NOTICE: (install clang-tidy to enforce it)."
fi

# End-to-end benchmark self-test: builds perfbench/ with src/ into
# .bench_build/ and runs every workload at a tiny scale, checking the
# report's shape and its correctness counters (about two minutes).
echo "=== perfbench: self-test (perfbench/selftest.py) ==="
python3 perfbench/selftest.py

echo "=== lint (standalone) ==="
python3 tools/lint.py .

echo "All checks passed."
