#!/usr/bin/env bash
# CI for the parallel execution layer.
#
# 1. Release build (examples/ binaries built explicitly, so interface
#    refactors cannot silently break them); tier-1 tests at KSHAPE_THREADS=1
#    and KSHAPE_THREADS=4 (the suites assert bit-identical results across
#    thread counts, so running the whole tier at two settings catches
#    scheduling-dependent output anywhere in the library, not just in
#    parallel_test), plus a KSHAPE_SIMD=scalar leg that forces the reference
#    kernel backend through the whole tier (the SIMD determinism contract
#    says results cannot change, so any diff is a backend bug), and a
#    KSHAPE_HALF_SPECTRUM=off leg that forces the full-complex spectrum
#    cache through the whole tier (the half-spectrum equivalence contract
#    says labels and accuracies cannot change), and a KSHAPE_PRUNE=off leg
#    that forces exhaustive exact scans through the whole tier (the pruning
#    equivalence contract says labels cannot change) — five tier-1 legs.
#    The sharded exact-mode and matrix-free contracts need no leg of their
#    own: mini-batch mode and matrix-free extraction are chosen by options
#    alone, and the suites pin both sides in-process. Then the
#    simd-kernels, rfft-batch, assignment-pruning, and shape-extraction
#    microbenches plus the sharded fig12 scalability bench
#    in --smoke mode (3 shards under a residency budget of 2, so every shard
#    walk evicts; it checks the one-walk-per-iteration load bound) as
#    release-stage smoke tests
#    (all cross-check bit-identity, epsilon equivalence, or label equality
#    and write their BENCH_*.json files), the model_predict serving bench in
#    --smoke mode (asserts saved->loaded Predict bit-identity), and a
#    kshape_fit -> kshape_predict round-trip leg that exercises the .kmodel
#    artifact end to end through the example CLIs.
# 2. -march=native release build: the strictest determinism setting — the
#    compiler may vectorize everything and the target has FMA, so tier-1
#    passing here proves the -ffp-contract=off build flag (every target)
#    and the pinned kernel TU flags around src/simd/ actually hold. Expected
#    green: tests that compare against std::complex references round exactly
#    like the library now that nothing is contracted into an FMA.
# 3. ThreadSanitizer build; parallel_test, thread_pool_test, sbd_cache_test,
#    fft_test, rfft_test, simd_kernels_test, pruning_test,
#    sharded_store_test, shape_extraction_test, minibatch_kshape_test,
#    kshape_test, cluster_test and multivariate_test run under TSan to catch
#    data races in the pool,
#    the FFT/RFFT plan caches (incl. BatchSpectra parallel fill) and their
#    per-thread transform scratch, the
#    spectrum-cached SBD pipeline, the kernel dispatch cache (atomic table
#    pointer + SetBackendForTesting), the pruned assignment scan (per-series
#    bound/telemetry cells + the KSHAPE_PRUNE gate atomics), the shard
#    residency cache (generation stamps + eviction under churn), the
#    sharded assignment fan-out (per-shard engines writing disjoint label
#    ranges in parallel), the matrix-free extraction matvec (parallel
#    chunk fan-out writing disjoint partial blocks — RowPoolMatVec's
#    determinism contract, including its inline run inside an outer pool
#    task), and the k-Shape driver's refinement: the fused member pass (each
#    member's aligned row built in its own accumulator slot on the pool,
#    committed sequentially) and the side-by-side per-cluster eigen solves
#    (cold starts pre-drawn on the coordinating thread) — the replay-parity
#    test in shape_extraction_test runs both at 1/2/8 threads, and
#    kshape_test runs full fits through them at KSHAPE_THREADS=4 — and its
#    one shard walk per iteration (each shard's parallel assignment scan
#    followed by the next iteration's parallel member fill while the shard
#    is resident), which minibatch_kshape_test drives under eviction,
#    sampling and reseeds; cluster_test (KSC) and multivariate_test drive
#    the same fill, solves and assignment scan through the driver's
#    no-engine policy (KSC and mSBD distances and shifts called from pool
#    tasks, the mSBD policy's parallel spectrum pre-pass);
#    fitted_model_test also runs under TSan because
#    Predict drives the Assigner's parallel assignment fan-out over a frozen
#    model at multiple thread counts, and because it sums the engine's
#    per-thread lag-counter cells after parallel scans at 1, 2 and 8
#    threads.
# 4. AddressSanitizer+UBSan build; the robustness suites (degenerate inputs,
#    property sweeps over hostile data, conditioning) plus simd_kernels_test
#    (unaligned loads, length-1..67 tails, every radix-2 stage and stage
#    pair up to 4096 points), fft_test and rfft_test (packed-bin
#    unpack/fold indexing at odd, prime, and power-of-two lengths, the
#    per-thread transform scratch, the bit-reversed unpack writes, and the
#    negative-lag index arithmetic of the lag-order inverse at m = 1, 2, 3),
#    pruning_test (bound-plane indexing at Bluestein lengths, the
#    partial-sum checkpoint tails), sharded_store_test (mmap-free file I/O,
#    truncated/corrupt shard handling, a load into an evicted shard's
#    buffer), sbd_cache_test (an engine's rows built on request in any
#    subsets and order, bound planes at Bluestein lengths, the abort on an
#    unbuilt row), minibatch_kshape_test (sampled
#    scatter indexing, streamed repair, the fused walk's per-block row
#    ranges, deferred last-block fill and post-reseed refill), shape_extraction_test (pooled-row
#    and partial-block indexing on the matrix-free path, crossover
#    boundaries, the zero-fill shift of caller-supplied alignment lags),
#    kshape_test (full fits feeding engine-derived lags into the shifted-row
#    builder at small m and at k = n), and fitted_model_test (the .kmodel
#    corruption matrix: truncated/ragged/byte-patched model files through the
#    untrusted-input Load path) and multivariate_test (the packed
#    channel-major rows: per-channel slices, spectrum slots and centroid
#    unpacking) run under ASan+UBSan so every repair/fallback path is also
#    checked for memory errors and UB.
#
# Usage: ci/run_ci.sh [build-dir-prefix]   (default: build-ci)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"
RELEASE_DIR="${PREFIX}-release"
TSAN_DIR="${PREFIX}-tsan"
ASAN_DIR="${PREFIX}-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> Release build (${RELEASE_DIR})"
cmake -B "${RELEASE_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${RELEASE_DIR}" -j "${JOBS}"

echo "==> example binaries"
cmake --build "${RELEASE_DIR}" -j "${JOBS}" \
      --target quickstart ecg_clustering stock_patterns ucr_file_tool \
               estimate_k multichannel kshape_fit kshape_predict

for threads in 1 4; do
  echo "==> tier1 tests, KSHAPE_THREADS=${threads}"
  (cd "${RELEASE_DIR}" &&
   KSHAPE_THREADS="${threads}" ctest -L tier1 --output-on-failure -j "${JOBS}")
done

echo "==> tier1 tests, KSHAPE_SIMD=scalar (forced reference kernel backend)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_SIMD=scalar ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> tier1 tests, KSHAPE_HALF_SPECTRUM=off (forced full-complex spectra)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_HALF_SPECTRUM=off ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> tier1 tests, KSHAPE_PRUNE=off (forced exhaustive exact scans)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_PRUNE=off ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> simd-kernels smoke test (scalar vs dispatched bit-identity)"
(cd "${RELEASE_DIR}" && ./bench/simd_kernels --smoke)

echo "==> rfft-batch smoke test (half-spectrum vs full-complex equivalence)"
(cd "${RELEASE_DIR}" && ./bench/rfft_batch --smoke)

echo "==> assignment-pruning smoke test (pruned vs exact label equality)"
(cd "${RELEASE_DIR}" && ./bench/assignment_pruning --smoke)

echo "==> shape-extraction smoke test (matrix-free vs Gram equivalence)"
(cd "${RELEASE_DIR}" && ./bench/shape_extraction --smoke)

echo "==> model-predict smoke test (saved->loaded Predict bit-identity)"
(cd "${RELEASE_DIR}" && ./bench/model_predict --smoke)

echo "==> fit/predict round-trip smoke (kshape_fit -> .kmodel -> kshape_predict)"
MODEL_FILE="$(mktemp -u /tmp/kshape_ci_model.XXXXXX.kmodel)"
"${RELEASE_DIR}/examples/kshape_fit" "${MODEL_FILE}" --per-class 10 --length 64
"${RELEASE_DIR}/examples/kshape_predict" "${MODEL_FILE}" --per-class 5
rm -f "${MODEL_FILE}"

echo "==> sharded fig12 smoke test (out-of-core exact + mini-batch runs under eviction)"
(cd "${RELEASE_DIR}" && ./bench/fig12_scalability --sharded --smoke)

NATIVE_DIR="${PREFIX}-native"
echo "==> -march=native release build (${NATIVE_DIR})"
cmake -B "${NATIVE_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
      -DKSHAPE_MARCH_NATIVE=ON
cmake --build "${NATIVE_DIR}" -j "${JOBS}"

echo "==> tier1 tests under -march=native (kernel TU contract firewall)"
(cd "${NATIVE_DIR}" && ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> simd-kernels smoke under -march=native"
(cd "${NATIVE_DIR}" && ./bench/simd_kernels --smoke)

# Each sanitizer stage builds and runs exactly the suites of its array.
TSAN_SUITES=(parallel_test thread_pool_test sbd_cache_test fft_test rfft_test
             simd_kernels_test pruning_test sharded_store_test
             shape_extraction_test minibatch_kshape_test fitted_model_test
             kshape_test cluster_test multivariate_test)
ASAN_SUITES=(degenerate_input_test robustness_properties_test tseries_test
             fft_test rfft_test simd_kernels_test pruning_test
             sharded_store_test sbd_cache_test shape_extraction_test
             kshape_test minibatch_kshape_test fitted_model_test
             multivariate_test)

echo "==> ThreadSanitizer build (${TSAN_DIR})"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKSHAPE_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_SUITES[@]}"

# Run the parallel paths at a thread count high enough to force real
# interleaving even on small CI machines.
for suite in "${TSAN_SUITES[@]}"; do
  echo "==> race check under TSan: ${suite}"
  KSHAPE_THREADS=4 TSAN_OPTIONS="halt_on_error=1" "${TSAN_DIR}/tests/${suite}"
done

echo "==> ASan+UBSan build (${ASAN_DIR})"
cmake -B "${ASAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKSHAPE_SANITIZE=address,undefined
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target "${ASAN_SUITES[@]}"

for suite in "${ASAN_SUITES[@]}"; do
  echo "==> hostile-input check under ASan+UBSan: ${suite}"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      "${ASAN_DIR}/tests/${suite}"
done

echo "==> CI OK"
