#!/usr/bin/env bash
# Full local CI: configure, build with warnings as errors, test (which
# includes the detlint determinism-lint gates), the same again under
# ASan+UBSan, a TSan lane
# over the threaded fleet/tier tests, a -DDARPA_NATIVE_SIMD=OFF
# build whose fp32 head and scalar int8 body must pass their parity and
# quantization suites, a build of the frozen perfbench/ benchmark
# against today's src/, a bench smoke lane
# (every bench binary once with --quick), a Release perf-smoke lane (the
# detector hot-path bench's speedup/zero-alloc contracts need optimized
# codegen) followed by a perf floor gate over the published
# BENCH_detector.json numbers, then the
# Clang-only static lanes: a -Wthread-safety -Werror build over
# the GUARDED_BY/util::Mutex annotations and a FATAL clang-tidy pass
# (bugprone-*/performance-* as errors). Both Clang lanes are skipped
# automatically when LLVM is not installed — the detlint gates and the
# mutex owner-check death tests above run on any toolchain and stay fatal
# everywhere. The run ends
# with a summary of every lane it skipped, so a green run states what it
# covered.
#
#   scripts/ci.sh            # everything
#   SKIP_SANITIZE=1 scripts/ci.sh   # skip the sanitizer rebuilds + reruns
#   SKIP_BENCH=1 scripts/ci.sh      # skip the bench smoke + perf lanes
#
# Uses build/, build-asan/, build-tsan/, build-lane/, build-perfbench/,
# build-perf/ and build-tsa/ at the repo root; all gitignored.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIPPED=()

# ctest over the suites a lane names ("SuiteA|SuiteB"). Every named suite
# must still match at least one test in the tree, so a renamed suite fails
# the lane instead of silently dropping out of it.
ctest_suites() {
  local dir=$1 suites=$2 suite count
  IFS='|' read -ra names <<< "$suites"
  for suite in "${names[@]}"; do
    count="$(ctest --test-dir "$dir" -N -R "^${suite}\\." |
             sed -n 's/^Total Tests: //p')"
    if [ "${count:-0}" -eq 0 ]; then
      echo "FAIL: suite '$suite' matches no test in $dir/" >&2
      exit 1
    fi
  done
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -R "$suites"
}

echo "== configure + build (build/) =="
# Warnings are errors in this tree: the default build is warning-free, so
# a new warning fails the lane instead of scrolling past.
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "$JOBS"

echo "== ctest (build/) =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== detlint (determinism/concurrency source lint) =="
# Redundant with the DetlintRepo ctest gate above, but run explicitly so a
# lint failure is reported as its own lane with the findings on stdout.
./build/tools/detlint/detlint --root .

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
  echo "== configure + build, ASan+UBSan (build-asan/) =="
  cmake -B build-asan -S . -DDARPA_SANITIZE=ON
  cmake --build build-asan -j "$JOBS"

  echo "== ctest, sanitized (build-asan/) =="
  # halt_on_error keeps UBSan findings fatal so ctest reports them.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "== ctest, ASan strict-stack view-tree walk tests (build-asan/) =="
  # Focused rerun of the suites that walk view trees, with
  # stack-use-after-return detection on. Both walks are iterative, so tree
  # depth stays off the native stack: the native walk keeps the children
  # still to come on an explicit stack that grows mid-walk, and the
  # virtual-tree walk does the same for a hostile page. The deep/wide
  # traversal tests (a 300-deep native chain in FingerprintTest, 300-deep
  # pages and 3000-wide forests in the virtual suites) are where a
  # frame-lifetime bug would hide, and FingerprintTest's string cases run
  # the hash's word loads over every tail length. FingerprintMemoTest rides
  # along: its WebView cases walk virtual trees. This tree defines
  # DARPA_BOUNDS_CHECKS, so in these suites (and in the full run above)
  # every fingerprint memo hit re-walks the view tree and aborts with
  # "fingerprint memo is stale" when the two values differ, and every walk
  # is checked against fingerprint(dumpTopWindow()).
  ASAN_OPTIONS=detect_leaks=1:detect_stack_use_after_return=1 \
  UBSAN_OPTIONS=halt_on_error=1 \
    ctest_suites build-asan \
      'WebViewTest|VirtualFingerprintPropertyTest|VirtualLintTraversalTest|VirtualDecorationTest|FingerprintMemoTest|FingerprintTest'

  echo "== configure + build, TSan (build-tsan/) =="
  # ThreadSanitizer lane over the tests that actually exercise threads: the
  # fleet driver (W=4 workers claiming whole sessions from one atomic
  # counter, with a straggler session and with fewer sessions than
  # workers, the W=1 serial reference beside them), the verdict tier,
  # whose one lock four threads hammer and W=4 tiered fleets take, the
  # mutex owner-check death tests, whose unlock case reads the owner from
  # a second thread, and the view block cache, whose per-thread free
  # lists take views built on one thread and freed on another.
  # (TSan is incompatible with ASan, hence the separate build tree.)
  cmake -B build-tsan -S . -DDARPA_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"

  echo "== ctest, TSan fleet/tier/mutex/webview tests (build-tsan/) =="
  # The webview suites ride along: hybrid dumps flow through the same
  # threaded fleet pipeline (fingerprint -> verdict caches -> tier), so
  # the virtual-subtree code must be as race-clean as the native path.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest_suites build-tsan \
      'FleetTest|FleetSchedulerTest|SharedVerdictTierTest|MutexDeathTest|ViewBlockCacheTest|WebViewTest|VirtualFingerprintPropertyTest|VirtualLintTraversalTest'
else
  SKIPPED+=("ASan+UBSan and TSan lanes (SKIP_SANITIZE=1)")
fi

echo "== no -march=native build: fp32 head and scalar int8 body (build-lane/) =="
# With DARPA_NATIVE_SIMD off the fp32 head kernel runs 128-bit vectors
# (src/nn/mlp.cpp) and the int8 head serves the scalar body
# (src/nn/kernels/). The head must stay bit-equal to the textbook layer
# and detect to the per-candidate reference (tests/per_candidate_detect.h)
# there, and the scalar int8 body must pass the quantization suite it
# serves.
cmake -B build-lane -S . -DDARPA_NATIVE_SIMD=OFF
cmake --build build-lane -j "$JOBS" --target darpa_tests
ctest_suites build-lane 'MlpBatchTest|QuantizeTest|DescriptorPlanTest|OneStageTest'

echo "== frozen benchmark build (build-perfbench/) =="
# perfbench/ (the repository benchmark, see BENCHMARK.json) links src/
# through its own CMake project and is never edited with it. Building it
# here makes a src/ change that breaks the API perfbench reads fail CI,
# not the next benchmark run.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$JOBS" --target perfbench

if [ "${SKIP_BENCH:-0}" != "1" ]; then
  echo "== bench smoke (--quick) =="
  # Every bench binary runs once at reduced scale. Benches exit non-zero
  # when one of their modeled contracts fails (e.g. bench_pipeline_cache's
  # cache-coverage contract), so this lane is fatal.
  for bench in build/bench/bench_*; do
    [ -x "$bench" ] || continue
    echo "-- $(basename "$bench") --quick"
    "$bench" --quick > /dev/null
  done

  echo "== perf smoke, Release (build-perf/) =="
  # The hot-path bench asserts real speedups (batched GEMM >= 3x, the
  # AVX2 int8 body >= 2x the scalar body, detect >= 1.7x, each the median
  # of interleaved per-round ratios) and zero steady-state allocations. The
  # fleet-throughput bench gates only exact or roomy quantities: the
  # 256-session digest is equal at W=1 and W=4, the WebView stage mix
  # shifts from lint to CV, a 1,024-session fleet peaks under 128 MB
  # RSS (a fleet whose budget
  # exceeds MemAvailable is refused, not built), the W=1 256-session
  # row serves >= 95 % of its view blocks from the view block cache (one
  # thread's alloc/free sequence, so the share is exact: 0.5772 when every
  # finished session kept its phone), and the shared-population tier-off
  # 256-session row walks the view tree on <= 0.4192 fingerprint probes
  # per analysis (each session's walks follow from its own event stream,
  # so the value is exact at any W: 0.5055 when the memo held one window
  # and every AUI pop re-walked the window beneath); its wall-clock rows
  # are reported, not gated. The speedups only mean something under
  # optimization, so this lane builds Release (-O3) with warnings as errors
  # (the Release build is warning-free too) and runs both benches at
  # --quick scale. Fatal on contract failure. The two binaries share the
  # trained-model cache in build-perf/bench, so the fleet bench reuses the
  # hot-path bench's model.
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build build-perf -j "$JOBS" \
    --target bench_detector_hotpath --target bench_fleet_throughput
  (cd build-perf/bench && ./bench_detector_hotpath --quick)
  (cd build-perf/bench && ./bench_fleet_throughput --quick)

  # Both perf benches persist their measured numbers as JSON next to the
  # binary; the lane fails if either artifact is missing and then publishes
  # both at the repo root, where they are committed, so perf regressions
  # are diffable across runs and commits without re-running the lane.
  for artifact in BENCH_detector.json BENCH_fleet.json; do
    if [ ! -f "build-perf/bench/$artifact" ]; then
      echo "FAIL: perf lane did not produce $artifact" >&2
      exit 1
    fi
    cp "build-perf/bench/$artifact" "./$artifact"
    echo "-- published $artifact"
  done

  echo "== perf floor gate (BENCH_detector.json) =="
  # One check per regression it exists to catch. They complement the
  # bench's own contracts (forward >= 3x, detect >= 1.7x, an AVX2 int8
  # body >= 2x the scalar body), which are set far looser.
  # - "The fp32 head lost its register tile": a floor on forward_speedup,
  #   the median of the bench's 7 interleaved per-round ratios of the
  #   per-row forward() loop over forwardBatch. An absolute ns ceiling
  #   cannot see this regression, because host drift moves both sides:
  #   over 27 runs each on the reference host, the register-tile kernel
  #   read 104-183 ns/candidate and the one-unit-per-pass kernel it
  #   replaced 172-331 ns. The ratio read 7.9-10.3 and 5.4-6.6; the floor
  #   sits between them. Its per-row denominator read 1,047-1,629 ns with
  #   the new kernel and 1,064-1,944 ns with the old one, so the ratio
  #   tracks the batched kernel. (A 1-unit x 16-row register block reads
  #   6.4-7.9 and fails the floor one run in three; a 1-unit x 64-row
  #   block reads 7.6-9.5, ~11 % slower than the 4-unit block, and
  #   passes.)
  # - "The batched detect lost its tiling": a floor on detect_speedup,
  #   the median of 7 interleaved per-round ratios of the per-candidate
  #   detect of tests/per_candidate_detect.h over the tiled detect(). Over
  #   48 runs on the reference host it read 2.54-3.60; detect tiles of 32,
  #   16, 8 and 1 candidates instead of 64 (scratch mutations) read
  #   2.41-2.55, 1.93-2.35, 1.40-1.46 and 1.03-1.09. The floor fails tiles of 8
  #   candidates or fewer every run and 16-candidate tiles 5 runs in 6.
  #   The old absolute ceiling (17 ms on detect_batched_ms_per_image)
  #   could not: one-candidate tiles read 15.4-18.6 ms there, against
  #   4.3-8.3 ms for 64-candidate tiles.
  # - "The Release build does not run the AVX2 int8 body": on a host
  #   whose /proc/cpuinfo lists avx2, int8_kernel_lane must read avx2,
  #   an exact check. The int8 body is chosen at compile time, so this
  #   fails when -march=native stops reaching the kernels. An AVX2 body
  #   that runs at scalar speed fails the bench's own >= 2x contract.
  # - "The capture's opaque runs lost their vector stores": a floor on
  #   fill_speedup, the median of 7 interleaved per-round ratios of a
  #   row-by-row std::fill over Canvas::fillRect on a 360x720 frame (the
  #   canvas stores through gfx::fillPixels, 8 pixels at a time). Over 12
  #   runs each on the reference host, the helper read 3.10-4.76 and a
  #   scratch mutation that points it at std::fill read 0.47-0.60; the
  #   floor sits between them.
  python3 - <<'PYEOF'
import json, sys

d = json.load(open("BENCH_detector.json"))
failed = False
for key, floor in [("forward_speedup", 7.0), ("fill_speedup", 1.5),
                   ("detect_speedup", 2.2)]:
    value = d.get(key)
    if value is None or value < 0:
        print(f"FAIL: perf floor gate: {key} missing from BENCH_detector.json")
        failed = True
    elif value < floor:
        print(f"FAIL: perf floor gate: {key} = {value:.2f}x below the "
              f"{floor:.2f}x floor")
        failed = True
    else:
        print(f"perf floor OK: {key} = {value:.2f}x >= {floor:.2f}x")
try:
    host_avx2 = "avx2" in open("/proc/cpuinfo").read().split()
except OSError:
    host_avx2 = False
lane = d.get("int8_kernel_lane")
if host_avx2 and lane != "avx2":
    print(f"FAIL: perf floor gate: int8_kernel_lane = {lane} on an AVX2 "
          f"host; the build must run the avx2 int8 body")
    failed = True
else:
    print(f"perf floor OK: int8_kernel_lane = {lane}"
          f"{' (AVX2 host)' if host_avx2 else ''}")
sys.exit(1 if failed else 0)
PYEOF
else
  SKIPPED+=("bench smoke and Release perf lanes (SKIP_BENCH=1)")
fi

echo "== thread-safety (clang -Wthread-safety, errors) =="
# Compile-time concurrency proof over the GUARDED_BY/EXCLUDES annotations
# on util::Mutex (util/mutex.h, util/thread_annotations.h). Clang-only:
# GCC compiles the annotations away, so the lane configures its own
# clang++ tree. Library target only — the annotations all live in src/.
# DARPA_NATIVE_SIMD stays off so the lane builds on any host clang without
# -march surprises.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DDARPA_THREAD_SAFETY=ON -DDARPA_NATIVE_SIMD=OFF
  cmake --build build-tsa -j "$JOBS" --target darpa
else
  echo "clang++ not installed; skipping thread-safety lane"
  SKIPPED+=("clang -Wthread-safety lane (clang++ not installed)")
fi

echo "== clang-tidy (fatal: bugprone-*/performance-* are errors) =="
# The curated bugprone-*/performance-* set is promoted to errors via
# WarningsAsErrors in .clang-tidy; the advisory modernize/readability
# checks still only warn. tidy.sh exits 0 with a notice when clang-tidy
# is not installed, so non-LLVM machines skip rather than fail.
scripts/tidy.sh build
if ! command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
  SKIPPED+=("clang-tidy lane (clang-tidy not installed)")
fi

echo "== skipped lanes =="
if [ ${#SKIPPED[@]} -eq 0 ]; then
  echo "none: every lane ran"
else
  for lane in "${SKIPPED[@]}"; do echo "SKIPPED: $lane"; done
fi
echo "CI OK"
