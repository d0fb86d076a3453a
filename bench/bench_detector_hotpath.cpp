// Detector hot-path microbench: the batched compute core's three
// contracts, measured on fixed seeded frames (exit nonzero on failure):
//
//  1. Throughput, single thread, same weights: scoring the anchor grid
//     through Mlp::forwardBatch is >= 3x faster than looping the scalar
//     forward() per candidate, the int8 body the build compiles in is
//     >= 2x faster than the scalar int8 body when it is AVX2, and
//     end-to-end OneStageDetector::detect is >= 1.7x faster than the
//     per-candidate detect of tests/per_candidate_detect.h. Each gate times
//     its sides in alternating order over kAbRounds rounds and takes the
//     median of the per-round ratios, so host drift during the run lands
//     on every side instead of in the ratio.
//  2. Bit-equality — detect()'s detections are byte-identical to the
//     per-candidate detect's on every bench frame (the speedup is a pure
//     reorganization, not an approximation).
//  3. Zero steady-state allocations — after one warm-up pass per frame
//     size, repeated batched detects never grow the thread's scratch
//     arenas (descriptor matrix, GEMM ping-pong buffers, feature planes).
//
// It also times the capture and the first detect layer on their own:
// WindowManager::composite over generated screens and the FeatureMap build
// over the bench frames, and the capture's opaque pixel fill
// (Canvas::fillRect against std::fill over a 360x720 frame, as an in-run
// ratio that scripts/ci.sh's perf floor gate reads), and a fresh thread's
// first detect next to its second (reported, not gated). Results land in
// BENCH_detector.json (throughput, ns/candidate, allocs/frame, layer ms)
// for trend tracking. Its absolute times are each side's fastest round;
// its speedups are the median per-round ratios.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "android/window_manager.h"
#include "apps/screen_generator.h"
#include "bench_common.h"
#include "cv/features.h"
#include "gfx/bitmap.h"
#include "gfx/canvas.h"
#include "nn/kernels/int8_kernels.h"
#include "nn/mlp.h"
#include "nn/quantize.h"
#include "per_candidate_detect.h"

namespace darpa::bench {
namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rounds per interleaved comparison; odd, so the median is one round.
constexpr std::size_t kAbRounds = 7;

/// Wall times in ms of each side over kAbRounds rounds, indexed
/// [side][round]. Every round times every side once, starting one side
/// later than the round before (A,B then B,A for two sides).
std::vector<std::vector<double>> interleavedMs(
    const std::vector<std::function<void()>>& sides) {
  std::vector<std::vector<double>> ms(sides.size(),
                                      std::vector<double>(kAbRounds));
  for (std::size_t round = 0; round < kAbRounds; ++round) {
    for (std::size_t k = 0; k < sides.size(); ++k) {
      const std::size_t side = (round + k) % sides.size();
      const double start = nowMs();
      sides[side]();
      ms[side][round] = nowMs() - start;
    }
  }
  return ms;
}

double fastest(const std::vector<double>& ms) {
  return *std::min_element(ms.begin(), ms.end());
}

/// Per-round speedups slow[r] / fast[r].
std::vector<double> ratios(const std::vector<double>& slow,
                           const std::vector<double>& fast) {
  std::vector<double> out(slow.size());
  for (std::size_t r = 0; r < slow.size(); ++r) out[r] = slow[r] / fast[r];
  return out;
}

/// Median of an odd number of values.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void printRatios(const std::vector<double>& perRound) {
  std::printf("    per-round ratios:");
  for (const double ratio : perRound) std::printf(" %.2f", ratio);
  std::printf("\n");
}

bool detectionsEqual(const std::vector<cv::Detection>& a,
                     const std::vector<cv::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].box.x != b[i].box.x || a[i].box.y != b[i].box.y ||
        a[i].box.width != b[i].box.width ||
        a[i].box.height != b[i].box.height || a[i].label != b[i].label ||
        a[i].confidence != b[i].confidence) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace darpa::bench

int main(int argc, char** argv) {
  using namespace darpa;
  using namespace darpa::bench;
  initFromArgs(argc, argv);

  printHeader("Detector hot path: batched GEMM, layer times");
  const dataset::AuiDataset data = paperDataset();
  const cv::OneStageDetector detector = trainOrLoadOneStage(data, "default");

  // Fixed seeded frames: a mix of dataset AUI screens and benign screens.
  std::vector<gfx::Bitmap> frames;
  const int frameCount = scaled(12, 4);
  for (int i = 0; i < frameCount; ++i) {
    if (i % 2 == 0 && static_cast<std::size_t>(i / 2) <
                          data.testIndices().size()) {
      frames.push_back(
          data.materialize(data.testIndices()[static_cast<std::size_t>(i / 2)])
              .image);
    } else {
      frames.push_back(dataset::materializeBenign(
                           9000 + static_cast<std::uint64_t>(i), {360, 720},
                           i % 4 == 1)
                           .image);
    }
  }

  bool failed = false;

  // --- contract 1a: batched MLP scoring throughput ------------------------
  // Real descriptors: every anchor-grid candidate of the first frame.
  const std::vector<Rect> boxes = detector.candidateBoxes(frames[0].size());
  const cv::FeatureMap map(frames[0], detector.config().channels,
                           detector.config().featureScale);
  const int rows = static_cast<int>(boxes.size());
  std::vector<float> descriptors(static_cast<std::size_t>(rows) *
                                 cv::kCandidateFeatureDim);
  for (int r = 0; r < rows; ++r) {
    cv::candidateFeaturesInto(
        map, boxes[static_cast<std::size_t>(r)],
        std::span<float>(descriptors.data() +
                             static_cast<std::size_t>(r) *
                                 cv::kCandidateFeatureDim,
                         cv::kCandidateFeatureDim));
  }
  const nn::Mlp& head = detector.head();
  std::vector<float> logits(static_cast<std::size_t>(rows) *
                            head.outputSize());
  nn::ForwardScratch scratch;
  const int forwardReps = scaled(40, 8);
  volatile float sink = 0.0f;

  const std::vector<std::vector<double>> forwardMs = interleavedMs({
      [&] {
        for (int rep = 0; rep < forwardReps; ++rep) {
          for (int r = 0; r < rows; ++r) {
            const std::vector<float> out = head.forward(std::span<const float>(
                descriptors.data() +
                    static_cast<std::size_t>(r) * cv::kCandidateFeatureDim,
                cv::kCandidateFeatureDim));
            sink = sink + out[0];
          }
        }
      },
      [&] {
        for (int rep = 0; rep < forwardReps; ++rep) {
          head.forwardBatch(descriptors, rows, logits, scratch);
          sink = sink + logits[0];
        }
      },
  });
  const double scalarForwardMs = fastest(forwardMs[0]);
  const double batchedForwardMs = fastest(forwardMs[1]);
  const std::vector<double> forwardRatios = ratios(forwardMs[0], forwardMs[1]);
  const double totalRows = static_cast<double>(rows) * forwardReps;
  const double forwardSpeedup = median(forwardRatios);
  std::printf(
      "\n  MLP scoring, %d candidates x %d reps (single thread, fastest of %zu "
      "interleaved rounds):\n"
      "    scalar  %9.2f ms  (%8.0f rows/s, %7.1f ns/candidate)\n"
      "    batched %9.2f ms  (%8.0f rows/s, %7.1f ns/candidate)\n"
      "    speedup %.2fx median (contract: >= 3x)\n",
      rows, forwardReps, kAbRounds, scalarForwardMs,
      totalRows / (scalarForwardMs / 1000.0),
      1e6 * scalarForwardMs / totalRows, batchedForwardMs,
      totalRows / (batchedForwardMs / 1000.0),
      1e6 * batchedForwardMs / totalRows, forwardSpeedup);
  printRatios(forwardRatios);
  if (forwardSpeedup < 3.0) {
    std::printf("FAIL: batched forward speedup %.2fx < 3x\n", forwardSpeedup);
    failed = true;
  }

  // --- contract 1c: int8 head, compiled body vs scalar body ---------------
  // The quantized head through the body this build compiles in
  // (forwardBatch) and through the scalar body (forwardBatchScalar). An
  // AVX2 body must beat the scalar body >= 2x, with byte-identical logits
  // — the speedup is pure vector width, never arithmetic drift.
  const char* int8Body = nn::kernels::kCompiledInt8Body;
  std::vector<std::vector<float>> calibration;
  for (int r = 0; r < std::min(rows, 256); ++r) {
    const float* d =
        descriptors.data() + static_cast<std::size_t>(r) * cv::kCandidateFeatureDim;
    calibration.emplace_back(d, d + cv::kCandidateFeatureDim);
  }
  const nn::QuantizedMlp quantizedHead =
      nn::QuantizedMlp::fromMlp(head, calibration);
  const std::size_t int8Outputs =
      static_cast<std::size_t>(rows) * quantizedHead.outputSize();
  std::vector<float> int8ScalarLogits(int8Outputs);
  std::vector<float> int8Logits(int8Outputs);
  // Warm the scratch and check bit-equality before any timing.
  quantizedHead.forwardBatchScalar(descriptors, rows, int8ScalarLogits,
                                   scratch);
  quantizedHead.forwardBatch(descriptors, rows, int8Logits, scratch);
  if (std::memcmp(int8ScalarLogits.data(), int8Logits.data(),
                  int8Outputs * sizeof(float)) != 0) {
    std::printf("FAIL: %s body logits differ from the scalar body\n",
                int8Body);
    failed = true;
  }
  const std::vector<std::vector<double>> int8Ms = interleavedMs({
      [&] {
        for (int rep = 0; rep < forwardReps; ++rep) {
          quantizedHead.forwardBatchScalar(descriptors, rows,
                                           int8ScalarLogits, scratch);
          sink = sink + int8ScalarLogits[0];
        }
      },
      [&] {
        for (int rep = 0; rep < forwardReps; ++rep) {
          quantizedHead.forwardBatch(descriptors, rows, int8Logits, scratch);
          sink = sink + int8Logits[0];
        }
      },
  });
  const double int8ScalarNs = 1e6 * fastest(int8Ms[0]) / totalRows;
  const double int8CompiledNs = 1e6 * fastest(int8Ms[1]) / totalRows;
  const std::vector<double> int8Ratios = ratios(int8Ms[0], int8Ms[1]);
  const double int8Speedup = median(int8Ratios);
  const bool int8Simd = std::strcmp(int8Body, "scalar") != 0;
  std::printf(
      "\n  int8 head, %d candidates x %d reps (fastest of %zu interleaved "
      "rounds):\n"
      "    scalar body %7.1f ns/candidate\n"
      "    %-6s body %7.1f ns/candidate (the body forwardBatch runs)\n"
      "    speedup %.2fx median (contract: >= 2x when that body is SIMD)\n",
      rows, forwardReps, kAbRounds, int8ScalarNs, int8Body, int8CompiledNs,
      int8Speedup);
  printRatios(int8Ratios);
  if (int8Simd && int8Speedup < 2.0) {
    std::printf("FAIL: int8 %s body speedup %.2fx < 2x\n", int8Body,
                int8Speedup);
    failed = true;
  }

  // --- layer timings: composite and FeatureMap ----------------------------
  // The served capture renders the live windows through
  // WindowManager::composite; the generated screens mix benign screens,
  // hard negatives, native AUIs and WebView-hosted AUIs. The FeatureMap
  // build is the first layer of every detect.
  apps::ScreenGenerator native({}, 77);
  apps::ScreenGenerator::Params webParams;
  webParams.webViewAuiProb = 0.75;
  apps::ScreenGenerator web(webParams, 1077);
  std::vector<std::unique_ptr<android::WindowManager>> screens;
  for (int i = 0; i < scaled(12, 4); ++i) {
    apps::GeneratedScreen screen =
        i % 4 == 0   ? native.makeBenign()
        : i % 4 == 1 ? native.makeHardNegative()
        : i % 4 == 2 ? native.makeAui(native.randomSpec())
                     : web.makeAui(web.randomSpec());
    auto wm = std::make_unique<android::WindowManager>();
    wm->showAppWindow("com.bench.hotpath", std::move(screen.root), false);
    screens.push_back(std::move(wm));
  }
  const int layerReps = scaled(10, 3);
  const std::vector<std::vector<double>> layerMs = interleavedMs({
      [&] {
        for (int rep = 0; rep < layerReps; ++rep) {
          for (const auto& wm : screens) {
            sink = sink + wm->composite().at(0, 0).r;
          }
        }
      },
      [&] {
        for (int rep = 0; rep < layerReps; ++rep) {
          for (const gfx::Bitmap& frame : frames) {
            const cv::FeatureMap m(frame, detector.config().channels,
                                   detector.config().featureScale);
            sink = sink + m.globalMean(cv::Channel::kLuma);
          }
        }
      },
  });
  const double compositeMsPerScreen =
      fastest(layerMs[0]) / (static_cast<double>(screens.size()) * layerReps);
  const double featureMapMsPerImage =
      fastest(layerMs[1]) / (static_cast<double>(frames.size()) * layerReps);
  std::printf(
      "\n  layer times (fastest of %zu interleaved rounds):\n"
      "    composite  %7.3f ms/screen (%zu generated screens x %d reps)\n"
      "    FeatureMap %7.3f ms/image  (%zu frames x %d reps)\n",
      kAbRounds, compositeMsPerScreen, screens.size(), layerReps,
      featureMapMsPerImage, frames.size(), layerReps);

  // --- pixel fill: std::fill against the canvas's opaque runs ------------
  // Every opaque run the compositor paints is stored by gfx::fillPixels,
  // eight pixels per vector store. GCC 12 stores a plain std::fill over the
  // 4-byte Color one pixel at a time. Both sides fill a 360x720 frame row
  // by row: std::fill here, Canvas::fillRect through the library. The
  // ratio falls to ~1 or below if the runs lose their vector stores.
  gfx::Bitmap fillFrame(360, 720);
  gfx::Canvas fillCanvas(fillFrame);
  const int fillReps = scaled(400, 100);
  auto fillSide = [&](bool canvas) {
    return [&, canvas] {
      for (int rep = 0; rep < fillReps; ++rep) {
        const Color c = Color::rgb(static_cast<std::uint8_t>(rep), 7, 9);
        if (canvas) {
          fillCanvas.fillRect(fillFrame.bounds(), c);
        } else {
          for (int y = 0; y < fillFrame.height(); ++y) {
            const std::span<Color> row = fillFrame.row(y);
            std::fill(row.begin(), row.end(), c);
          }
        }
        sink = sink + fillFrame.at(rep % fillFrame.width(), rep % 2).r;
      }
    };
  };
  const std::vector<std::vector<double>> fillMs =
      interleavedMs({fillSide(false), fillSide(true)});
  const double stdFillUsPerFrame = 1e3 * fastest(fillMs[0]) / fillReps;
  const double canvasFillUsPerFrame = 1e3 * fastest(fillMs[1]) / fillReps;
  const std::vector<double> fillRatios = ratios(fillMs[0], fillMs[1]);
  const double fillSpeedup = median(fillRatios);
  std::printf(
      "\n  opaque pixel fill, 360x720 frame x %d reps (fastest of %zu "
      "interleaved rounds):\n"
      "    std::fill by row    %7.1f us/frame\n"
      "    Canvas::fillRect    %7.1f us/frame\n"
      "    speedup %.2fx median\n",
      fillReps, kAbRounds, stdFillUsPerFrame, canvasFillUsPerFrame,
      fillSpeedup);
  printRatios(fillRatios);

  // --- contract 2: bit-equality on every frame ----------------------------
  std::vector<std::vector<cv::Detection>> batchedDets;
  for (const gfx::Bitmap& frame : frames) {
    batchedDets.push_back(detector.detect(frame));
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!detectionsEqual(batchedDets[i],
                         cv::perCandidateDetect(detector, frames[i]))) {
      std::printf("FAIL: detections differ from the per-candidate detect on "
                  "frame %zu\n",
                  i);
      failed = true;
    }
  }
  if (!failed) {
    std::printf("\n  detections byte-identical, batched vs per-candidate, "
                "on %zu frames\n",
                frames.size());
  }

  // --- contract 1b: end-to-end detect speedup -----------------------------
  const int detectReps = scaled(6, 2);
  const std::vector<std::vector<double>> detectMs = interleavedMs({
      [&] {
        for (int rep = 0; rep < detectReps; ++rep) {
          for (const gfx::Bitmap& frame : frames) {
            sink = sink + static_cast<float>(
                              cv::perCandidateDetect(detector, frame).size());
          }
        }
      },
      [&] {
        for (int rep = 0; rep < detectReps; ++rep) {
          for (const gfx::Bitmap& frame : frames) {
            sink = sink + static_cast<float>(detector.detect(frame).size());
          }
        }
      },
  });
  const double scalarDetectMs = fastest(detectMs[0]);
  const double batchedDetectMs = fastest(detectMs[1]);
  const std::vector<double> detectRatios = ratios(detectMs[0], detectMs[1]);
  const double detectImages = static_cast<double>(frames.size()) * detectReps;
  const double detectSpeedup = median(detectRatios);
  // Floor 1.7x, not 2x: the ratio's denominator (the per-candidate detect
  // of tests/per_candidate_detect.h over the fp32 head) is
  // link-layout-sensitive — measured 1.9x-2.6x across opt levels and
  // otherwise-identical builds while the *batched* absolute time only
  // improved. 1.7x still fails hard if batching breaks (the ratio reads
  // ~1x then); ci.sh's perf floor gate sets a tighter floor on the same
  // ratio for a detect that loses its tiling.
  std::printf(
      "\n  end-to-end detect, %zu frames x %d reps:\n"
      "    scalar  %9.2f ms (%6.2f ms/image)\n"
      "    batched %9.2f ms (%6.2f ms/image)\n"
      "    speedup %.2fx median (contract: >= 1.7x)\n",
      frames.size(), detectReps, scalarDetectMs, scalarDetectMs / detectImages,
      batchedDetectMs, batchedDetectMs / detectImages, detectSpeedup);
  printRatios(detectRatios);
  if (detectSpeedup < 1.7) {
    std::printf("FAIL: end-to-end detect speedup %.2fx < 1.7x\n",
                detectSpeedup);
    failed = true;
  }

  // --- contract 3: zero steady-state scratch growth -----------------------
  // The timing loops above warmed every arena for every frame size; from
  // here on, detect must never touch the heap for scratch again.
  const cv::DetectScratchStats before = cv::hotpathScratchStats();
  int steadyFrames = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const gfx::Bitmap& frame : frames) {
      sink = sink + static_cast<float>(detector.detect(frame).size());
      ++steadyFrames;
    }
  }
  const cv::DetectScratchStats after = cv::hotpathScratchStats();
  const std::int64_t steadyGrowths = after.growths - before.growths;
  const std::int64_t steadyBytes = after.grownBytes - before.grownBytes;
  const double allocsPerFrame =
      static_cast<double>(steadyGrowths) / steadyFrames;
  std::printf(
      "\n  steady state over %d frames: %lld scratch growths (%lld bytes), "
      "%.3f allocs/frame (contract: 0)\n",
      steadyFrames, static_cast<long long>(steadyGrowths),
      static_cast<long long>(steadyBytes), allocsPerFrame);
  if (steadyGrowths != 0) {
    std::printf("FAIL: batched hot path grew scratch in steady state\n");
    failed = true;
  }

  // --- a fresh thread's first detect --------------------------------------
  // Every Fleet::run() worker starts with empty per-thread arenas and an
  // empty detect plan, so its first detect builds them. Each of kFreshThreads
  // new threads times its first and its second detect of the first bench
  // frame; the medians are reported, not gated. A first detect that costs
  // several times the warm one points at state a thread pays for once (the
  // FeatureMap constructor once left the upper YMM state dirty, and glibc's
  // legacy-SSE hypotf then made each fresh plan cost ~10 ms).
  constexpr int kFreshThreads = 5;
  std::vector<double> firstDetectMs;
  std::vector<double> warmDetectMs;
  for (int t = 0; t < kFreshThreads; ++t) {
    std::thread([&] {
      for (int call = 0; call < 2; ++call) {
        const auto t0 = std::chrono::steady_clock::now();
        sink = sink + static_cast<float>(detector.detect(frames[0]).size());
        const auto t1 = std::chrono::steady_clock::now();
        (call == 0 ? firstDetectMs : warmDetectMs)
            .push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }).join();
  }
  const double firstDetectMedianMs = median(firstDetectMs);
  const double warmDetectMedianMs = median(warmDetectMs);
  std::printf(
      "\n  fresh thread, first frame (median of %d threads):\n"
      "    first detect %7.2f ms\n"
      "    second detect %6.2f ms\n",
      kFreshThreads, firstDetectMedianMs, warmDetectMedianMs);

  // --- BENCH_detector.json -------------------------------------------------
  const std::string jsonPath = artifactPath("BENCH_detector.json");
  if (std::FILE* f = std::fopen(jsonPath.c_str(), "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"quick\": %s,\n"
        "  \"candidates_per_frame\": %d,\n"
        "  \"forward_scalar_rows_per_s\": %.1f,\n"
        "  \"forward_batched_rows_per_s\": %.1f,\n"
        "  \"forward_scalar_ns_per_candidate\": %.2f,\n"
        "  \"forward_batched_ns_per_candidate\": %.2f,\n"
        "  \"forward_speedup\": %.3f,\n",
        quick() ? "true" : "false", rows,
        totalRows / (scalarForwardMs / 1000.0),
        totalRows / (batchedForwardMs / 1000.0),
        1e6 * scalarForwardMs / totalRows, 1e6 * batchedForwardMs / totalRows,
        forwardSpeedup);
    std::fprintf(f,
                 "  \"int8_kernel_lane\": \"%s\",\n"
                 "  \"int8_scalar_ns_per_candidate\": %.2f,\n"
                 "  \"int8_compiled_ns_per_candidate\": %.2f,\n"
                 "  \"int8_speedup\": %.3f,\n",
                 int8Body, int8ScalarNs, int8CompiledNs, int8Speedup);
    std::fprintf(
        f,
        "  \"composite_ms_per_screen\": %.3f,\n"
        "  \"feature_map_ms_per_image\": %.3f,\n"
        "  \"fill_std_us_per_frame\": %.2f,\n"
        "  \"fill_canvas_us_per_frame\": %.2f,\n"
        "  \"fill_speedup\": %.3f,\n"
        "  \"detect_scalar_ms_per_image\": %.3f,\n"
        "  \"detect_batched_ms_per_image\": %.3f,\n"
        "  \"detect_speedup\": %.3f,\n"
        "  \"fresh_thread_first_detect_ms\": %.3f,\n"
        "  \"fresh_thread_warm_detect_ms\": %.3f,\n"
        "  \"steady_state_allocs_per_frame\": %.4f,\n"
        "  \"steady_state_scratch_growths\": %lld\n"
        "}\n",
        compositeMsPerScreen, featureMapMsPerImage, stdFillUsPerFrame,
        canvasFillUsPerFrame, fillSpeedup, scalarDetectMs / detectImages,
        batchedDetectMs / detectImages, detectSpeedup, firstDetectMedianMs,
        warmDetectMedianMs, allocsPerFrame,
        static_cast<long long>(steadyGrowths));
    std::fclose(f);
    std::printf("  wrote %s\n", jsonPath.c_str());
  }

  if (failed) return 1;
  std::printf("\n  contract PASSED\n");
  return 0;
}
