// Detector hot-path microbench: the batched/fused compute core's three
// contracts, measured on fixed seeded frames (exit nonzero on failure):
//
//  1. Throughput, single thread, same weights: scoring the anchor grid
//     through Mlp::forwardBatch is >= 3x faster than looping the scalar
//     forward() per candidate, the widest int8 SIMD lane is >= 2x faster
//     than the scalar int8 lane on AVX2 hosts, and end-to-end
//     OneStage::detect with the batched head is >= 1.7x faster than the
//     scalar per-candidate path. Each gate times its sides in alternating
//     order over kAbRounds rounds and takes the median of the per-round
//     ratios, so host drift during the run lands on every side instead of
//     in the ratio.
//  2. Bit-equality — the batched path's detections are byte-identical to
//     the scalar path's on every bench frame (the speedup is a pure
//     reorganization, not an approximation).
//  3. Zero steady-state allocations — after one warm-up pass per frame
//     size, repeated batched detects never grow the thread's scratch
//     arenas (descriptor matrix, GEMM ping-pong buffers, feature planes).
//
// Results land in BENCH_detector.json (throughput, ns/candidate,
// allocs/frame) for trend tracking. Its absolute times are each side's
// fastest round; its speedups are the gated median ratios.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cv/features.h"
#include "nn/kernels/int8_kernels.h"
#include "nn/mlp.h"
#include "nn/quantize.h"

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

  printHeader("Detector hot path: batched GEMM + fused features");
  const dataset::AuiDataset data = paperDataset();
  const cv::OneStageDetector detector = trainOrLoadOneStage(data, "default");

  // Same weights through the scalar per-candidate path.
  const std::string scalarPath =
      artifactPath("darpa_model_hotpath_scalar.bin");
  if (!detector.saveModel(scalarPath)) {
    std::printf("FAIL: could not stage scalar-path model copy\n");
    return 1;
  }
  cv::OneStageConfig scalarConfig;
  scalarConfig.batchedHead = false;
  auto scalarDetector =
      cv::OneStageDetector::loadModel(scalarPath, scalarConfig);
  std::remove(scalarPath.c_str());
  if (!scalarDetector.has_value()) {
    std::printf("FAIL: could not load scalar-path model copy\n");
    return 1;
  }

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

  // --- contract 1c: int8 kernel lanes (roofline + >= 2x SIMD) -------------
  // The quantized head through every kernel lane the host supports. The
  // scalar lane IS the PR 5 kernel (exact int32 tile GEMM, relocated to
  // src/nn/kernels/); the dispatched SIMD lane must beat it >= 2x on an
  // AVX2 host, with byte-identical logits — the speedup is pure lane
  // width, never arithmetic drift.
  using nn::kernels::Int8Lane;
  const char* activeLaneName =
      nn::kernels::laneName(nn::kernels::activeInt8Lane());
  std::vector<std::vector<float>> calibration;
  for (int r = 0; r < std::min(rows, 256); ++r) {
    const float* d =
        descriptors.data() + static_cast<std::size_t>(r) * cv::kCandidateFeatureDim;
    calibration.emplace_back(d, d + cv::kCandidateFeatureDim);
  }
  const nn::QuantizedMlp quantizedHead =
      nn::QuantizedMlp::fromMlp(head, calibration);

  // Roofline accounting per forwardBatch call, summed over layers.
  // MACs are the logical int8 multiply-accumulates; bytes are the unique
  // traffic: float activations in, quantized matrix written + read back,
  // packed weights + bias streamed, float outputs written.
  double int8Macs = 0.0;
  double int8Bytes = 0.0;
  for (const nn::QuantizedLayer& layer : quantizedHead.layers()) {
    int8Macs += static_cast<double>(rows) * layer.inSize * layer.outSize;
    int8Bytes += static_cast<double>(rows) *
                     (4.0 * layer.inSize + 2.0 * layer.paddedInSize +
                      4.0 * layer.outSize) +
                 static_cast<double>(layer.outSize) *
                     (layer.paddedInSize + 4.0);
  }

  struct LaneResult {
    Int8Lane lane = Int8Lane::kScalar;
    bool supported = false;
    double ms = 0.0;
    double nsPerCandidate = 0.0;
    double gmacs = 0.0;
  };
  std::vector<float> laneLogits(static_cast<std::size_t>(rows) *
                                quantizedHead.outputSize());
  std::vector<float> scalarLaneLogits;
  LaneResult laneResults[nn::kernels::kInt8LaneCount];
  std::vector<Int8Lane> timedLanes;  ///< Supported lanes, scalar first.
  std::vector<std::function<void()>> laneSides;
  std::printf("\n  int8 GEMM kernel lanes, %d candidates x %d reps "
              "(dispatch resolved: %s):\n",
              rows, forwardReps, activeLaneName);
  for (const Int8Lane lane :
       {Int8Lane::kScalar, Int8Lane::kSse4, Int8Lane::kAvx2}) {
    LaneResult& result = laneResults[static_cast<int>(lane)];
    result.lane = lane;
    result.supported = nn::kernels::laneSupported(lane);
    if (!result.supported) {
      std::printf("    %-6s unsupported on this host; skipped\n",
                  nn::kernels::laneName(lane));
      continue;
    }
    const nn::kernels::Int8Kernel* kernel = &nn::kernels::kernelForLane(lane);
    // Warm the scratch and check bit-equality before any timing.
    quantizedHead.forwardBatchWithKernel(descriptors, rows, laneLogits,
                                         scratch, *kernel);
    if (lane == Int8Lane::kScalar) {
      scalarLaneLogits = laneLogits;
    } else if (std::memcmp(scalarLaneLogits.data(), laneLogits.data(),
                           laneLogits.size() * sizeof(float)) != 0) {
      std::printf("FAIL: %s lane logits differ from scalar lane\n",
                  nn::kernels::laneName(lane));
      failed = true;
    }
    timedLanes.push_back(lane);
    laneSides.emplace_back([&, kernel] {
      for (int rep = 0; rep < forwardReps; ++rep) {
        quantizedHead.forwardBatchWithKernel(descriptors, rows, laneLogits,
                                             scratch, *kernel);
        sink = sink + laneLogits[0];
      }
    });
  }
  const std::vector<std::vector<double>> laneMs = interleavedMs(laneSides);
  double int8SimdSpeedup = 1.0;
  for (std::size_t i = 0; i < timedLanes.size(); ++i) {
    LaneResult& result = laneResults[static_cast<int>(timedLanes[i])];
    result.ms = fastest(laneMs[i]);
    result.nsPerCandidate = 1e6 * result.ms / totalRows;
    result.gmacs = int8Macs * forwardReps / (result.ms * 1e6);
    std::printf(
        "    %-6s %9.2f ms  (%7.1f ns/candidate, %6.2f GMAC/s, "
        "%2d MACs/instr)\n",
        nn::kernels::laneName(result.lane), result.ms, result.nsPerCandidate,
        result.gmacs,
        nn::kernels::kernelForLane(result.lane).macsPerInstruction);
    if (i > 0) {  // timedLanes[0] is the scalar lane
      const std::vector<double> laneRatios = ratios(laneMs[0], laneMs[i]);
      printRatios(laneRatios);
      int8SimdSpeedup = std::max(int8SimdSpeedup, median(laneRatios));
    }
  }
  const double int8Intensity = int8Macs / int8Bytes;
  std::printf(
      "    arith intensity %.2f MAC/byte; SIMD speedup %.2fx median over "
      "scalar lane (contract: >= 2x when AVX2 is available)\n",
      int8Intensity, int8SimdSpeedup);
  if (nn::kernels::laneSupported(Int8Lane::kAvx2) && int8SimdSpeedup < 2.0) {
    std::printf("FAIL: int8 SIMD lane speedup %.2fx < 2x\n", int8SimdSpeedup);
    failed = true;
  }

  // --- fused feature pass vs naive per-channel timing ---------------------
  // The pre-fusion shape rebuilt for comparison: five separate traversals
  // (one FeatureMap per single channel costs one full pass each).
  const int featureReps = scaled(20, 5);
  const std::vector<std::vector<double>> featureMs = interleavedMs({
      [&] {
        for (int rep = 0; rep < featureReps; ++rep) {
          const cv::FeatureMap m(frames[0], cv::ChannelSet::all(), 2);
          sink = sink + m.globalMean(cv::Channel::kLuma);
        }
      },
      [&] {
        for (int rep = 0; rep < featureReps; ++rep) {
          for (int c = 0; c < cv::kChannelCount; ++c) {
            const cv::Channel one[] = {static_cast<cv::Channel>(c)};
            const cv::FeatureMap m(frames[0], cv::ChannelSet::only(one), 2);
            sink = sink + m.globalMean(one[0]);
          }
        }
      },
  });
  const double fusedFeatureMs = fastest(featureMs[0]);
  const double naiveFeatureMs = fastest(featureMs[1]);
  std::printf(
      "\n  FeatureMap build x %d reps: fused %8.2f ms, per-channel %8.2f ms "
      "(%.2fx median)\n",
      featureReps, fusedFeatureMs, naiveFeatureMs,
      median(ratios(featureMs[1], featureMs[0])));

  // --- contract 2: bit-equality on every frame ----------------------------
  std::vector<std::vector<cv::Detection>> batchedDets;
  for (const gfx::Bitmap& frame : frames) {
    batchedDets.push_back(detector.detect(frame));
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!detectionsEqual(batchedDets[i], scalarDetector->detect(frames[i]))) {
      std::printf("FAIL: batched detections differ from scalar on frame %zu\n",
                  i);
      failed = true;
    }
  }
  if (!failed) {
    std::printf("\n  detections byte-identical, batched vs scalar, on %zu "
                "frames\n",
                frames.size());
  }

  // --- contract 1b: end-to-end detect speedup -----------------------------
  const int detectReps = scaled(6, 2);
  const std::vector<std::vector<double>> detectMs = interleavedMs({
      [&] {
        for (int rep = 0; rep < detectReps; ++rep) {
          for (const gfx::Bitmap& frame : frames) {
            sink = sink +
                   static_cast<float>(scalarDetector->detect(frame).size());
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
  // Floor 1.7x, not 2x: the ratio's denominator (the scalar per-candidate
  // fp32 head) is link-layout-sensitive — measured 1.9x-2.6x across opt
  // levels and otherwise-identical builds while the *batched* absolute
  // time only improved. 1.7x still fails hard if batching breaks (the
  // ratio reads ~1x then); absolute end-to-end regression is gated
  // separately by ci.sh's perf floor over detect_batched_ms_per_image.
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
    // Kernel-lane roofline: the resolved dispatch lane, per-lane time and
    // throughput, and the knobs a roofline plot needs (logical int8 MACs,
    // unique bytes, per-instruction peak; peak GOPS = peak_gops_per_ghz x
    // the host's sustained clock). Unsupported lanes report -1 so the
    // schema is host-independent.
    std::fprintf(f,
                 "  \"int8_kernel_lane\": \"%s\",\n"
                 "  \"int8_macs_per_candidate\": %.0f,\n"
                 "  \"int8_bytes_per_candidate\": %.1f,\n"
                 "  \"int8_arith_intensity_macs_per_byte\": %.3f,\n"
                 "  \"int8_simd_speedup\": %.3f,\n",
                 activeLaneName, int8Macs / rows, int8Bytes / rows,
                 int8Intensity, int8SimdSpeedup);
    for (const LaneResult& result : laneResults) {
      const nn::kernels::Int8Kernel& kernel =
          nn::kernels::kernelForLane(result.lane);
      const char* name = nn::kernels::laneName(result.lane);
      // Peak GOPS per GHz: 2 ops/MAC x MACs/instruction x 2 madd issues
      // per cycle (Haswell+ port 0+1; the scalar lane gets 1).
      const int issueWidth = result.lane == Int8Lane::kScalar ? 1 : 2;
      std::fprintf(
          f,
          "  \"int8_lane_%s_ns_per_candidate\": %.2f,\n"
          "  \"int8_lane_%s_gops\": %.2f,\n"
          "  \"int8_lane_%s_peak_gops_per_ghz\": %d,\n",
          name, result.supported ? result.nsPerCandidate : -1.0, name,
          result.supported ? 2.0 * result.gmacs : -1.0, name,
          2 * kernel.macsPerInstruction * issueWidth);
    }
    std::fprintf(
        f,
        "  \"feature_fused_ms\": %.3f,\n"
        "  \"feature_per_channel_ms\": %.3f,\n"
        "  \"detect_scalar_ms_per_image\": %.3f,\n"
        "  \"detect_batched_ms_per_image\": %.3f,\n"
        "  \"detect_speedup\": %.3f,\n"
        "  \"steady_state_allocs_per_frame\": %.4f,\n"
        "  \"steady_state_scratch_growths\": %lld\n"
        "}\n",
        fusedFeatureMs, naiveFeatureMs, scalarDetectMs / detectImages,
        batchedDetectMs / detectImages, detectSpeedup, allocsPerFrame,
        static_cast<long long>(steadyGrowths));
    std::fclose(f);
    std::printf("  wrote %s\n", jsonPath.c_str());
  }

  if (failed) return 1;
  std::printf("\n  contract PASSED\n");
  return 0;
}
