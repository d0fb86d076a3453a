#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "dataset/dataset.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::int64_t statusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  const std::size_t len = std::strlen(field);
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoll(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

bool resetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

std::int64_t memAvailableMb() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "MemAvailable:", 13) == 0) {
      kb = std::strtoll(line + 13, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb / 1024;
}

cv::OneStageDetector loadOrTrainPaperModel(const std::string& path) {
  const darpa::cv::OneStageConfig config;
  if (auto loaded = darpa::cv::OneStageDetector::loadModel(path, config)) {
    return std::move(*loaded);
  }
  std::printf("[perfbench] training the paper model (a few minutes, once)\n");
  std::fflush(stdout);
  darpa::dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 1072;
  dataConfig.seed = 2023;
  const darpa::dataset::AuiDataset data =
      darpa::dataset::AuiDataset::build(dataConfig);
  darpa::cv::TrainConfig train;
  train.epochs = 36;
  train.benignImages = 150;
  darpa::cv::OneStageDetector detector =
      darpa::cv::OneStageDetector::train(data, config, train);
  if (!detector.saveModel(path)) {
    std::fprintf(stderr, "[perfbench] could not write the model to %s\n",
                 path.c_str());
    std::exit(2);
  }
  return detector;
}

cv::OneStageDetector loadPaperModel(const std::string& path) {
  auto loaded =
      darpa::cv::OneStageDetector::loadModel(path, darpa::cv::OneStageConfig{});
  if (!loaded) {
    std::fprintf(stderr, "[perfbench] no usable model at %s (run --prepare)\n",
                 path.c_str());
    std::exit(2);
  }
  return std::move(*loaded);
}

ModelProvenance provenanceOf(const cv::OneStageDetector& detector,
                             const std::string& path) {
  ModelProvenance p;
  p.modelBytes = detector.modelBytes();
  p.kernelLane = darpa::cv::OneStageDetector::quantizedKernelLane();
  p.quantized = detector.quantized();
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 14695981039346656037ull;
  char buf[1 << 14];
  while (in) {
    in.read(buf, sizeof buf);
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      hash ^= static_cast<unsigned char>(buf[i]);
      hash *= 1099511628211ull;
    }
    p.fileBytes += n;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
  p.fileHash = hex;
  return p;
}

void printProvenance(const ModelProvenance& p) {
  std::printf("model: modelBytes=%zu kernelLane=%s quantizedHead=%s "
              "file=%" PRId64 "B fnv1a64=%s\n",
              p.modelBytes, p.kernelLane.c_str(), p.quantized ? "yes" : "no",
              p.fileBytes, p.fileHash.c_str());
}

void Result::fail(const std::string& why) {
  correct = false;
  std::printf("GATE FAIL: %s\n", why.c_str());
}

void printResult(const Result& result) {
  for (const auto& [name, m] : result.metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %" PRId64 " failed %" PRId64 " correct %s\n",
              result.attempted, result.failed,
              result.correct ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    // %.17g keeps every digit; JSON has no NaN/Inf, so those print as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
