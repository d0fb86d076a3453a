// Benchmark plumbing shared by every workload: wall clock, percentiles,
// process memory, the paper model (load, train, provenance), and the
// result line the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cv/one_stage.h"

namespace perfbench {

namespace cv = darpa::cv;

/// Seconds on the steady clock.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in (0, 1]) over an unsorted copy.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- process memory (Linux /proc) --------------------------------------------
/// A field of /proc/self/status in KiB (e.g. "VmHWM", "VmRSS"); -1 if absent.
std::int64_t statusKb(const char* field);
/// Resets VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
bool resetPeakRss();
/// MemAvailable from /proc/meminfo in MiB; -1 if unreadable.
std::int64_t memAvailableMb();

// --- the paper model ----------------------------------------------------------
/// The one-stage detector at paper scale: the 1,072-screenshot dataset
/// (seed 2023) and the 36-epoch schedule with 150 benign images.
/// Loads `path`; when it is missing, trains once and saves it there.
cv::OneStageDetector loadOrTrainPaperModel(const std::string& path);
/// Loads `path`, or exits nonzero when it is missing or malformed.
cv::OneStageDetector loadPaperModel(const std::string& path);

/// What identifies the model a run measured. `loadModel` checks only the
/// head's dimensions, so a stale or different model file would otherwise
/// pass unnoticed between compared runs.
struct ModelProvenance {
  std::size_t modelBytes = 0;
  std::string kernelLane;
  bool quantized = false;
  std::string fileHash;  ///< FNV-1a 64 of the file's bytes, hex.
  std::int64_t fileBytes = 0;
};
ModelProvenance provenanceOf(const cv::OneStageDetector& detector,
                             const std::string& path);
void printProvenance(const ModelProvenance& p);

// --- the result line ----------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness-gate failure (the run exits nonzero).
  void fail(const std::string& why);
};

/// Prints every metric as "name value unit" and then the one-line JSON
/// object the benchmark contract reads (it must be the last stdout line).
void printResult(const Result& result);

}  // namespace perfbench
