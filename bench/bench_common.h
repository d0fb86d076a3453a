// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints "paper vs measured" rows for one table or figure of
// the DSN'23 DARPA paper. Training the one-stage detector at paper scale
// takes minutes, so trained heads are cached on disk (next to the binary)
// and reused across bench binaries; delete darpa_model_*.bin to force a
// retrain.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "cv/one_stage.h"
#include "dataset/dataset.h"

namespace darpa::bench {

/// CI smoke mode (--quick): tiny dataset, light training schedule, few
/// sessions. Numbers are NOT paper-comparable; the point is that every
/// bench binary runs end to end in seconds.
inline bool& quickFlag() {
  static bool quick = false;
  return quick;
}
inline bool quick() { return quickFlag(); }

/// Directory the running bench binary lives in, captured from argv[0] by
/// initFromArgs. Empty when argv[0] carried no path (bare command found
/// via PATH) — artifacts then land in the CWD as before.
inline std::string& artifactDirStorage() {
  static std::string dir;
  return dir;
}

/// Anchors a bench artifact (model cache, emitted JSON, traces) next to
/// the binary instead of whatever CWD the bench was launched from — so a
/// bench run from the repo root cannot litter it with generated files.
inline std::string artifactPath(const std::string& name) {
  const std::string& dir = artifactDirStorage();
  return dir.empty() ? name : dir + "/" + name;
}

/// Parses the common bench flag (--quick) and captures the binary's
/// directory for artifactPath(). Call first thing in main().
inline void initFromArgs(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string_view self(argv[0]);
    const std::size_t slash = self.find_last_of('/');
    if (slash != std::string_view::npos) {
      artifactDirStorage() = std::string(self.substr(0, slash));
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quickFlag() = true;
  }
  if (quick()) std::printf("[bench] --quick: CI smoke mode, reduced scale\n");
}

/// `full` normally, `reduced` under --quick.
inline int scaled(int full, int reduced) { return quick() ? reduced : full; }

/// The paper-scale dataset every accuracy bench uses.
inline dataset::AuiDataset paperDataset() {
  dataset::DatasetConfig config;
  config.totalScreenshots = quick() ? 96 : 1072;
  config.seed = 2023;
  return dataset::AuiDataset::build(config);
}

/// Standard training schedule used across benches.
inline cv::TrainConfig paperTrainConfig() {
  cv::TrainConfig config;
  config.epochs = quick() ? 4 : 36;
  config.benignImages = quick() ? 20 : 150;
  return config;
}

/// Trains the default one-stage detector or loads it from the disk cache.
/// `variant` distinguishes cached heads (e.g. "default", "masked").
inline cv::OneStageDetector trainOrLoadOneStage(
    const dataset::AuiDataset& data, const std::string& variant,
    bool maskText = false) {
  const cv::OneStageConfig config;
  const std::string path = artifactPath(
      "darpa_model_" + variant + (quick() ? "_quick" : "") + ".bin");
  if (auto loaded = cv::OneStageDetector::loadModel(path, config)) {
    std::printf("[bench] loaded cached model '%s'\n", path.c_str());
    return std::move(*loaded);
  }
  std::printf("[bench] training one-stage detector ('%s', ~3-4 min)...\n",
              variant.c_str());
  std::fflush(stdout);
  cv::TrainConfig trainConfig = paperTrainConfig();
  trainConfig.maskText = maskText;
  cv::OneStageDetector detector =
      cv::OneStageDetector::train(data, config, trainConfig);
  if (detector.saveModel(path)) {
    std::printf("[bench] cached model to '%s'\n", path.c_str());
  }
  return detector;
}

/// Prints one metric row: paper reference vs measured.
inline void printMetricRow(const char* name, double paper, double measured,
                           const char* unit = "") {
  std::printf("  %-34s paper %8.3f%s   measured %8.3f%s\n", name, paper, unit,
              measured, unit);
}

inline void printHeader(const char* title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              title);
}

inline void printModelMetrics(const char* tag, const cv::ModelMetrics& m) {
  std::printf("  %-22s | UPO P=%.3f R=%.3f F1=%.3f | AGO P=%.3f R=%.3f "
              "F1=%.3f | All P=%.3f R=%.3f F1=%.3f\n",
              tag, m.upo.precision(), m.upo.recall(), m.upo.f1(),
              m.ago.precision(), m.ago.recall(), m.ago.f1(),
              m.all().precision(), m.all().recall(), m.all().f1());
}

}  // namespace darpa::bench
