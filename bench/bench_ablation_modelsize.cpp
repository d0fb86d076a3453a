// Ablation (§VI-D): "The overhead from AUI detection can practically be
// reduced by using a smaller network size in YOLO with potential trade-off
// of lower accuracy". Trains three head sizes on a reduced dataset and
// reports the accuracy-vs-compute trade-off on the simulated device.
#include <cstdio>

#include "bench_common.h"
#include "perf/device_model.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Ablation — detector size vs accuracy vs device cost");
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = bench::scaled(420, 96);
  dataConfig.seed = 2023;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);

  const perf::DeviceModel device;
  const struct {
    const char* name;
    std::vector<int> hidden;
  } variants[] = {
      {"tiny   (16, 8)", {16, 8}},
      {"default(48, 24)", {48, 24}},
      {"large  (96, 48)", {96, 48}},
  };

  std::printf("\n  %-18s %8s %10s %12s %10s\n", "head", "All F1", "params",
              "MMACs/img", "est. cpu%");
  for (const auto& variant : variants) {
    cv::OneStageConfig config;
    config.hiddenLayers = variant.hidden;
    // Smaller training runs need a higher operating point than the
    // full-scale model's tuned threshold.
    config.confidenceThresholdUpo = 0.3f;
    cv::TrainConfig trainConfig;
    trainConfig.epochs = bench::scaled(20, 4);
    trainConfig.benignImages = bench::scaled(80, 20);
    const cv::OneStageDetector detector =
        cv::OneStageDetector::train(data, config, trainConfig);
    const cv::ModelMetrics metrics =
        cv::evaluateDetector(detector, data, data.testIndices());
    // Device cost of one analysis per second for a minute, as a synthetic
    // ledger recorded through the pipeline's own ledger calls.
    core::WorkLedger ledger;
    for (int i = 0; i < 120; ++i) ledger.recordEvent();
    for (int i = 0; i < 60; ++i) {
      ledger.recordScreenshot(0);
      ledger.recordDetect(detector.costMacsPerImage());
    }
    const perf::PerfMetrics perfMetrics = device.withWork(ledger, ms(60'000));
    std::printf("  %-18s %8.3f %10zu %12.1f %10.1f\n", variant.name,
                metrics.all().f1(), detector.head().parameterCount(),
                detector.costMacsPerImage() / 1e6, perfMetrics.cpuPercent);
  }
  std::printf("\n  larger heads buy accuracy at a CPU cost — the knob the\n"
              "  paper suggests for tuning DARPA to weaker devices.\n");
  return 0;
}
