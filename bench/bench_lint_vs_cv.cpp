// Bench — static lint vs CV vs lint-prefiltered CV over live sessions.
//
// Three detection modes over the same 100 one-minute Monkey sessions:
//   lint-only      every stable screen judged from its view dump alone;
//   CV-only        the paper's pipeline (screenshot + one-stage detector);
//   lint -> CV     the DarpaService pre-filter: confident lint verdicts
//                  short-circuit the screenshot + CV stage, unconfident
//                  screens fall through to the full CV path.
// Each mode's accuracy is scored against the sessions' AUI-exposure ground
// truth, and its cost is modeled with the DeviceModel's per-operation
// CPU-millisecond accounting (the same constants behind Table VII).
#include <cstdio>

#include "bench_runtime.h"
#include "perf/device_model.h"

using namespace darpa;

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader(
      "Lint vs CV — static pre-filter accuracy and modeled cost");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");
  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();

  // Pass 1: plain DARPA (CV on every stable screen); the same screens are
  // independently scored by the lint engine and the FraudDroid baseline.
  bench::RuntimeOptions base;
  base.appCount = bench::scaled(100, 8);
  // Cache off in both passes: this bench isolates the lint pre-filter's
  // saving, which the verdict cache would otherwise partially absorb.
  base.darpaConfig.verdictCacheCapacity = 0;
  base.lintScorer = &engine;
  base.runFraudDroid = true;
  const bench::RuntimeResult plain = bench::runSessions(detector, base);

  // Pass 2: identical sessions (same seed), lint pre-filter wired into the
  // service so confident verdicts skip the screenshot + CV stage.
  bench::RuntimeOptions prefiltered = base;
  prefiltered.lintScorer = nullptr;
  prefiltered.runFraudDroid = false;
  prefiltered.darpaConfig.lintPrefilter = &engine;
  const bench::RuntimeResult hybrid = bench::runSessions(detector, prefiltered);

  std::printf("\n  verdicts on %lld analyzed screens (%d AUI / %d non-AUI):\n",
              static_cast<long long>(plain.fleet.ledger.counts().analysesRun),
              plain.darpa.labeledAui(), plain.darpa.labeledNonAui());
  bench::printConfusion("lint-only", plain.lint);
  bench::printConfusion("CV-only", plain.darpa);
  bench::printConfusion("lint -> CV", hybrid.darpa);
  bench::printConfusion("FraudDroid-like", plain.fraudDroid);

  // Modeled work straight off the ledgers (the same CPU-ms the pipeline
  // priced while it ran, via the one kStageCosts table).
  using core::Stage;
  const core::StageCosts& costs = core::kStageCosts;
  const double macs = detector.costMacsPerImage();
  const double cvPerScreen = costs.screenshotCpuMs + macs / costs.macsPerCpuMs;
  const double lintOnlyMs =
      static_cast<double>(plain.fleet.ledger.counts().analysesRun) * costs.lintCpuMs;
  const core::WorkLedger& plainLedger = plain.fleet.ledger;
  const core::WorkLedger& hybridLedger = hybrid.fleet.ledger;
  const double cvOnlyMs = plainLedger.tally(Stage::kScreenshot).cpuMs +
                          plainLedger.tally(Stage::kDetect).cpuMs;
  const double hybridMs = hybridLedger.tally(Stage::kLint).cpuMs +
                          hybridLedger.tally(Stage::kScreenshot).cpuMs +
                          hybridLedger.tally(Stage::kDetect).cpuMs;

  std::printf("\n  modeled analysis cost (device CPU-ms over all sessions):\n");
  std::printf("    %-14s %12.1f ms   (%.3f ms/screen)\n", "lint-only",
              lintOnlyMs, costs.lintCpuMs);
  std::printf("    %-14s %12.1f ms   (%.3f ms/screen)\n", "CV-only", cvOnlyMs,
              cvPerScreen);
  std::printf("    %-14s %12.1f ms   (%lld of %lld screens fell through "
              "to CV)\n", "lint -> CV", hybridMs,
              static_cast<long long>(hybridLedger.tally(Stage::kDetect).runs),
              static_cast<long long>(hybridLedger.tally(Stage::kLint).runs));

  const double screenRatio = cvPerScreen / costs.lintCpuMs;
  const double hybridSaving =
      cvOnlyMs <= 0.0 ? 0.0 : 100.0 * (1.0 - hybridMs / cvOnlyMs);
  std::printf("\n  lint-only recall %.3f (target >= 0.70), precision %.3f\n",
              plain.lint.recall(), plain.lint.precision());
  std::printf("  per-screen cost ratio CV/lint: %.1fx (target >= 10x)\n",
              screenRatio);
  std::printf("  pre-filter cuts modeled analysis cost by %.1f%% while "
              "keeping recall %.3f vs CV-only %.3f\n", hybridSaving,
              hybrid.darpa.recall(), plain.darpa.recall());
  return 0;
}
