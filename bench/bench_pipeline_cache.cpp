// Bench — the screen-fingerprint verdict cache on a repeat-screen workload.
//
// A user flipping between a handful of app screens re-stabilizes the same
// screens over and over; the paper's pipeline pays full lint + screenshot +
// CV every time. This bench runs the identical revisit workload twice —
// verdict cache off, then on — and checks the cache's contract:
//
//   * the verdict sequence is bit-identical (zero change to AUI coverage:
//     a cached verdict is the same verdict CV would have produced, and every
//     cached AUI pass still redraws its decorations);
//   * modeled perception CPU — the lint + screenshot + detect + verdict
//     stages the cache can elide — drops by at least 30 % (the act stage is
//     deliberately invariant: that is the coverage contract).
//
// Exits non-zero when a contract fails, so the CI smoke lane catches cache
// regressions.
#include <cstdio>
#include <string>
#include <vector>

#include "android/system.h"
#include "apps/screen_generator.h"
#include "bench_common.h"
#include "core/darpa_service.h"

using namespace darpa;

namespace {

struct Verdict {
  bool isAui = false;
  std::size_t detections = 0;
  bool operator==(const Verdict&) const = default;
};

struct Outcome {
  std::vector<Verdict> verdicts;
  core::WorkLedger ledger;
  std::size_t cacheSize = 0;
  std::int64_t cacheEvictions = 0;
};

constexpr int kDistinctScreens = 6;  // 3 AUI + 3 benign, revisited in a loop.

Outcome runWorkload(const cv::Detector& detector, std::size_t cacheCapacity,
                    int rounds) {
  android::AndroidSystem system;
  core::DarpaConfig config;
  config.verdictCacheCapacity = cacheCapacity;
  core::DarpaService service(detector, config);
  system.accessibility.connect(service);

  Outcome outcome;
  service.setAnalysisListener(
      [&](bool isAui, const std::vector<cv::Detection>& detections) {
        outcome.verdicts.push_back({isAui, detections.size()});
      });

  // Fixed specs for the AUI screens, drawn once; each visit regenerates its
  // screen from a generator seeded by the screen index, so every revisit
  // renders a structurally identical view tree.
  std::vector<apps::AuiSpec> specs;
  {
    apps::ScreenGenerator specSource({}, 77);
    for (int i = 0; i < kDistinctScreens / 2; ++i) {
      specs.push_back(specSource.randomSpec());
    }
  }
  for (int round = 0; round < rounds; ++round) {
    for (int s = 0; s < kDistinctScreens; ++s) {
      apps::ScreenGenerator generator({}, 1000 + static_cast<std::uint64_t>(s));
      apps::GeneratedScreen screen =
          s < kDistinctScreens / 2
              ? generator.makeAui(specs[static_cast<std::size_t>(s)])
              : generator.makeBenign();
      if (system.windowManager.appWindowCount() > 0) {
        system.windowManager.popAppWindow();
      }
      system.windowManager.showAppWindow("com.cache.app" + std::to_string(s),
                                         std::move(screen.root), false);
      system.looper.runUntil(system.clock.now() + ms(1000));
    }
  }

  outcome.ledger += service.ledger();
  outcome.cacheSize = service.verdictCache().size();
  outcome.cacheEvictions = service.verdictCache().evictions();
  return outcome;
}

void printStageRow(const core::WorkLedger& ledger, core::Stage stage) {
  const core::StageTally& t = ledger.tally(stage);
  std::printf("    %-12s %8lld runs %8lld skips %12.1f cpu-ms\n",
              std::string(core::stageName(stage)).c_str(),
              static_cast<long long>(t.runs), static_cast<long long>(t.skips),
              t.cpuMs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::initFromArgs(argc, argv);
  bench::printHeader("Verdict cache — repeat-screen workload, off vs on");
  const dataset::AuiDataset data = bench::paperDataset();
  const cv::OneStageDetector detector =
      bench::trainOrLoadOneStage(data, "default");

  const int rounds = bench::scaled(12, 3);
  std::printf("\n  workload: %d distinct screens revisited %d times each\n",
              kDistinctScreens, rounds);

  const Outcome off = runWorkload(detector, 0, rounds);
  const Outcome on = runWorkload(detector, 32, rounds);

  std::printf("\n  cache OFF (%zu analyses):\n", off.verdicts.size());
  for (const core::Stage stage : core::kAllStages) printStageRow(off.ledger, stage);
  std::printf("\n  cache ON  (%zu analyses, %lld hits / %lld misses, "
              "%zu entries, %lld evictions):\n",
              on.verdicts.size(),
              static_cast<long long>(on.ledger.cacheHits()),
              static_cast<long long>(on.ledger.cacheMisses()), on.cacheSize,
              static_cast<long long>(on.cacheEvictions));
  for (const core::Stage stage : core::kAllStages) printStageRow(on.ledger, stage);

  const auto perceptionCpu = [](const core::WorkLedger& ledger) {
    return ledger.tally(core::Stage::kLint).cpuMs +
           ledger.tally(core::Stage::kScreenshot).cpuMs +
           ledger.tally(core::Stage::kDetect).cpuMs +
           ledger.tally(core::Stage::kVerdict).cpuMs;
  };
  const double offCpu = perceptionCpu(off.ledger);
  const double onCpu = perceptionCpu(on.ledger);
  const double reduction =
      offCpu > 0.0 ? 100.0 * (offCpu - onCpu) / offCpu : 0.0;
  const bool sameVerdicts = off.verdicts == on.verdicts;
  const bool enoughSaving = reduction >= 30.0;
  const bool cacheUsed = on.ledger.cacheHits() > 0;

  std::printf(
      "\n  perception cpu (lint+shot+detect+verdict): %.1f ms -> %.1f ms "
      "(-%.1f%%, target >= 30%%)\n",
      offCpu, onCpu, reduction);
  std::printf("  total analysis cpu (incl. invariant act stage): "
              "%.1f ms -> %.1f ms\n",
              off.ledger.analysisCpuMs(), on.ledger.analysisCpuMs());
  std::printf("  verdict sequences identical: %s (coverage contract)\n",
              sameVerdicts ? "yes" : "NO");
  std::printf("  %s\n", sameVerdicts && enoughSaving && cacheUsed
                            ? "PASS: cache contract holds"
                            : "FAIL: cache contract violated");
  return sameVerdicts && enoughSaving && cacheUsed ? 0 : 1;
}
